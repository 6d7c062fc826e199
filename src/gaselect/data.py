"""Dataset ingestion, splitting, normalization, and a synthetic sensor rig.

Datasets are immutable once constructed: the backing arrays are marked
read-only so they can be shared freely across evaluations and threads.
``read_only`` is how a value takes an array: one the caller could still
write to is copied first, so the caller's own arrays stay writable and
unchanged. Pickling or copying a ``Dataset`` or ``SplitDataset`` rebuilds it through
its constructor, so the copy is checked again and read-only too.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .genome import Chromosome


def read_only(x) -> np.ndarray:
    """``x`` as a read-only C-contiguous float64 array nobody else can write.

    An array that already is one, and whose every base array is read-only
    too (a slice of a stored array, say), is kept as it is, without a copy.
    An array that anyone could still write to, through itself or through an
    array or buffer it views, is copied; a new array made by conversion is
    used as made.
    """
    a = np.ascontiguousarray(x, dtype=float)
    if a is x or a.base is not None:  # the caller's memory, not a conversion
        owner = a
        while isinstance(owner, np.ndarray) and not owner.flags.writeable:
            owner = owner.base
        if owner is not None:  # a writable array or another buffer
            a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Dataset:
    """Sample matrix (n_samples x n_vars), target vector, and their labels."""

    samples: np.ndarray
    target: np.ndarray
    var_names: tuple[str, ...]
    target_name: str = "target"

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.var_names == other.var_names
            and self.target_name == other.target_name
            and np.array_equal(self.samples, other.samples)
            and np.array_equal(self.target, other.target)
        )

    def __post_init__(self):
        samples, target = read_only(self.samples), read_only(self.target)
        if samples.ndim != 2:
            raise ValueError(f"samples must be 2-d, got shape {samples.shape}")
        if target.ndim != 1 or target.shape[0] != samples.shape[0]:
            raise ValueError(
                f"target length {target.shape} does not match {samples.shape[0]} rows"
            )
        names = tuple(self.var_names)
        if len(names) != samples.shape[1]:
            raise ValueError(
                f"{len(names)} var_names for {samples.shape[1]} columns"
            )
        if len(set(names)) != len(names):
            raise ValueError("var_names must be unique")
        if not np.isfinite(samples).all() or not np.isfinite(target).all():
            raise DataError("dataset contains NaN or infinite values")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "var_names", names)

    def __reduce__(self):
        return (
            self.__class__,
            (self.samples, self.target, self.var_names, self.target_name),
        )

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_vars(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True, eq=False)
class SplitDataset:
    """Train and cross-validation partitions plus train-derived norm stats.

    ``mean`` and ``sd`` (ddof 1) come from the train block and are read-only;
    a constant train column gets unit scale, with a warning, instead of
    failing, since the search should be free to find it useless. A pickled
    or copied split works them out again from the same rows, so their bits
    are the same and the warning is given again.

    Z-scoring a block by ``mean`` and ``sd`` must give finite values only,
    and so must summing the squares of each block's target: a network's SSE
    on a block starts near that sum, so an overflowing one would score every
    subset as infinite.
    """

    train: Dataset
    cv: Dataset
    mean: np.ndarray = field(init=False)
    sd: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.train.var_names != self.cv.var_names:
            raise ValueError("train and cv must share columns")
        train = self.train
        with np.errstate(over="ignore", invalid="ignore"):
            mean = train.samples.mean(axis=0)
            n = train.n_samples
            sd = train.samples.std(axis=0, ddof=1) if n > 1 else np.zeros(self.n_vars)
            constant = sd == 0
            if constant.any():
                bad = [train.var_names[i] for i in np.flatnonzero(constant)]
                warnings.warn(f"constant train columns {bad} given unit scale")
                sd = np.where(constant, 1.0, sd)
            for block, d in (("train", train), ("cv", self.cv)):
                z = (d.samples - mean) / sd
                finite = np.isfinite(z).all(axis=0) & np.isfinite(sd)
                if not finite.all():
                    name = d.var_names[int(np.argmin(finite))]
                    raise DataError(
                        f"column {name!r} overflows when z-scored in the {block} block"
                    )
                if not math.isfinite(d.target @ d.target):
                    raise DataError(
                        f"target column {d.target_name!r} overflows when squared "
                        f"in the {block} block"
                    )
        mean.setflags(write=False)
        sd.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "sd", sd)

    def __reduce__(self):
        return (self.__class__, (self.train, self.cv))

    @property
    def n_vars(self) -> int:
        return self.train.n_vars


def load_csv(path: str | Path, target_column: str) -> Dataset:
    """Read a UTF-8 comma-separated file with a header row.

    A leading byte-order mark (spreadsheet "CSV UTF-8" exports write one)
    is dropped. The named target column is stripped out of the sample
    matrix and becomes the target vector; remaining columns keep header
    order. Empty lines, such as a trailing one, are skipped; a line holding
    only spaces is a row with one cell. Error messages locate the offending
    cell with 1-based row/column numbers, counting every row of the file.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: file is empty") from None
            header = [h.strip() for h in header]
            if target_column not in header:
                raise DataError(
                    f"{path}: target column {target_column!r} not in header {header}"
                )
            if len(set(header)) != len(header):
                raise DataError(f"{path}: duplicate column names in header")
            t_idx = header.index(target_column)
            var_names = tuple(h for i, h in enumerate(header) if i != t_idx)
            if not var_names:
                raise DataError(
                    f"{path}: no sensor columns besides target {target_column!r}"
                )

            rows: list[list[float]] = []
            targets: list[float] = []
            for row_no, row in enumerate(reader, start=2):
                if not row:  # an empty line; one holding spaces has a cell
                    continue
                if len(row) != len(header):
                    raise DataError(
                        f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}"
                    )
                values = []
                for col_no, cell in enumerate(row, start=1):
                    try:
                        value = float(cell)
                    except ValueError:
                        raise DataError(
                            f"{path}: row {row_no}, column {col_no} "
                            f"({header[col_no - 1]!r}): cannot parse {cell!r}"
                        ) from None
                    if not math.isfinite(value):
                        raise DataError(
                            f"{path}: row {row_no}, column {col_no} "
                            f"({header[col_no - 1]!r}): non-finite value {cell!r}"
                        )
                    values.append(value)
                targets.append(values.pop(t_idx))
                rows.append(values)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror})") from None

    if not rows:
        raise DataError(f"{path}: no data rows")
    samples, target = np.array(rows), np.array(targets)
    samples.setflags(write=False)  # handed over: Dataset need not copy them
    target.setflags(write=False)
    return Dataset(samples, target, var_names, target_column)


def write_csv(d: Dataset, path: str | Path) -> None:
    """Write a dataset back out in the load_csv format (target column last)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(d.var_names) + [d.target_name])
        for x, y in zip(d.samples, d.target):
            writer.writerow([repr(float(v)) for v in x] + [repr(float(y))])


def split_sequential(d: Dataset, n_train: int) -> SplitDataset:
    """First ``n_train`` rows become the train block, the rest the cv block.

    The data is a time history, so blocks are kept contiguous rather than
    shuffled. The split works out its normalization stats from the train
    block; a column whose stats or z-scores overflow, or a target whose
    squares do, is a DataError (see SplitDataset).
    """
    if not 0 < n_train < d.n_samples:
        raise DataError(
            f"n_train must be in (0, {d.n_samples}), got {n_train}"
        )
    train = Dataset(d.samples[:n_train], d.target[:n_train], d.var_names, d.target_name)
    cv = Dataset(d.samples[n_train:], d.target[n_train:], d.var_names, d.target_name)
    return SplitDataset(train, cv)


def select_columns(d: Dataset, c: Chromosome) -> np.ndarray:
    """The sample matrix's columns for the chromosome's genes."""
    c.check_range(d.n_vars)
    return d.samples[:, list(c.genes)]


def normalize_apply(X: np.ndarray, mean: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """Z-score each column of X with train-derived stats."""
    if mean.shape[0] != X.shape[1]:
        raise ValueError(
            f"stats cover {mean.shape[0]} variables, X has {X.shape[1]}"
        )
    return (X - mean) / sd


def synthetic_sensors(
    n_vars: int,
    n_samples: int,
    informative: Chromosome,
    noise_sd: float,
    seed: int,
) -> Dataset:
    """Generate a level-sensor rig: some sensors track the target, most don't.

    The target is a fixed smooth trajectory (slow ramp plus a periodic
    component) that sweeps its range in both halves of the record, so a
    sequential split sees the same operating region on both sides.

    Each informative sensor responds through its own monotone nonlinearity,
    centered on a different quantile of the trajectory (sensors mounted at
    different heights saturate over different ranges), with its own affine
    scale/offset plus Gaussian noise. Non-informative sensors are pure noise
    with a per-column random bias and scale. Byte-identical output for a
    given seed.
    """
    if not math.isfinite(noise_sd):
        raise ConfigError(f"noise_sd must be finite, got {noise_sd}")
    if noise_sd < 0:
        raise ConfigError(f"noise_sd must be >= 0, got {noise_sd}")
    if n_samples < 2:
        raise ConfigError(f"n_samples must be >= 2, got {n_samples}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    informative.check_range(n_vars)
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, n_samples)
    level = 0.3 * t + np.sin(2.0 * np.pi * 2.5 * t)

    info = set(informative.genes)
    centers = np.quantile(level, [(k + 1) / (len(info) + 1) for k in range(len(info))])
    columns = np.empty((n_samples, n_vars))
    rank = 0
    for j in range(n_vars):
        if j in info:
            gain = rng.uniform(2.0, 4.0)
            scale = rng.uniform(0.8, 1.2)
            offset = rng.uniform(-0.5, 0.5)
            response = level + 0.4 * np.tanh(gain * (level - centers[rank]))
            columns[:, j] = scale * response + offset
            rank += 1
        else:
            offset = rng.uniform(-1.0, 1.0)
            scale = rng.uniform(0.5, 1.5)
            columns[:, j] = offset + scale * rng.standard_normal(n_samples)
        if noise_sd > 0 and j in info:
            columns[:, j] += noise_sd * rng.standard_normal(n_samples)
    names = tuple(f"s{j + 1}" for j in range(n_vars))
    return Dataset(columns, level, names, "level")
