"""Command-line driver: run / synth / exhaustive subcommands.

Configuration is a flat ``key = value`` text file using exactly the field
names of RunConfig; command-line flags override file values, which override
defaults. All randomness flows from the single master_seed field.

Exit codes: 0 success, 1 configuration error (a ConfigError), 2 data error
(a DataError), 3 runtime failure. Each failure prints a one-line
diagnostic to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

# One BLAS thread unless the user set a count, before numpy first loads:
# the BLAS library's own threads change the last bits of a score.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .data import load_csv, split_sequential, synthetic_sensors, write_csv
from .engine import (
    EXHAUSTIVE_CAP_DEFAULT,
    GaConfig,
    check_exhaustive_cap,
    check_master_seed,
    check_population,
    check_threads,
    exhaustive_search,
    run,
)
from .errors import ConfigError, DataError
from .genome import Chromosome
from .mlp import TrainConfig

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


# Keys of the run itself; every other key is a field of GaConfig or TrainConfig.
_RUN_KEYS = (
    ("data_csv", "str", ""),
    ("target_column", "str", "level"),
    ("n_train", "int", 200),
    ("out_dir", "str", "out"),
    ("threads", "int", 1),
)


def _settable(cls) -> tuple[tuple[str, str, object], ...]:
    """(name, type, default) of each field of cls, all set by a config file."""
    return tuple((f.name, f.type, f.default) for f in dataclasses.fields(cls))


_GA_KEYS = _settable(GaConfig)
_TRAIN_KEYS = _settable(TrainConfig)
_KEYS = (
    _RUN_KEYS + _GA_KEYS + _TRAIN_KEYS
    + (("exhaustive_cap", "int", EXHAUSTIVE_CAP_DEFAULT),)
)
_FIELD_TYPES = {name: kind for name, kind, _ in _KEYS}
_PARSERS = {"int": int, "float": float, "str": str}


def _ga_config(self) -> GaConfig:
    return GaConfig(**{k: getattr(self, k) for k, _, _ in _GA_KEYS})


def _train_config(self) -> TrainConfig:
    return TrainConfig(**{k: getattr(self, k) for k, _, _ in _TRAIN_KEYS})


def _check(self) -> None:
    # the engine's own checks, run here so a bad value fails before the
    # output directory is created
    check_threads(self.threads)
    check_master_seed(self.master_seed)


def _echo(self) -> dict:
    """Result-defining fields only.

    threads and out_dir steer execution and output placement without
    affecting any computed number, so they are left out; this keeps
    equal-seed runs byte-identical on disk regardless of parallelism.
    """
    fields = dataclasses.asdict(self)
    del fields["threads"]
    del fields["out_dir"]
    return fields


RunConfig = dataclasses.make_dataclass(
    "RunConfig",
    [(name, kind, dataclasses.field(default=default)) for name, kind, default in _KEYS],
    namespace={
        "__doc__": "Everything a search run needs, flattened for file/flag handling.",
        "__module__": __name__,
        "__post_init__": _check,
        "ga_config": _ga_config,
        "train_config": _train_config,
        "echo": _echo,
    },
    frozen=True,
)


def parse_config_file(path: str | Path) -> dict:
    """One ``key = value`` line per key; '#' comments and blank lines allowed.
    A leading byte-order mark is dropped, as ``load_csv`` drops one."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values: dict = {}
    set_on: dict[str, int] = {}  # key -> its line
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
        if key in set_on:
            raise ConfigError(
                f"{path}:{line_no}: key {key!r} already set on line {set_on[key]}"
            )
        set_on[key] = line_no
        values[key] = _coerce(key, value, f"{path}:{line_no}")
    return values


def _coerce(key: str, value: str, where: str):
    kind = _FIELD_TYPES[key]
    try:
        return _PARSERS[kind](value)
    except ValueError:
        raise ConfigError(f"{where}: {key} expects {kind}, got {value!r}") from None


def build_run_config(args: argparse.Namespace) -> RunConfig:
    values = parse_config_file(args.config) if args.config else {}
    for key in _FIELD_TYPES:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
    return RunConfig(**values)


def _load_split(cfg: RunConfig):
    if not cfg.data_csv:
        raise ConfigError("data_csv is required (set it in the config file)")
    dataset = load_csv(cfg.data_csv, cfg.target_column)
    return split_sequential(dataset, cfg.n_train)


@contextlib.contextmanager
def _writing(path: Path):
    """Report a failed write as a DataError naming its file, or path if the OS names none."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"{exc.filename or path}: cannot write ({exc.strerror})") from exc


def _make_outputs(cfg: RunConfig, *names: str) -> Path:
    """Create the output directory and the named files, empty, before any training."""
    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {out_dir}: {exc}") from exc
    for name in names:
        with _writing(out_dir / name):
            (out_dir / name).open("w", encoding="utf-8").close()
    return out_dir


def _write_outputs(out_dir: Path, cfg: RunConfig, result) -> None:
    with (out_dir / "generations.jsonl").open("w", encoding="utf-8") as fh:
        for report in result.reports:
            fh.write(json.dumps(report.to_record()) + "\n")
    result.graveyard.write_audit(out_dir / "graveyard.jsonl")
    summary = {
        "best": {
            "genes": result.best.one_based(),
            "label": result.best.label,
            "cv_sse": result.best_score.cv_sse,
            "train_sse": result.best_score.train_sse,
            "gene_count": len(result.best),
        },
        "config": cfg.echo(),
        "generations_completed": len(result.reports),
        "total_evaluations": len(result.graveyard),
        "graveyard_size": len(result.graveyard),
        "exhausted": result.exhausted,
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8"
    )


def cmd_run(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    ga_cfg, train_cfg = cfg.ga_config(), cfg.train_config()
    split = _load_split(cfg)
    check_population(ga_cfg, split.n_vars)
    out_dir = _make_outputs(cfg, "generations.jsonl", "graveyard.jsonl", "summary.json")
    started = time.perf_counter()
    result = run(ga_cfg, split, train_cfg, threads=cfg.threads)
    wall = time.perf_counter() - started
    with _writing(out_dir):
        _write_outputs(out_dir, cfg, result)
    print(result.best.label, repr(result.best_score.cv_sse))
    print(f"wall_time_s {wall:.3f}", file=sys.stderr)
    return EXIT_OK


def cmd_exhaustive(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    train_cfg = cfg.train_config()
    split = _load_split(cfg)
    check_exhaustive_cap(split.n_vars, cfg.exhaustive_cap)
    out_dir = _make_outputs(cfg, "scores.csv")
    started = time.perf_counter()
    (best_c, best_s), table = exhaustive_search(
        split,
        train_cfg,
        cfg.master_seed,
        cap=cfg.exhaustive_cap,
        threads=cfg.threads,
    )
    wall = time.perf_counter() - started
    scores_csv = out_dir / "scores.csv"
    with _writing(scores_csv), scores_csv.open("w", encoding="utf-8") as fh:
        fh.write("genes,cv_sse\n")
        for c, s in table:
            fh.write(f"{c.label},{s.cv_sse!r}\n")
    print(best_c.label, repr(best_s.cv_sse))
    print(f"wall_time_s {wall:.3f}", file=sys.stderr)
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    informative = Chromosome.from_label(args.informative, args.n_vars)
    dataset = synthetic_sensors(
        n_vars=args.n_vars,
        n_samples=args.n_samples,
        informative=informative,
        noise_sd=args.noise_sd,
        seed=args.seed,
    )
    out = Path(args.out)
    with _writing(out):
        write_csv(dataset, out)
        meta = {
            "n_vars": args.n_vars,
            "n_samples": args.n_samples,
            "informative": informative.one_based(),
            "noise_sd": args.noise_sd,
            "seed": args.seed,
            "target_column": dataset.target_name,
        }
        out.with_suffix(out.suffix + ".meta.json").write_text(
            json.dumps(meta, indent=2) + "\n", encoding="utf-8"
        )
    print(out)
    return EXIT_OK


# Flags of run: (flag, config key it overrides, help).
_FLAGS = (
    ("--seed", "master_seed", "master seed (all randomness)"),
    ("--population", "population_size", "population size"),
    ("--survival", "survival_fraction", "survivor fraction"),
    ("--mutation-rate", "mutation_rate", None),
    ("--generations", "generations", None),
    ("--hidden-units", "hidden_units", None),
    ("--threads", "threads", "evaluation parallelism"),
    ("--out-dir", "out_dir", None),
)
# exhaustive takes only the flags of the keys its oracle reads
_ORACLE_KEYS = ("master_seed", "hidden_units", "threads", "out_dir")


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit as configuration errors, each
    reported with the usage of the parser, top level or subcommand, that
    met it."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gaselect",
        description="Genetic search over sensor-variable subsets, scored by a "
        "Levenberg-Marquardt trained perceptron on held-out data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p, flags):
        p.add_argument("--config", help="flat key = value config file")
        for flag, key, help_text in flags:
            p.add_argument(
                flag,
                type=_PARSERS[_FIELD_TYPES[key]],
                dest=key,
                metavar=flag[2:].replace("-", "_").upper(),
                help=help_text,
            )

    p_run = sub.add_parser("run", help="run the genetic search")
    add_run_flags(p_run, _FLAGS)
    p_run.set_defaults(func=cmd_run)

    p_ex = sub.add_parser("exhaustive", help="score every subset (small n only)")
    add_run_flags(p_ex, [f for f in _FLAGS if f[1] in _ORACLE_KEYS])
    p_ex.set_defaults(func=cmd_exhaustive)

    p_synth = sub.add_parser("synth", help="generate a synthetic sensor CSV")
    p_synth.add_argument("--out", required=True, help="output CSV path")
    p_synth.add_argument("--n-vars", type=int, default=20, dest="n_vars")
    p_synth.add_argument("--n-samples", type=int, default=400, dest="n_samples")
    p_synth.add_argument(
        "--informative",
        default="1-2-3",
        help="hyphen-joined 1-based informative sensors, e.g. 1-2-3",
    )
    p_synth.add_argument("--noise-sd", type=float, default=0.1, dest="noise_sd")
    p_synth.add_argument("--seed", type=int, default=1)
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001
        print(f"runtime error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
