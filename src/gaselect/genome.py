"""Chromosome representation and the crossover/mutation operators.

A chromosome is a nonempty set of selected variable indices (0-based
internally; every user-facing rendering is 1-based), held as a bitmask:
bit i is set when variable i is selected. The mask is the one identity of a
subset: equal gene sets give equal masks and so equal, equally hashing
chromosomes, which key the graveyard and the breeder's sets directly.
Crossover and mutation work on the masks with integer bit arithmetic, so a
bred child that turns out to be a duplicate costs no gene tuple. The
operators check none of their arguments: the engine passes them only
chromosomes of its own sensors, GaConfig's checked mutation rate and the
constant P_ONE_PARENT.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import ConfigError, EmptyChromosomeError

# Give up re-drawing an all-zero mutation result after this many attempts
# and hand back the input unchanged.
MUTATION_RETRY_LIMIT = 32


class Chromosome:
    """An immutable, nonempty set of gene (variable) indices.

    ``mask`` is the identity; ``genes``, the sorted index tuple, is worked
    out on first use and kept.
    """

    __slots__ = ("mask", "_genes")

    mask: int
    _genes: tuple[int, ...] | None

    def __init__(self, genes: Iterable[int]):
        ordered = tuple(sorted({int(g) for g in genes}))
        if not ordered:
            raise EmptyChromosomeError("a chromosome needs at least one gene")
        if ordered[0] < 0:
            raise ConfigError(f"negative gene index {ordered[0]}")
        mask = 0
        for g in ordered:
            mask |= 1 << g
        _set_mask(self, mask)
        _set_genes(self, ordered)

    @classmethod
    def _from_mask(cls, mask: int) -> "Chromosome":
        """Wrap a mask the caller knows is positive, with no checks."""
        c = object.__new__(cls)
        _set_mask(c, mask)
        _set_genes(c, None)
        return c

    @property
    def genes(self) -> tuple[int, ...]:
        """The selected indices, ascending."""
        genes = self._genes
        if genes is None:
            # bin(mask)[:1:-1] lists the bits from bit 0 up
            genes = tuple(
                i for i, bit in enumerate(bin(self.mask)[:1:-1]) if bit == "1"
            )
            _set_genes(self, genes)
        return genes

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: Chromosome is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: Chromosome is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.mask == other.mask

    def __hash__(self) -> int:
        # int hashes carry no per-process salt
        return hash(self.mask)

    def __repr__(self) -> str:
        return f"Chromosome(genes={self.genes!r})"

    def __reduce__(self):
        return (self.__class__, (self.genes,))

    def __len__(self) -> int:
        return self.mask.bit_count()

    @property
    def label(self) -> str:
        """Hyphen-joined 1-based rendering, e.g. ``"1-2-5"``."""
        return "-".join(str(g + 1) for g in self.genes)

    def one_based(self) -> list[int]:
        """1-based gene list for JSON output."""
        return [g + 1 for g in self.genes]

    def check_range(self, n_vars: int) -> None:
        """Raise ConfigError unless every gene is one of ``n_vars`` sensors."""
        _check_top_sensor(self.mask.bit_length(), n_vars)

    @classmethod
    def from_label(cls, label: str, n_vars: int) -> "Chromosome":
        """The chromosome a label such as ``"1-2-5"`` names (see from_one_based)."""
        try:
            indices = [int(part) for part in label.split("-")]
        except ValueError as exc:
            raise ConfigError(f"bad chromosome label {label!r}") from exc
        return cls.from_one_based(indices, n_vars)

    @classmethod
    def from_one_based(cls, indices: list[int], n_vars: int) -> "Chromosome":
        """1-based sensor numbers from outside the program: ints (not floats or
        bools), >= 1, unrepeated and <= n_vars, checked before any mask."""
        if not indices:
            raise EmptyChromosomeError("a chromosome needs at least one gene")
        if not isinstance(indices, (list, tuple)) or any(type(i) is not int for i in indices):
            raise ConfigError(f"sensor numbers must be a list of ints, got {indices!r}")
        if min(indices) < 1:
            raise ConfigError(f"sensor numbers are 1-based, got {indices}")
        if len(set(indices)) < len(indices):
            raise ConfigError(f"repeated sensor number in {indices}")
        _check_top_sensor(max(indices), n_vars)
        return cls(i - 1 for i in indices)


def _check_top_sensor(top: int, n_vars: int) -> None:
    """The one sensor-range rule: 1-based sensor ``top`` must be <= n_vars."""
    if top > n_vars:
        raise ConfigError(f"sensor {top} out of range for {n_vars} sensors")


# The slots' own setters, which bypass Chromosome.__setattr__; only the
# class's constructors and the genes cache use them.
_set_mask = Chromosome.mask.__set__
_set_genes = Chromosome._genes.__set__


def uniform_crossover(
    a: Chromosome,
    b: Chromosome,
    p_one_parent: float,
    rng: np.random.Generator,
) -> Chromosome:
    """Combine two parents gene-wise.

    Genes present in both parents are always inherited; genes present in
    exactly one parent are inherited independently with probability
    ``p_one_parent``. Genes absent from both can never appear.
    """
    exclusive = a.mask ^ b.mask
    child = a.mask & b.mask
    # One draw per exclusive gene in ascending gene order, so the draws are
    # a function of the gene sets alone, which makes crossover(a, b) and
    # crossover(b, a) identical under matched seeds.
    for u in rng.random(exclusive.bit_count()).tolist():
        lowest = exclusive & -exclusive
        if u < p_one_parent:
            child |= lowest
        exclusive ^= lowest
    if not child:
        raise EmptyChromosomeError("crossover drew an empty offspring")
    return Chromosome._from_mask(child)


def mutate(
    c: Chromosome,
    rate: float,
    n_vars: int,
    rng: np.random.Generator,
) -> Chromosome:
    """Flip each of the ``n_vars`` gene positions independently with ``rate``.

    A flip adds an absent gene or deletes a present one. An all-empty result
    is re-drawn up to MUTATION_RETRY_LIMIT times; if every redraw comes up
    empty the input is returned unchanged.
    """
    for _ in range(MUTATION_RETRY_LIMIT):
        result = c.mask
        bit = 1
        for u in rng.random(n_vars).tolist():
            if u < rate:
                result ^= bit
            bit <<= 1
        if result:
            return Chromosome._from_mask(result)
    return c
