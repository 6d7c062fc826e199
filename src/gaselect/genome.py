"""Chromosome representation and the crossover/mutation operators.

A chromosome is a nonempty set of selected variable indices (0-based
internally; every user-facing rendering is 1-based). It is the one identity
of a subset: equal gene sets give equal, equally hashing chromosomes, so it
keys the graveyard and the breeder's sets directly. Crossover and mutation
act on the index set itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError, EmptyChromosomeError

# Give up re-drawing an all-zero mutation result after this many attempts
# and hand back the input unchanged.
MUTATION_RETRY_LIMIT = 32


@dataclass(frozen=True)
class Chromosome:
    """An immutable, sorted, duplicate-free set of gene (variable) indices."""

    genes: tuple[int, ...]

    def __init__(self, genes: Iterable[int]):
        ordered = tuple(sorted({int(g) for g in genes}))
        if not ordered:
            raise EmptyChromosomeError("a chromosome needs at least one gene")
        if ordered[0] < 0:
            raise ConfigError(f"negative gene index {ordered[0]}")
        object.__setattr__(self, "genes", ordered)

    def __len__(self) -> int:
        return len(self.genes)

    @property
    def label(self) -> str:
        """Hyphen-joined 1-based rendering, e.g. ``"1-2-5"``."""
        return "-".join(str(g + 1) for g in self.genes)

    def one_based(self) -> list[int]:
        """1-based gene list for JSON output."""
        return [g + 1 for g in self.genes]

    @classmethod
    def from_label(cls, label: str) -> "Chromosome":
        try:
            indices = [int(part) for part in label.split("-")]
        except ValueError as exc:
            raise ConfigError(f"bad chromosome label {label!r}") from exc
        if any(i < 1 for i in indices):
            raise ConfigError(f"labels are 1-based, got {label!r}")
        return cls(i - 1 for i in indices)

    @classmethod
    def from_one_based(cls, indices: list[int]) -> "Chromosome":
        if any(i < 1 for i in indices):
            raise ConfigError(f"1-based indices expected, got {indices}")
        return cls(i - 1 for i in indices)


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
    if not 0.0 <= p_one_parent <= 1.0:
        raise ValueError(f"p_one_parent must be in [0,1], got {p_one_parent}")
    set_a, set_b = set(a.genes), set(b.genes)
    shared = set_a & set_b
    # Sorted so the draw order is a function of the gene sets alone, which
    # makes crossover(a, b) and crossover(b, a) identical under matched seeds.
    exclusive = sorted(set_a ^ set_b)
    keep = rng.random(len(exclusive)) < p_one_parent
    genes = shared | {g for g, k in zip(exclusive, keep) if k}
    if not genes:
        raise EmptyChromosomeError("crossover drew an empty offspring")
    return Chromosome(genes)


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
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"mutation rate must be in [0,1], got {rate}")
    if c.genes[-1] >= n_vars:
        raise ConfigError(
            f"gene {c.genes[-1]} does not fit in {n_vars} variables"
        )
    genes = set(c.genes)
    for _ in range(MUTATION_RETRY_LIMIT):
        flips = np.flatnonzero(rng.random(n_vars) < rate).tolist()
        result = genes.symmetric_difference(flips)
        if result:
            return Chromosome(result)
    return c
