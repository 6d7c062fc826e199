"""Generational search loop and the exhaustive oracle.

Every generation carries the top slice of the population forward unchanged
(scores and all), breeds the remaining slots from those survivors, and
evaluates only chromosomes that have never been tested before. Runs are a
pure function of (config, split, train config): all randomness flows from
the master seed, and evaluation parallelism cannot change the result
because offspring are produced sequentially and merged in production order.

On a space of at most ENUMERATION_LIMIT variables the breeder draws each
offspring from the generation's exact child law instead of proposing and
rejecting duplicates. With mutation rate mu and keep-probability
p = P_ONE_PARENT, a child of parents (a, b) has independent bits: a bit in
both parents stays with probability 1 - mu, a bit in neither joins with
probability mu, and a bit in exactly one is set with probability
p(1 - mu) + (1 - p)mu. Averaged over the unordered survivor pairs that
``select_parents`` draws uniformly, this gives q over all 2**n masks, with
q[0] = 0. Each offspring is one draw from q restricted to the masks that
are neither buried nor drawn earlier in the generation. When that
restricted mass is 0 (mu = 0 or 1 can leave every untested mask outside
q's support), the draw is uniform over the untested masks instead.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator

import numpy as np

from .data import SplitDataset
from .errors import ConfigError, EmptyChromosomeError, NoveltyExhausted
from .fitness import Graveyard, Score, Scorer, evaluate_batch, ranking_key
from .genome import Chromosome, mutate, uniform_crossover
from .mlp import TrainConfig

# Spaces of at most this many variables breed from the child law (see the
# module docstring); larger ones propose and reject duplicates.
ENUMERATION_LIMIT = 12

EXHAUSTIVE_CAP_DEFAULT = 14

# Crossover keeps a gene found in one parent only with this probability.
P_ONE_PARENT = 0.5

# child_distribution builds the laws of a block of survivor pairs in one
# buffer of at most this many entries (512 KiB), so its memory does not grow
# with the number of pairs.
CHILD_LAW_BLOCK = 1 << 16

# Above ENUMERATION_LIMIT: failed breeding attempts per offspring before the
# breeder falls back to a random untested chromosome, and that fallback's
# random draws.
OFFSPRING_RETRY_LIMIT = 200

Member = tuple[Chromosome, Score]


def subset_count(n_vars: int) -> int:
    """Number of distinct nonempty variable subsets."""
    return (1 << n_vars) - 1


def check_master_seed(master_seed: int) -> None:
    if master_seed < 0:
        raise ConfigError(f"master_seed must be >= 0, got {master_seed}")


def check_threads(threads: int) -> None:
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")


@dataclass(frozen=True)
class GaConfig:
    n_vars: int
    population_size: int = 50
    survival_fraction: float = 0.20
    mutation_rate: float = 0.1
    generations: int = 25
    master_seed: int = 0

    def __post_init__(self):
        if self.n_vars < 1:
            raise ConfigError(f"n_vars must be >= 1, got {self.n_vars}")
        if self.population_size < 4:
            raise ConfigError(
                f"population_size must be >= 4, got {self.population_size}"
            )
        if not 0 < self.survival_fraction < 1:
            raise ConfigError(
                f"survival_fraction must be in (0,1), got {self.survival_fraction}"
            )
        if self.survivor_count < 2:
            raise ConfigError(
                "survival_fraction and population_size must keep at least 2 survivors"
            )
        if self.survivor_count >= self.population_size:
            raise ConfigError(
                f"survival_fraction {self.survival_fraction} keeps all "
                f"{self.population_size} members, leaving no slot to breed"
            )
        if not 0 <= self.mutation_rate <= 1:
            raise ConfigError(f"mutation_rate must be in [0,1], got {self.mutation_rate}")
        if self.generations < 1:
            raise ConfigError(f"generations must be >= 1, got {self.generations}")
        check_master_seed(self.master_seed)
        if subset_count(self.n_vars) < self.population_size:
            raise ConfigError(
                f"{self.n_vars} variables admit only {subset_count(self.n_vars)} "
                f"distinct chromosomes, fewer than population_size "
                f"{self.population_size}"
            )

    @property
    def survivor_count(self) -> int:
        # ceil keeps the survivor slice nonempty for small populations. The
        # product is rounded first, so a product that lands just above an
        # integer in binary (0.14 * 50 == 7.000000000000001) keeps 7, not 8.
        return math.ceil(round(self.survival_fraction * self.population_size, 9))


@dataclass
class GenerationReport:
    generation: int
    best_genes: Chromosome
    best_cv_sse: float
    mean_cv_sse: float
    new_evaluations: int
    graveyard_size: int
    exhausted: bool = False

    def to_record(self) -> dict:
        """The fields in declaration order, genes 1-based."""
        return dict(vars(self), best_genes=self.best_genes.one_based())


@dataclass
class RunResult:
    best: Chromosome
    best_score: Score
    reports: list[GenerationReport]
    graveyard: Graveyard

    @property
    def exhausted(self) -> bool:
        """True when novelty ran out, which ends a run at its last report."""
        return self.reports[-1].exhausted


@dataclass
class RunState:
    cfg: GaConfig
    scorer: Scorer
    rng: np.random.Generator
    graveyard: Graveyard
    population: list[Member]
    mapper: Callable[..., Iterable]
    generation: int = 0


def init_population(cfg: GaConfig, rng: np.random.Generator) -> list[Chromosome]:
    """Seed the search with singletons, the full set, and spread fillers.

    Every single-variable subset and the all-variables subset are always
    present; remaining slots get random chromosomes whose gene counts are
    drawn evenly from {2, ..., n_vars-1} so initial diversity covers the
    whole cardinality range. When the population is too small for all
    singletons, they are taken in ascending index order and the final slot
    still goes to the full set.
    """
    n, size = cfg.n_vars, cfg.population_size
    full = Chromosome(range(n))
    if size < n + 1:
        warnings.warn(
            f"population_size {size} cannot hold all {n} singletons; truncating"
        )
        return [Chromosome([i]) for i in range(size - 1)] + [full]

    members = [Chromosome([i]) for i in range(n)] + [full]
    used = set(members)
    cardinalities = [c for c in range(2, n)]
    while len(members) < size:
        # Bounded only by the space itself: distinctness is guaranteed
        # because the config admits at least population_size subsets, and
        # size > n needs n >= 3, so cardinalities is never empty.
        k = int(rng.choice(cardinalities))
        genes = rng.choice(n, size=k, replace=False)
        candidate = Chromosome(int(g) for g in genes)
        if candidate in used:
            continue
        used.add(candidate)
        members.append(candidate)
    return members


def _random_chromosome(n_vars: int, rng: np.random.Generator) -> Chromosome:
    """Uniform draw over all nonempty subsets."""
    while True:
        bits = rng.random(n_vars) < 0.5
        if bits.any():
            return Chromosome(int(i) for i in np.flatnonzero(bits))


def select_parents(
    survivors: list[Member], rng: np.random.Generator
) -> tuple[Chromosome, Chromosome]:
    """Two distinct survivors, uniform over unordered pairs.

    GaConfig keeps at least two survivors, and the population never shrinks
    below them.
    """
    i, j = rng.choice(len(survivors), size=2, replace=False).tolist()
    return survivors[i][0], survivors[j][0]


def child_distribution(
    parents: list[Chromosome], n_vars: int, mutation_rate: float
) -> np.ndarray:
    """q[mask]: the chance that one breeding attempt yields ``mask``.

    An attempt picks an unordered pair of ``parents`` uniformly, crosses it
    over and mutates the child; q[0], the empty child, is set to 0. Each
    pair's law is a product over the bits. The laws of a block of pairs are
    built together, one bit at a time, as the rows of one (pairs, 2**n_vars)
    buffer of at most CHILD_LAW_BLOCK entries (or one row), and the rows are
    added into q in pair order.
    """
    mu = mutation_rate
    one_parent = P_ONE_PARENT * (1 - mu) + (1 - P_ONE_PARENT) * mu
    # a child's bit is set with chance keep[k] when k of its parents hold it
    keep = np.array([mu, one_parent, 1 - mu])
    bits = np.arange(n_vars)
    q = np.zeros(1 << n_vars)
    pairs = list(combinations(parents, 2))
    per_block = max(1, CHILD_LAW_BLOCK >> n_vars)
    law = np.empty((min(per_block, len(pairs)), 1 << n_vars))
    for start in range(0, len(pairs), per_block):
        block = pairs[start : start + per_block]
        both = np.array([a.mask & b.mask for a, b in block])[:, None]
        either = np.array([a.mask | b.mask for a, b in block])[:, None]
        holders = (both >> bits & 1) + (either >> bits & 1)  # (pairs, n_vars)
        on = keep[holders.T][..., None]  # (n_vars, pairs, 1)
        off = 1 - on
        rows = law[: len(block)]
        rows[:, 0] = 1.0
        size = 1
        for i in range(n_vars):
            np.multiply(rows[:, :size], on[i], out=rows[:, size : 2 * size])
            rows[:, :size] *= off[i]
            size *= 2
        for row in rows:
            q += row
    q /= len(pairs)
    q[0] = 0.0
    return q


class ChildLaw:
    """One generation's offspring law over a space of <= ENUMERATION_LIMIT bits.

    ``weights`` is q with every buried mask zeroed, and ``free`` marks the
    nonempty masks that are not buried. Each draw takes its mask out of
    both, so a generation's draws never repeat.
    """

    def __init__(self, survivors: list[Member], graveyard: Graveyard, cfg: GaConfig):
        q = child_distribution([c for c, _ in survivors], cfg.n_vars, cfg.mutation_rate)
        taken = [c.mask for c, _ in graveyard.entries()]
        self.free = np.ones(q.size, dtype=bool)
        self.free[0] = False
        self.free[taken] = False
        self.weights = np.where(self.free, q, 0.0)

    def draw(self, rng: np.random.Generator) -> Chromosome:
        """One untested chromosome; NoveltyExhausted once none is left."""
        cum = np.cumsum(self.weights)
        total = cum[-1]
        if total > 0.0:
            # side="right" skips zero weights, whose cumsum entries repeat
            mask = int(np.searchsorted(cum, rng.random() * total, side="right"))
            if mask == cum.size:  # a subnormal total can round u * total up to it
                mask = int(np.flatnonzero(self.weights)[-1])
        else:
            free = np.flatnonzero(self.free)
            if not free.size:
                raise NoveltyExhausted(f"all {self.free.size - 1} chromosomes tested")
            mask = int(free[rng.integers(free.size)])
        self.weights[mask] = 0.0
        self.free[mask] = False
        return Chromosome._from_mask(mask)


def produce_offspring(
    survivors: list[Member],
    graveyard: Graveyard,
    pending: set[Chromosome],
    cfg: GaConfig,
    rng: np.random.Generator,
    law: ChildLaw | None,
) -> Chromosome:
    """Breed one chromosome that has never been tested and is not pending.

    Up to ENUMERATION_LIMIT variables ``law`` is the generation's ChildLaw,
    built over the same survivors and graveyard before the generation's
    first draw, and the child is one draw from it.

    Above it ``law`` is None. Crossover/mutation attempts that duplicate a
    buried or already-produced chromosome are discarded. After
    OFFSPRING_RETRY_LIMIT failures the breeder falls back to a random
    untested chromosome to restore diversity; if even that cannot be found,
    NoveltyExhausted is raised.
    """
    if law is not None:
        child = law.draw(rng)
        pending.add(child)
        return child

    for _ in range(OFFSPRING_RETRY_LIMIT):
        a, b = select_parents(survivors, rng)
        try:
            child = uniform_crossover(a, b, P_ONE_PARENT, rng)
        except EmptyChromosomeError:
            continue
        child = mutate(child, cfg.mutation_rate, cfg.n_vars, rng)
        if child in pending or child in graveyard:
            continue
        pending.add(child)
        return child

    child = _random_novel(graveyard, pending, cfg, rng)
    pending.add(child)
    return child


def _random_novel(
    graveyard: Graveyard, pending: set, cfg: GaConfig, rng: np.random.Generator
) -> Chromosome:
    """A uniformly random untested chromosome, by rejection sampling."""
    for _ in range(OFFSPRING_RETRY_LIMIT):
        candidate = _random_chromosome(cfg.n_vars, rng)
        if candidate not in pending and candidate not in graveyard:
            return candidate
    raise NoveltyExhausted(
        f"no untested chromosome found in {OFFSPRING_RETRY_LIMIT} random draws"
    )


@contextmanager
def _evaluation_mapper(threads: int) -> Iterator[Callable[..., Iterable]]:
    """``map`` for one thread, else the map of a pool that ends with the block.

    Scores are pure and merged in input order, so the mapper never changes
    a result. ``concurrent.futures`` is imported only when a pool is made,
    so a one-thread run never loads it.
    """
    check_threads(threads)
    if threads == 1:
        yield map
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield pool.map


def _sort_members(members: list[Member]) -> list[Member]:
    return sorted(members, key=lambda m: ranking_key(*m))


def step_generation(state: RunState) -> GenerationReport:
    """Advance ``state`` in place: carry the elite, breed and score the rest.

    Survivors keep their stored scores untouched (retesting would change
    nothing). If novelty runs out mid-breeding the generation closes with
    the offspring produced so far and is flagged exhausted.
    """
    cfg = state.cfg
    state.generation += 1
    survivors = state.population[: cfg.survivor_count]
    wanted = cfg.population_size - len(survivors)

    pending: set[Chromosome] = set()
    law = (
        ChildLaw(survivors, state.graveyard, cfg)
        if cfg.n_vars <= ENUMERATION_LIMIT
        else None
    )
    offspring: list[Chromosome] = []
    exhausted = False
    for _ in range(wanted):
        try:
            offspring.append(
                produce_offspring(
                    survivors, state.graveyard, pending, cfg, state.rng, law
                )
            )
        except NoveltyExhausted:
            exhausted = True
            break

    scores = evaluate_batch(
        offspring, state.graveyard, state.scorer, state.generation, state.mapper
    )
    state.population = _sort_members(survivors + list(zip(offspring, scores)))
    best_c, best_s = state.population[0]
    report = GenerationReport(
        generation=state.generation,
        best_genes=best_c,
        best_cv_sse=best_s.cv_sse,
        mean_cv_sse=float(np.mean([s.cv_sse for _, s in state.population])),
        new_evaluations=len(offspring),
        graveyard_size=len(state.graveyard),
        exhausted=exhausted,
    )
    return report


def run(
    cfg: GaConfig,
    split: SplitDataset,
    train_cfg: TrainConfig,
    threads: int = 1,
) -> RunResult:
    """Full search: initialize, evaluate, then loop generations.

    Returns the global best under the fitness total order, the per
    generation reports, and the graveyard. Deterministic for a given
    (cfg, split, train_cfg) at any thread count.
    """
    if split.n_vars != cfg.n_vars:
        raise ConfigError(
            f"config n_vars {cfg.n_vars} does not match dataset {split.n_vars}"
        )
    rng = np.random.default_rng(cfg.master_seed)
    scorer = Scorer(split, train_cfg, cfg.master_seed)
    graveyard = Graveyard()
    with _evaluation_mapper(threads) as mapper:
        initial = init_population(cfg, rng)
        scores = evaluate_batch(initial, graveyard, scorer, 0, mapper)
        population = _sort_members(list(zip(initial, scores)))
        state = RunState(cfg, scorer, rng, graveyard, population, mapper)

        reports: list[GenerationReport] = []
        for _ in range(cfg.generations):
            report = step_generation(state)
            reports.append(report)
            if report.exhausted:
                break

    best, best_score = graveyard.best()
    return RunResult(best=best, best_score=best_score, reports=reports, graveyard=graveyard)


def check_exhaustive_cap(n_vars: int, cap: int) -> None:
    """Refuse an oracle table of more than ``cap`` variables."""
    if n_vars > cap:
        raise ConfigError(
            f"exhaustive search over {n_vars} variables exceeds cap {cap} "
            f"({subset_count(n_vars)} models)"
        )


def exhaustive_search(
    split: SplitDataset,
    train_cfg: TrainConfig,
    master_seed: int,
    cap: int = EXHAUSTIVE_CAP_DEFAULT,
    threads: int = 1,
) -> tuple[tuple[Chromosome, Score], list[tuple[Chromosome, Score]]]:
    """Score every nonempty subset once; the oracle the search approximates.

    Uses the GA's scoring, seed derivation and final pick (Graveyard.best),
    so a GA run and the oracle agree on every chromosome they both touch.
    Capped because the table doubles per variable.
    """
    check_master_seed(master_seed)
    n_vars = split.n_vars
    check_exhaustive_cap(n_vars, cap)
    # ascending bitmask order, kept by burial: the row order of scores.csv
    chromosomes = [Chromosome._from_mask(mask) for mask in range(1, 1 << n_vars)]
    scorer = Scorer(split, train_cfg, master_seed)
    graveyard = Graveyard()
    with _evaluation_mapper(threads) as mapper:
        evaluate_batch(chromosomes, graveyard, scorer, 0, mapper)
    return graveyard.best(), list(graveyard.entries())
