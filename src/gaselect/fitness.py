"""Deterministic chromosome scoring and the never-retest graveyard.

Scoring a chromosome means: take its columns from both blocks of the split,
which z-scored them once with train-derived stats, train the network on the
train block, and take the sum-squared error on the held-out cv block. The
weight seed is derived from (master_seed, gene set), so a chromosome's score
is a pure function of the run inputs regardless of when or where it is
evaluated.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from .data import SplitDataset, select_columns
from .data import normalize_apply  # noqa: F401  bench/spans.py's LEAVES wraps it by name
from .errors import ConfigError, DataError, SolveFailure
from .genome import Chromosome
from .mlp import TrainConfig, sse, train_lm

INFINITE_SSE = float("inf")

# The fields of a graveyard.jsonl record, in file order.
_AUDIT_FIELDS = ("genes", "cv_sse", "train_sse", "generation", "was_cached")


@dataclass(frozen=True)
class Score:
    """Fitness record for one chromosome; lower cv_sse is better."""

    cv_sse: float
    train_sse: float

    @property
    def failed(self) -> bool:
        """True for the sentinel of a solve that stayed singular."""
        return self.cv_sse == INFINITE_SSE


def ranking_key(c: Chromosome, score: Score) -> tuple:
    """Total order over scored chromosomes.

    Primary: cv_sse ascending (the infinite sentinel sorts behind every
    finite score). Ties prefer fewer genes, then lexicographic gene order,
    which keeps ranking deterministic under any evaluation order.
    """
    return (score.cv_sse, len(c), c.genes)


def derive_weight_seed(master_seed: int, c: Chromosome) -> int:
    """Stable per-chromosome weight seed.

    Hashes the master seed together with the sorted gene indices, so scoring
    is deterministic per chromosome but decorrelated across chromosomes, and
    identical across processes and platforms.
    """
    text = f"{master_seed}:{','.join(map(str, c.genes))}"
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class Graveyard:
    """Append-only record of every chromosome ever scored.

    One record per burial: the chromosome, its score and the generation that
    buried it, in burial order. The breeder proposes only chromosomes that
    are not buried yet, so each is buried once and never scored again.
    """

    def __init__(self):
        self._entries: dict[Chromosome, Score] = {}
        self._generations: list[int] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, c: Chromosome) -> bool:
        return c in self._entries

    def entries(self) -> Iterable[tuple[Chromosome, Score]]:
        """(chromosome, score) pairs in burial order."""
        return self._entries.items()

    def best(self) -> tuple[Chromosome, Score]:
        if not self._entries:
            raise ValueError("graveyard is empty")
        return min(self._entries.items(), key=lambda kv: ranking_key(*kv))

    def insert(self, c: Chromosome, score: Score, generation: int) -> None:
        if c in self._entries:
            raise ValueError(f"chromosome {c.label} is already buried")
        self._entries[c] = score
        self._generations.append(generation)

    def write_audit(self, path: str | Path) -> None:
        """One JSON record per burial, in burial order.

        ``was_cached`` is always false; it is kept for the file format.
        """
        with Path(path).open("w", encoding="utf-8") as fh:
            for (c, score), generation in zip(self._entries.items(), self._generations):
                values = (c.one_based(), score.cv_sse, score.train_sse, generation, False)
                fh.write(json.dumps(dict(zip(_AUDIT_FIELDS, values))) + "\n")

    @classmethod
    def replay(cls, records: Iterable[dict], n_vars: int) -> "Graveyard":
        """Rebuild a graveyard of an n_vars-sensor rig from write_audit's records.

        A record write_audit could not have written, bad genes included,
        raises DataError naming its 1-based position.
        """
        g = cls()
        for position, rec in enumerate(records, 1):
            defect = _record_defect(rec)
            if defect:
                raise DataError(f"graveyard record {position}: {defect}")
            try:
                c = Chromosome.from_one_based(rec["genes"], n_vars)
            except ConfigError as exc:
                raise DataError(f"graveyard record {position}: {exc}") from None
            g.insert(c, Score(rec["cv_sse"], rec["train_sse"]), rec["generation"])
        return g


def _record_defect(rec) -> str | None:
    """What write_audit could not have written in ``rec``, its genes aside."""
    if not isinstance(rec, dict):
        return f"expected a JSON object, got {rec!r}"
    for field in _AUDIT_FIELDS:
        if field not in rec:
            return f"missing field {field!r}"
    for field in ("cv_sse", "train_sse"):
        # json reads Infinity, the failure sentinel, as a float
        if not isinstance(rec[field], float) or math.isnan(rec[field]):
            return f"{field} must be a float other than NaN, got {rec[field]!r}"
    if type(rec["generation"]) is not int or rec["generation"] < 0:
        return f"generation must be an int >= 0, got {rec['generation']!r}"
    if rec["was_cached"] is not False:
        return f"was_cached must be false, got {rec['was_cached']!r}"
    return None


def evaluate(
    c: Chromosome,
    split: SplitDataset,
    cfg: TrainConfig,
    master_seed: int,
) -> Score:
    """Train on the train block, score on the cv block.

    A SolveFailure from the trainer is mapped to an infinite-score sentinel
    instead of propagating, so one degenerate subset cannot kill a long
    search; the sentinel ranks behind every finite score.
    """
    X_train = select_columns(split.train, c)
    X_cv = select_columns(split.cv, c)
    seed = derive_weight_seed(master_seed, c)
    try:
        model = train_lm(X_train, split.train.target, cfg, weight_seed=seed)
    except SolveFailure:
        return Score(cv_sse=INFINITE_SSE, train_sse=INFINITE_SSE)
    cv_sse = sse(model.params, X_cv, split.cv.target)
    return Score(cv_sse=cv_sse, train_sse=model.train_sse)


@dataclass(frozen=True)
class Scorer:
    """What fixes every score besides the chromosome: ``scorer(c)`` is
    ``evaluate(c, split, train_cfg, master_seed)``.

    ``evaluate`` is looked up as the module global on each call, so a
    patched ``fitness.evaluate`` sees every score. Unlike a closure, a
    Scorer pickles, so a process pool can ship it to its workers.
    """

    split: SplitDataset
    train_cfg: TrainConfig
    master_seed: int

    def __call__(self, c: Chromosome) -> Score:
        return evaluate(c, self.split, self.train_cfg, self.master_seed)


def evaluate_batch(
    chromosomes: list[Chromosome],
    graveyard: Graveyard,
    scorer: Scorer,
    generation: int,
    mapper: Callable[..., Iterable] = map,
) -> list[Score]:
    """Score distinct, never-tested chromosomes and bury them in input order.

    ``mapper`` may evaluate in parallel (scores are pure); burial follows
    input order, so the outcome is identical for any mapper. A chromosome
    that is already buried, or repeated in the batch, raises ValueError from
    ``Graveyard.insert``.
    """
    scores = list(mapper(scorer, chromosomes))
    for c, score in zip(chromosomes, scores):
        graveyard.insert(c, score, generation)
    return scores
