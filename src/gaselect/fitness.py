"""Deterministic chromosome scoring and the never-retest graveyard.

Scoring a chromosome means: project both splits onto its columns, z-score
them with train-derived stats, train the network on the train block, and
take the sum-squared error on the held-out cv block. The weight seed is
derived from (master_seed, gene set), so a chromosome's score is a pure
function of the run inputs regardless of when or where it is evaluated.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable

from .data import SplitDataset, normalize_apply, select_columns
from .errors import SolveFailure
from .genome import Chromosome
from .mlp import TrainConfig, sse, train_lm

INFINITE_SSE = float("inf")


@dataclass(frozen=True)
class Score:
    """Fitness record for one chromosome; lower cv_sse is better."""

    cv_sse: float
    train_sse: float
    gene_count: int

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
    return (score.cv_sse, score.gene_count, c.genes)


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

    The entry map is keyed by chromosome and never overwritten.
    Every lookup is also logged to an audit trail (including cache hits), so
    a run can be replayed or checked after the fact.
    """

    def __init__(self):
        self._entries: dict[Chromosome, Score] = {}
        self._audit: list[dict] = []

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
        self._log(c, score, generation, was_cached=False)

    def note_hit(self, c: Chromosome, generation: int) -> Score:
        score = self._entries[c]
        self._log(c, score, generation, was_cached=True)
        return score

    def _log(self, c: Chromosome, score: Score, generation: int, was_cached: bool):
        self._audit.append(
            {
                "genes": c.one_based(),
                "cv_sse": score.cv_sse,
                "train_sse": score.train_sse,
                "generation": generation,
                "was_cached": was_cached,
            }
        )

    @property
    def audit(self) -> list[dict]:
        return list(self._audit)

    def write_audit(self, path: str | Path) -> None:
        """One JSON record per evaluation lookup, in order."""
        with Path(path).open("w", encoding="utf-8") as fh:
            for record in self._audit:
                fh.write(json.dumps(record) + "\n")

    @classmethod
    def replay(cls, records: Iterable[dict]) -> "Graveyard":
        """Rebuild the entry map from an audit trail."""
        g = cls()
        for rec in records:
            c = Chromosome.from_one_based(rec["genes"])
            if rec["was_cached"]:
                g.note_hit(c, rec["generation"])
            else:
                score = Score(
                    cv_sse=rec["cv_sse"],
                    train_sse=rec["train_sse"],
                    gene_count=len(rec["genes"]),
                )
                g.insert(c, score, rec["generation"])
        return g


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
    train_sel = select_columns(split.train, c)
    cv_sel = select_columns(split.cv, c)
    stats = split.norm_stats.subset(c.genes)
    train_n = normalize_apply(train_sel, stats)
    cv_n = normalize_apply(cv_sel, stats)
    run_cfg = replace(cfg, weight_seed=derive_weight_seed(master_seed, c))
    try:
        model = train_lm(train_n.samples, train_n.target, run_cfg)
    except SolveFailure:
        return Score(
            cv_sse=INFINITE_SSE,
            train_sse=INFINITE_SSE,
            gene_count=len(c),
        )
    cv_sse = sse(model.params, cv_n.samples, cv_n.target)
    return Score(
        cv_sse=cv_sse,
        train_sse=model.train_sse,
        gene_count=len(c),
    )


def evaluate_batch(
    chromosomes: list[Chromosome],
    graveyard: Graveyard,
    split: SplitDataset,
    cfg: TrainConfig,
    master_seed: int,
    generation: int,
    mapper: Callable[..., Iterable] = map,
) -> list[Score]:
    """Score a batch, dispatching only never-tested members to ``mapper``.

    Chromosomes are checked against the graveyard up front; novel ones are
    evaluated (possibly in parallel, evaluate is pure) and buried in input
    order, so the outcome is identical for any mapper.
    """
    novel = [c for c in dict.fromkeys(chromosomes) if c not in graveyard]
    fresh = dict(
        zip(novel, mapper(lambda c: evaluate(c, split, cfg, master_seed), novel))
    )
    out: list[Score] = []
    for c in chromosomes:
        if c in fresh:
            score = fresh.pop(c)
            graveyard.insert(c, score, generation)
            out.append(score)
        else:
            out.append(graveyard.note_hit(c, generation))
    return out
