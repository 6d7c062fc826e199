"""Pinned search trajectories: breeding, bookkeeping and ranking, no training.

``gaselect.fitness.evaluate`` is replaced by a pure function of the gene set,
so these searches involve no BLAS arithmetic and their burial order depends
only on the breeder, the graveyard and the ranking. The expected values pin
the exact order in which chromosomes are buried, the winner, the number of
fallback draws and the bytes of the graveyard and generation records; any
change to how offspring are bred, deduplicated, drawn in the fallback,
ranked or recorded shows up here.
"""

import hashlib
import json

import pytest

import gaselect.engine as engine_mod
import gaselect.fitness as fitness_mod
from gaselect.engine import GaConfig, run
from gaselect.fitness import INFINITE_SSE, Score
from gaselect.mlp import TrainConfig
from tests.conftest import make_split


def fake_evaluate(c, split, cfg, master_seed):
    """A score from the gene set alone, with many ties and one failure."""
    if len(c.genes) == split.n_vars:
        return Score(INFINITE_SSE, INFINITE_SSE)
    cv = ((sum((g * 5 + 3) % 7 for g in c.genes) + 1) % 9) / 4
    return Score(cv_sse=cv, train_sse=cv / 2)


@pytest.fixture
def fake_search(monkeypatch, tmp_path):
    monkeypatch.setattr(fitness_mod, "evaluate", fake_evaluate)
    fallbacks = []
    original = engine_mod._random_novel

    def counting(*args, **kwargs):
        fallbacks.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "_random_novel", counting)

    def search(n_vars, **ga):
        split = make_split(n_vars, [0], 0.1, seed=3, n_samples=20, n_train=10)
        result = run(GaConfig(**ga), split, TrainConfig())
        path = tmp_path / "graveyard.jsonl"
        result.graveyard.write_audit(path)
        audit = path.read_text()
        genes = [json.loads(line)["genes"] for line in audit.splitlines()]
        return result, genes, len(fallbacks), audit

    return search


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def digest(gene_lists):
    return sha256("\n".join("-".join(map(str, g)) for g in gene_lists))


def reports_digest(result):
    return sha256(json.dumps([r.to_record() for r in result.reports]))


def test_enumeration_fallback_until_exhausted(fake_search):
    # 8 sensors admit 255 subsets; each offspring is one draw from the
    # generation's child law over the untested masks, so every generation
    # fills its 9 slots until novelty is spent and no fallback is drawn.
    result, genes, fallbacks, audit = fake_search(
        8, population_size=12, survival_fraction=0.25, mutation_rate=0.05,
        generations=100, master_seed=21,
    )
    assert result.exhausted
    assert len(genes) == 255
    assert genes[:12] == [[1], [2], [3], [4], [5], [6], [7], [8],
                          [1, 2, 3, 4, 5, 6, 7, 8],
                          [3, 5, 8], [1, 2, 5, 8], [1, 2, 3, 4, 5, 6, 7]]
    assert digest(genes) == EXPECTED_8["digest"]
    assert sha256(audit) == EXPECTED_8["graveyard_jsonl"]
    assert reports_digest(result) == EXPECTED_8["reports"]
    assert fallbacks == EXPECTED_8["fallbacks"]
    assert len(result.reports) == EXPECTED_8["generations"]
    assert result.best.label == EXPECTED_8["winner"]
    assert result.best_score.cv_sse == EXPECTED_8["cv_sse"]


def test_rejection_fallback(fake_search, monkeypatch):
    # 14 sensors exceed ENUMERATION_LIMIT, so the fallback rejection-samples.
    assert engine_mod.ENUMERATION_LIMIT < 14
    monkeypatch.setattr(engine_mod, "OFFSPRING_RETRY_LIMIT", 2)
    result, genes, fallbacks, audit = fake_search(
        14, population_size=16, survival_fraction=0.25, mutation_rate=0.02,
        generations=12, master_seed=5,
    )
    assert not result.exhausted
    assert len(genes) == EXPECTED_14["buried"]
    assert digest(genes) == EXPECTED_14["digest"]
    assert sha256(audit) == EXPECTED_14["graveyard_jsonl"]
    assert reports_digest(result) == EXPECTED_14["reports"]
    assert genes[-3:] == EXPECTED_14["last"]
    assert fallbacks == EXPECTED_14["fallbacks"]
    assert result.best.label == EXPECTED_14["winner"]
    assert result.best_score.cv_sse == EXPECTED_14["cv_sse"]


EXPECTED_8 = {
    "digest": "1229247a10351f20ace068a6c063fdde19d206abe8975835cb0811fdd3cac162",
    "graveyard_jsonl": "64e08c120a271ff7d2368dbd63fb150e1a2d03ec633101aa93291374f54b84ae",
    "reports": "e786b1371e8c4a7606707b9769479c513ab9677d49c658e515fa52650e4c5b7f",
    "fallbacks": 0,
    "generations": 28,
    "winner": "1-7",
    "cv_sse": 0.0,
}

EXPECTED_14 = {
    "buried": 160,
    "digest": "f740a404c777b54f7f941707e17cfbe6edeb6c54d4d0c8f32f0eb5390c306d91",
    "graveyard_jsonl": "e1b2e05860ce1aefd0af81d7d7425400dcda3cddebd259bed0ebfc6b6a7cc06e",
    "reports": "0a123544e218ebadafd926a1c6970ad74cf6d73ea70635c97745f41fb476a042",
    "last": [[7, 8, 13], [2, 4, 12, 13, 14], [1, 6, 11, 12, 14]],
    "fallbacks": 53,
    "winner": "2-5-14",
    "cv_sse": 0.0,
}
