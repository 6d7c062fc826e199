import json
from concurrent.futures import ThreadPoolExecutor

import pytest

import gaselect.fitness as fitness_mod
from gaselect import Chromosome, Score, TrainConfig
from gaselect.errors import SolveFailure
from gaselect.fitness import (
    INFINITE_SSE,
    Graveyard,
    derive_weight_seed,
    evaluate,
    evaluate_batch,
    ranking_key,
)
from tests.conftest import count_train_calls, make_split


@pytest.fixture(scope="module")
def small_split():
    return make_split(5, [0, 1], 0.1, seed=31, n_samples=120, n_train=60)


@pytest.fixture(scope="module")
def train_cfg():
    return TrainConfig(hidden_units=2, max_iterations=60)


class TestWeightSeed:
    def test_frozen_values(self):
        # blake2b-derived; stable across runs, platforms, processes
        assert derive_weight_seed(7, Chromosome([0, 2])) == 8384518252550625589
        assert derive_weight_seed(7, Chromosome([0, 3])) == 5520280506056773733
        assert derive_weight_seed(8, Chromosome([0, 2])) == 8107543176988432351

    def test_varies_with_key_and_seed(self):
        seen = {
            derive_weight_seed(s, Chromosome(k))
            for s in range(4)
            for k in [(0,), (1,), (0, 1), (2, 5, 7)]
        }
        assert len(seen) == 16


class TestEvaluate:
    def test_deterministic(self, small_split, train_cfg):
        c = Chromosome([0, 2])
        a = evaluate(c, small_split, train_cfg, master_seed=5)
        b = evaluate(c, small_split, train_cfg, master_seed=5)
        assert a == b

    def test_independent_of_history(self, small_split, train_cfg):
        c = Chromosome([1, 3])
        fresh = evaluate(c, small_split, train_cfg, master_seed=5)
        evaluate(Chromosome([0]), small_split, train_cfg, master_seed=5)
        evaluate(Chromosome([4]), small_split, train_cfg, master_seed=5)
        again = evaluate(c, small_split, train_cfg, master_seed=5)
        assert fresh == again

    def test_master_seed_changes_score(self, small_split, train_cfg):
        c = Chromosome([0, 2])
        a = evaluate(c, small_split, train_cfg, master_seed=5)
        b = evaluate(c, small_split, train_cfg, master_seed=6)
        assert a.cv_sse != b.cv_sse

    def test_gene_count_recorded(self, small_split, train_cfg):
        c = Chromosome([0, 2, 4])
        score = evaluate(c, small_split, train_cfg, master_seed=5)
        assert score.gene_count == 3
        assert not score.failed

    def test_informative_beats_noise(self, noiseless_split):
        cfg = TrainConfig(hidden_units=5)
        informative = evaluate(Chromosome([0]), noiseless_split, cfg, master_seed=1)
        noise = evaluate(Chromosome([3]), noiseless_split, cfg, master_seed=1)
        assert informative.cv_sse < 1e-3
        assert noise.cv_sse >= 10 * informative.cv_sse

    def test_solve_failure_becomes_sentinel(self, small_split, train_cfg, monkeypatch):
        def boom(X, y, cfg):
            raise SolveFailure("forced")

        monkeypatch.setattr(fitness_mod, "train_lm", boom)
        score = evaluate(Chromosome([0]), small_split, train_cfg, master_seed=5)
        assert score.cv_sse == INFINITE_SSE
        assert score.failed
        assert score.gene_count == 1


class TestRankingKey:
    def test_sentinel_ranks_last(self):
        good = Score(cv_sse=123.0, train_sse=1.0, gene_count=5)
        bad = Score(cv_sse=INFINITE_SSE, train_sse=INFINITE_SSE, gene_count=1)
        assert ranking_key(Chromosome([0]), bad) > ranking_key(Chromosome(range(5)), good)

    def test_tie_breaks_fewer_genes(self):
        a = Score(cv_sse=1.0, train_sse=1.0, gene_count=2)
        b = Score(cv_sse=1.0, train_sse=1.0, gene_count=3)
        assert ranking_key(Chromosome([0, 1]), a) < ranking_key(Chromosome([0, 1, 2]), b)

    def test_tie_breaks_lexicographic(self):
        s = Score(cv_sse=1.0, train_sse=1.0, gene_count=2)
        assert ranking_key(Chromosome([0, 3]), s) < ranking_key(Chromosome([1, 2]), s)

    def test_total_order(self):
        scores = [
            (Chromosome([0]), Score(2.0, 1.0, 1)),
            (Chromosome([1]), Score(1.0, 1.0, 1)),
            (Chromosome([0, 1]), Score(1.0, 1.0, 2)),
            (Chromosome([2]), Score(INFINITE_SSE, INFINITE_SSE, 1)),
        ]
        ranked = sorted(scores, key=lambda kv: ranking_key(*kv))
        assert [c.genes for c, _ in ranked] == [(1,), (0, 1), (0,), (2,)]


def bury(g, genes, split, cfg, generation=0):
    """Score each gene list through the graveyard, in order."""
    chromosomes = [Chromosome(x) for x in genes]
    return evaluate_batch(chromosomes, g, split, cfg, 5, generation=generation)


class TestGraveyard:
    def test_empty_nothing_buried(self):
        g = Graveyard()
        assert Chromosome([1, 2]) not in g

    def test_insert_then_buried(self, small_split, train_cfg):
        g = Graveyard()
        bury(g, [[1, 2]], small_split, train_cfg)
        assert Chromosome([2, 1]) in g
        assert Chromosome([1, 2, 3]) not in g

    def test_append_only(self):
        g = Graveyard()
        c = Chromosome([0])
        g.insert(c, Score(1.0, 1.0, 1), generation=0)
        with pytest.raises(ValueError):
            g.insert(c, Score(2.0, 2.0, 1), generation=1)

    def test_cached_lookup_skips_training(self, small_split, train_cfg):
        g = Graveyard()
        with count_train_calls() as calls:
            (first,) = bury(g, [[0, 3]], small_split, train_cfg)
            (second,) = bury(g, [[0, 3]], small_split, train_cfg)
        assert [rec["was_cached"] for rec in g.audit] == [False, True]
        assert calls.n == 1
        assert first == second
        assert len(g) == 1

    def test_fresh_chromosome_grows_graveyard(self, small_split, train_cfg):
        g = Graveyard()
        for i in range(4):
            bury(g, [[i]], small_split, train_cfg)
            assert not g.audit[-1]["was_cached"]
        assert len(g) == 4

    def test_audit_records_cache_flag_and_generation(self, small_split, train_cfg):
        g = Graveyard()
        bury(g, [[2]], small_split, train_cfg, generation=0)
        bury(g, [[2]], small_split, train_cfg, generation=3)
        audit = g.audit
        assert [rec["was_cached"] for rec in audit] == [False, True]
        assert [rec["generation"] for rec in audit] == [0, 3]
        assert audit[0]["genes"] == [3]  # 1-based

    def test_audit_file_and_replay(self, tmp_path, small_split, train_cfg):
        g = Graveyard()
        bury(g, [[0], [1, 2], [0, 4]], small_split, train_cfg)
        bury(g, [[1, 2]], small_split, train_cfg)
        path = tmp_path / "audit.jsonl"
        g.write_audit(path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        rebuilt = Graveyard.replay(records)
        assert len(rebuilt) == len(g)
        for (k1, s1), (k2, s2) in zip(g.entries(), rebuilt.entries()):
            assert k1 == k2
            assert s1.cv_sse == s2.cv_sse
            assert s1.train_sse == s2.train_sse
        assert rebuilt.audit == g.audit

    def test_best_matches_min_rank(self, small_split, train_cfg):
        g = Graveyard()
        bury(g, [[0], [1], [0, 1], [2, 3], [0, 1, 2]], small_split, train_cfg)
        best, score = g.best()
        expected = min(g.entries(), key=lambda kv: ranking_key(*kv))
        assert (best, score) == expected
        assert isinstance(best, Chromosome)


class TestEvaluateBatch:
    def test_parallel_matches_sequential(self, small_split, train_cfg):
        batch = [Chromosome([i]) for i in range(5)] + [Chromosome([0, 1])]
        g_seq = Graveyard()
        seq = evaluate_batch(batch, g_seq, small_split, train_cfg, 5, generation=0)
        with ThreadPoolExecutor(max_workers=4) as pool:
            g_par = Graveyard()
            par = evaluate_batch(
                batch, g_par, small_split, train_cfg, 5, generation=0, mapper=pool.map
            )
        assert seq == par
        assert g_seq.audit == g_par.audit

    def test_duplicate_in_batch_trains_once(self, small_split, train_cfg):
        batch = [Chromosome([1]), Chromosome([1])]
        g = Graveyard()
        with count_train_calls() as calls:
            scores = evaluate_batch(batch, g, small_split, train_cfg, 5, generation=0)
        assert calls.n == 1
        assert len(g) == 1
        assert scores[0] == scores[1]
        assert [rec["was_cached"] for rec in g.audit] == [False, True]
