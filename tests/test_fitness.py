import json
import pickle
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

import gaselect.fitness as fitness_mod
import gaselect.mlp as mlp_mod
from gaselect.data import Dataset
from gaselect.errors import DataError, SolveFailure
from gaselect.fitness import (
    INFINITE_SSE,
    Graveyard,
    Score,
    Scorer,
    derive_weight_seed,
    evaluate,
    evaluate_batch,
    ranking_key,
)
from gaselect.genome import Chromosome
from gaselect.mlp import TrainConfig
from tests.conftest import make_split


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

    def test_informative_beats_noise(self, noiseless_split):
        cfg = TrainConfig(hidden_units=5)
        informative = evaluate(Chromosome([0]), noiseless_split, cfg, master_seed=1)
        noise = evaluate(Chromosome([3]), noiseless_split, cfg, master_seed=1)
        assert informative.cv_sse < 1e-3
        assert noise.cv_sse >= 10 * informative.cv_sse

    def test_solve_failure_becomes_sentinel(self, small_split, train_cfg, monkeypatch):
        def boom(X, y, cfg, weight_seed=0):
            raise SolveFailure("forced")

        monkeypatch.setattr(fitness_mod, "train_lm", boom)
        score = evaluate(Chromosome([0]), small_split, train_cfg, master_seed=5)
        assert score.cv_sse == INFINITE_SSE
        assert score.failed

    # Exact scores (float.hex of cv_sse, train_sse) on small_split: the
    # projection and z-scoring arithmetic must not move a bit.
    @pytest.mark.parametrize(
        "genes, cv_hex, train_hex",
        [
            ((0,), "0x1.0ed87883d600ep-1", "0x1.b47a7eb19a1cap-2"),
            ((1, 3), "0x1.4b4b39282f151p-2", "0x1.42f684714762ap-2"),
            ((0, 1, 2, 3, 4), "0x1.63eeb10a9f5ebp-3", "0x1.6079a835d7f59p-3"),
        ],
    )
    def test_scores_pinned(self, small_split, train_cfg, genes, cv_hex, train_hex):
        score = evaluate(Chromosome(genes), small_split, train_cfg, master_seed=5)
        assert (score.cv_sse.hex(), score.train_sse.hex()) == (cv_hex, train_hex)

    def test_predicts_once_after_training(self, small_split, train_cfg, monkeypatch):
        # the bench tracer counts mlp.predict by patching these two names
        events = []
        predict, train_lm = mlp_mod.predict, fitness_mod.train_lm

        def spy_predict(*args, **kwargs):
            events.append("predict")
            return predict(*args, **kwargs)

        def spy_train(*args, **kwargs):
            events.append("train")
            model = train_lm(*args, **kwargs)
            events.append("trained")
            return model

        monkeypatch.setattr(mlp_mod, "predict", spy_predict)
        monkeypatch.setattr(fitness_mod, "train_lm", spy_train)
        for genes in ((0,), (1, 3), (0, 1, 2, 3, 4)):
            events.clear()
            evaluate(Chromosome(genes), small_split, train_cfg, master_seed=5)
            assert events == ["train", "trained", "predict"]

    def test_builds_no_dataset(self, small_split, train_cfg, monkeypatch):
        built = []
        original = Dataset.__post_init__

        def spy(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(Dataset, "__post_init__", spy)
        evaluate(Chromosome([0, 2]), small_split, train_cfg, master_seed=5)
        assert built == []
        train = small_split.train
        Dataset(train.samples, train.target, train.var_names)
        assert len(built) == 1  # the spy sees a construction


class TestRankingKey:
    def test_sentinel_ranks_last(self):
        good = Score(cv_sse=123.0, train_sse=1.0)
        bad = Score(cv_sse=INFINITE_SSE, train_sse=INFINITE_SSE)
        assert ranking_key(Chromosome([0]), bad) > ranking_key(Chromosome(range(5)), good)

    def test_tie_breaks_fewer_genes(self):
        s = Score(cv_sse=1.0, train_sse=1.0)
        assert ranking_key(Chromosome([1, 2]), s) < ranking_key(Chromosome([0, 1, 2]), s)

    def test_tie_breaks_lexicographic(self):
        s = Score(cv_sse=1.0, train_sse=1.0)
        assert ranking_key(Chromosome([0, 3]), s) < ranking_key(Chromosome([1, 2]), s)

    def test_total_order(self):
        scores = [
            (Chromosome([0]), Score(2.0, 1.0)),
            (Chromosome([1]), Score(1.0, 1.0)),
            (Chromosome([0, 1]), Score(1.0, 1.0)),
            (Chromosome([2]), Score(INFINITE_SSE, INFINITE_SSE)),
        ]
        ranked = sorted(scores, key=lambda kv: ranking_key(*kv))
        assert [c.genes for c, _ in ranked] == [(1,), (0, 1), (0,), (2,)]


def bury(g, genes, split, cfg, generation=0):
    """Score each gene list through the graveyard, in order."""
    chromosomes = [Chromosome(x) for x in genes]
    return evaluate_batch(chromosomes, g, Scorer(split, cfg, 5), generation)


def written_records(g, tmp_path):
    """The records ``write_audit`` writes for g."""
    path = tmp_path / "graveyard.jsonl"
    g.write_audit(path)
    return [json.loads(line) for line in path.read_text().splitlines()]


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
        g.insert(c, Score(1.0, 1.0), generation=0)
        with pytest.raises(ValueError):
            g.insert(c, Score(2.0, 2.0), generation=1)

    def test_buried_chromosome_rejected(self, small_split, train_cfg):
        g = Graveyard()
        (first,) = bury(g, [[0, 3]], small_split, train_cfg)
        with pytest.raises(ValueError, match="already buried"):
            bury(g, [[0, 3]], small_split, train_cfg, generation=1)
        assert len(g) == 1
        assert list(g.entries()) == [(Chromosome([0, 3]), first)]

    def test_fresh_chromosome_grows_graveyard(self, tmp_path, small_split, train_cfg):
        g = Graveyard()
        for i in range(4):
            bury(g, [[i]], small_split, train_cfg)
        assert len(g) == 4
        assert [rec["genes"] for rec in written_records(g, tmp_path)] == [
            [1], [2], [3], [4]
        ]

    def test_audit_records_cache_flag_and_generation(
        self, tmp_path, small_split, train_cfg
    ):
        g = Graveyard()
        bury(g, [[2]], small_split, train_cfg, generation=0)
        bury(g, [[1, 4]], small_split, train_cfg, generation=3)
        records = written_records(g, tmp_path)
        assert [rec["was_cached"] for rec in records] == [False, False]
        assert [rec["generation"] for rec in records] == [0, 3]
        assert records[0]["genes"] == [3]  # 1-based
        assert list(records[0]) == [
            "genes", "cv_sse", "train_sse", "generation", "was_cached"
        ]

    def test_audit_file_and_replay(self, tmp_path, small_split, train_cfg):
        g = Graveyard()
        bury(g, [[0], [1, 2], [0, 4]], small_split, train_cfg)
        bury(g, [[3]], small_split, train_cfg, generation=1)
        path = tmp_path / "audit.jsonl"
        g.write_audit(path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        rebuilt = Graveyard.replay(records, small_split.n_vars)
        assert list(rebuilt.entries()) == list(g.entries())
        again = tmp_path / "again.jsonl"
        rebuilt.write_audit(again)
        assert again.read_bytes() == path.read_bytes()
        with pytest.raises(
            DataError, match="^graveyard record 5: was_cached must be false, got True$"
        ):
            Graveyard.replay(
                records + [dict(records[1], was_cached=True)], small_split.n_vars
            )

    def test_replay_range_checks_genes_before_the_mask(self):
        # a mask as wide as sensor 100,000,000 alone takes 12.5 MB
        record = {"genes": [1, 100000000], "cv_sse": 1.0, "train_sse": 0.5,
                  "generation": 0, "was_cached": False}
        message = "^graveyard record 1: sensor 100000000 out of range for 20 sensors$"
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=message):
                Graveyard.replay([record], 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "genes, message",
        [
            ("[1.0]", r"sensor numbers must be a list of ints, got \[1\.0\]$"),
            ("[true]", r"sensor numbers must be a list of ints, got \[True\]$"),
            ("[1, 2.0]", r"sensor numbers must be a list of ints, got \[1, 2\.0\]$"),
            ('"1-2"', "sensor numbers must be a list of ints, got '1-2'$"),
            ("3", "sensor numbers must be a list of ints, got 3$"),
            ("[]", "a chromosome needs at least one gene$"),
            ("[0, 2]", r"sensor numbers are 1-based, got \[0, 2\]$"),
            ("[2, 2]", r"repeated sensor number in \[2, 2\]$"),
            ("[1, 6]", "sensor 6 out of range for 5 sensors$"),
        ],
        ids=["float", "bool", "mixed", "string", "number", "empty", "zero",
             "repeated", "beyond_n_vars"],
    )
    def test_replay_rejects_bad_genes(self, genes, message):
        # a data error at the bad record, as for every other record defect
        line = f'{{"genes": {genes}, "cv_sse": 1.0, "train_sse": 0.5, '
        line += '"generation": 0, "was_cached": false}'
        records = [self.GOOD_RECORD, json.loads(line)]
        with pytest.raises(DataError, match="^graveyard record 2: " + message):
            Graveyard.replay(records, 5)

    GOOD_RECORD = {"genes": [1, 2], "cv_sse": 1.0, "train_sse": 0.5,
                   "generation": 0, "was_cached": False}

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"cv_sse": "x", "train_sse": None, "generation": "g"},
             "cv_sse must be a float other than NaN, got 'x'$"),
            ({"train_sse": None}, "train_sse must be a float other than NaN, got None$"),
            ({"cv_sse": True}, "cv_sse must be a float other than NaN, got True$"),
            ({"cv_sse": 1}, "cv_sse must be a float other than NaN, got 1$"),
            ({"train_sse": float("nan")}, "train_sse must be a float other than NaN, got nan$"),
            ({"generation": "g"}, "generation must be an int >= 0, got 'g'$"),
            ({"generation": -1}, "generation must be an int >= 0, got -1$"),
            ({"generation": 1.0}, "generation must be an int >= 0, got 1.0$"),
            ({"generation": False}, "generation must be an int >= 0, got False$"),
            ({"was_cached": 0}, "was_cached must be false, got 0$"),
            ({"was_cached": None}, "was_cached must be false, got None$"),
        ],
        ids=["three_bad", "null_sse", "bool_sse", "int_sse", "nan_sse",
             "string_generation", "negative_generation", "float_generation",
             "bool_generation", "zero_cached", "null_cached"],
    )
    def test_replay_rejects_bad_fields(self, fields, message):
        # the defect is reported before best() could trip over it
        records = [self.GOOD_RECORD, dict(self.GOOD_RECORD, genes=[3], **fields)]
        with pytest.raises(DataError, match="^graveyard record 2: " + message):
            Graveyard.replay(records, 5)

    @pytest.mark.parametrize(
        "field", ["genes", "cv_sse", "train_sse", "generation", "was_cached"]
    )
    def test_replay_rejects_missing_field(self, field):
        record = dict(self.GOOD_RECORD)
        del record[field]
        message = f"^graveyard record 1: missing field '{field}'$"
        with pytest.raises(DataError, match=message):
            Graveyard.replay([record], 5)

    def test_replay_rejects_a_record_that_is_no_object(self):
        message = r"^graveyard record 2: expected a JSON object, got \[1, 2\]$"
        with pytest.raises(DataError, match=message):
            Graveyard.replay([self.GOOD_RECORD, [1, 2]], 5)

    def test_replay_keeps_the_failure_sentinel(self):
        line = '{"genes": [2], "cv_sse": Infinity, "train_sse": Infinity, '
        line += '"generation": 3, "was_cached": false}'
        g = Graveyard.replay([self.GOOD_RECORD, json.loads(line)], 5)
        assert dict(g.entries())[Chromosome([1])].failed
        assert g.best() == (Chromosome([0, 1]), Score(1.0, 0.5))

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
        scorer = Scorer(small_split, train_cfg, 5)
        seq = evaluate_batch(batch, g_seq, scorer, 0)
        with ThreadPoolExecutor(max_workers=4) as pool:
            g_par = Graveyard()
            par = evaluate_batch(batch, g_par, scorer, 0, mapper=pool.map)
        assert seq == par
        assert list(g_seq.entries()) == list(g_par.entries())

    def test_scorer_survives_pickling(self, small_split, train_cfg):
        # a process pool pickles the function it maps, as this mapper does
        shipped = []

        def pickling_map(fn, items):
            shipped.append(pickle.loads(pickle.dumps(fn)))
            return map(shipped[-1], items)

        batch = [Chromosome([i]) for i in range(5)] + [Chromosome([0, 1])]
        scorer = Scorer(small_split, train_cfg, 5)
        g_plain, g_pickled = Graveyard(), Graveyard()
        plain = evaluate_batch(batch, g_plain, scorer, 0)
        pickled = evaluate_batch(batch, g_pickled, scorer, 0, mapper=pickling_map)
        assert plain == pickled
        assert list(g_plain.entries()) == list(g_pickled.entries())
        split = shipped[0].split
        for block in (split.train, split.cv):
            assert not block.samples.flags.writeable
            assert not block.target.flags.writeable
        assert split.train == small_split.train and split.cv == small_split.cv

    def test_duplicate_in_batch_rejected(self, small_split, train_cfg):
        batch = [Chromosome([1]), Chromosome([2]), Chromosome([1])]
        g = Graveyard()
        with pytest.raises(ValueError, match="already buried"):
            evaluate_batch(batch, g, Scorer(small_split, train_cfg, 5), 0)
        assert [c for c, _ in g.entries()] == [Chromosome([1]), Chromosome([2])]
