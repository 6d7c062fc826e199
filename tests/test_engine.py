import itertools
import math
from decimal import Decimal

import numpy as np
import pytest
from scipy import stats

import gaselect.engine
from gaselect.engine import (
    CHILD_LAW_BLOCK,
    P_ONE_PARENT,
    ChildLaw,
    GaConfig,
    RunState,
    child_distribution,
    exhaustive_search,
    init_population,
    produce_offspring,
    run,
    select_parents,
    step_generation,
    subset_count,
)
from gaselect.errors import ConfigError, NoveltyExhausted
from gaselect.fitness import Graveyard, Score, Scorer, evaluate_batch, ranking_key
from gaselect.genome import Chromosome, uniform_crossover
from gaselect.mlp import TrainConfig
from tests.conftest import count_train_calls, make_split


def dummy_members(chromosomes):
    return [(c, Score(float(i), 1.0)) for i, c in enumerate(chromosomes)]


def graveyard_bytes(result, path):
    """The graveyard.jsonl bytes a run's graveyard writes."""
    result.graveyard.write_audit(path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def tiny_split():
    return make_split(3, [0], 0.1, seed=17, n_samples=80, n_train=40)


@pytest.fixture(scope="module")
def six_var_split():
    return make_split(6, [0, 1], 0.1, seed=23, n_samples=160, n_train=80)


@pytest.fixture(scope="module")
def fast_train():
    return TrainConfig(hidden_units=2, max_iterations=40)


class TestSubsetCount:
    def test_three(self):
        assert subset_count(3) == 7

    def test_twenty(self):
        assert subset_count(20) == 1_048_575


class TestGaConfig:
    def test_defaults(self):
        cfg = GaConfig(n_vars=20)
        assert cfg.population_size == 50
        assert cfg.survivor_count == 10

    def test_survivor_ceil(self):
        assert GaConfig(n_vars=20, population_size=30).survivor_count == 6

    def test_survivor_count_is_the_exact_decimal_ceiling(self):
        # 0.14 * 50 is 7.000000000000001 in binary; the survivors are still 7
        assert GaConfig(n_vars=20, survival_fraction=0.14).survivor_count == 7
        for population in range(4, 201):
            for percent in range(1, 100):
                fraction = percent / 100
                exact = math.ceil(Decimal(repr(fraction)) * population)
                if not 2 <= exact < population:
                    continue  # GaConfig refuses it
                cfg = GaConfig(
                    n_vars=20, population_size=population, survival_fraction=fraction
                )
                assert cfg.survivor_count == exact, (population, fraction)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 3},
            {"survival_fraction": 0.0},
            {"survival_fraction": 1.0},
            {"population_size": 4, "survival_fraction": 0.1},  # <2 survivors
            {"generations": 0},
            {"mutation_rate": 1.5},
            {"population_size": 10, "survival_fraction": 0.95},  # keeps all 10
            {"population_size": 50, "survival_fraction": 0.99},  # keeps all 50
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            GaConfig(n_vars=20, **kwargs)

    def test_space_smaller_than_population(self):
        with pytest.raises(ConfigError):
            GaConfig(n_vars=2, population_size=4)

    def test_negative_master_seed(self):
        with pytest.raises(ConfigError, match="master_seed must be >= 0, got -1"):
            GaConfig(n_vars=8, master_seed=-1)


class TestInitPopulation:
    def test_singletons_full_set_and_fillers(self):
        cfg = GaConfig(n_vars=20, population_size=30, master_seed=3)
        members = init_population(cfg, np.random.default_rng(3))
        assert len(members) == 30
        distinct = set(members)
        assert len(distinct) == 30
        for i in range(20):
            assert Chromosome([i]) in distinct
        assert Chromosome(range(20)) in distinct
        fillers = [c for c in members if 1 < len(c) < 20]
        assert len(fillers) == 9
        assert all(2 <= len(c) <= 19 for c in fillers)

    def test_exact_fit_no_fillers(self):
        cfg = GaConfig(n_vars=3, population_size=4, survival_fraction=0.5, master_seed=0)
        members = init_population(cfg, np.random.default_rng(0))
        assert [c.genes for c in members] == [(0,), (1,), (2,), (0, 1, 2)]

    def test_deterministic(self):
        cfg = GaConfig(n_vars=12, population_size=20, master_seed=42)
        first = init_population(cfg, np.random.default_rng(42))
        assert first == init_population(cfg, np.random.default_rng(42))

    def test_truncation_warns(self):
        cfg = GaConfig(n_vars=10, population_size=8, master_seed=0)
        with pytest.warns(UserWarning, match="singletons"):
            members = init_population(cfg, np.random.default_rng(0))
        assert len(members) == 8
        assert members[-1].genes == tuple(range(10))
        assert [c.genes for c in members[:-1]] == [(i,) for i in range(7)]


class TestSelectParents:
    def test_two_survivors_forced(self):
        members = dummy_members([Chromosome([0]), Chromosome([1])])
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = select_parents(members, rng)
            assert {a.genes, b.genes} == {(0,), (1,)}

    def test_parents_are_members(self):
        members = dummy_members([Chromosome([i]) for i in range(6)])
        rng = np.random.default_rng(1)
        pool = {m[0].genes for m in members}
        for _ in range(200):
            a, b = select_parents(members, rng)
            assert a.genes in pool and b.genes in pool
            assert a.genes != b.genes

    def test_uniform_over_pairs(self):
        # five survivors give ten unordered pairs; chi-square against uniform
        members = dummy_members([Chromosome([i]) for i in range(5)])
        rng = np.random.default_rng(7)
        counts = {}
        draws = 10_000
        for _ in range(draws):
            a, b = select_parents(members, rng)
            pair = frozenset((a.genes, b.genes))
            counts[pair] = counts.get(pair, 0) + 1
        assert len(counts) == 10
        _, p_value = stats.chisquare(list(counts.values()))
        assert p_value > 0.01


def bury(graveyard, chromosomes):
    for c in chromosomes:
        graveyard.insert(c, Score(1.0, 1.0), 0)


def every_chromosome(n_vars):
    return [Chromosome._from_mask(mask) for mask in range(1, 1 << n_vars)]


class TestProduceOffspring:
    """Up to ENUMERATION_LIMIT variables the child is drawn from the exact
    child law; the ``_by_rejection`` copies run at 13 variables, where
    crossover/mutation proposals are rejected until one is novel."""

    def cfg(self, n_vars=6, **kw):
        base = dict(n_vars=n_vars, population_size=8, survival_fraction=0.5, master_seed=0)
        base.update(kw)
        return GaConfig(**base)

    def check_never_buried_never_pending(self, cfg, law_for):
        rng = np.random.default_rng(3)
        graveyard = Graveyard()
        buried = ([0], [1], [0, 1], [2, 3], [0, 1, 2], [0, 2], [1, 2])
        bury(graveyard, [Chromosome(g) for g in buried])
        survivors = dummy_members([Chromosome([0, 1, 2]), Chromosome([2, 3]), Chromosome([0, 4])])
        pending = set()
        law = law_for(survivors, graveyard, cfg)
        for _ in range(30):
            before = set(pending)
            child = produce_offspring(survivors, graveyard, pending, cfg, rng, law)
            assert child not in graveyard
            assert child not in before
        assert len(pending) == 30

    def test_never_buried_never_pending(self):
        self.check_never_buried_never_pending(self.cfg(), ChildLaw)

    def test_never_buried_never_pending_by_rejection(self):
        self.check_never_buried_never_pending(self.cfg(13), lambda *args: None)

    def test_fallback_to_random_when_breeding_stalls(self):
        # identical parents with zero mutation can only rebreed themselves,
        # which is buried: q has no untested mass, so the draw is uniform
        cfg = self.cfg(mutation_rate=0.0)
        rng = np.random.default_rng(4)
        graveyard = Graveyard()
        bury(graveyard, [Chromosome([0, 1, 2])])
        survivors = dummy_members([Chromosome([0, 1, 2]), Chromosome([0, 1, 2])])
        pending = set()
        law = ChildLaw(survivors, graveyard, cfg)
        child = produce_offspring(survivors, graveyard, pending, cfg, rng, law)
        assert child.genes != (0, 1, 2)

    def test_fallback_to_random_when_breeding_stalls_by_rejection(self, monkeypatch):
        monkeypatch.setattr(gaselect.engine, "OFFSPRING_RETRY_LIMIT", 5)
        cfg = self.cfg(13, mutation_rate=0.0)
        rng = np.random.default_rng(4)
        graveyard = Graveyard()
        bury(graveyard, [Chromosome([0, 1, 2])])
        survivors = dummy_members([Chromosome([0, 1, 2]), Chromosome([0, 1, 2])])
        child = produce_offspring(survivors, graveyard, set(), cfg, rng, None)
        assert child.genes != (0, 1, 2)

    def test_exhaustion_raises(self):
        cfg = GaConfig(n_vars=3, population_size=4, survival_fraction=0.5, master_seed=0)
        graveyard = Graveyard()
        for mask in range(1, 8):
            genes = [i for i in range(3) if mask >> i & 1]
            graveyard.insert(Chromosome(genes), Score(1.0, 1.0), 0)
        survivors = dummy_members([Chromosome([0]), Chromosome([1])])
        pending = set()
        law = ChildLaw(survivors, graveyard, cfg)
        with pytest.raises(NoveltyExhausted):
            produce_offspring(survivors, graveyard, pending, cfg, np.random.default_rng(0), law)

    def test_exhaustion_raises_by_rejection(self, monkeypatch):
        monkeypatch.setattr(gaselect.engine, "OFFSPRING_RETRY_LIMIT", 5)
        cfg = self.cfg(13)
        graveyard = Graveyard()
        bury(graveyard, every_chromosome(13))
        survivors = dummy_members([Chromosome([0]), Chromosome([1])])
        with pytest.raises(NoveltyExhausted):
            produce_offspring(survivors, graveyard, set(), cfg, np.random.default_rng(0), None)

    def test_small_space_proposes_nothing(self, monkeypatch):
        # the law replaces the per-attempt parent picks and operators
        def refuse(*args, **kwargs):
            raise AssertionError("operator called below ENUMERATION_LIMIT")

        for name in ("select_parents", "uniform_crossover", "mutate", "_random_novel"):
            monkeypatch.setattr(gaselect.engine, name, refuse)
        cfg = self.cfg(12)
        survivors = dummy_members([Chromosome([0, 5]), Chromosome([3, 11]), Chromosome([7])])
        pending = set()
        law = ChildLaw(survivors, Graveyard(), cfg)
        rng = np.random.default_rng(8)
        for _ in range(50):
            produce_offspring(survivors, Graveyard(), pending, cfg, rng, law)
        assert len(pending) == 50


def brute_force_law(parents, n_vars, mu):
    """q by listing every crossover keep pattern and every mutation flip mask."""
    q = np.zeros(1 << n_vars)
    pairs = list(itertools.combinations(parents, 2))
    for a, b in pairs:
        exclusive = [1 << i for i in range(n_vars) if (a.mask ^ b.mask) >> i & 1]
        for kept in itertools.product((False, True), repeat=len(exclusive)):
            child = a.mask & b.mask
            for bit, keep in zip(exclusive, kept):
                child |= bit if keep else 0
            p_cross = math.prod(P_ONE_PARENT if k else 1 - P_ONE_PARENT for k in kept)
            for flips in range(1 << n_vars):
                f = flips.bit_count()
                q[child ^ flips] += p_cross * mu**f * (1 - mu) ** (n_vars - f) / len(pairs)
    q[0] = 0.0
    return q


def reference_child_distribution(parents, n_vars, mu):
    """q summed one pair's law at a time: the block-wise child_distribution
    must match it bit for bit."""
    one_parent = P_ONE_PARENT * (1 - mu) + (1 - P_ONE_PARENT) * mu
    q = np.zeros(1 << n_vars)
    law = np.empty(1 << n_vars)
    pairs = list(itertools.combinations(parents, 2))
    for a, b in pairs:
        both, either = a.mask & b.mask, a.mask | b.mask
        law[0] = 1.0
        size = 1
        for i in range(n_vars):
            bit = 1 << i
            s = 1 - mu if both & bit else one_parent if either & bit else mu
            np.multiply(law[:size], s, out=law[size : 2 * size])
            law[:size] *= 1 - s
            size *= 2
        q += law
    q /= len(pairs)
    q[0] = 0.0
    return q


def random_parents(n_vars, count, rng):
    """``count`` random nonempty chromosomes; repeats allowed in small spaces."""
    masks = rng.integers(1, 1 << n_vars, size=count)
    return [Chromosome._from_mask(int(m)) for m in masks]


SURVIVOR_SETS = {
    "three": [[0, 1], [1, 2, 3], [3]],
    "four": [[0], [0, 1, 2, 3], [1, 3], [2]],
}


class TestChildLaw:
    @pytest.mark.parametrize("mu", [0.0, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("survivors", SURVIVOR_SETS.values(), ids=SURVIVOR_SETS)
    def test_equals_brute_force(self, survivors, mu):
        parents = [Chromosome(g) for g in survivors]
        q = child_distribution(parents, 4, mu)
        np.testing.assert_allclose(q, brute_force_law(parents, 4, mu), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_vars", range(1, 13))
    def test_blocks_equal_per_pair_loop_bit_for_bit(self, n_vars):
        # at 12 sensors, 12 parents make 66 pairs: more than one block holds
        assert math.comb(12, 2) > CHILD_LAW_BLOCK >> 12
        rng = np.random.default_rng(100 + n_vars)
        for count in range(2, 13):
            parents = random_parents(n_vars, count, rng)
            for mu in (0.0, 0.05, 0.1, 0.5, 1.0):
                got = child_distribution(parents, n_vars, mu)
                want = reference_child_distribution(parents, n_vars, mu)
                assert got.tobytes() == want.tobytes(), (count, mu)

    @pytest.mark.parametrize("block", [1, 3 << 8, 7 << 8])
    def test_small_blocks_equal_per_pair_loop(self, block, monkeypatch):
        # one pair per block, then 3 and 7 of the 45 pairs at 8 sensors
        monkeypatch.setattr(gaselect.engine, "CHILD_LAW_BLOCK", block)
        parents = random_parents(8, 10, np.random.default_rng(block))
        for mu in (0.0, 0.05, 0.5, 1.0):
            got = child_distribution(parents, 8, mu)
            assert got.tobytes() == reference_child_distribution(parents, 8, mu).tobytes()

    def test_matches_crossover_operator(self):
        # at zero mutation a child is one crossover of a uniform pair; every
        # parent holds gene 0, so crossover never comes up empty
        parents = [Chromosome(g) for g in ([0, 1], [0, 2, 3], [0, 1, 3], [0, 4])]
        q = child_distribution(parents, 5, 0.0)
        members = dummy_members(parents)
        rng = np.random.default_rng(12)
        draws = 20_000
        counts = np.zeros(q.size)
        for _ in range(draws):
            a, b = select_parents(members, rng)
            counts[uniform_crossover(a, b, P_ONE_PARENT, rng).mask] += 1
        support = q > 0
        assert counts[~support].sum() == 0
        _, p_value = stats.chisquare(counts[support], q[support] / q.sum() * draws)
        assert p_value > 0.01

    def test_first_draw_follows_restricted_law(self):
        # one draw from a fresh law, repeated: chi-square against q over the
        # free masks, the rare ones pooled so each bin expects >= 5 draws
        cfg = GaConfig(n_vars=4, population_size=6, survival_fraction=0.5,
                       mutation_rate=0.1)
        survivors = dummy_members([Chromosome(g) for g in SURVIVOR_SETS["three"]])
        graveyard = Graveyard()
        bury(graveyard, [Chromosome(g) for g in ([0, 1], [3], [1, 3], [0, 1, 2, 3], [1, 2, 3])])
        taken = {c.mask for c, _ in graveyard.entries()}
        free = [mask for mask in range(1, 16) if mask not in taken]
        q = child_distribution([c for c, _ in survivors], 4, 0.1)
        expected = q[free] / q[free].sum()

        rng = np.random.default_rng(2024)
        draws = 20_000
        counts = dict.fromkeys(free, 0)
        for _ in range(draws):
            mask = ChildLaw(survivors, graveyard, cfg).draw(rng).mask
            counts[mask] += 1
        observed = np.array([counts[m] for m in free], dtype=float)
        expected *= draws
        rare = expected < 5
        if rare.any():
            observed = np.append(observed[~rare], observed[rare].sum())
            expected = np.append(expected[~rare], expected[rare].sum())
        _, p_value = stats.chisquare(observed, expected)
        assert p_value > 0.01

    def test_uniform_when_untested_mass_is_zero(self):
        # zero mutation keeps children inside the parents' union {0, 1, 2};
        # with all of those buried, draws come from the uniform branch and
        # still spend the rest of the space, each mask once
        cfg = GaConfig(n_vars=6, population_size=6, survival_fraction=0.5,
                       mutation_rate=0.0)
        survivors = dummy_members([Chromosome(g) for g in ([0, 1], [1, 2], [0, 2])])
        inside = [c for c in every_chromosome(6) if c.mask < 8]
        assert child_distribution([c for c, _ in survivors], 6, 0.0)[8:].sum() == 0
        graveyard = Graveyard()
        bury(graveyard, inside)
        pending = set()
        law = ChildLaw(survivors, graveyard, cfg)
        rng = np.random.default_rng(6)
        for _ in range(63 - len(inside)):
            produce_offspring(survivors, graveyard, pending, cfg, rng, law)
        assert pending == set(every_chromosome(6)) - set(inside)
        with pytest.raises(NoveltyExhausted, match="all 63 chromosomes tested"):
            produce_offspring(survivors, graveyard, pending, cfg, rng, law)

    def test_top_draw_on_subnormal_mass(self):
        # every untested mask needs genes 2 and 3, in neither parent, so its
        # weight carries mu**2, a subnormal; rng.random() * total then rounds
        # up to the total, past the last cumsum entry below it
        class TopDraw:
            def random(self):
                return 1 - 2**-53

        cfg = GaConfig(n_vars=4, population_size=6, survival_fraction=0.5,
                       mutation_rate=1e-160)
        survivors = dummy_members([Chromosome([0]), Chromosome([1])])
        graveyard = Graveyard()
        bury(graveyard, [c for c in every_chromosome(4) if c.mask < 0b1100])
        law = ChildLaw(survivors, graveyard, cfg)
        assert 0 < law.weights.sum() < np.finfo(float).tiny
        assert law.draw(TopDraw()) == Chromosome([0, 1, 2, 3])

    @pytest.mark.parametrize("mu", [0.0, 0.1, 1.0])
    def test_spent_space_raises(self, mu):
        cfg = GaConfig(n_vars=4, population_size=6, survival_fraction=0.5,
                       mutation_rate=mu)
        survivors = dummy_members([Chromosome([0]), Chromosome([1, 2])])
        graveyard = Graveyard()
        bury(graveyard, every_chromosome(4)[:10])
        law = ChildLaw(survivors, graveyard, cfg)
        rng = np.random.default_rng(1)
        drawn = {law.draw(rng) for _ in range(5)}
        assert drawn == set(every_chromosome(4)[10:])
        with pytest.raises(NoveltyExhausted):
            law.draw(rng)


def make_state(cfg, split, train_cfg):
    rng = np.random.default_rng(cfg.master_seed)
    scorer = Scorer(split, train_cfg, cfg.master_seed)
    graveyard = Graveyard()
    initial = init_population(cfg, rng)
    scores = evaluate_batch(initial, graveyard, scorer, generation=0)
    population = sorted(
        zip(initial, scores), key=lambda m: ranking_key(*m)
    )
    return RunState(
        cfg=cfg,
        scorer=scorer,
        rng=rng,
        graveyard=graveyard,
        population=population,
        mapper=map,
    )


class TestStepGeneration:
    def test_counts_and_elitism(self, six_var_split, fast_train):
        cfg = GaConfig(n_vars=6, population_size=10, survival_fraction=0.3, master_seed=5)
        state = make_state(cfg, six_var_split, fast_train)
        best_before = state.population[0][1].cv_sse
        survivors_before = [
            (m[0].genes, m[1].cv_sse) for m in state.population[: cfg.survivor_count]
        ]
        report = step_generation(state)
        assert report.new_evaluations == 10 - 3
        assert report.best_cv_sse <= best_before
        assert len(state.population) == 10
        carried = {m[0].genes: m[1].cv_sse for m in state.population}
        for genes, cv in survivors_before:
            assert carried[genes] == cv  # survivor scores bit-identical

    def test_population_stays_unique(self, six_var_split, fast_train):
        cfg = GaConfig(n_vars=6, population_size=10, survival_fraction=0.3, master_seed=5)
        state = make_state(cfg, six_var_split, fast_train)
        for _ in range(3):
            step_generation(state)
            members = [c for c, _ in state.population]
            assert len(set(members)) == len(members)

    def test_sorted_best_first(self, six_var_split, fast_train):
        cfg = GaConfig(n_vars=6, population_size=10, survival_fraction=0.3, master_seed=5)
        state = make_state(cfg, six_var_split, fast_train)
        step_generation(state)
        ranks = [ranking_key(c, s) for c, s in state.population]
        assert ranks == sorted(ranks)


class TestRun:
    def test_deterministic(self, tmp_path, six_var_split, fast_train):
        cfg = GaConfig(n_vars=6, population_size=10, survival_fraction=0.3,
                       generations=4, master_seed=9)
        a = run(cfg, six_var_split, fast_train)
        b = run(cfg, six_var_split, fast_train)
        assert [r.to_record() for r in a.reports] == [r.to_record() for r in b.reports]
        assert graveyard_bytes(a, tmp_path / "a") == graveyard_bytes(b, tmp_path / "b")
        assert a.best == b.best

    def test_thread_count_invariant(self, tmp_path, six_var_split, fast_train):
        cfg = GaConfig(n_vars=6, population_size=10, survival_fraction=0.3,
                       generations=4, master_seed=9)
        a = run(cfg, six_var_split, fast_train, threads=1)
        b = run(cfg, six_var_split, fast_train, threads=4)
        assert [r.to_record() for r in a.reports] == [r.to_record() for r in b.reports]
        assert graveyard_bytes(a, tmp_path / "a") == graveyard_bytes(b, tmp_path / "b")

    def test_budget_accounting(self, six_var_split, fast_train):
        cfg = GaConfig(n_vars=6, population_size=10, survival_fraction=0.3,
                       generations=3, master_seed=11)
        with count_train_calls() as calls:
            result = run(cfg, six_var_split, fast_train)
        # 10 initial + 7 offspring per generation
        assert len(result.graveyard) == 10 + 7 * 3
        assert calls.n == len(result.graveyard)
        assert sum(r.new_evaluations for r in result.reports) + 10 == len(result.graveyard)

    def test_best_is_graveyard_minimum(self, six_var_split, fast_train):
        cfg = GaConfig(n_vars=6, population_size=10, survival_fraction=0.3,
                       generations=4, master_seed=13)
        result = run(cfg, six_var_split, fast_train)
        best, score = min(result.graveyard.entries(), key=lambda kv: ranking_key(*kv))
        assert result.best == best
        assert result.best_score == score

    def test_monotone_best(self, six_var_split, fast_train):
        cfg = GaConfig(n_vars=6, population_size=10, survival_fraction=0.3,
                       generations=6, master_seed=15)
        result = run(cfg, six_var_split, fast_train)
        bests = [r.best_cv_sse for r in result.reports]
        assert all(b <= a for a, b in zip(bests, bests[1:]))

    def test_best_no_worse_than_mean(self, six_var_split, fast_train):
        cfg = GaConfig(n_vars=6, population_size=10, survival_fraction=0.3,
                       generations=5, master_seed=15)
        result = run(cfg, six_var_split, fast_train)
        for report in result.reports:
            assert report.best_cv_sse <= report.mean_cv_sse

    def test_early_exhaustion_small_space(self, tiny_split, fast_train):
        # 3 variables admit 7 chromosomes; the run must stop early, flagged
        cfg = GaConfig(n_vars=3, population_size=4, survival_fraction=0.5,
                       generations=10, master_seed=1)
        result = run(cfg, tiny_split, fast_train)
        assert result.exhausted
        assert len(result.graveyard) == 7
        assert len(result.reports) < 10
        assert result.reports[-1].exhausted
        assert all(not r.exhausted for r in result.reports[:-1])

    def test_mismatched_n_vars(self, six_var_split, fast_train):
        cfg = GaConfig(n_vars=5, population_size=10, survival_fraction=0.3)
        with pytest.raises(ConfigError):
            run(cfg, six_var_split, fast_train)


class TestExhaustiveSearch:
    def test_tiny_space_full_table(self, tiny_split, fast_train):
        (best_c, best_s), table = exhaustive_search(tiny_split, fast_train, master_seed=2)
        assert len(table) == 7
        ranked = min(table, key=lambda m: ranking_key(*m))
        assert (best_c, best_s) == ranked

    def test_rerun_identical(self, tiny_split, fast_train):
        a = exhaustive_search(tiny_split, fast_train, master_seed=2)
        b = exhaustive_search(tiny_split, fast_train, master_seed=2)
        assert a[0][0] == b[0][0]
        assert [(c.genes, s.cv_sse) for c, s in a[1]] == [
            (c.genes, s.cv_sse) for c, s in b[1]
        ]

    def test_negative_master_seed(self, tiny_split, fast_train):
        with count_train_calls() as calls:
            with pytest.raises(ConfigError, match="master_seed must be >= 0, got -1"):
                exhaustive_search(tiny_split, fast_train, master_seed=-1)
        assert calls.n == 0

    def test_cap_enforced(self, fast_train):
        split = make_split(15, [0], 0.1, seed=1, n_samples=30, n_train=20)
        with pytest.raises(ConfigError, match="exceeds cap 14"):
            exhaustive_search(split, fast_train, master_seed=0)

    def test_ga_finds_exhaustive_winner_when_space_covered(
        self, six_var_split, fast_train
    ):
        # 10 + 7*8 = 66 > 63 possible, so the GA sweeps the whole space and
        # must agree with the oracle exactly
        (best_c, _), _ = exhaustive_search(six_var_split, fast_train, master_seed=21)
        cfg = GaConfig(n_vars=6, population_size=10, survival_fraction=0.3,
                       generations=8, master_seed=21)
        result = run(cfg, six_var_split, fast_train)
        assert result.exhausted
        assert len(result.graveyard) == 63
        assert result.best == best_c
