"""Chromosome identity and the crossover/mutation operators.

``reference_uniform_crossover`` and ``reference_mutate`` are the earlier
set-based operators, kept verbatim. The bitmask operators in
``gaselect.genome`` make the same random draws in the same order, so they
must return the same genes and leave the generator in the same state.
"""

import json
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaselect.genome import (
    MUTATION_RETRY_LIMIT,
    Chromosome,
    mutate,
    uniform_crossover,
)
from gaselect.errors import ConfigError, EmptyChromosomeError


def chromosomes(n_vars):
    return st.sets(st.integers(0, n_vars - 1), min_size=1).map(Chromosome)


def reference_uniform_crossover(
    a: Chromosome,
    b: Chromosome,
    p_one_parent: float,
    rng: np.random.Generator,
) -> Chromosome:
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


def reference_mutate(
    c: Chromosome,
    rate: float,
    n_vars: int,
    rng: np.random.Generator,
) -> Chromosome:
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


class TestChromosome:
    def test_sorts_and_dedupes(self):
        assert Chromosome([3, 1, 1, 2]).genes == (1, 2, 3)

    def test_empty_rejected(self):
        with pytest.raises(EmptyChromosomeError):
            Chromosome([])

    def test_negative_rejected(self):
        with pytest.raises(ConfigError, match="negative gene index -1"):
            Chromosome([-1, 2])

    def test_label_is_one_based(self):
        assert Chromosome([0, 1, 4]).label == "1-2-5"

    def test_label_round_trip(self):
        c = Chromosome([0, 1, 4])
        assert Chromosome.from_label(c.label, 5) == c

    def test_json_array_round_trip(self):
        c = Chromosome([0, 1, 4])
        payload = json.dumps(c.one_based())
        assert Chromosome.from_one_based(json.loads(payload), 5) == c

    @pytest.mark.parametrize("label", ["1-1", "2-5-2", "3-1-3-3"])
    def test_label_with_repeated_index_rejected(self, label):
        numbers = "[" + label.replace("-", ", ") + "]"
        message = f"^repeated sensor number in {re.escape(numbers)}$"
        with pytest.raises(ConfigError, match=message):
            Chromosome.from_label(label, 5)

    def test_one_based_with_repeated_index_rejected(self):
        # Graveyard.replay rebuilds chromosomes this way from audit records
        message = r"^repeated sensor number in \[2, 2\]$"
        with pytest.raises(ConfigError, match=message):
            Chromosome.from_one_based([2, 2], 5)

    def test_published_subset_formatting(self):
        # eleven sensors selected out of twenty, rendered 1-based
        indices = [0, 1, 2, 3, 4, 7, 8, 13, 15, 17, 18]
        assert Chromosome(indices).label == "1-2-3-4-5-8-9-14-16-18-19"

    def test_order_insensitive(self):
        assert Chromosome([2, 1]) == Chromosome([1, 2])
        assert hash(Chromosome([2, 1])) == hash(Chromosome([1, 2]))

    def test_distinct_sets_differ(self):
        assert Chromosome([1, 2]) != Chromosome([1, 3])

    def test_hash_is_a_value(self):
        # the hash is that of the int bitmask alone; ints hash without any
        # per-process salt
        assert Chromosome([2, 0]).genes == (0, 2)
        assert hash(Chromosome([2, 0])) == hash(0b101)

    @given(st.sets(st.integers(0, 80), min_size=1))
    def test_mask_and_genes_constructions_agree(self, genes):
        from_genes = Chromosome(genes)
        from_mask = Chromosome._from_mask(sum(1 << g for g in genes))
        assert from_genes.mask == from_mask.mask
        assert from_genes == from_mask
        assert hash(from_genes) == hash(from_mask)
        ordered = tuple(sorted(genes))
        for c in (from_genes, from_mask):
            assert c.genes == ordered
            assert c.label == "-".join(str(g + 1) for g in ordered)
            assert c.one_based() == [g + 1 for g in ordered]
            assert len(c) == len(ordered)

    def test_genes_worked_out_once(self):
        c = Chromosome._from_mask(0b1011)
        assert c.genes is c.genes

    def test_immutable(self):
        c = Chromosome([0, 2])
        for name, value in (("mask", 0b11), ("genes", (0, 1)), ("_genes", (0, 1))):
            with pytest.raises(AttributeError):
                setattr(c, name, value)
        with pytest.raises(AttributeError):
            del c.mask
        with pytest.raises(AttributeError):
            c.extra = 1
        assert c.mask == 0b101 and c.genes == (0, 2)

    def test_pickle_round_trip(self):
        c = Chromosome._from_mask(1 << 70 | 0b101)
        back = pickle.loads(pickle.dumps(c))
        assert back == c and back.genes == (0, 2, 70)

    def test_repr(self):
        assert repr(Chromosome._from_mask(0b110)) == "Chromosome(genes=(1, 2))"

    def test_injective_exhaustive(self):
        n = 10
        distinct = {
            Chromosome(i for i in range(n) if mask >> i & 1)
            for mask in range(1, 1 << n)
        }
        assert len(distinct) == (1 << n) - 1


class TestUniformCrossover:
    def test_equal_parents_forced(self):
        c = Chromosome([1, 2, 3])
        for seed in range(20):
            rng = np.random.default_rng(seed)
            assert uniform_crossover(c, c, 0.5, rng) == c

    def test_probability_one_gives_union(self):
        rng = np.random.default_rng(0)
        off = uniform_crossover(Chromosome([1, 2]), Chromosome([3, 4]), 1.0, rng)
        assert off.genes == (1, 2, 3, 4)

    def test_probability_zero_empty_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(EmptyChromosomeError):
            uniform_crossover(Chromosome([1]), Chromosome([2]), 0.0, rng)

    def test_containment_example(self):
        a, b = Chromosome([1, 2, 3]), Chromosome([2, 3, 4])
        for seed in range(200):
            off = uniform_crossover(a, b, 0.5, np.random.default_rng(seed))
            assert {2, 3} <= set(off.genes) <= {1, 2, 3, 4}

    @settings(max_examples=200)
    @given(
        st.integers(2, 14).flatmap(
            lambda n: st.tuples(chromosomes(n), chromosomes(n))
        ),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 1.0),
    )
    def test_containment_property(self, parents, seed, p):
        a, b = parents
        rng = np.random.default_rng(seed)
        try:
            off = uniform_crossover(a, b, p, rng)
        except EmptyChromosomeError:
            assert not (set(a.genes) & set(b.genes))
            return
        assert set(a.genes) & set(b.genes) <= set(off.genes)
        assert set(off.genes) <= set(a.genes) | set(b.genes)

    def test_symmetry_matched_seeds(self):
        a, b = Chromosome([0, 2, 5, 7]), Chromosome([1, 2, 6, 7])
        for seed in range(50):
            off_ab = uniform_crossover(a, b, 0.3, np.random.default_rng(seed))
            off_ba = uniform_crossover(b, a, 0.3, np.random.default_rng(seed))
            assert off_ab == off_ba

    def test_symmetry_distribution(self):
        # inclusion frequency of each exclusive gene should not depend on
        # which parent carried it
        a, b = Chromosome([0, 1, 4]), Chromosome([1, 2, 3])
        draws = 10_000
        rng_ab = np.random.default_rng(123)
        rng_ba = np.random.default_rng(456)
        freq_ab = {g: 0 for g in (0, 2, 3, 4)}
        freq_ba = {g: 0 for g in (0, 2, 3, 4)}
        for _ in range(draws):
            for g in uniform_crossover(a, b, 0.5, rng_ab).genes:
                if g in freq_ab:
                    freq_ab[g] += 1
            for g in uniform_crossover(b, a, 0.5, rng_ba).genes:
                if g in freq_ba:
                    freq_ba[g] += 1
        for g in freq_ab:
            assert abs(freq_ab[g] - freq_ba[g]) / draws < 0.03
            assert abs(freq_ab[g] / draws - 0.5) < 0.03


class TestMutate:
    def test_rate_zero_identity(self):
        c = Chromosome([0, 3, 7])
        assert mutate(c, 0.0, 10, np.random.default_rng(0)) == c

    def test_rate_one_complement(self):
        c = mutate(Chromosome([0, 1]), 1.0, 3, np.random.default_rng(0))
        assert c.genes == (2,)

    def test_rate_one_full_set_returns_input(self):
        # complement of the full set is empty; every redraw repeats it
        full = Chromosome(range(4))
        assert mutate(full, 1.0, 4, np.random.default_rng(0)) == full

    def test_result_within_range(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            c = mutate(Chromosome([0, 5, 9]), 0.5, 10, rng)
            assert all(0 <= g < 10 for g in c.genes)

    def test_mean_flip_count(self):
        # per-position flips: expect rate * n_vars flips on average
        rng = np.random.default_rng(99)
        base = Chromosome(range(0, 20, 2))
        base_set = set(base.genes)
        trials = 20_000
        total = sum(
            len(base_set ^ set(mutate(base, 0.1, 20, rng).genes))
            for _ in range(trials)
        )
        assert abs(total / trials - 2.0) < 0.1

    @given(
        st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), chromosomes(n))),
        st.integers(0, 2**32 - 1),
    )
    def test_never_empty(self, n_and_c, seed):
        n, c = n_and_c
        result = mutate(c, 0.9, n, np.random.default_rng(seed))
        assert len(result) >= 1


class TestReferenceOperators:
    @staticmethod
    def random_chromosome(n_vars, pick):
        # densities from sparse to full, so shared, exclusive and empty
        # crossovers all occur
        while True:
            bits = pick.random(n_vars) < pick.random()
            if bits.any():
                return Chromosome(np.flatnonzero(bits).tolist())

    @staticmethod
    def assert_same(new_rng, ref_rng, new, ref):
        assert new.genes == ref.genes
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("n_vars", [1, 10, 25, 70])
    def test_bitmask_operators_match_reference(self, n_vars, rate):
        pick = np.random.default_rng(n_vars)
        new_rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        empties = 0
        for _ in range(300):
            a = self.random_chromosome(n_vars, pick)
            b = self.random_chromosome(n_vars, pick)
            try:
                ref = reference_uniform_crossover(a, b, rate, ref_rng)
            except EmptyChromosomeError:
                with pytest.raises(EmptyChromosomeError):
                    uniform_crossover(a, b, rate, new_rng)
                assert new_rng.bit_generator.state == ref_rng.bit_generator.state
                empties += 1
                ref = new = a
            else:
                new = uniform_crossover(a, b, rate, new_rng)
                self.assert_same(new_rng, ref_rng, new, ref)
            self.assert_same(
                new_rng,
                ref_rng,
                mutate(new, rate, n_vars, new_rng),
                reference_mutate(ref, rate, n_vars, ref_rng),
            )
        if n_vars > 1 and rate == 0.0:
            assert empties > 0

    @pytest.mark.parametrize("n_vars", [1, 10, 70])
    def test_give_up_returns_input_like_reference(self, n_vars):
        full = Chromosome(range(n_vars))
        new_rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        new = mutate(full, 1.0, n_vars, new_rng)
        assert new is full
        ref = reference_mutate(full, 1.0, n_vars, ref_rng)
        self.assert_same(new_rng, ref_rng, new, ref)

    def test_empty_crossover_draws_like_reference(self):
        a, b = Chromosome([0, 3]), Chromosome([1, 70])
        new_rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        with pytest.raises(EmptyChromosomeError):
            uniform_crossover(a, b, 0.0, new_rng)
        with pytest.raises(EmptyChromosomeError):
            reference_uniform_crossover(a, b, 0.0, ref_rng)
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state
