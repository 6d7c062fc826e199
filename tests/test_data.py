import dataclasses
import math
import warnings

import numpy as np
import pytest

import gaselect.fitness
from gaselect.data import (
    Dataset,
    SplitDataset,
    load_csv,
    normalize_apply,
    select_columns,
    split_sequential,
    synthetic_sensors,
    write_csv,
)
from gaselect.errors import ConfigError, DataError, SolveFailure
from gaselect.fitness import evaluate
from gaselect.genome import Chromosome
from gaselect.mlp import TrainConfig


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def train_stats(d, n_train):
    """The mean and sd (ddof 1) a split of ``d`` z-scores by, from the raw rows."""
    rows = d.samples[:n_train]
    return rows.mean(axis=0), rows.std(axis=0, ddof=1)


class TestLoadCsv:
    def test_happy_path(self, tmp_path):
        path = write(tmp_path, "a,level,b\n1,10,2\n3,20,4\n5,30,6\n")
        d = load_csv(path, "level")
        assert d.n_samples == 3 and d.n_vars == 2
        assert d.var_names == ("a", "b")
        assert d.samples.tolist() == [[1, 2], [3, 4], [5, 6]]
        assert d.target.tolist() == [10, 20, 30]

    def test_missing_target(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(DataError, match="level"):
            load_csv(path, "level")

    def test_nan_cell_located(self, tmp_path):
        # 1e400 parses to inf
        for cell in ("NaN", "inf", "-Infinity", "1e400"):
            path = write(tmp_path, f"a,level\n1,10\n{cell},20\n")
            with pytest.raises(
                DataError, match=f"row 3, column 1 \\('a'\\): non-finite value '{cell}'"
            ):
                load_csv(path, "level")

    def test_garbage_cell_located(self, tmp_path):
        path = write(tmp_path, "a,level\n1,x7\n")
        with pytest.raises(DataError, match="row 2, column 2"):
            load_csv(path, "level")

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "a,level\n1,2,3\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path, "level")

    def test_duplicate_header(self, tmp_path):
        path = write(tmp_path, "a,a,level\n1,2,3\n")
        with pytest.raises(DataError, match="duplicate"):
            load_csv(path, "level")

    def test_no_rows(self, tmp_path):
        path = write(tmp_path, "a,level\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path, "level")

    @pytest.mark.parametrize(
        "text",
        ["a,level\n1,10\n3,30\n\n", "a,level\r\n1,10\r\n3,30\r\n\r\n"],
        ids=["lf", "crlf"],
    )
    def test_trailing_blank_line_skipped(self, tmp_path, text):
        d = load_csv(write(tmp_path, text), "level")
        assert d.samples.tolist() == [[1], [3]]
        assert d.target.tolist() == [10, 30]

    def test_blank_line_mid_file_keeps_row_numbers(self, tmp_path):
        path = write(tmp_path, "a,level\n1,10\n\n3,30\n")
        assert load_csv(path, "level").target.tolist() == [10, 30]
        path = write(tmp_path, "a,level\n1,10\n\nNaN,20\n")
        with pytest.raises(DataError, match="row 4, column 1"):
            load_csv(path, "level")

    def test_spaces_only_line_is_a_ragged_row(self, tmp_path):
        path = write(tmp_path, "a,level\n1,10\n   \n3,30\n")
        with pytest.raises(DataError, match="row 3 has 1 cells, expected 2"):
            load_csv(path, "level")

    def test_only_blank_lines_is_no_rows(self, tmp_path):
        path = write(tmp_path, "a,level\n\n\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path, "level")

    @pytest.mark.parametrize(
        "text",
        ["\ufefflevel,s1,s2\n10,1,2\n20,3,4\n", "\ufeffs1,level,s2\n1,10,2\n3,20,4\n"],
        ids=["target_first", "sensor_first"],
    )
    def test_byte_order_mark_dropped(self, tmp_path, text):
        d = load_csv(write(tmp_path, text), "level")
        assert d.var_names == ("s1", "s2")
        assert d.samples.tolist() == [[1, 2], [3, 4]]
        assert d.target.tolist() == [10, 20]

    # a quoted field may span lines: a row is the line its record ends on
    def test_bad_cell_after_multiline_field_located(self, tmp_path):
        path = write(tmp_path, 's1,level\n"1\n",2\nx,3\n')
        with pytest.raises(DataError, match=r"row 4, column 1 \('s1'\): cannot parse 'x'$"):
            load_csv(path, "level")

    def test_ragged_row_after_multiline_field_located(self, tmp_path):
        path = write(tmp_path, 's1,level\n"1\n",2\n3,4,5\n')
        with pytest.raises(DataError, match="row 4 has 3 cells, expected 2$"):
            load_csv(path, "level")

    def test_oversized_field_located(self, tmp_path):
        path = write(tmp_path, "a,level\n1,10\n" + "9" * 131_073 + ",20\n")
        with pytest.raises(
            DataError, match=r"row 3: field larger than field limit \(131072\)$"
        ):
            load_csv(path, "level")

    def test_write_read_round_trip(self, tmp_path):
        d = synthetic_sensors(4, 25, Chromosome([0]), 0.2, seed=3)
        path = tmp_path / "rig.csv"
        write_csv(d, path)
        back = load_csv(path, "level")
        assert back == d

    def test_written_lines_end_in_lf(self, tmp_path):
        d = synthetic_sensors(3, 10, Chromosome([0]), 0.2, seed=3)
        path = tmp_path / "rig.csv"
        write_csv(d, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.count(b"\n") == d.n_samples + 1
        assert load_csv(path, "level") == d


class TestSplitSequential:
    def test_two_hundred_each(self):
        d = synthetic_sensors(5, 400, Chromosome([0]), 0.1, seed=1)
        split = split_sequential(d, 200)
        assert split.train.n_samples == 200
        assert split.cv.n_samples == 200

    def test_bounds(self):
        d = synthetic_sensors(3, 10, Chromosome([0]), 0.1, seed=1)
        with pytest.raises(DataError, match=r"n_train must be in \(0, 10\), got 10"):
            split_sequential(d, 10)
        with pytest.raises(DataError, match=r"n_train must be in \(0, 10\), got 0"):
            split_sequential(d, 0)

    def test_stats_values(self):
        # train mean 1, sd sqrt(2): both blocks are scaled by the train rows
        d = Dataset(np.array([[0.0], [2.0], [5.0]]), np.zeros(3), ("a",))
        split = split_sequential(d, 2)
        assert split.train.samples[:, 0] == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)])
        assert split.cv.samples[:, 0] == pytest.approx([4 / math.sqrt(2)])

    def test_preserves_every_value(self):
        d = synthetic_sensors(4, 37, Chromosome([1]), 0.3, seed=9)
        split = split_sequential(d, 13)
        mean, sd = train_stats(d, 13)
        zscored = np.vstack([split.train.samples, split.cv.samples])
        assert np.allclose(zscored * sd + mean, d.samples, rtol=1e-12, atol=1e-12)
        assert np.array_equal(
            np.concatenate([split.train.target, split.cv.target]), d.target
        )

    def test_constant_column_warns_unit_scale(self):
        # constant over the train rows; a cv value shows the scale it was given
        samples = np.column_stack([[1.0, 1.0, 1.0, 1.0, 3.0, 6.0], np.arange(6.0)])
        d = Dataset(samples, np.zeros(6), ("const", "ramp"))
        with pytest.warns(UserWarning, match="const"):
            split = split_sequential(d, 4)
        assert split.cv.samples[:, 0].tolist() == [2.0, 5.0]

    @pytest.mark.parametrize(
        "train_column, cv_column, block",
        [
            # a tiny train sd: cv value / sd overflows
            pytest.param([0.0, 1e-150] * 3, [1e160] * 4, "cv", id="cv"),
            # the train mean itself overflows; not a constant column
            pytest.param([1.7e308, 1.6e308] * 3, [1.0] * 4, "train", id="train"),
            # a finite mean, but the train sd overflows
            pytest.param([1e308, -1e308] * 3, [1.0] * 4, "train", id="train_sd"),
        ],
    )
    def test_overflow_names_column_and_block(self, train_column, cv_column, block):
        s2 = np.concatenate([train_column, cv_column])  # s1 is a plain ramp
        samples = np.column_stack([np.arange(s2.size, dtype=float), s2])
        d = Dataset(samples, np.zeros(s2.size), ("s1", "s2"))
        message = f"^column 's2' overflows when z-scored in the {block} block$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning, no unit-scale warning
            with pytest.raises(DataError, match=message):
                split_sequential(d, 6)

    @pytest.mark.parametrize(
        "target, block",
        [
            pytest.param([1e200] + [1.0] * 9, "train", id="train"),
            pytest.param([1.0] * 6 + [1.0, -1e160, 1.0, 1.0], "cv", id="cv"),
            # each square is finite, their sum is not
            pytest.param([1.0] * 6 + [1.3e154] * 4, "cv", id="cv_sum"),
        ],
    )
    def test_target_overflow_names_target_and_block(self, target, block):
        samples = np.column_stack([np.arange(10.0), np.arange(10.0) % 3])
        d = Dataset(samples, np.array(target), ("s1", "s2"), "level")
        message = f"^target column 'level' overflows when squared in the {block} block$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning
            with pytest.raises(DataError, match=message):
                split_sequential(d, 6)

    def test_blocks_keep_target_name(self, tmp_path):
        d = load_csv(write(tmp_path, "flow,s1\n1,2\n3,5\n4,4\n"), "flow")
        split = split_sequential(d, 2)
        assert d.target_name == split.train.target_name == split.cv.target_name == "flow"


class TestDatasetArrays:
    def test_caller_arrays_stay_writable_and_unchanged(self):
        a, t = np.zeros((3, 2)), np.zeros(3)
        d = Dataset(a, t, ("x", "y"), "z")
        assert a.flags.writeable and t.flags.writeable
        assert not d.samples.flags.writeable and not d.target.flags.writeable
        a[0, 0], t[0] = 5.0, 6.0  # the caller edits its own arrays
        assert d.samples[0, 0] == 0.0 and d.target[0] == 0.0
        assert a.tolist() == [[5.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        assert t.tolist() == [6.0, 0.0, 0.0]

    def test_read_only_view_of_writable_array_copied(self):
        a = np.arange(6.0).reshape(3, 2)
        view = a[:]
        view.setflags(write=False)
        d = Dataset(view, np.zeros(3), ("x", "y"))
        assert not np.shares_memory(d.samples, a)
        assert a.flags.writeable and np.array_equal(d.samples, a)

    def test_read_only_arrays_kept_without_copy(self, tmp_path):
        d = load_csv(write(tmp_path, "s1,s2,flow\n1,2,3\n4,5,6\n7,8,9\n"), "flow")
        assert d.samples.base is None and d.target.base is None  # load_csv's own
        assert Dataset(d.samples, d.target, d.var_names).samples is d.samples
        split = split_sequential(d, 2)
        # the targets are views; the z-scored samples are handed over uncopied
        assert np.shares_memory(split.train.target, d.target)
        assert np.shares_memory(split.cv.target, d.target)
        for block in (split.train, split.cv):
            assert block.samples.base is None and not block.samples.flags.writeable


class TestSplitDataset:
    def test_stats_read_only(self):
        samples = np.array([[0.0, 1.0], [2.0, 5.0], [4.0, 3.0]])
        split = split_sequential(Dataset(samples, np.zeros(3), ("a", "b")), 2)
        # train mean [1, 3], sd [sqrt(2), sqrt(8)]
        sd = np.array([math.sqrt(2), math.sqrt(8)])
        assert split.train.samples.tobytes() == ((samples[:2] - [1.0, 3.0]) / sd).tobytes()
        assert split.cv.samples.tobytes() == ((samples[2:] - [1.0, 3.0]) / sd).tobytes()
        assert not split.train.samples.flags.writeable
        assert not split.cv.samples.flags.writeable

    def test_zscored_blocks_are_normalize_apply_bit_for_bit(self):
        d = synthetic_sensors(5, 47, Chromosome([1]), 0.2, seed=6)
        split = split_sequential(d, 29)
        mean, sd = train_stats(d, 29)
        for z, rows in ((split.train, slice(29)), (split.cv, slice(29, None))):
            want = normalize_apply(d.samples[rows], mean, sd)
            assert z.samples.tobytes() == want.tobytes()
            assert z.samples.shape == want.shape
            assert z.target.tobytes() == d.target[rows].tobytes()
            assert (z.var_names, z.target_name) == (d.var_names, d.target_name)

    def test_zscored_blocks_read_only(self):
        split = split_sequential(synthetic_sensors(3, 20, Chromosome([0]), 0.1, seed=2), 12)
        for z in (split.train, split.cv):
            assert not z.samples.flags.writeable and not z.target.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                z.samples[0, 0] = 1.0

    def test_constant_column_unit_scale_in_zscored_blocks(self):
        samples = np.column_stack([np.full(6, 3.0), np.arange(6.0)])
        d = Dataset(samples, np.zeros(6), ("const", "ramp"))
        with pytest.warns(UserWarning, match="const"):
            split = split_sequential(d, 4)
        assert split.train.samples[:, 0].tolist() == [0.0] * 4
        assert split.cv.samples[:, 0].tolist() == [0.0] * 2
        ramp = np.concatenate([split.train.samples[:, 1], split.cv.samples[:, 1]])
        sd = np.arange(4.0).std(ddof=1)
        assert ramp.tobytes() == ((np.arange(6.0) - 1.5) / sd).tobytes()

    def test_two_fields(self):
        assert [f.name for f in dataclasses.fields(SplitDataset)] == ["train", "cv"]

    def test_mismatched_columns_rejected(self):
        train = Dataset(np.zeros((2, 2)), np.zeros(2), ("a", "b"))
        cv = Dataset(np.zeros((2, 2)), np.zeros(2), ("a", "c"))
        with pytest.raises(ValueError, match="^train and cv must share columns$"):
            SplitDataset(train, cv)

    @pytest.mark.parametrize("block", ["train", "cv"])
    def test_target_overflow_rejected_when_built_directly(self, block):
        ok = Dataset(np.zeros((2, 1)), np.ones(2), ("a",), "level")
        big = Dataset(np.zeros((2, 1)), np.array([1.0, 1e200]), ("a",), "level")
        blocks = (big, ok) if block == "train" else (ok, big)
        message = f"^target column 'level' overflows when squared in the {block} block$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning
            with pytest.raises(DataError, match=message):
                SplitDataset(*blocks)


class TestSelectColumns:
    def test_full_identity(self):
        d = synthetic_sensors(4, 20, Chromosome([0]), 0.1, seed=2)
        assert np.array_equal(select_columns(d, Chromosome(range(4))), d.samples)

    def test_singleton(self):
        d = synthetic_sensors(3, 20, Chromosome([0]), 0.1, seed=2)
        sel = select_columns(d, Chromosome([0]))
        assert np.array_equal(sel[:, 0], d.samples[:, 0])
        assert sel.shape == (20, 1)

    def test_drops_middle(self):
        d = synthetic_sensors(3, 20, Chromosome([0]), 0.1, seed=2)
        sel = select_columns(d, Chromosome([0, 2]))
        assert np.array_equal(sel, d.samples[:, [0, 2]])

    def test_composes(self):
        d = synthetic_sensors(5, 20, Chromosome([0]), 0.1, seed=2)
        once = select_columns(d, Chromosome([0, 2]))
        first = select_columns(d, Chromosome([0, 1, 2]))
        inner = Dataset(first, d.target, d.var_names[:3])
        twice = select_columns(inner, Chromosome([0, 2]))
        assert np.array_equal(once, twice)

    def test_out_of_range(self):
        d = synthetic_sensors(3, 20, Chromosome([0]), 0.1, seed=2)
        with pytest.raises(ConfigError, match="^sensor 4 out of range for 3 sensors$"):
            select_columns(d, Chromosome([3]))

    def test_target_untouched(self):
        d = synthetic_sensors(3, 20, Chromosome([0]), 0.1, seed=2)
        target = d.target.copy()
        sel = select_columns(d, Chromosome([1]))
        assert np.array_equal(sel, d.samples[:, [1]])
        assert np.array_equal(d.target, target)


class TestNormalize:
    def test_train_becomes_zscored(self):
        d = synthetic_sensors(4, 50, Chromosome([0]), 0.1, seed=4)
        normed = split_sequential(d, 30).train.samples
        assert np.all(np.abs(normed.mean(axis=0)) < 1e-10)
        assert np.all(np.abs(normed.std(axis=0, ddof=1) - 1) < 1e-10)

    def test_cv_means_shift(self):
        d = synthetic_sensors(4, 50, Chromosome([0]), 0.1, seed=4)
        normed = split_sequential(d, 30).cv.samples
        assert np.any(np.abs(normed.mean(axis=0)) > 1e-6)

    def test_unit_sd_just_centers(self):
        d = synthetic_sensors(2, 30, Chromosome([0]), 0.1, seed=4)
        mean, _ = train_stats(d, 20)
        X = d.samples[:20]
        normed = normalize_apply(X, mean, np.ones(2))
        assert np.allclose(normed, X - mean)

    def test_invertible(self):
        d = synthetic_sensors(4, 50, Chromosome([0]), 0.1, seed=4)
        split = split_sequential(d, 30)
        mean, sd = train_stats(d, 30)
        back = split.train.samples * sd + mean
        assert np.allclose(back, d.samples[:30], rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch(self):
        d = synthetic_sensors(4, 50, Chromosome([0]), 0.1, seed=4)
        with pytest.raises(ValueError):
            normalize_apply(d.samples, np.zeros(3), np.ones(3))

    def test_target_never_scaled(self, monkeypatch):
        # evaluate z-scores the inputs only: the network fits the raw target
        d = synthetic_sensors(4, 50, Chromosome([0]), 0.1, seed=4)
        split = split_sequential(d, 30)
        fitted = []

        def capture(X, y, cfg, weight_seed=0):
            fitted.append((X, y))
            raise SolveFailure("stop after capturing the inputs")

        monkeypatch.setattr(gaselect.fitness, "train_lm", capture)
        evaluate(Chromosome([0, 2]), split, TrainConfig(hidden_units=2), master_seed=0)
        [(X, y)] = fitted
        assert np.array_equal(y, d.target[:30])
        idx = [0, 2]
        mean, sd = train_stats(d, 30)
        expected = normalize_apply(d.samples[:30, idx], mean[idx], sd[idx])
        assert np.array_equal(X, expected)


class TestSyntheticSensors:
    def test_deterministic(self):
        a = synthetic_sensors(6, 100, Chromosome([0, 1]), 0.2, seed=5)
        b = synthetic_sensors(6, 100, Chromosome([0, 1]), 0.2, seed=5)
        assert a == b

    def test_seed_changes_data(self):
        a = synthetic_sensors(6, 100, Chromosome([0, 1]), 0.2, seed=5)
        b = synthetic_sensors(6, 100, Chromosome([0, 1]), 0.2, seed=6)
        assert a != b

    def test_always_finite(self):
        for seed in range(12):
            d = synthetic_sensors(7, 64, Chromosome([2, 4]), 0.5, seed=seed)
            assert np.isfinite(d.samples).all() and np.isfinite(d.target).all()

    def test_zero_noise_exact_function_of_target(self):
        d = synthetic_sensors(5, 200, Chromosome([0]), 0.0, seed=8)
        order = np.argsort(d.target)
        sensor = d.samples[order, 0]
        # monotone response: sorting by the target sorts the sensor
        assert np.all(np.diff(sensor) >= 0)

    def test_informative_out_of_range(self):
        # the message names the 1-based sensor the user typed
        message = "^sensor 6 out of range for 3 sensors$"
        with pytest.raises(ConfigError, match=message):
            synthetic_sensors(3, 20, Chromosome([5]), 0.1, seed=1)

    def test_bad_args(self):
        for noise_sd in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="noise_sd"):
                synthetic_sensors(3, 20, Chromosome([0]), noise_sd, seed=1)
        with pytest.raises(ConfigError, match="n_samples"):
            synthetic_sensors(3, 1, Chromosome([0]), 0.1, seed=1)
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            synthetic_sensors(3, 20, Chromosome([0]), 0.1, seed=-1)

    def test_exhaustive_winner_contains_informative(self, oracle_runs):
        # wrapper search over all 255 subsets keeps every informative sensor
        first = oracle_runs[0]
        assert {0, 1, 2} <= set(first.exhaustive_best.genes)
