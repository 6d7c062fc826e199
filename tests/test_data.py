import math
import warnings

import numpy as np
import pytest

import gaselect.fitness
from gaselect import (
    Chromosome,
    TrainConfig,
    load_csv,
    split_sequential,
    synthetic_sensors,
)
from gaselect.data import (
    Dataset,
    normalize_apply,
    select_columns,
    write_csv,
)
from gaselect.errors import ConfigError, DataError, SolveFailure
from gaselect.fitness import evaluate


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


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
        d = Dataset(np.array([[0.0], [2.0], [5.0]]), np.zeros(3), ("a",))
        split = split_sequential(d, 2)
        assert split.mean[0] == pytest.approx(1.0)
        assert split.sd[0] == pytest.approx(math.sqrt(2))

    def test_preserves_every_value(self):
        d = synthetic_sensors(4, 37, Chromosome([1]), 0.3, seed=9)
        split = split_sequential(d, 13)
        rebuilt = np.vstack([split.train.samples, split.cv.samples])
        assert np.array_equal(rebuilt, d.samples)
        assert np.array_equal(
            np.concatenate([split.train.target, split.cv.target]), d.target
        )

    def test_constant_column_warns_unit_scale(self):
        samples = np.column_stack([np.ones(6), np.arange(6.0)])
        d = Dataset(samples, np.zeros(6), ("const", "ramp"))
        with pytest.warns(UserWarning, match="const"):
            split = split_sequential(d, 4)
        assert split.sd[0] == 1.0

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
        assert np.shares_memory(split.train.samples, d.samples)
        assert np.shares_memory(split.cv.target, d.target)


class TestSplitDataset:
    def test_stats_read_only(self):
        samples = np.array([[0.0, 1.0], [2.0, 5.0], [4.0, 3.0]])
        split = split_sequential(Dataset(samples, np.zeros(3), ("a", "b")), 2)
        assert split.mean.tolist() == [1.0, 3.0]
        assert split.sd.tolist() == [math.sqrt(2), math.sqrt(8)]
        assert not split.mean.flags.writeable and not split.sd.flags.writeable


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
        split = split_sequential(d, 30)
        normed = normalize_apply(split.train.samples, split.mean, split.sd)
        assert np.all(np.abs(normed.mean(axis=0)) < 1e-10)
        assert np.all(np.abs(normed.std(axis=0, ddof=1) - 1) < 1e-10)

    def test_cv_means_shift(self):
        d = synthetic_sensors(4, 50, Chromosome([0]), 0.1, seed=4)
        split = split_sequential(d, 30)
        normed = normalize_apply(split.cv.samples, split.mean, split.sd)
        assert np.any(np.abs(normed.mean(axis=0)) > 1e-6)

    def test_unit_sd_just_centers(self):
        d = synthetic_sensors(2, 30, Chromosome([0]), 0.1, seed=4)
        split = split_sequential(d, 20)
        normed = normalize_apply(split.train.samples, split.mean, np.ones(2))
        expected = split.train.samples - split.mean
        assert np.allclose(normed, expected)

    def test_invertible(self):
        d = synthetic_sensors(4, 50, Chromosome([0]), 0.1, seed=4)
        split = split_sequential(d, 30)
        normed = normalize_apply(split.train.samples, split.mean, split.sd)
        back = normed * split.sd + split.mean
        assert np.allclose(back, split.train.samples, rtol=1e-12, atol=1e-12)

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
        assert np.array_equal(y, split.train.target)
        idx = [0, 2]
        X_train = split.train.samples[:, idx]
        expected = normalize_apply(X_train, split.mean[idx], split.sd[idx])
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
