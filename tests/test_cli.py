import concurrent.futures
import dataclasses
import errno
import json
import os
import re
import tracemalloc
from pathlib import Path

import pytest

import gaselect.cli
import gaselect.errors
from gaselect.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    EXIT_RUNTIME,
    RunConfig,
    main,
    parse_config_file,
)
from gaselect.engine import GaConfig, run
from gaselect.errors import (
    ConfigError,
    DataError,
    GaSelectError,
    NoveltyExhausted,
    SolveFailure,
)
from gaselect.fitness import Graveyard, Score, ranking_key
from gaselect.genome import Chromosome
from gaselect.mlp import TrainConfig
from tests.conftest import count_train_calls, make_split

# Every config key in order, with its type and default. The config echo in
# summary.json is this list less threads and out_dir.
RUN_CONFIG_FIELDS = [
    ("data_csv", "str", ""),
    ("target_column", "str", "level"),
    ("n_train", "int", 200),
    ("out_dir", "str", "out"),
    ("threads", "int", 1),
    ("population_size", "int", 50),
    ("survival_fraction", "float", 0.20),
    ("mutation_rate", "float", 0.1),
    ("generations", "int", 25),
    ("master_seed", "int", 0),
    ("hidden_units", "int", 5),
    ("max_iterations", "int", 200),
    ("exhaustive_cap", "int", 14),
]

# Module constants of gaselect.engine and gaselect.mlp, not config keys: a
# config file that sets one fails as with any unknown key.
REMOVED_KEYS = [
    "p_one_parent",
    "offspring_retry_limit",
    "lambda_init",
    "lambda_up",
    "lambda_down",
    "tol_rel",
    "lambda_max",
]

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """An 8-sensor synthetic CSV plus a small, fast run config."""
    root = tmp_path_factory.mktemp("cli")
    csv_path = root / "rig.csv"
    assert (
        main(
            [
                "synth",
                "--out",
                str(csv_path),
                "--n-vars",
                "8",
                "--n-samples",
                "300",
                "--informative",
                "1-2",
                "--noise-sd",
                "0.1",
                "--seed",
                "19",
            ]
        )
        == EXIT_OK
    )
    cfg_path = root / "run.cfg"
    cfg_path.write_text(
        "\n".join(
            [
                "# basic search settings",
                f"data_csv = {csv_path}",
                "target_column = level",
                "n_train = 150",
                "population_size = 12",
                "survival_fraction = 0.25",
                "mutation_rate = 0.1",
                "generations = 4",
                "master_seed = 19",
                "hidden_units = 2",
                "max_iterations = 40",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    return root, csv_path, cfg_path


class TestConfigFile:
    def test_keys_types_and_defaults_pinned(self):
        fields = [(f.name, f.type, f.default) for f in dataclasses.fields(RunConfig)]
        assert fields == RUN_CONFIG_FIELDS

    def test_echo_keys_and_defaults_pinned(self):
        echoed = {
            name: default
            for name, _, default in RUN_CONFIG_FIELDS
            if name not in ("threads", "out_dir")
        }
        assert len(echoed) == 11
        assert json.dumps(RunConfig().echo()) == json.dumps(echoed)

    def test_values_and_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "population_size = 30  # comment\n\n# full line comment\nsurvival_fraction=0.5\n"
        )
        values = parse_config_file(path)
        assert values == {"population_size": 30, "survival_fraction": 0.5}

    def test_byte_order_mark_dropped(self, tmp_path):
        text = "data_csv = rig.csv  # comment\npopulation_size = 30\n"
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(text, encoding="utf-8")
        bom.write_text("\ufeff" + text, encoding="utf-8")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        assert parse_config_file(bom) == parse_config_file(plain)
        assert parse_config_file(bom) == {"data_csv": "rig.csv", "population_size": 30}

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("popsize = 30\n")
        with pytest.raises(ConfigError, match="popsize"):
            parse_config_file(path)

    def test_key_set_twice(self, workspace, tmp_path, capsys):
        _, csv_path, _ = workspace
        path = tmp_path / "c.cfg"
        path.write_text(f"data_csv = {csv_path}\n# again\ndata_csv = b.csv\n")
        message = "c.cfg:3: key 'data_csv' already set on line 1"
        with pytest.raises(ConfigError, match=message):
            parse_config_file(path)
        out_dir = tmp_path / "out"
        with count_train_calls() as calls:
            code = main(["run", "--config", str(path), "--out-dir", str(out_dir)])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert calls.n == 0 and not out_dir.exists()

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_key_is_unknown(self, tmp_path, capsys, key):
        path = tmp_path / "c.cfg"
        path.write_text(f"population_size = 30\n{key} = 1\n")
        with pytest.raises(ConfigError, match=f"c.cfg:2: unknown config key '{key}'"):
            parse_config_file(path)
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert "unknown config key" in capsys.readouterr().err

    def test_readme_search_cfg_parses(self, tmp_path):
        # the README's search.cfg, on its 20-sensor synth rig, is a valid config
        block = re.search(
            r"cat > search\.cfg <<'EOF'\n(.*?)\nEOF\n", README.read_text(), re.S
        )
        assert block, "README has no search.cfg heredoc"
        path = tmp_path / "search.cfg"
        path.write_text(block.group(1) + "\n")
        cfg = RunConfig(**parse_config_file(path))
        cfg.ga_config()
        cfg.train_config()

    def test_bad_type(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("population_size = large\n")
        with pytest.raises(ConfigError, match="population_size"):
            parse_config_file(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("population_size 30\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)


class TestSynth:
    def test_default_shape(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["synth", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert len(header) == 21
        assert header[-1] == "level"
        assert header[0] == "s1" and header[19] == "s20"
        assert len(lines) == 401  # header + 400 rows

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["synth", "--out", str(a), "--seed", "3"])
        main(["synth", "--out", str(b), "--seed", "3"])
        assert a.read_bytes() == b.read_bytes()

    def test_meta_sidecar(self, tmp_path):
        out = tmp_path / "d.csv"
        main(["synth", "--out", str(out), "--informative", "2-5-7", "--seed", "4"])
        meta = json.loads((out.with_suffix(".csv.meta.json")).read_text())
        assert meta["informative"] == [2, 5, 7]
        assert meta["seed"] == 4
        assert meta["target_column"] == "level"

    def test_informative_beyond_n_vars(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code = main(["synth", "--out", str(out), "--n-vars", "4", "--informative", "9"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "sensor 9 out of range for 4 sensors" in err

    def test_huge_informative_index_rejected_before_its_mask(self, tmp_path, capsys):
        # a mask as wide as index 100,000,000 alone takes 12.5 MB
        out = tmp_path / "d.csv"
        argv = ["synth", "--out", str(out), "--n-vars", "6"]
        argv += ["--informative", "1-100000000"]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_CONFIG
        message = "sensor 100000000 out of range for 6 sensors"
        assert message in capsys.readouterr().err
        assert peak < 2**20 and not out.exists()

    def test_informative_repeated_index(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code = main(["synth", "--out", str(out), "--informative", "1-1"])
        assert code == EXIT_CONFIG
        assert "repeated sensor number in [1, 1]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--n-samples", "1", "n_samples must be >= 2, got 1"),
            ("--noise-sd", "-1", "noise_sd must be >= 0, got -1.0"),
            ("--noise-sd", "nan", "noise_sd must be finite, got nan"),
            ("--noise-sd", "inf", "noise_sd must be finite, got inf"),
            # noise_sd * N(0, 1) overflows in the first informative column
            ("--noise-sd", "1e308", "noise_sd 1e+308 overflows sensor column s1"),
        ],
        ids=["n_samples", "noise_sd", "noise_sd_nan", "noise_sd_inf", "noise_sd_overflow"],
    )
    def test_bad_rig_parameter(self, tmp_path, capsys, recwarn, flag, value, message):
        out = tmp_path / "d.csv"
        assert main(["synth", "--out", str(out), flag, value]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert [str(w.message) for w in recwarn] == []
        assert not out.exists()


class TestRun:
    def test_happy_path(self, workspace, tmp_path, capsys):
        _, _, cfg_path = workspace
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out.strip().splitlines()[-1]
        label, cv = stdout.split()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["best"]["label"] == label
        assert summary["best"]["cv_sse"] == float(cv)
        assert (out_dir / "generations.jsonl").exists()
        assert (out_dir / "graveyard.jsonl").exists()

    def test_missing_target_column(self, workspace, tmp_path, capsys):
        root, csv_path, _ = workspace
        bad_cfg = tmp_path / "bad.cfg"
        bad_cfg.write_text(
            f"data_csv = {csv_path}\ntarget_column = height\nn_train = 150\n"
        )
        code = main(["run", "--config", str(bad_cfg)])
        assert code == EXIT_DATA
        assert "height" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("data_csv = nowhere.csv\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error: nowhere.csv: cannot read (No such file or directory)" in err

    def test_settings_checked_before_the_data(self, tmp_path, capsys):
        # a bad key fails as a config error even when data_csv is missing
        cfg = tmp_path / "c.cfg"
        cfg.write_text("data_csv = nowhere.csv\npopulation_size = 3\n")
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "config error: population_size must be >= 4, got 3\n"
        assert not out_dir.exists()

    def test_population_larger_than_the_space(self, tmp_path, capsys):
        csv_path = tmp_path / "rig.csv"
        csv_path.write_text("s1,s2,s3,level\n" + "".join(
            f"{i},{i % 3},{i % 5},{i % 7}\n" for i in range(20)
        ))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"data_csv = {csv_path}\nn_train = 10\npopulation_size = 8\n")
        out_dir = tmp_path / "out"
        with count_train_calls() as calls:
            code = main(["run", "--config", str(cfg), "--out-dir", str(out_dir)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: 3 variables admit only 7 distinct chromosomes, "
            "fewer than population_size 8\n"
        )
        assert calls.n == 0 and not out_dir.exists()

    def test_spaces_only_row_located(self, tmp_path, capsys):
        csv_path = tmp_path / "spaces.csv"
        csv_path.write_text("s1,s2,level\n1,2,3\n4,5,6\n  \n7,8,9\n\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"data_csv = {csv_path}\nn_train = 2\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{csv_path}: row 4 has 1 cells, expected 3" in err

    @pytest.mark.parametrize(
        "row",
        ["x" * 131_073 + ",1\n", "1\x002,3\n"],
        ids=["oversized_field", "nul_byte"],
    )
    def test_csv_module_error_is_a_data_error(self, tmp_path, capsys, row):
        # an oversized field is a csv.Error on every Python, a NUL byte up to 3.10
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("s1,level\n" + row + "4,5\n" * 3, encoding="utf-8")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"data_csv = {csv_path}\nn_train = 2\n")
        out_dir = tmp_path / "out"
        with count_train_calls() as calls:
            code = main(["run", "--config", str(cfg), "--out-dir", str(out_dir)])
        assert code == EXIT_DATA
        assert f"data error: {csv_path}: row 2" in capsys.readouterr().err
        assert calls.n == 0 and not out_dir.exists()

    @pytest.mark.parametrize("command", ["run", "exhaustive"])
    def test_target_only_csv(self, tmp_path, capsys, command):
        csv_path = tmp_path / "level.csv"
        csv_path.write_text("level\n" + "".join(f"{i}.5\n" for i in range(10)))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"data_csv = {csv_path}\nn_train = 5\n")
        out_dir = tmp_path / "out"
        with count_train_calls() as calls:
            code = main([command, "--config", str(cfg), "--out-dir", str(out_dir)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{csv_path}: no sensor columns besides target 'level'" in err
        assert calls.n == 0 and not out_dir.exists()

    @pytest.mark.parametrize("command", ["run", "exhaustive"])
    @pytest.mark.parametrize(
        "train_s2, cv_s2, block",
        [(("0", "1e-150"), "1e160", "cv"), (("1.7e308", "1.6e308"), "1", "train")],
        ids=["cv_overflow", "train_overflow"],
    )
    def test_overflowing_column(
        self, tmp_path, capsys, recwarn, command, train_s2, cv_s2, block
    ):
        # rows 1-10 train, alternating the two train_s2 values; 11-20 cv
        rows = [f"{i},{train_s2[i % 2]},{i}" for i in range(10)]
        rows += [f"{i},{cv_s2},{i}" for i in range(10, 20)]
        csv_path = tmp_path / "overflow.csv"
        csv_path.write_text("s1,s2,level\n" + "\n".join(rows) + "\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"data_csv = {csv_path}\nn_train = 10\n")
        out_dir = tmp_path / "out"
        with count_train_calls() as calls:
            code = main([command, "--config", str(cfg), "--out-dir", str(out_dir)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        message = f"column 's2' overflows when z-scored in the {block} block"
        assert f"data error: {message}" in err
        assert calls.n == 0 and not out_dir.exists()
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize("command", ["run", "exhaustive"])
    @pytest.mark.parametrize("block", ["train", "cv"])
    def test_overflowing_target(self, tmp_path, capsys, recwarn, command, block):
        # a 4-sensor rig whose target, in one block, is scaled by 1e200
        csv_path = tmp_path / "rig.csv"
        synth = ["synth", "--out", str(csv_path), "--n-vars", "4", "--n-samples", "20"]
        assert main(synth) == EXIT_OK
        lines = csv_path.read_text().splitlines()
        rows = range(1, 11) if block == "train" else range(11, 21)
        for i in rows:
            cells = lines[i].split(",")
            cells[-1] = repr(float(cells[-1]) * 1e200)
            lines[i] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"data_csv = {csv_path}\nn_train = 10\n")
        out_dir = tmp_path / "out"
        with count_train_calls() as calls:
            code = main([command, "--config", str(cfg), "--out-dir", str(out_dir)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        message = f"target column 'level' overflows when squared in the {block} block"
        assert f"data error: {message}" in err
        assert calls.n == 0 and not out_dir.exists()
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize(
        "command, blocked",
        [
            ("run", "generations.jsonl"),
            ("run", "summary.json"),
            ("exhaustive", "scores.csv"),
        ],
    )
    def test_output_file_unwritable(self, tmp_path, capsys, command, blocked):
        csv_path = tmp_path / "rig.csv"
        synth = ["synth", "--out", str(csv_path), "--n-vars", "6", "--n-samples", "60"]
        assert main(synth) == EXIT_OK
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"data_csv = {csv_path}\nn_train = 30\npopulation_size = 10\n"
            "generations = 1\nhidden_units = 2\nmax_iterations = 5\n"
        )
        out_dir = tmp_path / "out"
        (out_dir / blocked).mkdir(parents=True)
        with count_train_calls() as calls:
            code = main([command, "--config", str(cfg), "--out-dir", str(out_dir)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: {out_dir / blocked}: cannot write (" in err
        assert calls.n == 0

    @pytest.mark.parametrize("blocked", ["rig.csv", "rig.csv.meta.json"])
    def test_synth_output_unwritable(self, tmp_path, capsys, blocked):
        out = tmp_path / "nodir" / "rig.csv"
        if blocked.endswith(".meta.json"):
            (out.parent / blocked).mkdir(parents=True)
        code = main(["synth", "--out", str(out), "--n-vars", "6", "--n-samples", "60"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: {out.parent / blocked}: cannot write (" in err

    def test_write_error_without_a_filename_names_the_output(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        # a full disk, raised where the OS names no file: the message falls
        # back to the output CSV of synth and the output directory of run
        def disk_full(*_args, **_kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        full = f"cannot write ({os.strerror(errno.ENOSPC)})\n"
        monkeypatch.setattr(gaselect.cli, "write_csv", disk_full)
        out = tmp_path / "rig.csv"
        assert main(["synth", "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {out}: {full}"

        monkeypatch.setattr(Graveyard, "write_audit", disk_full)
        _, _, cfg_path = workspace
        out_dir = tmp_path / "out"
        argv = ["run", "--config", str(cfg_path), "--generations", "1"]
        assert main(argv + ["--out-dir", str(out_dir)]) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {out_dir}: {full}"

    def test_non_utf8_data_file(self, tmp_path, capsys):
        csv_path = tmp_path / "latin1.csv"
        csv_path.write_bytes(b"s1,level\n1.0,2.0\n\xe9,3.0\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"data_csv = {csv_path}\nn_train = 1\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and str(csv_path) in err

    @pytest.mark.parametrize("kind", ["missing", "directory", "latin1"])
    def test_unreadable_config_file(self, tmp_path, capsys, kind):
        cfg = tmp_path / "c.cfg"
        if kind == "directory":
            cfg.mkdir()
        elif kind == "latin1":
            cfg.write_bytes(b"# caf\xe9\npopulation_size = 20\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and str(cfg) in err

    @pytest.mark.parametrize("command", ["run", "exhaustive"])
    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_threads_below_one(
        self, workspace, tmp_path, capsys, monkeypatch, command, threads
    ):
        _, _, cfg_path = workspace
        pools = []
        # engine imports the pool class from here when it makes a pool
        monkeypatch.setattr(
            concurrent.futures, "ThreadPoolExecutor", lambda **kw: pools.append(kw)
        )
        out_dir = tmp_path / "out"
        argv = [command, "--config", str(cfg_path), "--threads", threads]
        with count_train_calls() as calls:
            code = main(argv + ["--out-dir", str(out_dir)])
        assert code == EXIT_CONFIG
        assert f"threads must be >= 1, got {threads}" in capsys.readouterr().err
        assert pools == [] and calls.n == 0
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["synth", "run", "exhaustive"])
    def test_negative_seed(self, workspace, tmp_path, capsys, command):
        _, _, cfg_path = workspace
        out = tmp_path / "out"
        if command == "synth":
            argv = ["synth", "--out", str(out)]
        else:
            argv = [command, "--config", str(cfg_path), "--out-dir", str(out)]
        with count_train_calls() as calls:
            code = main(argv + ["--seed", "-1"])
        assert code == EXIT_CONFIG
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert calls.n == 0 and not out.exists()

    @pytest.mark.parametrize("command", ["run", "exhaustive"])
    def test_out_dir_is_a_file(self, workspace, tmp_path, capsys, command):
        _, _, cfg_path = workspace
        afile = tmp_path / "afile"
        afile.write_text("not a directory\n")
        argv = [command, "--config", str(cfg_path), "--out-dir", str(afile)]
        with count_train_calls() as calls:
            code = main(argv)
        assert code == EXIT_DATA
        assert calls.n == 0
        err = capsys.readouterr().err
        assert "cannot create output directory" in err and str(afile) in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
            (["run", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        ],
    )
    def test_usage_error_is_config_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("usage: gaselect") and message in err

    @pytest.mark.parametrize(
        "argv, usage, error",
        [
            (["exhaustive", "--generations", "3"], "gaselect exhaustive",
             "gaselect exhaustive: error: unrecognized arguments: --generations 3"),
            (["run", "--bogus", "1"], "gaselect run",
             "gaselect run: error: unrecognized arguments: --bogus 1"),
            (["--bogus", "run"], "gaselect [-h] {run,exhaustive,synth}",
             "gaselect: error: unrecognized arguments: --bogus"),
        ],
        ids=["exhaustive", "run", "top_level"],
    )
    def test_unknown_flag_prints_its_parsers_usage(self, capsys, argv, usage, error):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"usage: {usage} ")
        assert err.endswith(f"\n{error}\n")

    @pytest.mark.parametrize(
        "flag, value, engine_call",
        [
            ("--seed", "-1", lambda split: GaConfig(master_seed=-1)),
            ("--threads", "0", lambda split: run(GaConfig(), split, TrainConfig(), threads=0)),
        ],
        ids=["seed", "threads"],
    )
    def test_cli_states_the_engines_message(
        self, workspace, tmp_path, capsys, flag, value, engine_call
    ):
        with pytest.raises(ConfigError) as exc:
            engine_call(make_split(6, [0], 0.1, seed=1, n_samples=30, n_train=20))
        _, _, cfg_path = workspace
        out = tmp_path / "out"
        argv = ["run", "--config", str(cfg_path), flag, value, "--out-dir", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {exc.value}\n"
        assert f"got {value}" in str(exc.value) and not out.exists()

    def test_help_exits_ok(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == EXIT_OK
        assert "--out-dir" in capsys.readouterr().out

    def test_invalid_setting(self, workspace, tmp_path, capsys):
        _, csv_path, _ = workspace
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"data_csv = {csv_path}\nsurvival_fraction = 2.0\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG

    def test_flag_overrides_echoed(self, workspace, tmp_path):
        _, _, cfg_path = workspace
        out_dir = tmp_path / "out"
        main(
            [
                "run",
                "--config",
                str(cfg_path),
                "--mutation-rate",
                "0.25",
                "--out-dir",
                str(out_dir),
            ]
        )
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["config"]["mutation_rate"] == 0.25
        # file value survives where no flag was given
        assert summary["config"]["population_size"] == 12

    def test_config_echo_round_trips(self, workspace, tmp_path):
        _, _, cfg_path = workspace
        out_dir = tmp_path / "out"
        main(["run", "--config", str(cfg_path), "--seed", "77", "--out-dir", str(out_dir)])
        summary = json.loads((out_dir / "summary.json").read_text())
        rebuilt = RunConfig(**summary["config"])
        assert rebuilt.master_seed == 77
        assert rebuilt.n_train == 150
        assert rebuilt.hidden_units == 2

    def test_summary_rederivable_from_jsonl(self, workspace, tmp_path):
        _, _, cfg_path = workspace
        out_dir = tmp_path / "out"
        main(["run", "--config", str(cfg_path), "--out-dir", str(out_dir)])
        summary = json.loads((out_dir / "summary.json").read_text())
        reports = [
            json.loads(line)
            for line in (out_dir / "generations.jsonl").read_text().splitlines()
        ]
        audit = [
            json.loads(line)
            for line in (out_dir / "graveyard.jsonl").read_text().splitlines()
        ]
        buried = [rec for rec in audit if not rec["was_cached"]]
        assert summary["graveyard_size"] == len(buried)
        assert summary["total_evaluations"] == len(buried)
        assert summary["generations_completed"] == len(reports)
        pop = summary["config"]["population_size"]
        assert pop + sum(r["new_evaluations"] for r in reports) == len(buried)
        best = min(
            buried,
            key=lambda rec: ranking_key(
                Chromosome.from_one_based(rec["genes"], 8),
                Score(rec["cv_sse"], rec["train_sse"]),
            ),
        )
        assert summary["best"]["genes"] == best["genes"]
        assert summary["best"]["cv_sse"] == best["cv_sse"]
        bests = [r["best_cv_sse"] for r in reports]
        assert all(b <= a for a, b in zip(bests, bests[1:]))


class TestExhaustive:
    def test_full_table_and_winner(self, workspace, tmp_path, capsys):
        _, _, cfg_path = workspace
        out_dir = tmp_path / "outex"
        code = main(["exhaustive", "--config", str(cfg_path), "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        lines = (out_dir / "scores.csv").read_text().splitlines()
        assert lines[0] == "genes,cv_sse"
        assert len(lines) == 1 + 255
        rows = [line.split(",") for line in lines[1:]]
        # rows run in ascending bitmask order: 1, 2, 1-2, 3, 1-3, ...
        masks = [sum(1 << (int(g) - 1) for g in row[0].split("-")) for row in rows]
        assert masks == list(range(1, 256))
        winner = min(
            rows,
            key=lambda row: (
                float(row[1]),
                len(row[0].split("-")),
                tuple(int(g) for g in row[0].split("-")),
            ),
        )
        printed = capsys.readouterr().out.strip().splitlines()[-1].split()
        assert printed[0] == winner[0]
        assert float(printed[1]) == float(winner[1])

    def test_rerun_identical_bytes(self, workspace, tmp_path):
        _, _, cfg_path = workspace
        d1, d2 = tmp_path / "e1", tmp_path / "e2"
        main(["exhaustive", "--config", str(cfg_path), "--out-dir", str(d1)])
        main(["exhaustive", "--config", str(cfg_path), "--out-dir", str(d2)])
        assert (d1 / "scores.csv").read_bytes() == (d2 / "scores.csv").read_bytes()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--generations", "3"),
            ("--population", "9"),
            ("--survival", "0.5"),
            ("--mutation-rate", "0.1"),
        ],
    )
    def test_ga_flag_is_a_usage_error(self, workspace, tmp_path, capsys, flag, value):
        # exhaustive would ignore it, so it is not accepted
        _, _, cfg_path = workspace
        out = tmp_path / "ex_gen"
        argv = ["exhaustive", "--config", str(cfg_path), flag, value, "--out-dir", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("usage: gaselect")
        assert f"unrecognized arguments: {flag} {value}" in err
        assert not out.exists()

    def test_cap_exceeded(self, workspace, tmp_path, capsys):
        _, csv_path, _ = workspace
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"data_csv = {csv_path}\nn_train = 150\nexhaustive_cap = 6\n"
        )
        assert main(["exhaustive", "--config", str(cfg)]) == EXIT_CONFIG


def test_every_package_error_has_an_exit_code():
    # main maps ConfigError to exit 1 and DataError to exit 2; any other
    # package error reaching it would exit 3 as a runtime failure.
    caught_inside = (SolveFailure, NoveltyExhausted)
    classes = [
        obj
        for obj in vars(gaselect.errors).values()
        if isinstance(obj, type) and issubclass(obj, GaSelectError)
    ]
    assert len(classes) > 2
    for cls in classes:
        if cls is not GaSelectError and cls not in caught_inside:
            assert issubclass(cls, (ConfigError, DataError)), cls.__name__


def test_runtime_error_without_message_names_its_type(tmp_path, capsys, monkeypatch):
    def run_out_of_memory(**_):
        raise MemoryError()

    monkeypatch.setattr(gaselect.cli, "synthetic_sensors", run_out_of_memory)
    assert main(["synth", "--out", str(tmp_path / "d.csv")]) == EXIT_RUNTIME
    assert capsys.readouterr().err == "runtime error: MemoryError\n"
