"""The command line scores with one BLAS thread unless the user set a count.

``import gaselect`` loads nothing, so ``gaselect.cli`` can set
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` before
numpy first loads. Each check runs in a fresh interpreter whose environment
has none of the three, since the pytest process has long imported numpy.
"""

import os
import subprocess
import sys
from pathlib import Path

from gaselect.cli import EXIT_OK, main

SRC = str(Path(__file__).resolve().parents[1] / "src")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_python(args, cwd=None, **env_vars):
    """Run ``python args`` on a clean BLAS environment plus env_vars."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update(env_vars)
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_package_root_loads_no_numpy():
    run_python(["-c", "import sys, gaselect\nassert 'numpy' not in sys.modules\n"])


def test_cli_import_sets_one_blas_thread():
    shown = run_python(
        [
            "-c",
            "import os, gaselect.cli\n"
            f"print(*(os.environ[v] for v in {BLAS_VARS!r}))\n",
        ]
    )
    assert shown.split() == ["1", "1", "1"]


def test_a_count_the_user_set_wins():
    shown = run_python(
        ["-c", "import os, gaselect.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])\n"],
        OPENBLAS_NUM_THREADS="2",
    )
    assert shown.split() == ["2"]


def test_readme_rig_bytes_do_not_depend_on_the_blas_environment(tmp_path):
    # 20 sensors and 5 hidden units: an 8-sensor rig gave the same bytes at
    # OpenBLAS's default thread count even before the CLI pinned it
    synth = ["synth", "--out", str(tmp_path / "rig.csv"), "--seed", "7"]
    assert main(synth) == EXIT_OK
    (tmp_path / "search.cfg").write_text(
        "data_csv = rig.csv\nn_train = 200\npopulation_size = 50\n"
        "master_seed = 7\nhidden_units = 5\n",
        encoding="utf-8",
    )
    argv = ["-m", "gaselect.cli", "run", "--config", "search.cfg", "--generations", "1"]
    run_python(argv + ["--out-dir", "unset"], tmp_path)
    run_python(argv + ["--out-dir", "pinned"], tmp_path, OPENBLAS_NUM_THREADS="1")
    for name in ("generations.jsonl", "graveyard.jsonl", "summary.json"):
        unset = (tmp_path / "unset" / name).read_bytes()
        assert unset == (tmp_path / "pinned" / name).read_bytes(), name
