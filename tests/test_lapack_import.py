"""How ``gaselect.mlp`` gets LAPACK ``dpotrf``/``dpotrs`` from scipy, and
what importing the CLI costs.

It loads scipy's compiled ``scipy.linalg._flapack`` extension on its own,
without the ``scipy`` or ``scipy.linalg`` package init, and falls back to
importing ``scipy.linalg.lapack`` when scipy's directory or the extension
file is not found. Each check runs in a fresh interpreter, since the pytest
process has long imported both.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gaselect

SRC = str(Path(gaselect.__file__).resolve().parent.parent)


def run_python(code: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_scipy_linalg_out():
    # nor the scipy package, nor concurrent.futures, which only a pool needs
    run_python(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import gaselect.cli\n"
        "new = set(sys.modules) - before\n"
        "unwanted = {'scipy', 'scipy.linalg', 'concurrent.futures'}\n"
        "assert not new & unwanted, sorted(new & unwanted)\n"
        "assert 'scipy.linalg._flapack' in new\n"
    )


@pytest.mark.parametrize(
    "first, second",
    [("gaselect.mlp", "scipy.linalg.lapack"), ("scipy.linalg.lapack", "gaselect.mlp")],
    ids=["gaselect_first", "scipy_first"],
)
def test_routines_are_scipys_own(first, second):
    run_python(
        f"import {first}, {second}\n"
        "import gaselect.mlp as mlp, scipy.linalg.lapack as lapack\n"
        "assert mlp.dpotrf is lapack.dpotrf\n"
        "assert mlp.dpotrs is lapack.dpotrs\n"
    )


def test_loaded_extension_is_reused():
    run_python(
        "import sys\n"
        "import scipy.linalg.lapack as lapack\n"
        "from importlib.machinery import PathFinder\n"
        "find_spec = PathFinder.find_spec\n"
        "def refuse(name, path=None, target=None):\n"
        "    assert name != 'scipy.linalg._flapack', 'looked up again'\n"
        "    return find_spec(name, path, target)\n"
        "PathFinder.find_spec = refuse\n"
        "import gaselect.mlp as mlp\n"
        "assert mlp.dpotrf is lapack.dpotrf\n"
    )


def test_scipy_linalg_works_after_gaselect_loaded_the_extension():
    run_python(
        "import numpy as np\n"
        "import gaselect.mlp as mlp\n"
        "import scipy.linalg\n"
        "rng = np.random.default_rng(3)\n"
        "M = rng.normal(size=(20, 6))\n"
        "a, b = M.T @ M + np.eye(6), rng.normal(size=6)\n"
        "c, lower = scipy.linalg.cho_factor(a, lower=True)\n"
        "assert lower and np.array_equal(c, mlp.cho_factor(a))\n"
        "x = scipy.linalg.cho_solve((c, lower), b)\n"
        "assert np.allclose(a @ x, b)\n"
    )


def test_fallback_when_the_extension_is_not_found():
    # gaselect's own lookup finds nothing, as with an editable or frozen
    # install; the ordinary import of scipy.linalg, which runs once the
    # package is in sys.modules, still finds the extension
    run_python(
        "import sys\n"
        "from importlib.machinery import PathFinder\n"
        "find_spec = PathFinder.find_spec\n"
        "def hide(name, path=None, target=None):\n"
        "    if name == 'scipy.linalg._flapack' and 'scipy.linalg' not in sys.modules:\n"
        "        return None\n"
        "    return find_spec(name, path, target)\n"
        "PathFinder.find_spec = hide\n"
        "import gaselect.mlp as mlp\n"
        "assert 'scipy.linalg' in sys.modules\n"
        "import scipy.linalg.lapack as lapack\n"
        "assert mlp.dpotrf is lapack.dpotrf\n"
        "assert mlp.dpotrs is lapack.dpotrs\n"
    )
    # scipy's directory is not found, as when a finder other than the path
    # finder serves it; the ordinary import still finds scipy
    run_python(
        "import importlib.util, sys\n"
        "find_spec = importlib.util.find_spec\n"
        "def hide(name, package=None):\n"
        "    return None if name == 'scipy' else find_spec(name, package)\n"
        "importlib.util.find_spec = hide\n"
        "import gaselect.mlp as mlp\n"
        "assert 'scipy.linalg' in sys.modules\n"
        "import scipy.linalg.lapack as lapack\n"
        "assert mlp.dpotrf is lapack.dpotrf\n"
        "assert mlp.dpotrs is lapack.dpotrs\n"
    )
