"""The benchmark tracer (bench/spans.py) wraps gaselect functions by name.

It patches each (module, attribute) pair of its SPANS and LEAVES tables and
reads a few attributes of the values they return, so renaming or deleting
any of them breaks the per-layer benchmark; these tests catch that here.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import gaselect.mlp as mlp_mod
from gaselect.fitness import Score
from gaselect.mlp import MlpParams, TrainConfig, TrainedModel

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize(
    "module_name, attr, name",
    spans.SPANS + spans.LEAVES,
    ids=[name for _, _, name in spans.SPANS + spans.LEAVES],
)
def test_traced_name_resolves(module_name, attr, name):
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_recorded_attributes_exist():
    assert isinstance(Score.failed, property)
    assert isinstance(MlpParams.n_params, property)
    fields = {f.name for f in dataclasses.fields(TrainedModel)}
    assert {"iterations_used", "converged"} <= fields


def test_leaf_work_reads_what_train_lm_passes(monkeypatch):
    # The tracer derives mlp.jacobian_mb_computed and mlp.cholesky_gflop_computed
    # from the arguments of these two leaves: (params, n-row X, ...) and the
    # (P, P) matrix. A change to what train_lm passes must not change them.
    tracer = spans.Tracer()
    for attr in ("residual_jacobian", "cho_factor"):
        name = f"mlp.{attr}"
        monkeypatch.setattr(mlp_mod, attr, tracer.leaf(name, getattr(mlp_mod, attr)))
    rng = np.random.default_rng(5)
    n, d, h = 30, 3, 2
    X = rng.normal(size=(n, d))
    y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=n)
    model = tracer.span("mlp.train_lm", mlp_mod.train_lm)(
        X, y, TrainConfig(hidden_units=h, max_iterations=15), 1
    )

    (rec,) = tracer.spans
    jac_calls, _, jac_work = rec["leaves"]["mlp.residual_jacobian"]
    cho_calls, _, cho_work = rec["leaves"]["mlp.cho_factor"]
    P = h * (d + 1) + h + 1
    accepted = jac_calls - 1
    assert 1 <= accepted <= model.iterations_used
    assert jac_work == (1 + accepted) * n * P * 8
    assert cho_calls == model.iterations_used
    assert cho_work == model.iterations_used * P**3
