"""The benchmark tracer (bench/spans.py) wraps gaselect functions by name.

It patches each (module, attribute) pair of its SPANS and LEAVES tables and
reads a few attributes of the values they return, so renaming or deleting
any of them breaks the per-layer benchmark; these tests catch that here.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from gaselect.fitness import Score
from gaselect.mlp import MlpParams, TrainedModel

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
