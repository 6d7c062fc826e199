"""Span recording around gaselect's module boundaries, and per-layer analysis.

A traced child process installs a Tracer, which replaces functions in the
gaselect module namespaces with timing wrappers, the same way the test suite
patches ``gaselect.fitness.train_lm`` to count trainings. Nothing in the
package itself changes.

Two kinds of wrapper:

- a *span* records name, start, end, parent span and thread id; spans nest
  through a per-thread stack, and spans opened on an evaluation pool thread
  take the open ``evaluate_batch`` span as their parent;
- a *leaf* is a hot inner call (Cholesky, Jacobian, forward pass, genome
  operators); its calls, seconds and computed work are summed into the
  enclosing span instead of becoming spans of their own.

Spans stay in memory and are written out as JSON lines when the run ends.
``layer_metrics`` turns a list of spans into the per-layer metrics.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from pathlib import Path

LAYERS = ("cli", "data", "genome", "engine", "fitness", "mlp")

# (module, attribute as bound there, span name). The layer is the name's
# prefix: the package module the wrapped function belongs to.
SPANS = (
    ("gaselect.cli", "main", "cli.main"),
    ("gaselect.cli", "load_csv", "data.load_csv"),
    ("gaselect.cli", "split_sequential", "data.split"),
    ("gaselect.cli", "run", "engine.run"),
    ("gaselect.cli", "exhaustive_search", "engine.exhaustive_search"),
    ("gaselect.engine", "step_generation", "engine.step_generation"),
    ("gaselect.engine", "produce_offspring", "engine.produce_offspring"),
    ("gaselect.engine", "_random_novel", "engine.fallback"),
    ("gaselect.engine", "evaluate_batch", "fitness.evaluate_batch"),
    ("gaselect.fitness", "evaluate", "fitness.evaluate"),
    ("gaselect.fitness", "train_lm", "mlp.train_lm"),
)

LEAVES = (
    ("gaselect.engine", "select_parents", "engine.select_parents"),
    ("gaselect.engine", "uniform_crossover", "genome.crossover"),
    ("gaselect.engine", "mutate", "genome.mutate"),
    ("gaselect.fitness", "select_columns", "data.select_columns"),
    ("gaselect.fitness", "normalize_apply", "data.normalize_apply"),
    ("gaselect.mlp", "cho_factor", "mlp.cho_factor"),
    ("gaselect.mlp", "cho_solve", "mlp.cho_solve"),
    ("gaselect.mlp", "residual_jacobian", "mlp.residual_jacobian"),
    ("gaselect.mlp", "predict", "mlp.predict"),
)


# Computed work is summed as integers so the totals are exact in any order.
def _cholesky_cube(args, _kwargs) -> int:
    """P^3 for the (P, P) damped normal matrix; P^3/3 flops factor it."""
    return args[0].shape[0] ** 3


def _jacobian_bytes(args, _kwargs) -> int:
    """n * P * 8 bytes for the float64 Jacobian of params over rows of X."""
    params, X = args[0], args[1]
    return X.shape[0] * params.n_params * 8


LEAF_WORK = {
    "mlp.cho_factor": _cholesky_cube,
    "mlp.residual_jacobian": _jacobian_bytes,
}


def _train_attrs(args, _kwargs, result) -> dict:
    return {"iterations": result.iterations_used, "converged": int(result.converged)}


def _evaluate_attrs(args, _kwargs, result) -> dict:
    return {"failed": int(result.failed)}


def _batch_attrs(args, _kwargs, result) -> dict:
    return {"lookups": len(args[0])}


SPAN_ATTRS = {
    "mlp.train_lm": _train_attrs,
    "fitness.evaluate": _evaluate_attrs,
    "fitness.evaluate_batch": _batch_attrs,
}


class Tracer:
    """Records spans and leaf aggregates; install() patches gaselect for good."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._batch: list[int] = []  # open evaluate_batch span ids

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn):
        attrs_of = SPAN_ATTRS.get(name)
        is_batch = name == "fitness.evaluate_batch"

        def wrapped(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]["id"]
            else:
                parent = self._batch[-1] if self._batch else None
            rec = {
                "id": next(self._ids),
                "name": name,
                "parent": parent,
                "tid": threading.get_ident(),
                "start": time.perf_counter(),
                "end": None,
                "leaves": {},
                "attrs": {},
            }
            stack.append(rec)
            if is_batch:
                self._batch.append(rec["id"])
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec["attrs"]["raised"] = type(exc).__name__
                raise
            else:
                if attrs_of is not None:
                    rec["attrs"].update(attrs_of(args, kwargs, result))
                return result
            finally:
                rec["end"] = time.perf_counter()
                stack.pop()
                if is_batch:
                    self._batch.pop()
                self.spans.append(rec)

        return wrapped

    def leaf(self, name: str, fn):
        work_of = LEAF_WORK.get(name)

        def wrapped(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack = self._stack()
                # Every leaf is called from inside some span of this thread.
                entry = stack[-1]["leaves"].setdefault(name, [0, 0.0, 0])
                entry[0] += 1
                entry[1] += elapsed
                if work_of is not None:
                    entry[2] += work_of(args, kwargs)

        return wrapped

    def install(self) -> None:
        import importlib

        for table, make in ((SPANS, self.span), (LEAVES, self.leaf)):
            for module_name, attr, name in table:
                module = importlib.import_module(module_name)
                setattr(module, attr, make(name, getattr(module, attr)))

    def write(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            for rec in sorted(self.spans, key=lambda r: r["id"]):
                fh.write(json.dumps(rec) + "\n")


def read_spans(path: str | Path) -> list[dict]:
    with Path(path).open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (children may overlap on threads)."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """Highest of p50/p90/p95/p99/p99.9 with at least ten samples beyond it.

    Returns (percentile, value); nearest-rank on the sorted samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    chosen = 50.0
    for pct in (90.0, 95.0, 99.0, 99.9):
        if n * (1.0 - pct / 100.0) >= 10:
            chosen = pct
    rank = max(0, min(n - 1, int(-(-chosen * n // 100)) - 1))
    return chosen, ordered[rank]


def layer_metrics(spans: list[dict], threads: int) -> dict[str, float]:
    """Per-layer counts, times and self times from one traced run."""
    by_name: dict[str, list[dict]] = {}
    children: dict[int, list[dict]] = {}
    leaves: dict[str, list[float]] = {}  # name -> [calls, seconds, work]
    for rec in spans:
        by_name.setdefault(rec["name"], []).append(rec)
        if rec["parent"] is not None:
            children.setdefault(rec["parent"], []).append(rec)
        for name, (calls, seconds, work) in rec["leaves"].items():
            agg = leaves.setdefault(name, [0, 0.0, 0])
            agg[0] += calls
            agg[1] += seconds
            agg[2] += work

    def dur(rec):
        return rec["end"] - rec["start"]

    def total(name):
        return sum(dur(r) for r in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    def leaf(name, field):
        return leaves.get(name, [0, 0.0, 0])[field]

    def attr_sum(name, key):
        return sum(r["attrs"].get(key, 0) for r in by_name.get(name, ()))

    def self_time(rec):
        kids = [(c["start"], c["end"]) for c in children.get(rec["id"], ())]
        return dur(rec) - _covered(kids) - sum(v[1] for v in rec["leaves"].values())

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for rec in spans:
        layer_self[rec["name"].split(".", 1)[0]] += self_time(rec)
    for name, agg in leaves.items():
        layer_self[name.split(".", 1)[0]] += agg[1]

    m: dict[str, float] = {}
    train_calls = count("mlp.train_lm")
    jac_calls = leaf("mlp.residual_jacobian", 0)
    cho_calls = leaf("mlp.cho_factor", 0)
    accepted = jac_calls - train_calls
    m["mlp.train_lm_calls"] = train_calls
    m["mlp.train_lm_s"] = total("mlp.train_lm")
    m["mlp.train_lm_self_s"] = sum(self_time(r) for r in by_name.get("mlp.train_lm", ()))
    m["mlp.cho_factor_calls"] = cho_calls
    m["mlp.cho_factor_s"] = leaf("mlp.cho_factor", 1)
    m["mlp.cho_solve_s"] = leaf("mlp.cho_solve", 1)
    m["mlp.residual_jacobian_calls"] = jac_calls
    m["mlp.residual_jacobian_s"] = leaf("mlp.residual_jacobian", 1)
    m["mlp.predict_calls"] = leaf("mlp.predict", 0)
    m["mlp.predict_s"] = leaf("mlp.predict", 1)
    m["mlp.lm_iterations"] = attr_sum("mlp.train_lm", "iterations")
    m["mlp.lm_converged"] = attr_sum("mlp.train_lm", "converged")
    m["mlp.accepted_steps"] = accepted
    m["mlp.rejected_steps"] = cho_calls - accepted
    m["mlp.cholesky_gflop_computed"] = leaf("mlp.cho_factor", 2) / 3e9
    m["mlp.jacobian_mb_computed"] = leaf("mlp.residual_jacobian", 2) / 1e6

    evals = [dur(r) * 1e3 for r in by_name.get("fitness.evaluate", ())]
    lookups = attr_sum("fitness.evaluate_batch", "lookups")
    batch_s = total("fitness.evaluate_batch")
    m["fitness.evaluate_calls"] = len(evals)
    m["fitness.evaluate_ms_p50"] = statistics.median(evals)
    pct, tail = tail_percentile(evals)
    m["fitness.evaluate_tail_pct"] = pct
    m["fitness.evaluate_ms_tail"] = tail
    m["fitness.batch_s"] = batch_s
    m["fitness.solve_failures"] = attr_sum("fitness.evaluate", "failed")
    m["fitness.lookups"] = lookups
    m["fitness.cache_hits"] = lookups - len(evals)
    m["fitness.novel_ratio"] = len(evals) / lookups if lookups else 0.0
    m["fitness.parallel_efficiency"] = (
        sum(evals) / 1e3 / (batch_s * threads) if batch_s else 0.0
    )

    offspring = sum(
        1 for r in by_name.get("engine.produce_offspring", ()) if "raised" not in r["attrs"]
    )
    fallbacks = count("engine.fallback")
    fallback_ok = sum(
        1 for r in by_name.get("engine.fallback", ()) if "raised" not in r["attrs"]
    )
    attempts = leaf("engine.select_parents", 0)
    m["engine.breed_s"] = total("engine.produce_offspring")
    m["engine.offspring"] = offspring
    m["engine.breed_attempts"] = attempts
    m["engine.offspring_per_attempt"] = (offspring - fallback_ok) / attempts if attempts else 0.0
    m["engine.fallbacks"] = fallbacks
    m["engine.fallback_s"] = total("engine.fallback")
    m["engine.generations"] = count("engine.step_generation")

    m["genome.crossover_calls"] = leaf("genome.crossover", 0)
    m["genome.crossover_s"] = leaf("genome.crossover", 1)
    m["genome.mutate_calls"] = leaf("genome.mutate", 0)
    m["genome.mutate_s"] = leaf("genome.mutate", 1)

    m["data.load_csv_s"] = total("data.load_csv")
    m["data.split_s"] = total("data.split")
    m["data.select_columns_s"] = leaf("data.select_columns", 1)
    m["data.normalize_apply_s"] = leaf("data.normalize_apply", 1)

    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


# Counts that are a pure function of the run inputs: equal on every run of
# one workload and seed, at any thread count.
DETERMINISTIC = (
    "mlp.train_lm_calls",
    "mlp.cho_factor_calls",
    "mlp.residual_jacobian_calls",
    "mlp.predict_calls",
    "mlp.lm_iterations",
    "mlp.lm_converged",
    "mlp.accepted_steps",
    "mlp.rejected_steps",
    "mlp.cholesky_gflop_computed",
    "mlp.jacobian_mb_computed",
    "fitness.evaluate_calls",
    "fitness.solve_failures",
    "fitness.lookups",
    "fitness.cache_hits",
    "engine.offspring",
    "engine.breed_attempts",
    "engine.fallbacks",
    "engine.generations",
    "genome.crossover_calls",
    "genome.mutate_calls",
)
