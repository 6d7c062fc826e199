"""Shared fixtures: synthetic splits, instrumented runs, acceptance summary."""

from contextlib import contextmanager
from dataclasses import dataclass

import pytest

import gaselect.fitness
from gaselect.data import SplitDataset, split_sequential, synthetic_sensors
from gaselect.engine import GaConfig, RunResult, exhaustive_search, run
from gaselect.fitness import Score
from gaselect.genome import Chromosome
from gaselect.mlp import TrainConfig

ORACLE_SEEDS = (101, 102, 103, 104, 105)


class CallCounter:
    """Thread-safe call tally (list.append is atomic under the GIL)."""

    def __init__(self):
        self._events = []

    def bump(self):
        self._events.append(None)

    @property
    def n(self):
        return len(self._events)


@contextmanager
def count_train_calls():
    """Count every train_lm invocation made through the fitness module."""
    calls = CallCounter()
    original = gaselect.fitness.train_lm

    def counting(X, y, cfg, weight_seed=0):
        calls.bump()
        return original(X, y, cfg, weight_seed=weight_seed)

    gaselect.fitness.train_lm = counting
    try:
        yield calls
    finally:
        gaselect.fitness.train_lm = original


def make_split(n_vars, informative, noise_sd, seed, n_samples=400, n_train=200):
    data = synthetic_sensors(n_vars, n_samples, Chromosome(informative), noise_sd, seed)
    return split_sequential(data, n_train)


@dataclass
class OracleRun:
    seed: int
    split: SplitDataset
    exhaustive_best: Chromosome
    exhaustive_score: Score
    table_size: int
    exhaustive_train_calls: int
    ga: RunResult
    ga_train_calls: int


@pytest.fixture(scope="session")
def oracle_runs():
    """Five seeded fixtures: exhaustive oracle plus a GA run on each."""
    train_cfg = TrainConfig(hidden_units=3)
    runs = []
    for seed in ORACLE_SEEDS:
        split = make_split(8, [0, 1, 2], 0.1, seed)
        with count_train_calls() as c_ex:
            (best_c, best_s), table = exhaustive_search(
                split, train_cfg, master_seed=seed
            )
        ga_cfg = GaConfig(
            n_vars=8,
            population_size=20,
            survival_fraction=0.25,
            mutation_rate=0.1,
            generations=15,
            master_seed=seed,
        )
        with count_train_calls() as c_ga:
            result = run(ga_cfg, split, train_cfg)
        runs.append(
            OracleRun(
                seed=seed,
                split=split,
                exhaustive_best=best_c,
                exhaustive_score=best_s,
                table_size=len(table),
                exhaustive_train_calls=c_ex.n,
                ga=result,
                ga_train_calls=c_ga.n,
            )
        )
    return runs


@pytest.fixture(scope="session")
def budget_run():
    """Full-sized budget: population 50, survival 0.20, 25 generations."""
    split = make_split(12, [0, 1], 0.1, seed=7, n_samples=240, n_train=120)
    ga_cfg = GaConfig(
        n_vars=12,
        population_size=50,
        survival_fraction=0.20,
        generations=25,
        master_seed=7,
    )
    train_cfg = TrainConfig(hidden_units=2, max_iterations=50)
    with count_train_calls() as calls:
        result = run(ga_cfg, split, train_cfg)
    return result, calls.n


@pytest.fixture(scope="session")
def noiseless_split():
    """Zero-noise rig where sensor 1 is an exact function of the target."""
    return make_split(8, [0], 0.0, seed=11)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            if getattr(rep, "when", "call") not in ("call", None) and outcome == "passed":
                continue
            name = nodeid.split("::")[-1]
            lines.append((name, "PASS" if outcome == "passed" else "FAIL"))
    if lines:
        terminalreporter.section("acceptance criteria")
        for name, verdict in sorted(set(lines)):
            terminalreporter.write_line(f"{verdict}  {name}")
