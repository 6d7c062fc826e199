"""Release gate: one test per acceptance criterion, stated tolerances only.

The conftest terminal-summary hook prints one PASS/FAIL line per criterion
after the run.
"""

import json

import numpy as np
import pytest

from gaselect.cli import EXIT_OK, main
from gaselect.engine import subset_count
from gaselect.errors import EmptyChromosomeError
from gaselect.genome import Chromosome, mutate, uniform_crossover
from gaselect.mlp import (
    MlpParams,
    TrainConfig,
    predict,
    residual_jacobian,
    train_lm,
)
from tests.conftest import count_train_calls
from tests.test_mlp import finite_difference_jacobian


@pytest.fixture(scope="module")
def cli_thread_runs(tmp_path_factory):
    """The same seeded search via the CLI at --threads 1 and --threads 8."""
    root = tmp_path_factory.mktemp("accept_cli")
    csv_path = root / "rig.csv"
    assert (
        main(
            [
                "synth", "--out", str(csv_path), "--n-vars", "8",
                "--n-samples", "400", "--informative", "1-2-3",
                "--noise-sd", "0.1", "--seed", "101",
            ]
        )
        == EXIT_OK
    )
    cfg = root / "run.cfg"
    cfg.write_text(
        f"data_csv = {csv_path}\n"
        "target_column = level\n"
        "n_train = 200\n"
        "population_size = 20\n"
        "survival_fraction = 0.25\n"
        "mutation_rate = 0.1\n"
        "generations = 15\n"
        "master_seed = 101\n"
        "hidden_units = 3\n",
        encoding="utf-8",
    )
    outcomes = {}
    for threads in (1, 8):
        out_dir = root / f"t{threads}"
        with count_train_calls() as calls:
            code = main(
                [
                    "run", "--config", str(cfg),
                    "--threads", str(threads),
                    "--out-dir", str(out_dir),
                ]
            )
        assert code == EXIT_OK
        outcomes[threads] = (out_dir, calls.n)
    return outcomes


def test_c01_search_space_arithmetic():
    # 20 candidate variables admit exactly 2^20 - 1 nonempty subsets
    assert subset_count(20) == 1_048_575


def test_c02_oracle_equivalence(oracle_runs):
    # >= 4 of 5 seeded fixtures must return the exhaustive winner; any
    # remaining fixture must land within 5% cv_sse of it
    matches = 0
    for fixture in oracle_runs:
        assert fixture.table_size == 255
        if fixture.ga.best == fixture.exhaustive_best:
            matches += 1
        else:
            gap = (
                fixture.ga.best_score.cv_sse - fixture.exhaustive_score.cv_sse
            ) / fixture.exhaustive_score.cv_sse
            assert gap <= 0.05, f"seed {fixture.seed}: GA best {gap:.1%} off oracle"
    assert matches >= 4, f"only {matches}/5 fixtures matched the exhaustive winner"


def test_c03_never_retest(oracle_runs, budget_run, cli_thread_runs):
    # zero tolerance: trainer invocations == graveyard size on every run
    for fixture in oracle_runs:
        assert fixture.ga_train_calls == len(fixture.ga.graveyard)
        assert fixture.exhaustive_train_calls == fixture.table_size
    result, train_calls = budget_run
    assert train_calls == len(result.graveyard)
    for out_dir, calls in cli_thread_runs.values():
        summary = json.loads((out_dir / "summary.json").read_text())
        assert calls == summary["graveyard_size"]


def test_c04_elitism_monotonicity(oracle_runs, budget_run, cli_thread_runs):
    # zero tolerance: per-generation best cv_sse never increases
    def check(bests):
        assert all(b <= a for a, b in zip(bests, bests[1:]))

    for fixture in oracle_runs:
        check([r.best_cv_sse for r in fixture.ga.reports])
    result, _ = budget_run
    check([r.best_cv_sse for r in result.reports])
    for out_dir, _ in cli_thread_runs.values():
        lines = (out_dir / "generations.jsonl").read_text().splitlines()
        check([json.loads(line)["best_cv_sse"] for line in lines])


def test_c05_jacobian_correctness():
    # 100 random small networks; max deviation relative to the finite
    # difference matrix scale (its output-bias column is exactly 1)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 5))
        h = int(rng.integers(1, 4))
        p = MlpParams(
            rng.uniform(-1, 1, size=(h, d + 1)), rng.uniform(-1, 1, size=h + 1)
        )
        X = rng.normal(size=(12, d))
        y = rng.normal(size=12)
        _, J = residual_jacobian(p, X, y)
        J_fd = finite_difference_jacobian(p, X, y, step=1e-6)
        rel = np.max(np.abs(J - J_fd)) / np.max(np.abs(J_fd))
        worst = max(worst, rel)
    assert worst < 1e-4, f"worst relative Jacobian deviation {worst:.3e}"


def test_c06_lm_convergence():
    # noiseless quadratic: d=1, h=4, 64 points on [-1, 1]
    X = np.linspace(-1, 1, 64)[:, None]
    y = X[:, 0] ** 2
    model = train_lm(X, y, TrainConfig(hidden_units=4), weight_seed=7)
    assert model.iterations_used <= 200
    assert model.train_sse < 1e-4

    # exactly representable target reaches near-zero SSE
    true = MlpParams(
        np.array([[1.2, -0.7, 0.3], [-0.9, 0.5, -0.4]]),
        np.array([0.8, -1.1, 0.2]),
    )
    X2 = np.random.default_rng(3).uniform(-1.5, 1.5, size=(100, 2))
    y2 = predict(true, X2)
    model2 = train_lm(X2, y2, TrainConfig(hidden_units=2), weight_seed=0)
    assert model2.train_sse < 1e-8


def test_c07_crossover_law():
    # zero tolerance over 10^4 random parent pairs
    rng = np.random.default_rng(555)
    n_vars = 20

    def random_parent():
        while True:
            bits = rng.random(n_vars) < 0.4
            if bits.any():
                return Chromosome(int(i) for i in np.flatnonzero(bits))

    for _ in range(10_000):
        a, b = random_parent(), random_parent()
        try:
            off = uniform_crossover(a, b, 0.5, rng)
        except EmptyChromosomeError:
            assert not (set(a.genes) & set(b.genes))
            continue
        assert set(a.genes) & set(b.genes) <= set(off.genes)
        assert set(off.genes) <= set(a.genes) | set(b.genes)


def test_c08_mutation_calibration():
    # empirical per-position flip rate within +/-0.005 of 0.1 over 10^5
    # trials at 20 positions; mean flips within 2.0 +/- 0.05
    rng = np.random.default_rng(777)
    base = Chromosome(range(0, 20, 2))
    base_set = set(base.genes)
    trials = 100_000
    total_flips = 0
    for _ in range(trials):
        mutated = mutate(base, 0.1, 20, rng)
        total_flips += len(base_set ^ set(mutated.genes))
    mean_flips = total_flips / trials
    rate = total_flips / (trials * 20)
    assert abs(rate - 0.1) < 0.005, f"empirical flip rate {rate:.4f}"
    assert abs(mean_flips - 2.0) < 0.05, f"mean flips {mean_flips:.3f}"


def test_c09_parallel_determinism(cli_thread_runs):
    one, _ = cli_thread_runs[1]
    eight, _ = cli_thread_runs[8]
    assert (one / "summary.json").read_bytes() == (eight / "summary.json").read_bytes()
    assert (one / "generations.jsonl").read_bytes() == (
        eight / "generations.jsonl"
    ).read_bytes()


def test_c10_evaluation_budget(budget_run):
    # population 50, survival 0.20, 25 generations: 50 + 40*25 models
    result, _ = budget_run
    assert len(result.graveyard) == 50 + 40 * 25
    assert 1000 <= len(result.graveyard) <= 2000
