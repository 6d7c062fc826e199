"""gaselect benchmark: end-to-end search cost and quality, per-layer cost.

Run from the repository root:

    python3 bench/run.py --workload ga_readme --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --smoke        # every workload, tiny, both modes

Each workload generates its sensor rigs from ``--seed`` with ``gaselect
synth`` into a scratch directory under ``.bench_work/`` and runs ``gaselect
run`` or ``gaselect exhaustive`` on them, one search at a time (a closed
loop with one client), each in its own child process (``bench/child.py``)
with ``src`` on PYTHONPATH and BLAS pinned to one thread. The program only
sees the generated CSV and config file.

``--trace 0`` prints the end-to-end metrics: searches' CPU times, scaled to
seconds on a reference host by a speed gauge that runs beside each search
(see README.md), plus memory and selection quality. ``--trace 1`` re-runs the
first rig under the span tracer (``bench/spans.py``) and prints the
per-layer metrics plus the tracing overhead. Every run is checked: exit
code, internal consistency of the output files, and a digest of the result
files that must repeat on every run of a rig, at every thread count and
with or without tracing. Deterministic counters and selection F1 must
repeat exactly too. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import spans  # bench/, the script's own directory, is first on sys.path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
# A run must end well inside the 180 s a harness run may take.
DEADLINE_S = 165.0
INFORMATIVE = "1-2-3"
NOISE_SD = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "exhaustive"
    n_vars: int
    n_samples: int
    n_train: int
    hidden_units: int
    max_iterations: int
    generations: int
    rigs: int  # distinct rigs per untraced run; rig 0 is also traced
    # SpeedGauge kernel shape (rows, inputs, hidden units): the workload's
    # n_train, a typical subset size and its hidden units.
    gauge: tuple[int, int, int]
    # The gauge sample's median CPU time on the host the benchmark was
    # calibrated on (see README.md). A search's CPU times are scaled by it
    # over the gauge's median during that search, so they read as seconds
    # on that host.
    gauge_nominal_s: float
    population: int = 50
    # Traced runs also search rig 0 with one pool thread per usable core;
    # its result digest and counters must equal the one-thread search's.
    thread_check: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ga_readme",
            command="run",
            n_vars=20,
            n_samples=400,
            n_train=200,
            hidden_units=5,
            max_iterations=200,
            generations=1,
            rigs=5,
            gauge=(200, 10, 5),
            gauge_nominal_s=0.0053,
            thread_check=True,
        ),
        Workload(
            name="ga_crowded",
            command="run",
            n_vars=10,
            n_samples=400,
            n_train=200,
            hidden_units=2,
            max_iterations=20,
            generations=60,
            rigs=4,
            gauge=(200, 5, 2),
            gauge_nominal_s=0.0026,
        ),
        Workload(
            name="oracle_tall",
            command="exhaustive",
            n_vars=9,
            n_samples=2000,
            n_train=1000,
            hidden_units=5,
            max_iterations=20,
            generations=1,
            rigs=5,
            gauge=(1000, 5, 5),
            gauge_nominal_s=0.0029,
        ),
    )
}


def load_spec() -> dict:
    """BENCHMARK.json: the workloads' reasons and every metric's name and unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def smoke_size(w: Workload) -> Workload:
    """The same workload shape at a size that runs in about a second."""
    return replace(
        w,
        n_vars=min(w.n_vars, 6),
        n_samples=120,
        n_train=60,
        hidden_units=2,
        max_iterations=5,
        generations=min(w.generations, 20),  # enough to exhaust 6 sensors
        rigs=1,
        population=8,
    )


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# -- child processes ------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class ChildResult:
    rc: int
    setup_s: float
    setup_cpu_s: float
    calls: list[dict]
    peak_rss_mib: float
    stdout: str
    stderr: str


def run_child(workdir: Path, commands: list[list[str]], timeout: float,
              spans_path: Path | None = None,
              gauge: tuple[int, int, int] | None = None) -> ChildResult:
    report = workdir / "child_report.json"
    report.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "child.py"), str(report)]
    if spans_path is not None:
        argv += ["--trace", str(spans_path)]
    elif gauge:
        argv += ["--gauge", ",".join(map(str, gauge))]
    argv += ["--", json.dumps(commands)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            argv, cwd=workdir, env=child_env(), capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return ChildResult(-9, math.nan, math.nan, [], math.nan, "", "timed out")
    if proc.returncode != 0 or not report.exists():
        return ChildResult(proc.returncode or -1, math.nan, math.nan, [], math.nan,
                           proc.stdout, proc.stderr)
    data = json.loads(report.read_text(encoding="utf-8"))
    rc = next((c["rc"] for c in data["calls"] if c["rc"] != 0), 0)
    return ChildResult(
        rc=rc,
        setup_s=data["ready_monotonic"] - spawned,
        setup_cpu_s=data["ready_cpu_s"],
        calls=data["calls"],
        peak_rss_mib=data["peak_rss_kib"] / 1024.0,
        stdout=proc.stdout,
        stderr=proc.stderr,
    )


# -- rigs and configs -------------------------------------------------------


def rig_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def synth_commands(w: Workload, seed: int) -> list[list[str]]:
    return [
        ["synth", "--out", f"rig_{k}.csv", "--n-vars", str(w.n_vars),
         "--n-samples", str(w.n_samples), "--informative", INFORMATIVE,
         "--noise-sd", str(NOISE_SD), "--seed", str(rig_seed(seed, k))]
        for k in range(w.rigs)
    ]


def write_config(workdir: Path, w: Workload, seed: int, k: int) -> None:
    (workdir / f"rig_{k}.cfg").write_text(
        "\n".join([
            f"data_csv = rig_{k}.csv",
            "target_column = level",
            f"n_train = {w.n_train}",
            f"population_size = {w.population}",
            "survival_fraction = 0.20",
            "mutation_rate = 0.1",
            f"generations = {w.generations}",
            f"master_seed = {rig_seed(seed, k)}",
            f"hidden_units = {w.hidden_units}",
            f"max_iterations = {w.max_iterations}",
        ]) + "\n",
        encoding="utf-8",
    )


# -- output checks ------------------------------------------------------------


def _rank(genes: tuple[int, ...], cv: float) -> tuple:
    # gaselect's total order: cv SSE, then fewer genes, then gene order.
    return (cv, len(genes), genes)


def _stdout_best(stdout: str) -> tuple[str, float]:
    label, cv = stdout.strip().splitlines()[-1].split()
    return label, float(cv)


@dataclass
class Outcome:
    digest: str
    winner: tuple[int, ...]  # 1-based genes
    best_cv_sse: float
    evaluations: int
    output_bytes: int


def check_outputs(out: Path, w: Workload, stdout: str) -> Outcome:
    """Validate one run's result files; raises ValueError on any defect."""
    label, printed_cv = _stdout_best(stdout)
    names = ("scores.csv",) if w.command == "exhaustive" else (
        "summary.json", "generations.jsonl", "graveyard.jsonl")
    h = hashlib.sha256()
    size = 0
    for name in names:
        blob = (out / name).read_bytes()
        size += len(blob)
        h.update(name.encode() + b"\0" + blob + b"\0")
    space = (1 << w.n_vars) - 1

    if w.command == "exhaustive":
        lines = (out / "scores.csv").read_text(encoding="utf-8").splitlines()
        if lines[0] != "genes,cv_sse":
            raise ValueError(f"scores.csv header {lines[0]!r}")
        rows = []
        for line in lines[1:]:
            genes_label, cv = line.split(",")
            genes = tuple(int(g) for g in genes_label.split("-"))
            if list(genes) != sorted(set(genes)) or not 1 <= genes[0] <= genes[-1] <= w.n_vars:
                raise ValueError(f"scores.csv bad subset {genes_label!r}")
            rows.append((genes, float(cv)))
        if len(rows) != space or len({g for g, _ in rows}) != space:
            raise ValueError(f"scores.csv has {len(rows)} rows, want {space} distinct")
        winner, best_cv = min(rows, key=lambda r: _rank(*r))
        evaluations = len(rows)
    else:
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        gens = [json.loads(x) for x in (out / "generations.jsonl").read_text(encoding="utf-8").splitlines()]
        audit = [json.loads(x) for x in (out / "graveyard.jsonl").read_text(encoding="utf-8").splitlines()]
        novel = [(tuple(r["genes"]), r["cv_sse"]) for r in audit if not r["was_cached"]]
        evaluations = summary["total_evaluations"]
        if not evaluations == summary["graveyard_size"] == len(novel) == len({g for g, _ in novel}):
            raise ValueError("evaluation counts disagree or a subset was retested")
        if summary["generations_completed"] != len(gens) or not gens:
            raise ValueError("generations.jsonl does not match generations_completed")
        if w.population + sum(g["new_evaluations"] for g in gens) != evaluations:
            raise ValueError("per-generation new evaluations do not add up")
        if gens[-1]["graveyard_size"] != evaluations:
            raise ValueError("final graveyard size does not match")
        if summary["exhausted"]:
            if w.n_vars <= 12 and evaluations != space:
                raise ValueError("run reports exhaustion before covering the space")
        elif len(gens) != w.generations:
            raise ValueError("run stopped early without exhaustion")
        winner, best_cv = min(novel, key=lambda r: _rank(*r))
        if tuple(summary["best"]["genes"]) != winner or summary["best"]["cv_sse"] != best_cv:
            raise ValueError("summary best is not the graveyard minimum")
    if label != "-".join(map(str, winner)) or printed_cv != best_cv:
        raise ValueError(f"printed best {label} {printed_cv!r} is not the file minimum")
    if not math.isfinite(best_cv):
        raise ValueError("best cv SSE is not finite")
    return Outcome(h.hexdigest()[:16], winner, best_cv, evaluations, size)


def pooled_f1(winners, informative: tuple[int, ...]) -> float:
    """F1 of the winning subsets against the informative sensors, pooled.

    True positives and subset sizes are summed over the rigs first (micro
    averaging), which varies less from seed to seed than a mean of per-rig
    F1 scores; with one rig it is that rig's F1.
    """
    hits = sizes = 0
    for winner in winners:
        hits += len(set(winner) & set(informative))
        sizes += len(winner) + len(informative)
    return 2.0 * hits / sizes


# -- one benchmark run -------------------------------------------------------


@dataclass
class Rep:
    rig: int
    threads: int = 1
    traced: bool = False
    check: bool = False  # checks digest and counters only; not in the metrics


@dataclass
class RepResult:
    rep: Rep
    wall_s: float
    cpu_s: float
    gauge_s: list[float]  # SpeedGauge samples taken during the call
    setup_s: float
    setup_cpu_s: float
    peak_rss_mib: float
    outcome: Outcome
    layer: dict | None


class Harness:
    def __init__(self, w: Workload, seed: int, seconds: float, trace: bool):
        self.w, self.seed, self.seconds, self.trace = w, seed, seconds, trace
        self.started = time.monotonic()
        self.workdir = WORK / f"{w.name}-s{seed}-p{os.getpid()}"
        self.results: list[RepResult] = []
        self.digests: dict[int, str] = {}  # rig -> reference digest
        self.counters: dict[int, dict] = {}  # rig -> deterministic counters
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.informative: tuple[int, ...] = ()

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        synth = run_child(self.workdir, synth_commands(self.w, self.seed), self.remaining())
        if synth.rc != 0:
            raise RuntimeError(f"rig generation failed: {synth.stderr.strip()[-400:]}")
        meta = json.loads((self.workdir / "rig_0.csv.meta.json").read_text(encoding="utf-8"))
        self.informative = tuple(meta["informative"])
        for k in range(self.w.rigs):
            write_config(self.workdir, self.w, self.seed, k)

    def plan(self) -> list[Rep]:
        """The fixed part of the run; more reps follow while time allows.

        Untraced: each rig once. Traced: rig 0 traced, untraced and traced
        again, so its digest and counters must repeat; with a thread check,
        once more traced at one pool thread per core, which must reproduce
        them too.
        """
        if not self.trace:
            return [Rep(k) for k in range(self.w.rigs)]
        reps = [Rep(0, traced=True), Rep(0), Rep(0, traced=True)]
        if self.w.thread_check and usable_cores() > 1:
            reps.append(Rep(0, usable_cores(), traced=True, check=True))
        return reps

    def extra(self, i: int) -> Rep:
        if self.trace:
            return Rep(0, traced=True)
        return Rep(i % self.w.rigs)

    def execute(self) -> None:
        reps = self.plan()
        durations: list[float] = []
        i = 0
        while True:
            if self.remaining() <= 0:
                self.fail(f"deadline of {DEADLINE_S:.0f} s reached after {i} reps")
                break
            if i < len(reps):
                rep = reps[i]
            else:
                spent = time.monotonic() - self.started
                guess = statistics.median(durations) if durations else 0.0
                if not durations or spent + guess > self.seconds or guess * 2 > self.remaining():
                    break
                rep = self.extra(i)
            t0 = time.monotonic()
            self.run_rep(rep, i)
            durations.append(time.monotonic() - t0)
            i += 1

    def run_rep(self, rep: Rep, i: int) -> None:
        self.attempted += 1
        w = self.w
        out = f"out_{i}"
        cmd = [w.command, "--config", f"rig_{rep.rig}.cfg", "--out-dir", out,
               "--threads", str(rep.threads)]
        spans_path = self.workdir / f"spans_{i}.jsonl" if rep.traced else None
        child = run_child(self.workdir, [cmd], self.remaining(), spans_path,
                          gauge=None if self.trace else w.gauge)
        if child.rc != 0:
            self.fail(f"rep {i} ({rep}) exited {child.rc}: {child.stderr.strip()[-400:]}")
            return
        try:
            outcome = check_outputs(self.workdir / out, w, child.stdout)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.fail(f"rep {i} ({rep}) wrote bad output: {exc}")
            return
        shutil.rmtree(self.workdir / out, ignore_errors=True)
        ref = self.digests.setdefault(rep.rig, outcome.digest)
        if outcome.digest != ref:
            self.fail(f"rep {i} ({rep}) digest {outcome.digest} != reference {ref}")
            return
        layer = None
        if spans_path is not None:
            layer = spans.layer_metrics(spans.read_spans(spans_path), rep.threads)
            layer["cli.output_bytes"] = outcome.output_bytes
            spans_path.unlink()
            counts = {k: layer[k] for k in spans.DETERMINISTIC}
            first = self.counters.setdefault(rep.rig, counts)
            if counts != first:
                diff = {k: (first[k], counts[k]) for k in counts if counts[k] != first[k]}
                self.fail(f"rep {i} ({rep}) deterministic counters moved: {diff}")
                return
            if layer["fitness.evaluate_calls"] != outcome.evaluations:
                self.fail(f"rep {i} traced {layer['fitness.evaluate_calls']} evaluations, "
                          f"files say {outcome.evaluations}")
                return
        call = child.calls[0]
        self.results.append(RepResult(rep, call["wall_s"], call["cpu_s"], call["gauge_s"],
                                      child.setup_s, child.setup_cpu_s, child.peak_rss_mib,
                                      outcome, layer))

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    # -- metrics ------------------------------------------------------------

    def measured(self, traced: bool) -> list[RepResult]:
        return [r for r in self.results if not r.rep.check and r.rep.traced == traced]

    def per_rig_mean(self, value) -> float:
        """Median over each rig's reps, then the mean over rigs."""
        by_rig: dict[int, list[float]] = {}
        for r in self.measured(traced=False):
            by_rig.setdefault(r.rep.rig, []).append(value(r))
        return statistics.fmean(statistics.median(v) for v in by_rig.values())

    def host_speed(self, r: RepResult) -> float:
        """The gauge kernel's nominal CPU time over its median during a search.

        Below 1 when the host ran that search slower than the host the
        benchmark was calibrated on; a CPU time of the search's process times
        this factor reads as seconds on that host.
        """
        return self.w.gauge_nominal_s / statistics.median(r.gauge_s)

    def end_to_end(self) -> dict[str, float]:
        plain = self.measured(traced=False)
        winners = {r.rep.rig: r.outcome.winner for r in plain}
        return {
            "run_cpu_s": self.per_rig_mean(lambda r: r.cpu_s * self.host_speed(r)),
            "evals_per_cpu_s": self.per_rig_mean(
                lambda r: r.outcome.evaluations / (r.cpu_s * self.host_speed(r))),
            "setup_s": statistics.median(r.setup_cpu_s * self.host_speed(r) for r in plain),
            "peak_rss_mb": self.per_rig_mean(lambda r: r.peak_rss_mib),
            "selection_f1": pooled_f1(winners.values(), self.informative),
        }

    def per_layer(self) -> dict[str, float]:
        traced = self.measured(traced=True)
        plain = self.measured(traced=False)
        layer = {k: statistics.median(r.layer[k] for r in traced) for k in traced[0].layer}
        untraced = statistics.median(r.wall_s for r in plain)
        traced_wall = statistics.median(r.wall_s for r in traced)
        layer["trace.run_wall_s"] = traced_wall
        layer["trace.untraced_run_wall_s"] = untraced
        layer["trace.overhead_s"] = traced_wall - untraced
        layer["trace.overhead_ratio"] = (traced_wall - untraced) / untraced
        threaded = [r for r in self.results if r.rep.check]
        if threaded:
            # Pool occupancy is only informative with more than one thread.
            layer["fitness.parallel_efficiency"] = threaded[0].layer["fitness.parallel_efficiency"]
        return layer

    def raw_times(self) -> dict[str, float]:
        """Unscaled times of the untraced searches, printed for the reader."""
        plain = self.measured(traced=False)
        return {
            "run_wall_s": self.per_rig_mean(lambda r: r.wall_s),
            "run_cpu_s_unscaled": self.per_rig_mean(lambda r: r.cpu_s),
            "setup_wall_s": statistics.median(r.setup_s for r in plain),
            "gauge_kernel_s": statistics.median(s for r in plain for s in r.gauge_s),
        }

    def details(self) -> dict:
        return {
            "workload": self.w.name,
            "seed": self.seed,
            "trace": int(self.trace),
            "reps": [
                {
                    "rig": r.rep.rig,
                    "threads": r.rep.threads,
                    "traced": r.rep.traced,
                    "check": r.rep.check,
                    "wall_s": r.wall_s,
                    "cpu_s": r.cpu_s,
                    "gauge_kernel_s": statistics.median(r.gauge_s) if r.gauge_s else None,
                    "setup_s": r.setup_s,
                    "setup_cpu_s": r.setup_cpu_s,
                    "digest": r.outcome.digest,
                    "best": "-".join(map(str, r.outcome.winner)),
                    "best_cv_sse": r.outcome.best_cv_sse,
                    "evaluations": r.outcome.evaluations,
                }
                for r in self.results
            ],
            "digests": {str(k): v for k, v in sorted(self.digests.items())},
            "informative": "-".join(map(str, self.informative)),
            "problems": self.problems,
        }


def environment(w: Workload, seed: int, why: str) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": usable_cores(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": int(child_env()["OPENBLAS_NUM_THREADS"]),
        "pool_threads": 1,
        "thread_check_pool_threads": usable_cores() if w.thread_check else None,
        "gauge_kernel": {"rows_inputs_hidden": w.gauge, "nominal_s": w.gauge_nominal_s},
        "seed": seed,
        "workload": w.name,
        "why": why,
        "load": "closed loop, one search at a time from one process",
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 spec: dict) -> tuple[dict, set[str]]:
    """One benchmark run: (result line, names computed but not in the spec)."""
    h = Harness(w, seed, seconds, trace)
    try:
        h.prepare()
        h.execute()
    finally:
        shutil.rmtree(h.workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    if not h.measured(traced=trace) or (trace and not h.measured(traced=False)):
        raise RuntimeError("no run completed: " + "; ".join(h.problems))
    values = h.per_layer() if trace else h.end_to_end()
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    why = next((x["why"] for x in spec["workloads"] if x["name"] == w.name), "")
    print(json.dumps({"environment": environment(w, seed, why)}))
    print(json.dumps({"details": h.details()}))
    for name, m in metrics.items():
        print(f"{w.name} {name} {m['value']:.6g} {m['unit']}")
    if not trace:
        for name, value in h.raw_times().items():
            print(f"{w.name} {name} {value:.6g} s (unscaled; not gated)")
    print(f"{w.name} failed_fraction {h.failed / h.attempted:.6g} ratio "
          f"({h.failed} of {h.attempted} runs)")
    line = {"correct": h.failed == 0, "attempted": h.attempted, "failed": h.failed,
            "metrics": metrics}
    return line, set(values) - set(metrics)


def smoke(spec: dict) -> int:
    """Every workload at a tiny size, untraced and traced.

    Passes when every run is correct and computes exactly the metrics that
    BENCHMARK.json names (a missing one raises KeyError).
    """
    ok = True
    for w in WORKLOADS.values():
        for trace in (False, True):
            line, undeclared = run_workload(smoke_size(w), 1, 1.0, trace, spec)
            if not line["correct"] or undeclared:
                ok = False
                print(f"SMOKE FAIL {w.name} trace={int(trace)} undeclared={sorted(undeclared)}",
                      file=sys.stderr)
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size, traced and untraced")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child,
    # and run_workload removes the scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "gaselect" / "cli.py").is_file():
        print(f"error: no gaselect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    try:
        if args.smoke:
            return smoke(spec)
        if args.workload is None:
            parser.error("--workload is required (or --smoke)")
        if args.seed < 0:
            parser.error("--seed must be >= 0")
        line, _ = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                               bool(args.trace), spec)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
