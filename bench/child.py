"""One benchmark child process: import gaselect, run CLI commands, report.

Usage (from the benchmark harness, with ``src`` on PYTHONPATH):

    python3 bench/child.py REPORT.json [--trace SPANS.jsonl | --gauge ROWS,INPUTS,HIDDEN] -- ARGV_JSON

ARGV_JSON is a JSON list of argument lists; each is passed in turn to the
public entry point ``gaselect.cli.main``. The report records, on the
system-wide monotonic clock, when ``gaselect.cli`` finished importing and
the CPU time spent until then, then each call's exit code, wall time and CPU
time, and the process's peak RSS.

With ``--trace`` the calls run under a span Tracer and the spans are written
to SPANS.jsonl once the calls are done. With ``--gauge`` the process is
pinned to one CPU before it imports anything heavy, and a SpeedGauge thread
times a fixed kernel of the given shape on that CPU while each call runs;
the call's CPU time excludes the gauge's own.
"""

import os
import sys
import time

if sys.argv[2:3] == ["--gauge"]:
    # Pin before the imports, so set-up, the calls and the gauge all run on
    # the same CPU and the gauge sees the speed the calls see.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import gaselect.cli  # noqa: E402  (set-up time ends when this import does)

READY = time.monotonic()
READY_CPU = time.process_time()


class SpeedGauge:
    """Times a fixed Levenberg-Marquardt-like kernel every PERIOD_S on a thread.

    One kernel sample is a few LM steps of a tanh network with ``hidden``
    units on ``rows`` rows of ``inputs`` columns: the interpreter work, small
    numpy array operations and Cholesky solve a gaselect search of that
    shape spends its time on. It uses numpy and scipy only, never gaselect,
    so a change to the package cannot change its cost; its thread CPU time
    tracks how fast the host runs this process while the call runs. The
    first sample is taken at once, so even a short call gets one.
    """

    PERIOD_S = 0.03
    ROW_STEPS = 4000  # rows times LM steps per sample

    def __init__(self, rows: int, inputs: int, hidden: int):
        import threading

        import numpy as np

        rng = np.random.default_rng(0)
        self._steps = max(1, self.ROW_STEPS // rows)
        self._xb = np.hstack([rng.standard_normal((rows, inputs)), np.ones((rows, 1))])
        self._y = rng.standard_normal(rows)
        self._w1 = 0.3 * rng.standard_normal((hidden, inputs + 1))
        self._w2 = 0.3 * rng.standard_normal(hidden + 1)
        self.samples: list[float] = []
        self.cpu_s = 0.0  # the gauge thread's whole CPU time
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _kernel(self) -> float:
        import numpy as np
        from scipy.linalg import cho_factor, cho_solve

        xb, y, w1, w2 = self._xb, self._y, self._w1, self._w2
        ones = np.ones((xb.shape[0], 1))
        started = time.thread_time()
        for _ in range(self._steps):
            a = np.tanh(xb @ w1.T)
            r = np.hstack([a, ones]) @ w2 - y
            d = (1.0 - a * a) * w2[:-1]
            jac = np.concatenate(
                [(d[:, :, None] * xb[:, None, :]).reshape(xb.shape[0], -1), a, ones], axis=1
            )
            factor = cho_factor(jac.T @ jac + 0.01 * np.eye(jac.shape[1]), lower=True)
            cho_solve(factor, -(jac.T @ r))
        return time.thread_time() - started

    def _loop(self) -> None:
        started = time.thread_time()
        self.samples.append(self._kernel())
        while not self._stop.wait(self.PERIOD_S):
            self.samples.append(self._kernel())
        self.cpu_s = time.thread_time() - started

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def cpu_now() -> float:
    """CPU seconds of this process's threads and of its reaped subprocesses."""
    import resource

    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def timed_call(cmd: list[str], gauge: tuple[int, int, int] | None) -> dict:
    """Run one CLI call; its CPU time leaves out the gauge thread's."""
    import contextlib

    meter = SpeedGauge(*gauge) if gauge else None
    started_cpu = cpu_now()
    with meter or contextlib.nullcontext():
        started = time.perf_counter()
        rc = gaselect.cli.main(cmd)
        wall_s = time.perf_counter() - started
    cpu_s = cpu_now() - started_cpu
    if meter is None:
        return {"rc": rc, "wall_s": wall_s, "cpu_s": cpu_s, "gauge_s": []}
    return {"rc": rc, "wall_s": wall_s, "cpu_s": cpu_s - meter.cpu_s, "gauge_s": meter.samples}


def main(argv: list[str]) -> int:
    import json
    import resource

    report_path, rest = argv[0], argv[1:]
    spans_path = None
    gauge = None
    if rest[:1] == ["--trace"]:
        spans_path, rest = rest[1], rest[2:]
    elif rest[:1] == ["--gauge"]:
        gauge, rest = tuple(int(x) for x in rest[1].split(",")), rest[2:]
    if rest[0] != "--":
        raise SystemExit("usage: child.py REPORT [--trace SPANS | --gauge R,I,H] -- ARGV_JSON")
    commands = json.loads(rest[1])

    tracer = None
    if spans_path is not None:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    calls = [timed_call(cmd, gauge) for cmd in commands]
    sys.stdout.flush()
    if tracer is not None:
        tracer.write(spans_path)

    report = {
        "ready_monotonic": READY,
        "ready_cpu_s": READY_CPU,
        "calls": calls,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
