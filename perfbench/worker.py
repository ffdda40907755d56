"""One benchmark process: set up a workload, then time or trace it.

Started by run.py, never imported.  The clock starts on the first line,
before numpy or dduio is imported, so ``setup_s`` covers the imports, the
config parse, the model and graph build and, for design-sweep, the offline
collection.  The result is written as JSON to ``--result``.

A shared virtual machine can switch between a fast and a slow CPU state
(about 1.6x apart on a 2-vCPU Intel Xeon VM at 2.1 GHz) for seconds to
minutes at a time, which no run length averages out.  So the process pins itself to one CPU and a
``SpeedProbe`` thread times a fixed reference kernel every 8 ms on that
CPU.  Every timing is reported speed-adjusted: raw seconds times
``REFERENCE_KERNEL_S`` over the mean kernel time measured during it, i.e.
the seconds it would have taken with the kernel at its nominal speed.
Over repeated operations this cuts the spread about threefold.
"""
from time import perf_counter, thread_time

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

MIN_ROUNDS = 2
PROBE_PERIOD_S = 0.008
# About the probe kernel's mean time, next to a running workload, in the
# fast CPU state of a 2-vCPU Intel Xeon VM at 2.1 GHz, so adjusted seconds
# there read close to fast-state wall seconds.  It is
# a fixed unit: changing it rescales every timing of every commit.
REFERENCE_KERNEL_S = 2.5e-4


class SpeedProbe(threading.Thread):
    """Times a small fixed kernel every ``PROBE_PERIOD_S``.

    The kernel has the shape of the workloads' hot code: fixed-step
    integration (scalar signal evaluations, small matrix-vector products,
    vector updates) and CSV float formatting.  Over repeated operations its
    slow-down follows the workloads' own with a fitted exponent of 1.1 to
    1.4.  It is the benchmark's code, so a change to dduio does not change
    the probe.
    """

    def __init__(self):
        super().__init__(daemon=True)
        rng = np.random.default_rng(0)
        self._a = 0.05 * rng.normal(size=(24, 24))
        self._g = rng.normal(size=(24, 3))
        self._row = rng.normal(size=24)
        self._halt = threading.Event()
        self.samples = []        # (start, thread CPU seconds)

    def _kernel(self) -> None:
        a, g, h = self._a, self._g, 1e-3
        x = np.ones(24)
        for j in range(6):
            t = j * h
            f0 = g @ np.array([math.cos(t), 0.5 * t, 0.1])
            fh = g @ np.array([math.cos(t + h / 2), 0.5 * t, 0.1])
            k1 = a @ x + f0
            k2 = a @ (x + 0.5 * h * k1) + fh
            k3 = a @ (x + 0.5 * h * k2) + fh
            k4 = a @ (x + h * k3) + f0
            x = x + h / 6 * (k1 + 2.0 * (k2 + k3) + k4)
            np.abs(x).max()
        for _ in range(4):
            ",".join("%.17g" % v for v in self._row)

    def run(self) -> None:
        # Thread CPU time leaves out the waits for the interpreter lock,
        # which depend on what the main thread is doing.
        while not self._halt.wait(PROBE_PERIOD_S):
            start, cpu = perf_counter(), thread_time()
            self._kernel()
            self.samples.append((start, thread_time() - cpu))

    def stop(self) -> None:
        self._halt.set()
        self.join()

    def adjusted(self, start: float, end: float) -> float:
        """``end - start`` scaled to the reference kernel speed."""
        inside = [d for t, d in self.samples if start <= t <= end]
        if len(inside) < 3:
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - 0.5 * (start + end)))
            inside = [d for _, d in nearest[:3]]
        return (end - start) * REFERENCE_KERNEL_S / statistics.fmean(inside)


def run_op(wl, key, records, tracer=None):
    """Run, time and check one operation; failures are recorded, never dropped."""
    span = tracer.open(f"perfbench.{wl.name}.op") if tracer else None
    start = perf_counter()
    try:
        output, error = wl.op(key), None
    except Exception:
        output, error = None, traceback.format_exc(limit=3)
    end = perf_counter()
    if tracer:
        tracer.close(span)
    problems = [error] if error else wl.check(key, output)
    records.append({"key": key, "start": start, "end": end, "traced": tracer is not None,
                    "problems": problems})
    return output, end - start


def timed_phase(wl, seconds: float) -> dict:
    """Whole rounds until the next one would overrun ``seconds`` (at least two)."""
    records, round_times = [], []
    start = perf_counter()
    while True:
        elapsed_ops = sum(run_op(wl, key, records)[1] for key in wl.round_keys(len(round_times)))
        round_times.append(elapsed_ops)
        elapsed = perf_counter() - start
        if len(round_times) >= MIN_ROUNDS and \
                elapsed + statistics.median(round_times) > seconds:
            break
    return {"records": records, "rounds": len(round_times)}


def traced_phase(wl, tracer) -> dict:
    """Round 0 untraced, then the same operations traced; outputs must agree."""
    keys = wl.round_keys(0)
    records, untraced, traced = [], [], []
    for key in keys:
        untraced.append(run_op(wl, key, records))
    tracer.install()
    try:
        for key in keys:
            traced.append(run_op(wl, key, records, tracer))
    finally:
        tracer.uninstall()
    for (out_u, _), (out_t, _), rec in zip(untraced, traced, records[len(keys):]):
        if out_u is not None and out_t is not None and \
                wl.signature(out_u) != wl.signature(out_t):
            rec["problems"].append("traced output differs from untraced output")
    return {"records": records, "rounds": 2}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    probe = SpeedProbe()
    probe.start()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.out_dir)
    tracer = None
    if args.trace:
        import tracer as tracer_module
        import dduio.cli  # noqa: F401  (loads every dduio module before wrapping)
        tracer = tracer_module.Tracer()
        tracer.install()
    wl.setup()
    setup_end = perf_counter()
    result = {"setup_raw_s": setup_end - T_START}
    if not args.setup_only:
        if tracer:
            tracer.uninstall()
        wl.prepare_checks()
        try:
            if tracer:
                result.update(traced_phase(wl, tracer))
            else:
                result.update(timed_phase(wl, args.seconds))
        finally:
            getattr(wl, "close", lambda: None)()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            result["layers"] = tracer.metrics()
            result["absent"] = tracer.absent
            trace_path = os.path.join(args.out_dir, f"trace-{args.workload}-seed{args.seed}.json")
            tracer.write(trace_path)
            result["trace_file"] = os.path.relpath(trace_path, ROOT)
    probe.stop()
    result["setup_s"] = probe.adjusted(T_START, setup_end)
    records = result.get("records", [])
    for rec in records:
        rec["raw_seconds"] = rec["end"] - rec["start"]
        rec["seconds"] = probe.adjusted(rec["start"], rec["end"])
    result["probe_kernel_s"] = statistics.fmean(d for _, d in probe.samples)
    if tracer:
        for key, traced in (("untraced_s", False), ("traced_s", True)):
            result[key] = sum(r["seconds"] for r in records if r["traced"] == traced)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
