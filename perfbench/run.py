"""dduio benchmark: one workload, timed end to end or traced per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload mc-compare --seed 1 --seconds 20 --trace 0

Workloads: mc-compare, cli-pipeline, design-sweep (see workloads.py and
README.md).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the line before it records the machine, the build and every failure.

Each workload runs in a fresh single-process worker with BLAS limited to
one thread.  With ``--trace 0``, ``SETUP_REPEATS - 1`` extra workers only
set up, so ``setup_s`` is a median over fresh processes.  Everything the
run writes stays under perfbench/out/.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

START = time.monotonic()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("mc-compare", "cli-pipeline", "design-sweep")
SETUP_REPEATS = 3
BLAS_THREADS = 1
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Every worker must end before this many seconds after the run started.
DEADLINE_S = 170


def blas_env() -> dict:
    env = dict(os.environ)
    env.update({name: str(BLAS_THREADS) for name in BLAS_ENV_VARS})
    env.pop("PYTHONPATH", None)
    return env


def spawn_worker(args, result_path: str, setup_only: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, "--result", result_path]
    if setup_only:
        cmd.append("--setup-only")
    timeout = max(1.0, DEADLINE_S - (time.monotonic() - START))
    proc = subprocess.run(cmd, cwd=ROOT, env=blas_env(), timeout=timeout,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    os.remove(result_path)
    return result


# -- machine and build ---------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem(path: str) -> str:
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "dduio", "**", "*.py"),
                                 recursive=True)):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


_LIBRARIES_PROBE = """
import ctypes, json, numpy, scipy, yaml
info = {"numpy": numpy.__version__, "scipy": scipy.__version__, "pyyaml": yaml.__version__}
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
info["blas"] = f"{blas.get('name')} {blas.get('version')}"
threads = None
with open("/proc/self/maps") as fh:
    libs = {l.split()[-1] for l in fh if "openblas" in l.lower() and l.split()[-1].startswith("/")}
for lib in sorted(libs):
    dll = ctypes.CDLL(lib)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        if hasattr(dll, sym):
            threads = getattr(dll, sym)()
            break
info["blas_threads"] = threads
print(json.dumps(info))
"""


def machine_info() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "blas_threads_requested": BLAS_THREADS,
        "output_filesystem": _filesystem(OUT_DIR),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }
    try:
        proc = subprocess.run([sys.executable, "-c", _LIBRARIES_PROBE], env=blas_env(),
                              capture_output=True, text=True, timeout=30)
        info.update(json.loads(proc.stdout.strip().splitlines()[-1]))
    except (OSError, subprocess.TimeoutExpired, ValueError, IndexError):
        info["libraries"] = "probe failed"
    return info


# -- metrics ---------------------------------------------------------------------

def load_metric_specs() -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def end_to_end(setup_times: list, result: dict) -> dict:
    ops = result["records"]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(r["seconds"] for r in ops) / result["rounds"],
        "op_p50_s": statistics.median(r["seconds"] for r in ops),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict, names) -> dict:
    layers = dict(result["layers"])
    layers["trace.overhead_s"] = result["traced_s"] - result["untraced_s"]
    return {name: layers.get(name, 0.0) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dduio", "__init__.py")):
        print(f"error: no dduio sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    e2e_units, layer_units = load_metric_specs()
    os.makedirs(OUT_DIR, exist_ok=True)
    machine = machine_info()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        setup_times = []
        if not args.trace:
            for k in range(SETUP_REPEATS - 1):
                setup = spawn_worker(args, os.path.join(OUT_DIR, f"setup-{tag}-{k}.json"), True)
                setup_times.append(setup["setup_s"])
        result = spawn_worker(args, os.path.join(OUT_DIR, f"result-{tag}.json"), False)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records = result["records"]
    failures = [{"key": r["key"], "problems": r["problems"]} for r in records if r["problems"]]
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "operations": len(records), "rounds": result["rounds"],
        "failures": failures,
        "absent_layers": result.get("absent", []), "trace_file": result.get("trace_file"),
        "machine": machine,
    }
    if args.trace:
        values, units = per_layer(result, layer_units), layer_units
        info["untraced_s"], info["traced_s"] = result["untraced_s"], result["traced_s"]
    else:
        setup_times.append(result["setup_s"])
        values, units = end_to_end(setup_times, result), e2e_units
        raw = [dict(r, seconds=r["raw_seconds"]) for r in records]
        info["unadjusted"] = end_to_end([result["setup_raw_s"]], dict(result, records=raw))
        info["probe_kernel_s"] = result["probe_kernel_s"]
        info["setup_samples_s"] = setup_times
    summary = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    with open(os.path.join(OUT_DIR, f"summary-{tag}.json"), "w") as fh:
        json.dump({"info": info, "summary": summary}, fh, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
