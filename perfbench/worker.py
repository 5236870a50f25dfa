"""Benchmark worker: one workload in a fresh process.

    python3 perfbench/worker.py --mode setup|run --workload W --seed N \
        --seconds S --trace 0|1

`setup` prints the set-up time only: from before `import paramint` to the
workload's inputs being built.  `run` then runs the closed loop for S
seconds (with --trace 1: S/2 untraced, then S/2 traced), reads peak RSS,
and only then checks every op's outputs against the float oracle.  The
last line of stdout is one JSON object for perfbench/run.py.

There is no warm-up pass: a tower op takes seconds, and the first op's
one-time costs (a few percent of one op) do not move the median.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import paramint as pm  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
P90_MIN_SAMPLES = 100     # ten samples beyond the 90th percentile
FAILURES_SHOWN = 5


def run_loop(schedule, seconds, tracer=None, first=0):
    """Closed loop until `seconds` have passed; returns records
    (slot, key, latency_s, outputs or None, error or None), where slot is
    the op's place in the schedule, and the elapsed time."""
    records = []
    start = time.perf_counter()
    deadline = start + seconds
    i = first
    while True:
        slot = i % len(schedule)
        key, op = schedule[slot]
        if tracer is not None:
            tracer.op = i
        t = time.perf_counter()
        try:
            out, err = op(), None
        except Exception as exc:  # an op failure is a measured outcome
            out, err = None, f"{key}: {type(exc).__name__}: {exc}"
        records.append((slot, key, time.perf_counter() - t, out, err))
        i += 1
        if time.perf_counter() >= deadline:
            break
    if tracer is not None:
        tracer.op = None
    return records, time.perf_counter() - start


def latency_stats(latencies):
    stats = {"samples": len(latencies), "p50": statistics.median(latencies),
             "p90": None}
    if len(latencies) >= P90_MIN_SAMPLES:
        stats["p90"] = statistics.quantiles(latencies, n=10)[-1]
    return stats


def check_records(plan, records, seed):
    """Checks every op.  The hull width ratio is the median over the
    schedule's slots of each slot's median, so every distinct op counts
    once and the result does not depend on how many ops a run completed."""
    rng = np.random.default_rng([seed, 1])
    oracles, failures, ratios = {}, [], {}
    failed = misses = bilinear_bounds = 0
    for slot, key, _, out, err in records:
        problems = [err] if err is not None else []
        if out is not None:
            if key not in oracles:
                fmap = plan.force_maps.get(key)
                oracles[key] = workloads.oracle_for(
                    plan.systems[key](), rng, fmap() if fmap else None)
            problems, ratio, missed = workloads.check(key, out, oracles[key])
            if ratio is not None:
                ratios.setdefault(slot, []).append(ratio)
            misses += missed
            if "bilinear" in out:
                bilinear_bounds += 2 * len(out["bilinear"][0])
        if problems:
            failed += 1
            failures.extend(problems[:max(0, FAILURES_SHOWN - len(failures))])
    structure = [workloads.structure(key, plan.systems[key]())
                 for key in sorted(plan.systems)]
    ratio = (statistics.median(statistics.median(r) for r in ratios.values())
             if ratios else None)
    return {"failed": failed, "failures": failures, "hull_width_ratio": ratio,
            "refined_misses": misses, "bilinear_bounds": bilinear_bounds,
            "structure": structure}


def blas_threads():
    """Thread count the loaded OpenBLAS reports, else the environment's."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "cpu": cpu, "seed": seed}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    plan = workloads.build(args.workload, args.seed, ROOT)
    setup_s = time.perf_counter() - T0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        plain, elapsed = run_loop(plan.schedule, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install(pm)
        built = tracer.intervals_built()
        traced, _ = run_loop(plan.schedule, args.seconds / 2, tracer,
                             first=len(plain))
        built = tracer.intervals_built() - built - 1
    else:
        plain, elapsed = run_loop(plan.schedule, args.seconds)
        traced = []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records = plain + traced
    checked = check_records(plan, records, args.seed)
    latency = latency_stats([r[2] for r in plain])
    result = {
        "setup_s": setup_s,
        "attempted": len(records),
        "failed": checked["failed"],
        "failures": checked["failures"],
        "latency": latency,
        "metrics": {
            "ops_per_s": len(plain) / elapsed,
            "op_s.p50": latency["p50"],
            "peak_rss_mb": peak_rss_mb,
            "failed_share": checked["failed"] / len(records),
            "hull_width_ratio": checked["hull_width_ratio"],
        },
        "refined_misses": checked["refined_misses"],
        "bilinear_bounds": checked["bilinear_bounds"],
        "structure": checked["structure"],
        "env": environment(args.seed),
    }
    if tracer is not None:
        layers = tracer.layer_metrics(len(traced), built)
        layers["trace.overhead_s"] = (
            statistics.median([r[2] for r in traced]) - latency["p50"], "s")
        result["per_layer"] = layers
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans, {"workload": args.workload, "seed": args.seed,
                            "traced_ops": len(traced)})
        result["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
