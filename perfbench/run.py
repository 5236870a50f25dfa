"""Run one paramint benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tower|demo-batch|dense-random|all \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from `src/` of
this checkout; nothing is installed.  Each measurement runs in a fresh
child process with single-threaded BLAS: SETUP_SAMPLES processes that only
set up, then one worker that sets up, runs the timed closed loop and
checks the outputs (perfbench/worker.py).

stdout gets a readable record, then, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the metrics
are the `end_to_end` entries of BENCHMARK.json, with --trace 1 its
`per_layer` entries.  The full record (and, traced, the spans) is written
under .bench_out/.  Exits non-zero without a result line when the
checkout has no source tree or a worker fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 3          # set-up-only processes; the worker adds one more
CHILD_TIMEOUT_S = 150
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


def child_env():
    env = dict(os.environ, **SINGLE_THREAD)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_worker(mode, args, env):
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker ({mode}) exited with {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def print_record(args, res, setup_samples):
    env = res["env"]
    print(f"paramint benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, BLAS {env['blas']} "
          f"(threads in force: {env['blas_threads']}), nproc {env['nproc']}, "
          f"cpu {env['cpu']}")
    for st in res["structure"]:
        print(f"input {st['input']}: n={st['n']} K={st['K']} s={st['s']} "
              f"augmented={st['augmented_columns']} "
              f"aux_stack_bytes={st['aux_stack_bytes_computed']} (computed) "
              f"pl_stack_bytes={st['pl_stack_bytes_computed']} (computed)")
    lat = res["latency"]
    m = res["metrics"]
    print(f"ops: {res['attempted']} attempted, {res['failed']} failed; "
          f"{lat['samples']} untraced latency samples")
    print(f"  setup_s           {fmt(m['setup_s'])} s "
          f"(median of {len(setup_samples)} fresh processes)")
    print(f"  ops_per_s         {fmt(m['ops_per_s'])} 1/s")
    print(f"  op_s.p50          {fmt(lat['p50'])} s ({lat['samples']} samples)")
    if lat["p90"] is None:
        print(f"  op_s.p90          omitted: needs at least 100 samples, "
              f"has {lat['samples']}")
    else:
        print(f"  op_s.p90          {fmt(lat['p90'])} s ({lat['samples']} samples)")
    print(f"  peak_rss_mb       {fmt(m['peak_rss_mb'])} MB")
    print(f"  failed_share      {fmt(m['failed_share'])} ratio")
    print(f"  hull_width_ratio  {fmt(m['hull_width_ratio'])} ratio")
    for failure in res["failures"]:
        print(f"  check failed: {failure}")
    if res["bilinear_bounds"]:
        print(f"diagnostic (not counted as failed): {res['refined_misses']} of "
              f"{res['bilinear_bounds']} refined bilinear bounds miss a sampled "
              f"physical element force")
    if "per_layer" in res:
        print(f"per layer, per traced op (spans: {res['spans_file']}):")
        for name, (value, unit) in sorted(res["per_layer"].items()):
            print(f"  {name:44s} {fmt(value)} {unit}")


def run_workload(args, contract, env):
    """Runs one workload and prints its record; returns the result line
    as a dict, or None when a worker failed or a metric is missing."""
    try:
        setups = [run_worker("setup", args, env)["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        res = run_worker("run", args, env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    setups.append(res["setup_s"])
    res["metrics"]["setup_s"] = statistics.median(setups)
    res["setup_samples_s"] = setups

    print_record(args, res, setups)
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(res, indent=1))
    print(f"record: {record.relative_to(ROOT)}")

    if args.trace:
        wanted = contract["per_layer"]
        values = {name: value for name, (value, _) in res["per_layer"].items()}
    else:
        wanted, values = contract["end_to_end"], res["metrics"]
    metrics = {}
    for spec in wanted:
        value = values.get(spec["name"])
        if value is None:
            print(f"error: metric {spec['name']} was not measured",
                  file=sys.stderr)
            return None
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name from BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "paramint" / "__init__.py").is_file():
        print(f"error: no paramint source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = child_env()
    if args.workload != "all":
        line = run_workload(args, contract, env)
        if line is None:
            return 1
        print(json.dumps(line))
        return 0

    # every workload in turn; metrics are keyed "<workload>/<metric>"
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for spec in contract["workloads"]:
        line = run_workload(argparse.Namespace(**dict(vars(args), workload=spec["name"])),
                            contract, env)
        if line is None:
            return 1
        total["correct"] &= line["correct"]
        total["attempted"] += line["attempted"]
        total["failed"] += line["failed"]
        for name, value in line["metrics"].items():
            total["metrics"][f"{spec['name']}/{name}"] = value
        print()
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
