"""The gated benchmark's workloads still run on the library.

perfbench/ is the benchmark and its files change only with it, so a
library refactor that breaks an op, a check, the structure record or the
tracer shows up here rather than only when the benchmark runs.  Nothing is
written under the repository.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SEED = 1


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
    return workloads


@pytest.mark.parametrize("name", ["demo-batch", "dense-random", "tower"])
def test_workload_ops_pass_their_checks(workloads, name):
    plan = workloads.build(name, SEED, ROOT)
    rng = np.random.default_rng([SEED, 1])
    oracles = {}
    for key, op in plan.schedule:
        out = op()
        if key not in oracles:
            fmap = plan.force_maps.get(key)
            oracles[key] = workloads.oracle_for(
                plan.systems[key](), rng, fmap() if fmap else None)
        failures, _, _ = workloads.check(key, out, oracles[key])
        assert failures == []
    for key in sorted(plan.systems):
        rec = workloads.structure(key, plan.systems[key]())
        assert rec["input"] == key and rec["s"] >= 0


def test_dense_random_structure_counts(workloads):
    # the structure record's augmented_columns reads LdrSystem.g_augmented:
    # one per matrix parameter whose right-hand side lies outside the range
    # of its coefficient; s counts the g-columns alone, the sum of the ranks
    plan = workloads.build("dense-random", SEED, ROOT)
    for key in sorted(plan.systems):
        sysm = plan.systems[key]()
        rec = workloads.structure(key, sysm)
        coefs = [sysm.factors.matrix(k) for k in range(sysm.K)]
        ranks = [np.linalg.matrix_rank(Ak) for Ak in coefs]
        outside = sum(np.linalg.matrix_rank(np.column_stack([Ak, ak])) > r
                      for Ak, ak, r in zip(coefs, sysm.a[1:], ranks) if r)
        assert rec["s"] == sum(ranks) == 70
        assert rec["augmented_columns"] == outside == 25


TRACED_PASS = """
import json, sys
import paramint as pm
import tracing, workloads
plan = workloads.build("demo-batch", 1, __import__("pathlib").Path(sys.argv[1]))
tracer = tracing.Tracer()
tracer.install(pm)
built = tracer.intervals_built()
for i, (_, op) in enumerate(plan.schedule):
    tracer.op = i
    op()
tracer.op = None
layers = tracer.layer_metrics(len(plan.schedule), tracer.intervals_built() - built - 1)
print(json.dumps(sorted(layers)))
"""


def test_tracer_layer_metrics():
    # Tracer.install rewires module globals, so it runs in its own process
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)]))
    proc = subprocess.run([sys.executable, "-c", TRACED_PASS, str(ROOT)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = set(json.loads(proc.stdout.splitlines()[-1]))
    gated = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in gated} <= names
