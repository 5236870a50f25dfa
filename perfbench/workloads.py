"""The paramint benchmark workloads: seeded inputs, operations and checks.

Every workload is a closed loop with one client in one process: the next
operation starts when the previous one returns.  The benchmark builds
every input from the seed; the program under test receives only those
inputs.  See README.md beside this file for the metrics and how to run.

Why each workload exists
------------------------
tower
    The paper's finite-element target at the largest size that fits the
    benchmark's time budget: the 40-floor X-braced cantilever
    (n=161, K=241, s=201).  One op is assemble -> center -> build_ldr ->
    pg_solution -> kolev_pl_solution -> force_map -> bilinear_secondary on
    all 201 element-force rows.  Three costs dominate: the (K+1)*s^2
    auxiliary stack, the spectral radius of the same Delta computed three
    times, and the scalar Interval loops.  The structure is fixed; the
    seed only drives the oracle's random samples.
demo-batch
    A seeded rotation of small problems: example1-3 under the three
    methods (kolev, numeric, new), the six-bar displacement and force
    tables, the example3 linear secondaries, in-process `paramint` CLI
    calls (solve, secondary, truss --model sixbar, polygon), and seeded
    rank-one families with n in 3..12, some with right-hand-side-only
    parameters and some with right-hand sides outside the range of their
    coefficient.  Fixed per-call cost and power-iteration counts dominate,
    not large-matrix kernels, so an optimisation for large n that adds
    fixed cost shows up here as a regression.
dense-random
    Seeded dense families with n=120: 30 rank-one and 20 rank-two matrix
    parameters, half of them with right-hand sides outside range(A_k),
    plus 10 right-hand-side-only parameters (s = 95 with augmented
    g-columns, g-copies and F-columns).  One op is center -> build_ldr ->
    pg_solution + kolev_pl_solution -> linear_secondary with a dense
    120x120 B on both solutions.  It runs the general paths a rank-one
    truss shortcut bypasses: coefficients of rank two keep the K x n x n
    stack, the solution is not p-only, and the secondaries are linear.

Layer -> end-to-end predictions
-------------------------------
Which end-to-end metric each per-layer metric (traced run) should move,
on which workload; "no change" names the workload where the prediction
is that nothing moves.

=============================================  ==========================  ==============================================
layer metric                                   should move                 on workload
=============================================  ==========================  ==============================================
solvers.aux_solve.self_s, aux_stack_bytes,     op_s.p50, ops_per_s,        tower (no change on demo-batch)
solvers.pl_stack_bytes                         peak_rss_mb
solvers.spectral_radius.self_s / .calls        ops_per_s                   demo-batch and tower
solvers.pg_solution / kolev_pl_solution /      op_s.p50                    tower, dense-random
rohn_inverse / evaluate_solution .self_s
intervals.affine_image_hull.self_s / .calls,   op_s.p50, ops_per_s         tower, dense-random (small share of demo-batch)
intervals.interval_objects,
intervals.mat_interval_product.self_s
secondary.bilinear_secondary.self_s,           op_s.p50                    tower (bilinear), dense-random (linear)
secondary.linear_secondary.self_s,
secondary.endpoint_pinned_share
systems.center / build_ldr .self_s,            op_s.p50                    all three; small today, watched for regressions
systems.g_columns, systems.augmented_columns
truss.assemble / force_map .self_s             op_s.p50                    tower
cli.main.self_s, oracle.polytope_vertices      ops_per_s                   demo-batch
oracle.point_solutions.self_s                  none (check phase only)     all three; shows what the checks cost
trace.overhead_s                               none                        all three
=============================================  ==========================  ==============================================

What the checks cannot show
---------------------------
The oracle solves point systems in floating point.  It cannot catch
containment failures at the level of a few ulps (ROADMAP item 4: crisp
and near-crisp boxes, ill-conditioned midpoints), so the benchmark checks
results but does not claim they are verified.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import paramint as pm
import paramint.cli  # noqa: F401  (binds pm.cli)
import paramint.oracle  # noqa: F401  (binds pm.oracle)

WORKLOADS = ("tower", "demo-batch", "dense-random")

TOWER_FLOORS = 40
DEMO_RANDOM_FAMILIES = 30
DENSE_FAMILIES = 8

# Published p,g / p,l / numeric hull of example1 (EQ14), rows x1, x2.
EQ14 = np.array([[-17 / 12, 55 / 24], [-27 / 8, -11 / 12]])
EQ14_RTOL = 1e-10
SLACK = 1e-9              # containment slack, times max(mag, 1)
ORACLE_RANDOM = 32        # random samples per input on top of guided vertices
ORACLE_CHUNK = 64         # point systems per oracle call, bounds memory


@dataclass
class Plan:
    """A workload instance: what to run, and what the checks need."""

    schedule: list                   # [(key, op)]; op() -> outputs dict
    systems: dict                    # key -> zero-arg callable -> family
    force_maps: dict = field(default_factory=dict)   # key -> ForceRecovery


# -- seeded families ----------------------------------------------------------

def random_family(rng, n, rank_one, rank_two=0, rhs_only=0, loose_share=0.0,
                  rho_target=0.5):
    """Well-conditioned family after tests/conftest.py::random_rank_one_system,
    extended with rank-two coefficients.

    A0 = n I + U(-1, 1); rank-r coefficients are products of uniform n x r
    and r x n factors.  A `loose_share` of the matrix parameters get a
    right-hand side drawn freely (outside range(A_k), which forces an
    augmented g-column); the others get one inside the range.  Unlike the
    test helper, radii are scaled at the centered midpoint A(p_check), so
    the p,l regularity radius equals rho_target and no op fails on
    regularity.
    """
    k_mat = rank_one + rank_two
    K = k_mat + rhs_only
    A = np.zeros((K + 1, n, n))
    a = np.zeros((K + 1, n))
    A[0] = n * np.eye(n) + rng.uniform(-1.0, 1.0, (n, n))
    a[0] = rng.uniform(-2.0, 2.0, n)
    loose = rng.permutation(k_mat) < int(np.ceil(loose_share * k_mat))
    for k in range(k_mat):
        rank = 1 if k < rank_one else 2
        A[k + 1] = rng.uniform(-1.0, 1.0, (n, rank)) @ rng.uniform(-1.0, 1.0, (rank, n))
        a[k + 1] = (rng.uniform(-1.0, 1.0, n) if loose[k]
                    else A[k + 1] @ rng.uniform(-1.0, 1.0, n))
    for k in range(k_mat, K):
        a[k + 1] = rng.uniform(-1.0, 1.0, n)
    mid = rng.uniform(-1.0, 1.0, K)
    shape = rng.uniform(0.5, 1.0, K)
    C = np.linalg.inv(A[0] + np.tensordot(mid, A[1:], axes=1))
    delta = sum(np.abs(C @ A[k + 1]) * shape[k] for k in range(k_mat))
    rad = shape * rho_target / np.max(np.abs(np.linalg.eigvals(delta)))
    box = pm.IntervalVector.from_bounds(mid - rad, mid + rad)
    return pm.make_system(A, a, box)


# -- operations ---------------------------------------------------------------

def _hull(iv):
    return iv.lo, iv.hi


def _bilinear_table(results):
    return np.array([[r.naive.lo, r.naive.hi, r.refined.lo, r.refined.hi]
                     for r in results])


def tower_op(model):
    sysm = pm.assemble(model)
    c = pm.center(sysm)
    pg = pm.pg_solution(pm.build_ldr(c))
    pl = pm.kolev_pl_solution(c)
    rec = pm.force_map(model)
    rows = [pm.bilinear_secondary(pg.solution, spec)
            for spec in rec.to_secondary_specs()]
    return {"x": {"pg": _hull(pg.hull), "pl": _hull(pl.hull)},
            "p_only": pg.solution.is_p_only,
            "bilinear": (list(range(rec.m)), _bilinear_table(rows))}


def example_op(sysm, method):
    c = pm.center(sysm)
    if method == "kolev":
        return {"x": {"pl": _hull(pm.kolev_pl_solution(c).hull)}}
    ldr = pm.build_ldr(c)
    if method == "numeric":
        _, hull = pm.rank_one_enclosure(ldr)
        return {"x": {"numeric": _hull(hull)}}
    return {"x": {"pg": _hull(pm.pg_solution(ldr).hull)}}


def pair_op(sysm, B=None):
    """p,g and p,l solutions of one family, plus z = B x on both."""
    c = pm.center(sysm)
    pg = pm.pg_solution(pm.build_ldr(c))
    pl = pm.kolev_pl_solution(c)
    out = {"x": {"pg": _hull(pg.hull), "pl": _hull(pl.hull)},
           "p_only": pg.solution.is_p_only}
    if B is not None:
        out["maps"] = [(B, _hull(pm.linear_secondary(B, rep.solution)))
                       for rep in (pg, pl)]
    return out


def sixbar_op(model):
    """The six-bar displacement table (p,g vs p,l hulls and overestimation)
    and force table (direct T u bounds, parameterized p,g bounds)."""
    sysm = pm.assemble(model)
    c = pm.center(sysm)
    pl = pm.kolev_pl_solution(c)
    pg = pm.pg_solution(pm.build_ldr(c))
    pm.overestimation_percent(pl.hull, pg.hull)     # a column of each table
    rec = pm.six_bar_reference_force_map()
    direct = [pm.mat_interval_product(rec.T, rep.hull) for rep in (pl, pg)]
    pm.overestimation_percent(*direct)
    maps = [(rec.T, _hull(tu)) for tu in direct]
    rows, results = [], []
    for row, spec in enumerate(rec.to_secondary_specs()):
        if spec.param_index is None:
            z = pm.linear_secondary(spec.b[None, :], pg.solution)
            maps.append((spec.b[None, :], _hull(z)))
        else:
            rows.append(row)
            results.append(pm.bilinear_secondary(pg.solution, spec))
    return {"x": {"pg": _hull(pg.hull), "pl": _hull(pl.hull)},
            "p_only": pg.solution.is_p_only, "maps": maps,
            "bilinear": (rows, _bilinear_table(results))}


def cli_op(argv, hull_from_json=False):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = pm.cli.main(argv)
    result = {"exit": code, "stdout": len(out.getvalue())}
    if hull_from_json and code == 0:
        pairs = np.array(json.loads(out.getvalue())["hull"], dtype=float)
        result["x"] = {"pg": (pairs[:, 0], pairs[:, 1])}
    return result


# -- workload plans -----------------------------------------------------------

def build(name: str, seed: int, root: Path) -> Plan:
    """The inputs of one workload for one seed (the benchmark's set-up)."""
    rng = np.random.default_rng([seed, 0])
    if name == "tower":
        return _tower_plan()
    if name == "demo-batch":
        return _demo_plan(rng, root)
    if name == "dense-random":
        return _dense_plan(rng)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def _tower_plan() -> Plan:
    model = pm.cantilever_truss(TOWER_FLOORS)
    return Plan(schedule=[("tower", lambda: tower_op(model))],
                systems={"tower": lambda: pm.assemble(model)},
                force_maps={"tower": lambda: pm.force_map(model)})


def _demo_plan(rng, root: Path) -> Plan:
    fixtures = root / "fixtures"
    examples = {name: pm.ParamLinearSystem.from_doc(
                    json.loads((fixtures / f"{name}.json").read_text()))
                for name in ("example1", "example2", "example3")}
    sixbar = pm.six_bar_truss()
    B3 = pm.problems.example3_secondary_matrix()

    items = []
    for name, sysm in examples.items():
        for method in ("kolev", "numeric", "new"):
            items.append((name, lambda s=sysm, m=method: example_op(s, m)))
    items.append(("sixbar", lambda: sixbar_op(sixbar)))
    items.append(("example3", lambda: pair_op(examples["example3"], B3)))
    ex1, ex3 = str(fixtures / "example1.json"), str(fixtures / "example3.json")
    spec3 = str(fixtures / "example3_secondary.json")
    for key, argv, parse in (
            ("example1", ["solve", ex1, "--method", "new", "--format", "json"], True),
            ("example3", ["secondary", ex3, "--spec", spec3], False),
            ("sixbar", ["truss", "--model", "sixbar"], False),
            ("example1", ["polygon", ex1, "--dims", "1,2"], False)):
        items.append((key, lambda a=argv, p=parse: cli_op(a, p)))

    systems = {name: (lambda s=sysm: s) for name, sysm in examples.items()}
    systems["sixbar"] = lambda: pm.assemble(sixbar)
    # The structure of family i is fixed (n cycles through 3..12, one to
    # four matrix parameters, every second family with a right-hand-side-
    # only parameter, every fourth with right-hand sides outside the range
    # of their coefficients); the seed draws the values.  So every seed
    # runs the same mix of op costs.
    for i in range(DEMO_RANDOM_FAMILIES):
        sysm = random_family(rng, n=3 + i % 10, rank_one=1 + i % 4,
                             rhs_only=i % 2,
                             loose_share=0.5 if i % 4 == 3 else 0.0,
                             rho_target=float(rng.uniform(0.2, 0.6)))
        key = f"random{i}"
        systems[key] = lambda s=sysm: s
        items.append((key, lambda s=sysm: pair_op(s)))

    order = rng.permutation(len(items))
    return Plan(schedule=[items[i] for i in order], systems=systems,
                force_maps={"sixbar": pm.six_bar_reference_force_map})


def _dense_plan(rng) -> Plan:
    schedule, systems = [], {}
    for i in range(DENSE_FAMILIES):
        sysm = random_family(rng, n=120, rank_one=30, rank_two=20,
                             rhs_only=10, loose_share=0.5, rho_target=0.5)
        B = rng.uniform(-1.0, 1.0, (120, 120))
        key = f"dense{i}"
        systems[key] = lambda s=sysm: s
        schedule.append((key, lambda s=sysm, b=B: pair_op(s, b)))
    return Plan(schedule=schedule, systems=systems)


# -- oracle and checks ----------------------------------------------------------

@dataclass
class Oracle:
    """Seeded float point solutions of one input family."""

    sols: np.ndarray                 # (N, n) point solutions
    forces: np.ndarray = None        # (N, rows) physical element forces

    @property
    def inner(self):
        return self.sols.min(axis=0), self.sols.max(axis=0)


def oracle_for(sysm, rng, force_map=None) -> Oracle:
    """Point solutions at box vertices chosen by first-order sensitivity
    (for each component, the vertex pushing it up and the one pushing it
    down, from dx/dp_k = A^-1 (a_k - A_k x) at the midpoint), plus seeded
    random points and the lo/hi corners.  The vertices make the inner hull
    tight, so hull_width_ratio barely depends on the random draw."""
    mid, rad = sysm.box.mid, sysm.box.rad
    A = sysm.matrix_at(mid)
    x = np.linalg.solve(A, sysm.rhs_at(mid))
    grads = np.linalg.solve(A, sysm.a[1:].T - np.einsum("kij,j->ik", sysm.A[1:], x))
    signs = np.sign(grads)
    pts = np.unique(np.vstack([
        mid + signs * rad, mid - signs * rad,
        rng.uniform(sysm.box.lo, sysm.box.hi, (ORACLE_RANDOM, sysm.K)),
        sysm.box.lo[None, :], sysm.box.hi[None, :]]), axis=0)
    sols = []
    for i in range(0, len(pts), ORACLE_CHUNK):
        chunk, skipped = pm.oracle.point_solutions(sysm, pts[i:i + ORACLE_CHUNK])
        if skipped:
            raise ValueError(f"{skipped} sampled point systems were singular")
        sols.append(chunk)
    sols = np.vstack(sols)
    forces = None
    if force_map is not None:
        forces = np.array([force_map.forces_at(u, p) for u, p in zip(sols, pts)])
    return Oracle(sols, forces)


def _slack(lo, hi):
    return SLACK * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0)


def _outside(vals, lo, hi) -> bool:
    slack = _slack(lo, hi)
    return bool(np.any(vals < lo - slack) or np.any(vals > hi + slack))


def check(key: str, out: dict, oracle: Oracle):
    """Failures of one op's outputs, the hull width ratio (or None) and the
    count of refined bilinear bounds that a sampled physical force misses.

    Failures: a point solution outside a reported hull or linear image; a
    p,g hull not inside the p,l hull of the same op (same slack), checked
    where the library claims it (a p-only p,g solution: every matrix
    coefficient of rank one and no augmented column); a refined bilinear
    bound not inside its naive bound, or a sampled force outside the naive
    bound; example1 hulls off EQ14; a CLI exit code other than 0.
    """
    failures = []
    hulls = out.get("x", {})
    for label, (lo, hi) in hulls.items():
        if _outside(oracle.sols, lo, hi):
            failures.append(f"{key}: a point solution lies outside the {label} hull")
        if key == "example1":
            got = np.column_stack([lo, hi])
            if np.any(np.abs(got - EQ14) > EQ14_RTOL * np.abs(EQ14)):
                failures.append(f"example1: {label} hull differs from EQ14")
    if out.get("p_only") and "pl" in hulls:
        # both hulls are rounded; where they coincide mathematically (one
        # matrix parameter) they differ in the last bits
        pg_lo, pg_hi = hulls["pg"]
        if _outside(np.vstack([pg_lo, pg_hi]), *hulls["pl"]):
            failures.append(f"{key}: p,g hull is not inside the p,l hull")
    for B, (lo, hi) in out.get("maps", ()):
        if _outside(oracle.sols @ B.T, lo, hi):
            failures.append(f"{key}: a point image lies outside a linear secondary hull")
    refined_misses = 0
    if "bilinear" in out:
        rows, table = out["bilinear"]
        naive_lo, naive_hi, ref_lo, ref_hi = table.T
        if np.any(ref_lo < naive_lo) or np.any(ref_hi > naive_hi):
            failures.append(f"{key}: a refined bilinear bound is not inside its naive bound")
        forces = oracle.forces[:, rows]
        if _outside(forces, naive_lo, naive_hi):
            failures.append(f"{key}: a sampled element force lies outside its naive bound")
        slack = _slack(naive_lo, naive_hi)
        refined_misses = int(np.sum(forces.min(axis=0) < ref_lo - slack)
                             + np.sum(forces.max(axis=0) > ref_hi + slack))
    if "exit" in out and (out["exit"] != 0 or out["stdout"] == 0):
        failures.append(f"{key}: CLI exit code {out['exit']} "
                        f"with {out['stdout']} characters of output")

    ratio = None
    if "pg" in hulls:
        in_lo, in_hi = oracle.inner
        lo, hi = hulls["pg"]
        inner_rad = (in_hi - in_lo) / 2.0
        keep = inner_rad > 0.0
        if np.any(keep):
            ratio = float(np.median(((hi - lo) / 2.0)[keep] / inner_rad[keep]))
    return failures, ratio, refined_misses


def structure(key: str, sysm) -> dict:
    """Sizes of one input family; stack bytes are computed, not measured."""
    ldr = pm.build_ldr(pm.center(sysm))
    return {"input": key, "n": sysm.n, "K": sysm.K, "s": ldr.s,
            "augmented_columns": int(sum(ldr.g_augmented)),
            "aux_stack_bytes_computed": (ldr.K + 1) * ldr.s ** 2 * 8,
            "pl_stack_bytes_computed": sysm.K * sysm.n ** 2 * 8}
