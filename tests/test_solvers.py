import ast
import time
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

import paramint

from paramint.intervals import IntervalVector
from paramint.oracle import point_solutions
from paramint.problems import example1_system, example2_system, example3_system
from paramint.secondary import bilinear_secondary
from paramint.solvers import (MidpointSingular, RegularityViolation,
                              evaluate_solution, kolev_pl_solution,
                              pg_solution, rank_one_enclosure, rohn_inverse,
                              spectral_radius)
from paramint.systems import (build_ldr, center, make_system,
                              rank_one_factorize)
from paramint.truss import (assemble, cantilever_truss, force_map,
                            six_bar_truss)

import scalar_reference as ref
from conftest import (out_of_range_family, random_rank_one_system,
                      shared_area_truss)
from oracles import (SamplingPlan, example2_reference_ldr, perron_root,
                     polytope_vertices, solve_at, zonotope_contains)


# -- spectral radius ---------------------------------------------------------

def test_spectral_radius_zero():
    assert spectral_radius(np.zeros((3, 3))) == 0.0


def test_spectral_radius_permutation_scaled():
    assert spectral_radius([[0.0, 0.5], [0.5, 0.0]]) == pytest.approx(0.5, abs=1e-9)


def test_spectral_radius_is_upper_estimate(rng):
    for _ in range(50):
        M = np.abs(rng.normal(size=(4, 4)))
        est = spectral_radius(M)
        true = max(abs(np.linalg.eigvals(M)))
        assert est >= true - 1e-9 * max(true, 1.0)
        assert est <= true + 1e-6 * max(true, 1.0)


def test_spectral_radius_example1_condition():
    c = center(example1_system())
    C = np.linalg.inv(c.system.A0)
    delta = sum(np.abs(C @ c.system.factors.matrix(k)) * c.system.box.rad[k]
                for k in range(2))
    rho = spectral_radius(delta)
    assert rho == pytest.approx(0.5, abs=1e-9)
    assert rho < 1.0


def test_spectral_radius_rejects_negative():
    with pytest.raises(ValueError):
        spectral_radius([[-0.1, 0.0], [0.0, 0.1]])
    with pytest.raises(ValueError, match="need a square matrix"):
        spectral_radius([[0.1, 0.0, 0.2], [0.0, 0.1, 0.3]])


def test_spectral_radius_with_zero_rows(rng):
    # a Delta row is zero where no uncertain coefficient reaches its
    # unknown (row i of C A_k is zero for every k with p_hat_k > 0);
    # deleting row 4 leaves row 1 zero as well, since its only entry sits
    # in column 4
    for _ in range(20):
        M = rng.uniform(0.0, 0.3, (6, 6))
        M[4] = 0.0
        M[1] = 0.0
        M[1, 4] = 0.7
        true = max(abs(np.linalg.eigvals(M)))
        est = spectral_radius(M)
        assert est >= true - 1e-12
        assert est - true <= 1e-9


def gate_deltas(monkeypatch):
    """Every Delta the two solves of example1-3, the six-bar and the
    5-floor tower pass to the regularity gate."""
    import paramint.solvers as solvers
    deltas = []

    def recorded(M):
        deltas.append(np.array(M))
        return spectral_radius(M)

    monkeypatch.setattr(solvers, "spectral_radius", recorded)
    systems = [example1_system(), example2_system(), example3_system(),
               assemble(six_bar_truss()), assemble(cantilever_truss(5))]
    for sys in systems:
        c = center(sys)
        kolev_pl_solution(c)
        pg_solution(build_ldr(c))
    monkeypatch.undo()
    return deltas


def seeded_nonnegative():
    """Seeded 8 x 8 nonnegative matrices: dense, equal row sums,
    block-triangular (reducible), triangular and with zero rows."""
    rng = np.random.default_rng(0)
    dense = rng.uniform(0.0, 0.2, (8, 8))
    row_sums = dense / dense.sum(axis=1, keepdims=True) * 0.9
    blocks = rng.uniform(0.0, 0.2, (8, 8))
    blocks[4:, :4] = 0.0
    triangular = np.triu(rng.uniform(0.0, 0.9, (8, 8)))
    zero_rows = rng.uniform(0.0, 0.2, (8, 8))
    zero_rows[[1, 5]] = 0.0
    return [dense, row_sums, blocks, triangular, zero_rows]


def test_spectral_radius_bounds_mpmath_perron_root(monkeypatch):
    # the certificate holds for the float entries in exact arithmetic, not
    # within a margin: a float Collatz-Wielandt bracket falls below the
    # Perron root of example1's Delta and of the equal-row-sums matrix
    deltas = gate_deltas(monkeypatch)
    assert len(deltas) == 10
    for M in deltas + seeded_nonnegative():
        assert mpmath.mpf(spectral_radius(M)) >= perron_root(M)


@pytest.mark.parametrize("M", [
    [[np.inf, 1.0], [1.0, 1.0]],
    [[np.nan, 1.0], [1.0, 1.0]],
    [[1e308, 1e308], [1e308, 1e308]],
], ids=["inf", "nan", "overflow"])
def test_spectral_radius_non_finite_is_inf(M):
    # at once: all SPECTRAL_MAXITER steps take about 0.12 s on a 2 x 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t0 = time.perf_counter()
        assert spectral_radius(M) == np.inf
        assert time.perf_counter() - t0 < 0.01
        with pytest.raises(RegularityViolation) as err:
            rohn_inverse(M)
    assert err.value.rho == np.inf and err.value.family == "inverse"


def _owned_nodes(node, owner=None):
    """(name of the enclosing function, node) for every node below `node`."""
    for child in ast.iter_child_nodes(node):
        yield owner, child
        inner = (child.name if isinstance(child, (ast.FunctionDef,
                                                  ast.AsyncFunctionDef))
                 else owner)
        yield from _owned_nodes(child, inner)


def test_rohn_inverse_is_the_one_regularity_gate():
    # the library bounds rho and compares it with 1 in one place, with no
    # margin and no separate rounding bound for the force swing
    calls, compares, defined = [], [], set()
    for f in sorted(Path(paramint.__file__).parent.glob("*.py")):
        for owner, node in _owned_nodes(ast.parse(f.read_text())):
            if isinstance(node, ast.Call) and "spectral_radius" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                calls.append((f.stem, owner))
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if (any(isinstance(n, ast.Name) and n.id == "rho"
                        for n in sides)
                        and any(isinstance(n, ast.Constant) and n.value == 1
                                for n in sides)):
                    compares.append((f.stem, owner))
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
    assert calls == [("solvers", "rohn_inverse")]
    assert compares == [("solvers", "rohn_inverse")]
    assert not defined & {"RHO_MARGIN", "_swing"}


def test_spectral_radius_once_per_solve(monkeypatch):
    import paramint.solvers as solvers
    calls = []

    def counted(M, *args, **kwargs):
        calls.append(np.shape(M))
        return spectral_radius(M, *args, **kwargs)

    monkeypatch.setattr(solvers, "spectral_radius", counted)
    for builder in (example1_system, example3_system):
        c = center(builder())
        calls.clear()
        solvers.pg_solution(build_ldr(c))
        assert len(calls) == 1
        calls.clear()
        solvers.kolev_pl_solution(c)
        assert len(calls) == 1


# -- inverse interval matrix -------------------------------------------------

def rohn_bounds(delta):
    """(H_lo, H_hi) = H_mid -/+ H_rad from rohn_inverse's (h_mid, H_rad, rho)."""
    h_mid, h_rad, _ = rohn_inverse(delta)
    return np.diag(h_mid) - h_rad, np.diag(h_mid) + h_rad


def test_rohn_inverse_returns_rho_and_raises_for_family(rng):
    delta = rng.uniform(0.0, 0.1, (4, 4))
    assert rohn_inverse(delta)[2] == spectral_radius(delta)
    wide = 3.0 * np.ones((2, 2))
    with pytest.raises(RegularityViolation) as err:
        rohn_inverse(wide, "rank-one")
    assert err.value.family == "rank-one"
    assert err.value.rho == spectral_radius(wide)


def test_rohn_inverse_zero_delta():
    lo, hi = rohn_bounds(np.zeros((3, 3)))
    assert lo == pytest.approx(np.eye(3))
    assert hi == pytest.approx(np.eye(3))


def test_rohn_inverse_2x2():
    lo, hi = rohn_bounds([[0.0, 0.5], [0.5, 0.0]])
    assert hi == pytest.approx(np.array([[4 / 3, 2 / 3], [2 / 3, 4 / 3]]), abs=1e-12)
    assert lo == pytest.approx(np.array([[0.8, -2 / 3], [-2 / 3, 0.8]]), abs=1e-12)
    mid = (lo + hi) / 2.0
    assert mid == pytest.approx(np.diag(np.diag(mid)), abs=1e-12)


def test_rohn_inverse_1x1_exact_range():
    # inverse of a in [1/2, 3/2] is exactly [2/3, 2]
    lo, hi = rohn_bounds([[0.5]])
    assert lo[0, 0] == pytest.approx(2 / 3, abs=1e-12)
    assert hi[0, 0] == pytest.approx(2.0, abs=1e-12)


def test_rohn_inverse_sampling_sandwich(rng):
    delta = np.array([[0.0, 0.5], [0.5, 0.0]])
    lo, hi = rohn_bounds(delta)
    A = np.eye(2) + rng.uniform(-1, 1, (20000, 2, 2)) * delta
    inv = np.linalg.inv(A)
    assert np.all(inv >= lo[None] - 1e-12)
    assert np.all(inv <= hi[None] + 1e-12)


def test_rohn_inverse_requires_contraction():
    with pytest.raises(RegularityViolation) as err:
        rohn_inverse([[0.0, 1.0], [1.0, 0.0]])
    assert err.value.rho >= 1.0


@pytest.mark.parametrize("scale, regular", [
    (1.0 - 2.0 ** -30, True),
    (1.0, False),
    (1.0 + 2.0 ** -40, False),
], ids=["below", "at", "above"])
def test_rohn_inverse_gate_boundary(scale, regular):
    # the gate takes a certified rho: no margin rejects a regular Delta
    # whose rho is within 1e-9 of 1, and rho = 1 is rejected
    delta = scale * np.array([[0.0, 1.0], [1.0, 0.0]])
    if regular:
        assert rohn_inverse(delta)[2] < 1.0
        return
    with pytest.raises(RegularityViolation) as err:
        rohn_inverse(delta)
    assert err.value.rho >= scale


# -- p,l-solution -------------------------------------------------------------

def test_kolev_example1_exact_values():
    rep = kolev_pl_solution(center(example1_system()))
    sol = rep.solution
    assert sol.x_check == pytest.approx([7 / 16, -103 / 48], abs=1e-14)
    assert sol.U[:, :2] == pytest.approx(np.array([[-27 / 16, -21 / 64],
                                                    [9 / 16, 21 / 64]]), abs=1e-14)
    assert sol.l_hat == pytest.approx([61 / 96, 137 / 192], abs=1e-13)
    assert rep.hull.lo == pytest.approx([-17 / 12, -27 / 8], abs=1e-12)
    assert rep.hull.hi == pytest.approx([55 / 24, -11 / 12], abs=1e-12)
    assert rep.regularity_radius == pytest.approx(0.5, abs=1e-9)
    # uniform-form bookkeeping: m = K + n, l-columns span [-1, 1]
    assert sol.m == 4
    assert np.all(sol.q_box.rad[2:] == 1.0)


def test_kolev_example3_printed_coefficients():
    rep = kolev_pl_solution(center(example3_system()))
    sol = rep.solution
    assert sol.x_check == pytest.approx([0.0, 1 / 3, 1 / 3], abs=1e-12)
    assert sol.U[:, 0] == pytest.approx([-0.38474, 0.924365, -0.392728],
                                        abs=1e-5)
    assert sol.U[:, 1] == pytest.approx([-0.256493, 0.728287, 0.0374027],
                                        abs=1e-6)
    assert sol.l_hat == pytest.approx(
        [0.526447, 0.67584, 0.101283], abs=1e-6)


def test_kolev_rhs_only_uncertainty():
    # all matrix coefficients zero: V = C F and l_hat = 0
    A = np.stack([np.diag([2.0, 4.0]), np.zeros((2, 2))])
    a = np.array([[1.0, 1.0], [1.0, -2.0]])
    sys = make_system(A, a, IntervalVector.from_pairs([[-1, 1]]))
    rep = kolev_pl_solution(center(sys))
    C = np.diag([0.5, 0.25])
    assert rep.solution.U[:, 0] == pytest.approx(C @ [1.0, -2.0])
    assert rep.solution.l_hat == pytest.approx([0.0, 0.0])
    assert rep.regularity_radius == 0.0


def test_kolev_crisp_system():
    # K = 0 goes through the general expressions: Delta = 0, so H = [I, I],
    # V has no columns, l_hat = 0 and the hull is the point x_check
    A = np.array([[[4.0, 1.0], [1.0, 3.0]]])
    a = np.array([[1.0, 2.0]])
    sys = make_system(A, a, IntervalVector(lo=np.zeros(0), hi=np.zeros(0)))
    rep = kolev_pl_solution(center(sys))
    x_check = np.linalg.inv(A[0]) @ a[0]
    sol = rep.solution
    assert sol.x_check.tobytes() == x_check.tobytes()
    assert sol.U.shape == (2, 0) and sol.m == 2
    assert sol.l_hat.tobytes() == np.zeros(2).tobytes()
    assert sol.param.dtype.kind == "i" and sol.param.size == 0
    assert rep.regularity_radius == 0.0
    assert rep.hull.lo.tobytes() == x_check.tobytes()
    assert rep.hull.hi.tobytes() == x_check.tobytes()


def test_kolev_builds_no_coefficient_stack():
    # Delta is accumulated one coefficient at a time: no K x n x n stack
    # of the C A_k is ever allocated
    c = center(assemble(cantilever_truss(20)))
    sys = c.system
    tracemalloc.start()
    try:
        kolev_pl_solution(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < sys.K * sys.n ** 2 * 8


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pl_generators_stay_factored():
    # 40-floor cantilever, n = 161, K = 241, s = 201.  A p,l solve holds
    # its working arrays -- C, Delta and Rohn's H_rad (n x n) and C L
    # (n x s), then, with Delta and C L dropped, G, B0 and V (n x K) --
    # about 3.2 times the dense generator matrix [V | diag(l_hat)] of
    # n x (K + n) (2.7 times the s x (K + s) one of the auxiliary solve
    # inside pg_solution).  Building that dense matrix,
    # and a hull that forms two product copies and a mask of its shape,
    # adds about 4 more (measured 8.0 and 8.3 times).  The bound, 6 times,
    # lies between.
    c = center(assemble(cantilever_truss(40)))
    ldr = build_ldr(c)
    n, K, s = c.system.n, c.system.K, ldr.s
    assert traced_peak(lambda: kolev_pl_solution(c)) < 6 * n * (K + n) * 8
    assert traced_peak(lambda: pg_solution(ldr)) < 6 * s * (K + s) * 8


def test_truss_pipeline_builds_no_coefficient_stack():
    # the truss coefficients stay factored from assembly to the element
    # forces: no K x n x n array is ever allocated
    model = cantilever_truss(20)
    tracemalloc.start()
    try:
        sys = assemble(model)
        c = center(sys)
        pg = pg_solution(build_ldr(c))
        kolev_pl_solution(c)
        for spec in force_map(model).to_secondary_specs():
            bilinear_secondary(pg.solution, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < sys.K * sys.n ** 2 * 8


def test_center_shares_dense_coefficients():
    # a family shaped like the dense benchmark's: n = 120, 30 rank-one and
    # 20 rank-two coefficients, 10 right-hand-side-only parameters
    rng = np.random.default_rng(3)
    n, K = 120, 60
    A = np.zeros((K + 1, n, n))
    A[0] = n * np.eye(n) + rng.uniform(-1.0, 1.0, (n, n))
    for k in range(50):
        r = 1 if k < 30 else 2
        A[k + 1] = rng.uniform(-1.0, 1.0, (n, r)) @ rng.uniform(-1.0, 1.0, (r, n))
    a = rng.uniform(-1.0, 1.0, (K + 1, n))
    mid = rng.uniform(-1.0, 1.0, K)
    sys = make_system(A, a, IntervalVector.from_bounds(mid - 1e-3, mid + 1e-3))
    tracemalloc.start()
    try:
        c = center(sys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < K * n ** 2 * 8
    assert c.system.factors is sys.factors


def test_dense_coefficients_factorized_once(monkeypatch):
    # make_system factorizes each nonzero coefficient once; the centered
    # copies and the solvers reuse those factors
    import paramint.systems as systems
    calls = []

    def counted(Ak):
        calls.append(Ak)
        return rank_one_factorize(Ak)

    monkeypatch.setattr(systems, "rank_one_factorize", counted)
    sys = example2_system()       # A1 = 0, A2 and A3 of rank one
    for _ in range(2):
        c = center(sys)
        kolev_pl_solution(c)
        pg_solution(build_ldr(c))
    assert len(calls) == 2


def test_shared_parameter_truss(monkeypatch):
    import paramint.solvers as solvers
    model = shared_area_truss()
    sys = assemble(model)
    assert sys.factors.sizes == (2, 0)
    c = center(sys)
    ldr = build_ldr(c)
    assert ldr.system.factors.sizes == (2, 0)
    pg = pg_solution(ldr)
    assert pg.solution.param.tolist() == [0, 0, 1]

    deltas = []

    def recorded(M):
        deltas.append(M)
        return spectral_radius(M)

    monkeypatch.setattr(solvers, "spectral_radius", recorded)
    pl = kolev_pl_solution(c)
    pts = np.vstack([SamplingPlan.vertices().points(sys.box),
                     SamplingPlan.random(200).points(sys.box)])
    sols, skipped = point_solutions(sys, pts)
    assert skipped == 0
    # the point systems of the scattered element stiffnesses themselves
    A, a = ref.dense_scatter(model)
    scattered = np.linalg.solve(A[0] + np.einsum("pk,kij->pij", pts, A[1:]),
                                (a[0] + pts @ a[1:])[..., None])[..., 0]
    for rep in (pg, pl):
        for x in (sols, scattered):
            assert np.all(rep.hull.lo <= x) and np.all(x <= rep.hull.hi)

    # Kolev's Delta from the scattered stack, centred at the box midpoint
    mid, rad = sys.box.mid, sys.box.rad
    C = np.linalg.inv(A[0] + np.einsum("k,kij->ij", mid, A[1:]))
    delta = sum(rad[k] * np.abs(C @ A[k + 1]) for k in range(len(mid)))
    assert np.max(np.abs(deltas[0] - delta)) <= 1e-12 * np.max(delta)


def test_kolev_singular_midpoint():
    # both solvers precondition alike: an exactly singular midpoint and one
    # that inverts with rcond below RCOND_MIN raise the same MidpointSingular
    for A0, message in (([[1.0, 1.0], [1.0, 1.0]], "is singular"),
                        ([[1.0, 1.0], [1.0, 1.0 + 1e-15]], "rcond ~")):
        A = np.stack([np.array(A0), np.eye(2)])
        c = center(make_system(A, np.zeros((2, 2)),
                               IntervalVector.from_pairs([[-0.1, 0.1]])))
        errors = []
        for solve in (kolev_pl_solution, lambda cs: pg_solution(build_ldr(cs))):
            with pytest.raises(MidpointSingular, match=message) as err:
                solve(c)
            errors.append(str(err.value))
        assert errors[0] == errors[1]


@pytest.mark.parametrize("build", [
    example1_system, example2_system, example3_system,
    lambda: assemble(six_bar_truss()), lambda: assemble(cantilever_truss(5))],
    ids=["example1", "example2", "example3", "sixbar", "tower5"])
def test_solvers_share_x_check(build):
    # the p,l and p,g solutions start from the same preconditioned x_check
    c = center(build())
    x_pl = kolev_pl_solution(c).solution.x_check
    x_pg = pg_solution(build_ldr(c)).solution.x_check
    assert x_pl.tobytes() == x_pg.tobytes()


def test_kolev_regularity_violation():
    base = example1_system()
    wide = make_system(base.A, base.a,
                       IntervalVector.from_bounds(base.box.mid - 10 * base.box.rad,
                                                 base.box.mid + 10 * base.box.rad))
    with pytest.raises(RegularityViolation) as err:
        kolev_pl_solution(center(wide))
    assert err.value.rho == pytest.approx(5.0, rel=1e-6)


def test_kolev_violation_allocates_no_n_by_k_array():
    # the gate runs before G and B0 (n x K each): one wide matrix
    # parameter makes rho = n, and many right-hand-side-only parameters
    # make K large while every other array of the solve stays small
    n, K = 10, 4000
    A = np.zeros((K + 1, n, n))
    A[0], A[1] = np.eye(n), np.ones((n, n))
    sys = make_system(A, np.ones((K + 1, n)),
                      IntervalVector.from_bounds(-np.ones(K), np.ones(K)))
    c = center(sys)

    def solve():
        with pytest.raises(RegularityViolation):
            kolev_pl_solution(c)

    assert traced_peak(solve) < n * K * 8 / 2


# -- auxiliary-system enclosure ----------------------------------------------

def test_rank_one_enclosure_example1():
    ldr = build_ldr(center(example1_system()))
    y, hull = rank_one_enclosure(ldr)
    assert y.lo == pytest.approx([-0.5], abs=1e-10)
    assert y.hi == pytest.approx([17 / 3], abs=1e-10)
    assert hull.lo == pytest.approx([-17 / 12, -27 / 8], abs=1e-12)
    assert hull.hi == pytest.approx([55 / 24, -11 / 12], abs=1e-12)


def test_rank_one_enclosure_example2_reference_factors():
    # published factors, with g in parameter order (p2, p3) and p1 the one
    # column of F
    ldr = example2_reference_ldr()
    assert ldr.F_param.tolist() == [0]
    y, _ = rank_one_enclosure(ldr)
    assert y.lo == pytest.approx([-10.4, -5.7], abs=1e-9)
    assert y.hi == pytest.approx([77 / 9, 9.2], abs=1e-9)


def test_rank_one_enclosure_example2_auto_factors():
    # our block order is ascending parameter index and the p3 column is
    # scaled differently; F is the published one, and the hull must agree
    # with the published-factor one
    ldr = build_ldr(center(example2_system()))
    ref_ldr = example2_reference_ldr()
    assert ldr.F_param.tolist() == ref_ldr.F_param.tolist()
    assert ldr.F.tolist() == ref_ldr.F.tolist()
    y, hull = rank_one_enclosure(ldr)
    assert y.lo == pytest.approx([-10.4, -4.6], abs=1e-9)
    assert y.hi == pytest.approx([77 / 9, 2.85], abs=1e-9)
    _, hull_ref = rank_one_enclosure(ref_ldr)
    assert hull.lo == pytest.approx(hull_ref.lo, abs=1e-12)
    assert hull.hi == pytest.approx(hull_ref.hi, abs=1e-12)


def test_rank_one_enclosure_zero_radius_internal():
    # a box of zero-radius entries keeps every parameter, with p_hat = 0:
    # the enclosure is the point solution at the midpoint
    base = example1_system()
    mid = base.box.mid
    ldr = build_ldr(center(make_system(
        base.A, base.a, IntervalVector.from_bounds(mid, mid))))
    assert ldr.K == base.K and not ldr.system.box.rad.any()
    y, hull = rank_one_enclosure(ldr)
    x_check = np.linalg.solve(ldr.system.A0, ldr.system.a[0])
    assert y.mid == pytest.approx(ldr.system.factors.R @ x_check, abs=1e-12)
    assert np.all(y.rad <= 1e-12)
    assert hull.mid == pytest.approx(x_check, abs=1e-12)
    assert np.all(hull.rad <= 1e-12)


@pytest.mark.parametrize("build", [
    example1_system, example2_system, example3_system,
    lambda: assemble(six_bar_truss()), lambda: assemble(cantilever_truss(5))],
    ids=["example1", "example2", "example3", "sixbar", "tower5"])
def test_auxiliary_solution_holds_in_original_parameters(build, monkeypatch):
    # the auxiliary p,l-solution is a function of the original parameters:
    # R x(p) lies in y_check + V_y (p - p_check) +- l_hat_y at every point
    # of the box, not only its hull around y_check
    import paramint.solvers as solvers
    aux, solve = [], solvers._pl_solution

    def recording(*args):
        rep = solve(*args)
        aux.append(rep.solution)
        return rep

    monkeypatch.setattr(solvers, "_pl_solution", recording)
    sysm = build()
    ldr = build_ldr(center(sysm))
    pg_solution(ldr)
    (sol,) = aux
    pts = SamplingPlan.random(300, seed=0xA0).points(sysm.box)
    x, skipped = point_solutions(sysm, pts)
    assert skipped == 0
    y = x @ ldr.system.factors.R.T
    excess = np.abs(y - sol.x_check - (pts - sol.p_check) @ sol.U.T) - sol.l_hat
    assert np.all(excess <= 1e-9 * np.maximum(np.abs(y), 1.0))
    assert np.all(sol.sign == 1)


def test_pg_solution_builds_no_aux_stack():
    # the auxiliary system is solved from its terms: no (K+1) x s x s
    # stack of its coefficient matrices is ever allocated
    ldr = build_ldr(center(assemble(cantilever_truss(20))))
    tracemalloc.start()
    try:
        pg_solution(ldr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (ldr.K + 1) * ldr.s ** 2 * 8


# -- p,g-solution -------------------------------------------------------------


def test_pg_solution_rhs_only_family():
    # s = 0: every parameter is right-hand-side only, y is empty, rho = 0
    # and U = -C F, one p-column per parameter
    A = np.stack([np.array([[4.0, 1.0], [1.0, 3.0]]), np.zeros((2, 2)),
                  np.zeros((2, 2))])
    a = np.array([[1.0, 2.0], [1.0, 0.0], [0.5, 1.0]])
    sys = make_system(A, a, IntervalVector.from_pairs([[-1, 1], [0, 2]]))
    ldr = build_ldr(center(sys))
    assert ldr.s == 0
    rep = pg_solution(ldr)
    C = np.linalg.inv(ldr.system.A0)
    U = -(C @ ldr.F)
    sol = rep.solution
    assert sol.x_check.tobytes() == (C @ ldr.system.a[0]).tobytes()
    assert sol.U.tobytes() == U.tobytes()
    assert sol.param.tolist() == [0, 1]
    assert rep.regularity_radius == 0.0
    assert len(rep.y_enclosure) == 0
    hull = evaluate_solution(sol, IntervalVector.symmetric(ldr.system.box.rad))
    assert rep.hull.lo.tobytes() == hull.lo.tobytes()
    assert rep.hull.hi.tobytes() == hull.hi.tobytes()
    y, hull_num = rank_one_enclosure(ldr)
    assert len(y) == 0
    assert hull_num.lo.tobytes() == hull.lo.tobytes()
    assert hull_num.hi.tobytes() == hull.hi.tobytes()


def test_pg_solution_example1_coefficients():
    ldr = build_ldr(center(example1_system()))
    rep = pg_solution(ldr)
    assert rep.solution.U == pytest.approx(np.array([[1.5, 11 / 6],
                                                     [-0.5, -11 / 6]]), abs=1e-12)
    assert rep.solution.is_p_only
    assert rep.solution.param.tolist() == [0, 1]


def test_pg_solution_example3():
    ldr = build_ldr(center(example3_system()))
    rep = pg_solution(ldr)
    sol = rep.solution
    # two g-copies of the rank-two parameter, then the rank-one parameter
    assert sol.param.tolist() == [0, 0, 1]
    assert not sol.is_p_only
    y = rep.y_enclosure
    y_dev = (y - ldr.t).mag
    assert sorted(y_dev[:2]) == pytest.approx([1.56338, 2.79556], abs=1e-5)
    assert y_dev[2] == pytest.approx(2.249, abs=1e-5)
    assert rep.hull.lo == pytest.approx([-1.032869, -0.795558, 0.1032854],
                                        abs=1e-5)
    assert rep.hull.hi == pytest.approx([1.032869, 1.462224, 0.5633813],
                                        abs=1e-5)


def test_pg_hull_equals_numeric_hull_bit_for_bit():
    for builder in (example1_system, example2_system, example3_system):
        ldr = build_ldr(center(builder()))
        _, hull_numeric = rank_one_enclosure(ldr)
        rep = pg_solution(ldr)
        assert np.array_equal(rep.hull.lo, hull_numeric.lo)
        assert np.array_equal(rep.hull.hi, hull_numeric.hi)


# -- evaluate_solution ---------------------------------------------------------

def test_evaluate_full_box_example1():
    rep = pg_solution(build_ldr(center(example1_system())))
    hull = evaluate_solution(rep.solution, rep.solution.q_box)
    assert hull.lo == pytest.approx([-17 / 12, -27 / 8], abs=1e-12)
    assert hull.hi == pytest.approx([55 / 24, -11 / 12], abs=1e-12)


def test_evaluate_zero_box_gives_point():
    rep = kolev_pl_solution(center(example1_system()))
    zero = IntervalVector.symmetric(np.zeros(rep.solution.m))
    got = evaluate_solution(rep.solution, zero)
    assert got.mid == pytest.approx(rep.solution.x_check)
    assert np.all(got.rad <= 1e-13)  # outward-rounding ulps only


def test_evaluate_example3_kolev_printed_hull():
    rep = kolev_pl_solution(center(example3_system()))
    got = evaluate_solution(rep.solution, rep.solution.q_box)
    assert got.lo == pytest.approx([-0.782941, -1.014773, 0.082439], abs=1e-5)
    assert got.hi == pytest.approx([0.782941, 1.6814392, 0.584226], abs=1e-5)


def test_evaluate_rejects_outside_box():
    rep = kolev_pl_solution(center(example1_system()))
    too_big = IntervalVector.symmetric(2 * rep.solution.q_box.rad)
    with pytest.raises(ValueError):
        evaluate_solution(rep.solution, too_big)
    with pytest.raises(ValueError):
        evaluate_solution(rep.solution,
                          IntervalVector.symmetric(np.zeros(rep.solution.m - 1)))


# -- containment and geometry properties ---------------------------------------

@pytest.mark.parametrize("builder", [example1_system, example2_system,
                                     example3_system])
def test_sampled_solutions_inside_all_hulls(builder, rng):
    sys = builder()
    c = center(sys)
    hull_pl = kolev_pl_solution(c).hull
    ldr = build_ldr(c)
    y, hull_num = rank_one_enclosure(ldr)
    hull_pg = pg_solution(ldr).hull
    for _ in range(200):
        p = rng.uniform(sys.box.lo, sys.box.hi)
        x = solve_at(sys, p)
        for hull in (hull_pl, hull_num, hull_pg):
            assert np.all(hull.lo <= x) and np.all(x <= hull.hi)


def test_vertex_images_span_hull():
    # affine image of the box: hull equals min/max over vertex images
    for builder in (example1_system, example3_system):
        c = center(builder())
        for rep in (kolev_pl_solution(c), pg_solution(build_ldr(c))):
            verts = polytope_vertices(rep.solution)
            assert verts.min(axis=0) == pytest.approx(rep.hull.lo, abs=1e-9)
            assert verts.max(axis=0) == pytest.approx(rep.hull.hi, abs=1e-9)
            for v in verts:
                assert np.all(rep.hull.lo <= v) and np.all(v <= rep.hull.hi)


def test_pg_polytope_inside_pl_polytope_example1():
    c = center(example1_system())
    rep_pl = kolev_pl_solution(c)
    rep_pg = pg_solution(build_ldr(c))
    l_hat = rep_pl.solution.l_hat
    assert np.all(l_hat > 0)
    for v in polytope_vertices(rep_pg.solution):
        assert zonotope_contains(rep_pl.solution, v, tol=1e-9)


def test_pg_polytope_inside_pl_polytope_random(rng):
    checked = 0
    for _ in range(10):
        sys = random_rank_one_system(rng, n=3, K=2, rho_target=0.45,
                                     rhs_params=1)
        c = center(sys)
        rep_pl = kolev_pl_solution(c)
        rep_pg = pg_solution(build_ldr(c))
        if not rep_pg.solution.is_p_only:
            continue
        l_hat = rep_pl.solution.l_hat
        if not np.any(l_hat > 1e-12):
            continue
        checked += 1
        for v in polytope_vertices(rep_pg.solution):
            assert zonotope_contains(rep_pl.solution, v, tol=1e-8)
    assert checked >= 5


def test_condition_scope_ordering(rng):
    # for rank-one families, whenever the midpoint-family condition holds
    # the LDR-diagonal condition must hold as well
    for _ in range(20):
        sys = random_rank_one_system(rng, n=3, K=3,
                                     rho_target=rng.uniform(0.2, 0.9))
        c = center(sys)
        C = np.linalg.inv(c.system.A0)
        delta = sum(np.abs(C @ c.system.factors.matrix(k)) * c.system.box.rad[k]
                    for k in range(sys.K))
        rho3 = spectral_radius(delta)
        if rho3 >= 1.0:
            continue
        ldr = build_ldr(c)
        CL = C @ ldr.system.factors.L
        RCL = ldr.system.factors.R @ CL
        g_hat = np.repeat(c.system.box.rad, ldr.system.factors.sizes)
        rho6 = spectral_radius(np.abs(RCL) * g_hat[None, :])
        assert rho6 < 1.0


def test_report_doc_keys_and_shapes():
    rep = pg_solution(build_ldr(center(example3_system())))
    doc = rep.to_doc()
    sol = rep.solution
    assert set(doc) == {"kind", "xCheck", "U", "qBox", "labels", "pCheck",
                        "hull", "rho", "y"}
    assert doc["kind"] == "pg"
    assert np.shape(doc["xCheck"]) == (sol.n,)
    assert np.shape(doc["U"]) == (sol.n, sol.m)
    assert np.shape(doc["qBox"]) == (sol.m, 2)
    assert len(doc["labels"]) == sol.m
    assert np.shape(doc["pCheck"]) == (len(sol.p_check),)
    assert np.shape(doc["hull"]) == (sol.n, 2)
    assert doc["rho"] == rep.regularity_radius
    assert np.shape(doc["y"]) == (len(rep.y_enclosure), 2)
    assert kolev_pl_solution(center(example3_system())).to_doc()["y"] is None


def rhs_only_family():
    A = np.stack([np.array([[4.0, 1.0], [1.0, 3.0]]), np.zeros((2, 2)),
                  np.zeros((2, 2))])
    a = np.array([[1.0, 2.0], [1.0, 0.0], [0.5, 1.0]])
    return make_system(A, a, IntervalVector.from_pairs([[-1, 1], [0, 2]]))


def crisp_system():
    return make_system(np.array([[[4.0, 1.0], [1.0, 3.0]]]),
                       np.array([[1.0, 2.0]]),
                       IntervalVector(lo=np.zeros(0), hi=np.zeros(0)))


def pg_of(build):
    return lambda: pg_solution(build_ldr(center(build()))).solution


def pl_of(build):
    return lambda: kolev_pl_solution(center(build())).solution


@pytest.mark.parametrize("solve, labels, p_only, columns", [
    # two g-copies of the rank-two parameter, then the rank-one parameter
    (pg_of(example3_system), ["g0/0", "g0/1", "p1/0"], False, [[0, 1], [2]]),
    # a right-hand-side-only parameter, then a rank-one one
    (pg_of(example1_system), ["p0/0", "p1/0"], True, [[0], [1]]),
    # one area drives both diagonals, then the load factor
    (pg_of(lambda: assemble(shared_area_truss())),
     ["g0/0", "g0/1", "p1/0"], False, [[0, 1], [2]]),
    (pg_of(rhs_only_family), ["p0/0", "p1/0"], True, [[0], [1]]),
    # parameter 0's g-column, then its F column
    (pg_of(out_of_range_family), ["g0/0", "p0/0", "p1/0", "p2/0"], False,
     [[0, 1], [2], [3]]),
    (pg_of(crisp_system), [], True, []),
    # one p-column per parameter, then one l-column per row
    (pl_of(example3_system), ["p0/0", "p1/0", "l0/0", "l1/0", "l2/0"],
     False, [[0], [1]]),
    (pl_of(crisp_system), ["l0/0", "l1/0"], False, []),
], ids=["example3-pg", "example1-pg", "shared-area-pg", "rhs-only-pg",
        "out-of-range-rhs-pg", "crisp-pg", "example3-pl", "crisp-pl"])
def test_column_map_literals(solve, labels, p_only, columns):
    sol = solve()
    assert [f"{lab['kind']}{lab['index']}/{lab['copy']}"
            for lab in sol.to_doc()["labels"]] == labels
    assert sol.is_p_only is p_only
    assert [np.flatnonzero(sol.param == k).tolist()
            for k in range(len(columns) + 1)] == \
        columns + [[]]
