import tracemalloc

import numpy as np
import pytest

from paramint.intervals import Interval, IntervalVector
from paramint.oracle import polytope_vertices, zonotope_contains
from paramint.problems import (example1_reference_y, example1_system,
                               example2_reference_ldr, example2_system,
                               example3_system)
from paramint.solvers import (MidpointSingular, RegularityViolation,
                              evaluate_solution, kolev_pl_solution,
                              pg_solution, rank_one_enclosure, rohn_inverse,
                              spectral_radius)
from paramint.systems import build_ldr, center, make_system
from paramint.truss import assemble, cantilever_truss

from conftest import random_rank_one_system


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
    C = np.linalg.inv(c.A_check)
    delta = sum(np.abs(C @ c.system.A[k + 1]) * c.system.box.rad[k]
                for k in range(2))
    rho = spectral_radius(delta)
    assert rho == pytest.approx(0.5, abs=1e-9)
    assert rho < 1.0


def test_spectral_radius_rejects_negative():
    with pytest.raises(ValueError):
        spectral_radius([[-0.1, 0.0], [0.0, 0.1]])


def test_spectral_radius_with_zero_rows(rng):
    # augmented g-columns give Delta zero rows; deleting row 4 leaves row 1
    # zero as well, since its only entry sits in column 4
    for _ in range(20):
        M = rng.uniform(0.0, 0.3, (6, 6))
        M[4] = 0.0
        M[1] = 0.0
        M[1, 4] = 0.7
        true = max(abs(np.linalg.eigvals(M)))
        est = spectral_radius(M)
        assert est >= true - 1e-12
        assert est - true <= 1e-9


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

def test_rohn_inverse_given_rho(rng):
    delta = rng.uniform(0.0, 0.1, (4, 4))
    H = rohn_inverse(delta, spectral_radius(delta))
    H_own = rohn_inverse(delta)
    assert np.array_equal(H.lo, H_own.lo) and np.array_equal(H.hi, H_own.hi)
    with pytest.raises(RegularityViolation):
        rohn_inverse(delta, 1.0)


def test_rohn_inverse_zero_delta():
    H = rohn_inverse(np.zeros((3, 3)))
    assert H.lo == pytest.approx(np.eye(3))
    assert H.hi == pytest.approx(np.eye(3))


def test_rohn_inverse_2x2():
    H = rohn_inverse([[0.0, 0.5], [0.5, 0.0]])
    assert H.hi == pytest.approx(np.array([[4 / 3, 2 / 3], [2 / 3, 4 / 3]]), abs=1e-12)
    assert H.lo == pytest.approx(np.array([[0.8, -2 / 3], [-2 / 3, 0.8]]), abs=1e-12)
    assert H.mid == pytest.approx(np.diag(np.diag(H.mid)), abs=1e-12)


def test_rohn_inverse_1x1_exact_range():
    # inverse of a in [1/2, 3/2] is exactly [2/3, 2]
    H = rohn_inverse([[0.5]])
    assert H.lo[0, 0] == pytest.approx(2 / 3, abs=1e-12)
    assert H.hi[0, 0] == pytest.approx(2.0, abs=1e-12)


def test_rohn_inverse_sampling_sandwich(rng):
    delta = np.array([[0.0, 0.5], [0.5, 0.0]])
    H = rohn_inverse(delta)
    A = np.eye(2) + rng.uniform(-1, 1, (20000, 2, 2)) * delta
    inv = np.linalg.inv(A)
    assert np.all(inv >= H.lo[None] - 1e-12)
    assert np.all(inv <= H.hi[None] + 1e-12)


def test_rohn_inverse_requires_contraction():
    with pytest.raises(RegularityViolation) as err:
        rohn_inverse([[0.0, 1.0], [1.0, 0.0]])
    assert err.value.rho >= 1.0


# -- p,l-solution -------------------------------------------------------------

def test_kolev_example1_exact_values():
    rep = kolev_pl_solution(center(example1_system()))
    sol = rep.solution
    assert sol.x_check == pytest.approx([7 / 16, -103 / 48], abs=1e-14)
    assert sol.U[:, :2] == pytest.approx(np.array([[-27 / 16, -21 / 64],
                                                    [9 / 16, 21 / 64]]), abs=1e-14)
    l_hat = np.diag(sol.U[:, 2:])
    assert l_hat == pytest.approx([61 / 96, 137 / 192], abs=1e-13)
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
    assert np.diag(sol.U[:, 2:]) == pytest.approx(
        [0.526447, 0.67584, 0.101283], abs=1e-6)


def test_kolev_rhs_only_uncertainty():
    # all matrix coefficients zero: V = C F and l_hat = 0
    A = np.stack([np.diag([2.0, 4.0]), np.zeros((2, 2))])
    a = np.array([[1.0, 1.0], [1.0, -2.0]])
    sys = make_system(A, a, IntervalVector.from_pairs([[-1, 1]]))
    rep = kolev_pl_solution(center(sys))
    C = np.diag([0.5, 0.25])
    assert rep.solution.U[:, 0] == pytest.approx(C @ [1.0, -2.0])
    assert np.diag(rep.solution.U[:, 1:]) == pytest.approx([0.0, 0.0])
    assert rep.regularity_radius == 0.0


def test_kolev_singular_midpoint():
    A = np.stack([np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2)])
    a = np.zeros((2, 2))
    sys = make_system(A, a, IntervalVector.from_pairs([[-0.1, 0.1]]))
    with pytest.raises(MidpointSingular):
        kolev_pl_solution(center(sys))


def test_kolev_regularity_violation():
    base = example1_system()
    wide = make_system(base.A, base.a,
                       IntervalVector.from_mid_rad(base.box.mid,
                                                   10 * base.box.rad))
    with pytest.raises(RegularityViolation) as err:
        kolev_pl_solution(center(wide))
    assert err.value.rho == pytest.approx(5.0, rel=1e-6)


# -- auxiliary-system enclosure ----------------------------------------------

def test_rank_one_enclosure_example1():
    ldr = build_ldr(center(example1_system()))
    y, hull = rank_one_enclosure(ldr)
    assert y.lo == pytest.approx([-0.5], abs=1e-10)
    assert y.hi == pytest.approx([17 / 3], abs=1e-10)
    assert hull.lo == pytest.approx([-17 / 12, -27 / 8], abs=1e-12)
    assert hull.hi == pytest.approx([55 / 24, -11 / 12], abs=1e-12)


def test_rank_one_enclosure_example2_reference_factors():
    # published factor layout: g ordered (p3, p2)
    y, _ = rank_one_enclosure(example2_reference_ldr())
    assert y.lo == pytest.approx([-5.7, -10.4], abs=1e-9)
    assert y.hi == pytest.approx([9.2, 77 / 9], abs=1e-9)


def test_rank_one_enclosure_example2_auto_factors():
    # our block order is ascending parameter index and the p3 column is
    # scaled differently; the hull must agree with the published-factor one
    ldr = build_ldr(center(example2_system()))
    y, hull = rank_one_enclosure(ldr)
    assert y.lo == pytest.approx([-10.4, -4.6], abs=1e-9)
    assert y.hi == pytest.approx([77 / 9, 2.85], abs=1e-9)
    _, hull_ref = rank_one_enclosure(example2_reference_ldr())
    assert hull.lo == pytest.approx(hull_ref.lo, abs=1e-12)
    assert hull.hi == pytest.approx(hull_ref.hi, abs=1e-12)


def test_rank_one_enclosure_zero_radius_internal():
    # degenerate box cannot come from the public constructor; build the
    # LDR record directly to check the point limit
    from paramint.systems import LdrSystem
    c = center(example1_system())
    ldr = build_ldr(c)
    pt = LdrSystem(A0=ldr.A0, a0=ldr.a0, L=ldr.L, R=ldr.R, t=ldr.t, F=ldr.F,
                   pi_prime=ldr.pi_prime, pi_double_prime=ldr.pi_double_prime,
                   g_param=ldr.g_param, g_augmented=ldr.g_augmented,
                   box=IntervalVector.symmetric([0.0, 0.0]),
                   p_check=ldr.p_check)
    y, hull = rank_one_enclosure(pt)
    x_check = np.linalg.solve(ldr.A0, ldr.a0)
    assert y.mid == pytest.approx(ldr.R @ x_check, abs=1e-12)
    assert np.all(y.rad <= 1e-12)
    assert hull.mid == pytest.approx(x_check, abs=1e-12)
    assert np.all(hull.rad <= 1e-12)


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

def test_pg_solution_example1_coefficients():
    ldr = build_ldr(center(example1_system()))
    rep = pg_solution(ldr)
    assert rep.solution.U == pytest.approx(np.array([[1.5, 11 / 6],
                                                     [-0.5, -11 / 6]]), abs=1e-12)
    assert rep.solution.is_p_only
    assert [lab.kind for lab in rep.solution.labels] == ["p", "p"]


def test_pg_solution_example1_with_reference_y():
    ldr = build_ldr(center(example1_system()))
    rep = pg_solution(ldr, y_override=example1_reference_y())
    assert rep.solution.U == pytest.approx(np.array([[1.5, 11 / 6],
                                                     [-0.5, -11 / 6]]), abs=1e-12)
    assert rep.hull.lo == pytest.approx([-17 / 12, -27 / 8], abs=1e-12)
    assert rep.hull.hi == pytest.approx([55 / 24, -11 / 12], abs=1e-12)


def test_pg_solution_example3():
    ldr = build_ldr(center(example3_system()))
    rep = pg_solution(ldr)
    sol = rep.solution
    # two g-copies of the rank-two parameter, then the rank-one parameter
    assert [(lab.kind, lab.index) for lab in sol.labels] == \
        [("g", 0), ("g", 0), ("p", 1)]
    assert not sol.is_p_only
    y = rep.y_enclosure
    y_dev = [abs(y[i] - ldr.t[i]).hi for i in range(3)]
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
        x = sys.solve_at(p)
        for hull in (hull_pl, hull_num, hull_pg):
            assert hull.contains_point(x)


def test_vertex_images_span_hull():
    # affine image of the box: hull equals min/max over vertex images
    for builder in (example1_system, example3_system):
        c = center(builder())
        for rep in (kolev_pl_solution(c), pg_solution(build_ldr(c))):
            verts = polytope_vertices(rep.solution)
            vh = IntervalVector.hull_of_points(verts)
            assert vh.lo == pytest.approx(rep.hull.lo, abs=1e-9)
            assert vh.hi == pytest.approx(rep.hull.hi, abs=1e-9)
            for v in verts:
                assert rep.hull.contains_point(v)


def test_pg_polytope_inside_pl_polytope_example1():
    c = center(example1_system())
    rep_pl = kolev_pl_solution(c)
    rep_pg = pg_solution(build_ldr(c))
    l_hat = rep_pl.solution.U[:, 2:].diagonal()
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
        l_hat = np.diag(rep_pl.solution.U[:, sys.K:])
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
        C = np.linalg.inv(c.A_check)
        delta = sum(np.abs(C @ c.system.A[k + 1]) * c.system.box.rad[k]
                    for k in range(sys.K))
        rho3 = spectral_radius(delta)
        if rho3 >= 1.0:
            continue
        ldr = build_ldr(c)
        CL = C @ ldr.L
        RCL = ldr.R @ CL
        g_hat = np.array([c.system.box.rad[k] for k in ldr.g_param])
        rho6 = spectral_radius(np.abs(RCL) * g_hat[None, :])
        assert rho6 < 1.0


def test_report_doc_roundtrip():
    from paramint.solvers import EnclosureReport
    rep = pg_solution(build_ldr(center(example3_system())))
    back = EnclosureReport.from_doc(rep.to_doc())
    assert np.array_equal(back.hull.lo, rep.hull.lo)
    assert np.array_equal(back.solution.U, rep.solution.U)
    assert back.solution.labels == rep.solution.labels
    assert back.regularity_radius == rep.regularity_radius
    assert np.array_equal(back.y_enclosure.lo, rep.y_enclosure.lo)

