import math
from fractions import Fraction

import numpy as np
import pytest

from paramint import secondary
from paramint.intervals import Interval, IntervalVector
from paramint.problems import (example1_system, example3_secondary_matrix,
                               example3_system)
from paramint.secondary import (SecondarySpec, _form_extremum, _swing, bilinear_secondary,
                                endpoint_sign_test, linear_secondary,
                                overestimation_percent)
from paramint.solvers import (evaluate_solution, kolev_pl_solution,
                              pg_solution)
from paramint.systems import build_ldr, center
from paramint.truss import assemble, cantilever_truss, force_map, six_bar_truss

from conftest import random_rank_one_system
from oracles import SamplingPlan, secondary_range


def test_endpoint_sign_test_positive_sums():
    t = endpoint_sign_test(Interval(2, 5), Interval(-1, 1))
    assert t.lower == 1
    assert t.upper == 1


def test_endpoint_sign_test_interior():
    # v2 wide enough that both v1.lo + v2 and v1.hi + v2 straddle zero
    t = endpoint_sign_test(Interval(-1, 1), Interval(-2, 2))
    assert t.lower is None
    assert t.upper is None
    # one-sided: only the lower sum is sign-definite
    t = endpoint_sign_test(Interval(-1, 1), Interval(-0.5, 2.0))
    assert t.lower is None
    assert t.upper == 1


def test_endpoint_sign_test_mixed():
    t = endpoint_sign_test(Interval(-10.0, -3.0), Interval(1.0, 2.0))
    assert t.lower == -1
    assert t.upper == -1


def test_linear_secondary_identity_matches_evaluate():
    rep = pg_solution(build_ldr(center(example3_system())))
    z = linear_secondary(np.eye(3), rep.solution)
    hull = evaluate_solution(rep.solution, rep.solution.q_box)
    assert z.lo == pytest.approx(hull.lo, abs=1e-15)
    assert z.hi == pytest.approx(hull.hi, abs=1e-15)


def test_linear_secondary_example3_published_values():
    c = center(example3_system())
    rep_pl = kolev_pl_solution(c)
    rep_pg = pg_solution(build_ldr(c))
    B = example3_secondary_matrix()
    z_pl = linear_secondary(B, rep_pl.solution)
    z_pg = linear_secondary(B, rep_pg.solution)
    assert z_pl.lo == pytest.approx([-1.2667226, -1.0233198, -0.38004820],
                                    abs=1e-6)
    assert z_pl.hi == pytest.approx([4.6000559, 3.0233198, 1.3800482],
                                    abs=1e-6)
    assert z_pg.lo == pytest.approx([-1.0222306, -0.69090480, -0.27465195],
                                    abs=1e-6)
    assert z_pg.hi == pytest.approx([4.3555640, 2.6909048, 1.2746520],
                                    abs=1e-6)
    pct = overestimation_percent(z_pl, z_pg)
    assert np.round(pct).tolist() == [8.0, 16.0, 12.0]


def test_linear_secondary_shape_check():
    rep = pg_solution(build_ldr(center(example1_system())))
    with pytest.raises(ValueError):
        linear_secondary(np.eye(3), rep.solution)


def test_overestimation_equal_boxes():
    v = IntervalVector([Interval(-1, 2), Interval(0, 0)])
    assert overestimation_percent(v, v) == pytest.approx([0.0, 0.0])


def test_overestimation_errors():
    outer = IntervalVector([Interval(-1, 1)])
    inner = IntervalVector([Interval(-2, 0)])
    with pytest.raises(ValueError):
        overestimation_percent(outer, inner)
    # a wider inner interval is rejected even when centered identically
    with pytest.raises(ValueError):
        overestimation_percent(IntervalVector([Interval(-1, 1)]),
                               IntervalVector([Interval(-1.5, 1.5)]))
    # degenerate pair is fine (0%)
    got = overestimation_percent(IntervalVector([Interval(3, 3)]),
                                 IntervalVector([Interval(3, 3)]))
    assert got == pytest.approx([0.0])


def test_multiple_occurrence_never_cancelled():
    # z(p') = U^-1 x(p') - p' must evaluate as the natural extension
    # U^-1 x_check + p' - p' (radius 2 p_hat), never as the cancelled form
    rep = pg_solution(build_ldr(center(example1_system())))
    U = rep.solution.U
    Uinv = np.linalg.inv(U)
    z = linear_secondary(Uinv, rep.solution) - rep.solution.q_box
    assert z.mid == pytest.approx(Uinv @ rep.solution.x_check, abs=1e-12)
    assert z.rad == pytest.approx(2 * rep.solution.q_box.rad, abs=1e-12)
    # strictly wider than the cancelled point value
    assert np.all(z.rad > rep.solution.q_box.rad)


def test_bilinear_requires_pg_and_parameter():
    c = center(example1_system())
    rep_pl = kolev_pl_solution(c)
    rep_pg = pg_solution(build_ldr(c))
    spec = SecondarySpec(b=np.array([1.0, 0.0]), param_index=1)
    with pytest.raises(ValueError):
        bilinear_secondary(rep_pl.solution, spec)
    with pytest.raises(ValueError):
        bilinear_secondary(rep_pg.solution,
                           SecondarySpec(b=np.array([1.0, 0.0])))


def test_bilinear_separable_product_exact():
    # U-column for the multiplying parameter is zero and b^T u0 has a
    # definite sign: both endpoint tests fire and the refined interval is
    # the exact decoupled product
    rep = pg_solution(build_ldr(center(example1_system())))
    sol = rep.solution
    U = sol.U.copy()
    U[:, 1] = 0.0
    from dataclasses import replace
    sol0 = replace(sol, U=U)
    spec = SecondarySpec(b=np.array([1.0, 0.0]), param_index=1)
    res = bilinear_secondary(sol0, spec)
    assert res.lower_at_endpoint and res.upper_at_endpoint
    v1 = Interval(sol0.x_check[0], sol0.x_check[0]) + \
        sol0.U[0, 0] * sol0.q_box[0]
    p_full = Interval(sol.p_check[1] - sol.q_box.rad[1],
                      sol.p_check[1] + sol.q_box.rad[1])
    exact = p_full * v1
    assert res.refined.lo == pytest.approx(exact.lo, abs=1e-12)
    assert res.refined.hi == pytest.approx(exact.hi, abs=1e-12)
    assert res.naive.encloses(res.refined)


def test_bilinear_refined_inside_naive_and_covers_form_range(rng):
    # refined subset of naive, and refined contains the sampled range of
    # the quadratic form, on randomized rank-one systems
    for _ in range(10):
        sys = random_rank_one_system(rng, n=3, K=2, rho_target=0.4,
                                     rhs_params=1)
        rep = pg_solution(build_ldr(center(sys)))
        if not rep.solution.is_p_only:
            continue
        for _ in range(5):
            spec = SecondarySpec(b=rng.normal(size=3),
                                 param_index=int(rng.integers(0, 2)))
            res = bilinear_secondary(rep.solution, spec)
            assert res.naive.encloses(res.refined)
            rng_form = secondary_range(spec, rep.solution,
                                       SamplingPlan.grid(15))
            assert res.refined.lo <= rng_form.lo + 1e-9
            assert res.refined.hi >= rng_form.hi - 1e-9


def test_bilinear_exact_when_both_tests_fire(rng):
    # when both else-clauses fire the refined interval equals the exact
    # range of the quadratic form (up to grid resolution)
    hits = 0
    for trial in range(30):
        sys = random_rank_one_system(rng, n=3, K=2, rho_target=0.3,
                                     rhs_params=0)
        rep = pg_solution(build_ldr(center(sys)))
        if not rep.solution.is_p_only:
            continue
        spec = SecondarySpec(b=rng.normal(size=3), param_index=0)
        res = bilinear_secondary(rep.solution, spec)
        if not (res.lower_at_endpoint and res.upper_at_endpoint):
            continue
        hits += 1
        # the grid oracle is an inner approximation with an O(step^2) gap
        # at interior extrema of the quadratic form
        rng_form = secondary_range(spec, rep.solution, SamplingPlan.grid(201))
        assert res.refined.lo <= rng_form.lo + 1e-12
        assert res.refined.hi >= rng_form.hi - 1e-12
        assert res.refined.lo == pytest.approx(rng_form.lo, abs=5e-5)
        assert res.refined.hi == pytest.approx(rng_form.hi, abs=5e-5)
    assert hits >= 3


def test_bilinear_multi_copy_conservative():
    # the rank-two parameter of example3 owns two g-columns; the result
    # falls back to the decoupled product and is flagged
    rep = pg_solution(build_ldr(center(example3_system())))
    spec = SecondarySpec(b=np.array([1.0, 0.5, -0.5]), param_index=0)
    res = bilinear_secondary(rep.solution, spec)
    assert res.independent_copies
    assert res.refined.lo == res.naive.lo
    assert res.refined.hi == res.naive.hi
    # still an enclosure of the sampled parameterized expression
    rng_form = secondary_range(spec, rep.solution, SamplingPlan.grid(25))
    assert res.refined.lo <= rng_form.lo
    assert res.refined.hi >= rng_form.hi


def test_swing_bounds_exact_sum_on_tower():
    # a float sum of the |d_j| p_hat_j can fall below the exact one; the
    # refined bounds need the swing of every force row to be an upper bound
    model = cantilever_truss(20)
    sol = pg_solution(build_ldr(center(assemble(model)))).solution
    rad = sol.q_box.rad
    specs = force_map(model).to_secondary_specs()
    assert len(specs) == 101
    for spec in specs:
        d = (spec.scale * spec.b) @ sol.U
        col = sol.columns_for(spec.param_index)[0]
        exact = sum(Fraction(abs(float(d[j]))) * Fraction(float(rad[j]))
                    for j in range(len(d)) if j != col and d[j] != 0.0)
        assert Fraction(_swing(d, rad, col)) >= exact


def exact_form_extremum(p_chk, p_hat, c, di, swing, want_max):
    """Extremum of s -> (p + s)(c + di s) +/- |p + s| swing over
    [-p_hat, p_hat] in exact rational arithmetic, and whether only an
    interior parabola vertex attains it."""
    p, h, c, di, w = (Fraction(float(v)) for v in (p_chk, p_hat, c, di, swing))
    sigma = 1 if want_max else -1

    def form(s):
        return (p + s) * (c + di * s) + sigma * abs(p + s) * w

    edges = [-h, h] + ([-p] if -h < -p < h else [])
    vertices = []
    if di:
        for lam in (1, -1):
            s = -(c + sigma * lam * w + di * p) / (2 * di)
            if -h < s < h and lam * (p + s) >= 0:
                vertices.append(s)
    pick = max if want_max else min
    at_edge = pick(form(s) for s in edges)
    best = pick([at_edge] + [form(s) for s in vertices])
    return best, best != at_edge


def test_form_extremum_encloses_exact_vertex_value(monkeypatch):
    # a bound taken at a parabola vertex inside the box encloses the exact
    # extremum of the one-dimensional form, not only its float vertex's value
    calls = []

    def recording(*args, want_max):
        bound = _form_extremum(*args, want_max=want_max)
        calls.append((args, want_max, bound))
        return bound

    monkeypatch.setattr(secondary, "_form_extremum", recording)
    for model in (cantilever_truss(5), cantilever_truss(20), six_bar_truss()):
        sol = pg_solution(build_ldr(center(assemble(model)))).solution
        for spec in force_map(model).to_secondary_specs():
            if spec.param_index is not None:
                bilinear_secondary(sol, spec)
    interior = 0
    for args, want_max, bound in calls:
        exact, at_vertex = exact_form_extremum(*args, want_max)
        assert Fraction(bound) >= exact if want_max else Fraction(bound) <= exact
        interior += at_vertex
    assert interior > 0


def test_swing_overflows_to_inf():
    # math.fsum raises where the exact sum leaves the float range
    assert _swing(np.array([1.5e308, 1.5e308, 1.0]), np.ones(3), 2) == math.inf


def test_bilinear_scale_applied():
    rep = pg_solution(build_ldr(center(example1_system())))
    spec1 = SecondarySpec(b=np.array([1.0, 2.0]), param_index=1, scale=1.0)
    spec3 = SecondarySpec(b=np.array([1.0, 2.0]), param_index=1, scale=3.0)
    r1 = bilinear_secondary(rep.solution, spec1)
    r3 = bilinear_secondary(rep.solution, spec3)
    assert r3.refined.lo == pytest.approx(3 * r1.refined.lo, rel=1e-12)
    assert r3.refined.hi == pytest.approx(3 * r1.refined.hi, rel=1e-12)


def test_secondary_spec_doc_roundtrip():
    spec = SecondarySpec(b=np.array([1.0, -2.0]), param_index=3, scale=0.5)
    back = SecondarySpec.from_doc(spec.to_doc())
    assert np.array_equal(back.b, spec.b)
    assert back.param_index == 3
    assert back.scale == 0.5
    linear = SecondarySpec.from_doc({"b": [1, 2]})
    assert linear.param_index is None
    assert linear.scale == 1.0


def test_overestimation_positive_for_strict_subset():
    outer = IntervalVector([Interval(-2, 2)])
    inner = IntervalVector([Interval(-1, 1)])
    assert overestimation_percent(outer, inner)[0] == pytest.approx(50.0)
