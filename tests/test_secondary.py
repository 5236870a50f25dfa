import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramint import secondary
from paramint.intervals import Interval, IntervalVector
from paramint.oracle import point_solutions
from paramint.problems import (example1_system, example2_system,
                               example3_secondary_matrix, example3_system)
from paramint.secondary import (SecondaryResult, SecondarySpec, _form_range,
                                bilinear_secondary, linear_secondary,
                                overestimation_percent)
from paramint.solvers import (ParamSolution, evaluate_solution,
                              kolev_pl_solution, pg_solution)
from paramint.systems import build_ldr, center
from paramint.truss import assemble, cantilever_truss, force_map, six_bar_truss

import scalar_reference as ref
from conftest import out_of_range_family, random_rank_one_system
from oracles import SamplingPlan, secondary_range


def endpoint_signs(v1, v2):
    """(lower, upper) of the sign test, from the scalar reference and from
    the array sum v2 + [v1.lo, v1.hi] that bilinear_secondary forms; the
    two must agree."""
    ends = IntervalVector.from_bounds([v2.lo], [v2.hi]) + np.array([v1.lo, v1.hi])
    array = tuple(1 if lo > 0.0 else -1 if hi < 0.0 else None
                  for lo, hi in zip(ends.lo, ends.hi))
    assert array == ref.endpoint_sign_test(v1, v2)
    return array


def test_endpoint_sign_test_positive_sums():
    assert endpoint_signs(Interval(2, 5), Interval(-1, 1)) == (1, 1)


def test_endpoint_sign_test_interior():
    # v2 wide enough that both v1.lo + v2 and v1.hi + v2 straddle zero
    assert endpoint_signs(Interval(-1, 1), Interval(-2, 2)) == (None, None)
    # one-sided: only the lower sum is sign-definite
    assert endpoint_signs(Interval(-1, 1), Interval(-0.5, 2.0)) == (None, 1)


def test_endpoint_sign_test_mixed():
    assert endpoint_signs(Interval(-10.0, -3.0), Interval(1.0, 2.0)) == (-1, -1)


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
    # NaN where outer does not enclose inner; only a length mismatch raises
    outer = IntervalVector([Interval(-1, 1)])
    inner = IntervalVector([Interval(-2, 0)])
    assert np.isnan(overestimation_percent(outer, inner)).all()
    # a wider inner interval is not enclosed even when centered identically
    assert np.isnan(overestimation_percent(
        IntervalVector([Interval(-1, 1)]),
        IntervalVector([Interval(-1.5, 1.5)]))).all()
    with pytest.raises(ValueError, match="length mismatch"):
        overestimation_percent(IntervalVector([Interval(-1, 1)] * 2), inner)
    # a point does not enclose an interval of nonzero radius around it
    assert np.isnan(overestimation_percent(
        IntervalVector([Interval(3, 3)]),
        IntervalVector([Interval(3 - 1e-12, 3 + 1e-12)]))).all()
    # degenerate pair is fine (0%)
    got = overestimation_percent(IntervalVector([Interval(3, 3)]),
                                 IntervalVector([Interval(3, 3)]))
    assert got == pytest.approx([0.0])
    # no containment slack: one ulp past the outer bound is NaN, in that
    # row only
    got = overestimation_percent(
        IntervalVector(lo=[-2.0, -2.0, 5.0], hi=[2.0, 2.0, 5.0]),
        IntervalVector(lo=[-1.0, np.nextafter(-2.0, -3.0), 5.0],
                       hi=[1.0, 1.0, 5.0]))
    assert got[0] == pytest.approx(50.0) and np.isnan(got[1]) and got[2] == 0.0
    # finite rows wider than the float range: their radii do not overflow
    with np.errstate(all="raise"):
        wide = IntervalVector(lo=[-1e308, -1e308], hi=[1e308, 1e308])
        got = overestimation_percent(
            wide, IntervalVector(lo=[-1e308, -5e307], hi=[1e308, 5e307]))
    assert got.tolist() == [0.0, 50.0]


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
    assert res.lower_sign is not None and res.upper_sign is not None
    v1 = ref.interval_add(ref.point(sol0.x_check[0]),
                          ref.interval_mul(ref.point(sol0.U[0, 0]), sol0.q_box[0]))
    p_full = Interval(sol.p_check[1] - sol.q_box.rad[1],
                      sol.p_check[1] + sol.q_box.rad[1])
    exact = ref.interval_mul(p_full, v1)
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
        if res.lower_sign is None or res.upper_sign is None:
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
    # falls back to the decoupled product, with no sign claim
    rep = pg_solution(build_ldr(center(example3_system())))
    spec = SecondarySpec(b=np.array([1.0, 0.5, -0.5]), param_index=0)
    res = bilinear_secondary(rep.solution, spec)
    assert len(np.flatnonzero(rep.solution.param == 0)) == 2
    assert (res.lower_sign, res.upper_sign) == (None, None)
    assert res.refined.lo == res.naive.lo
    assert res.refined.hi == res.naive.hi
    # still an enclosure of the sampled parameterized expression
    rng_form = secondary_range(spec, rep.solution, SamplingPlan.grid(25))
    assert res.refined.lo <= rng_form.lo
    assert res.refined.hi >= rng_form.hi


def physical_range(sysm, spec, count=300, seed=0xF0):
    """min and max of p_i b^T x(p) over the point solutions at every box
    vertex and at `count` seeded uniform points."""
    pts = np.vstack([SamplingPlan.vertices().points(sysm.box),
                     SamplingPlan.random(count, seed).points(sysm.box)])
    u, skipped = point_solutions(sysm, pts)
    assert skipped == 0
    vals = (u @ spec.b) * pts[:, spec.param_index]
    return float(vals.min()), float(vals.max())


def assert_f_column_multiplier_sound(sysm, spec):
    # the multiplier has an F column: its variable is -p'_i, and the
    # refined bound encloses the physical range up to criterion 7a's slack
    ldr = build_ldr(center(sysm))
    assert spec.param_index in ldr.F_param
    res = bilinear_secondary(pg_solution(ldr).solution, spec)
    assert res.naive.encloses(res.refined)
    lo, hi = physical_range(sysm, spec)
    slack = 1e-9 * max(abs(res.refined.lo), abs(res.refined.hi), 1.0)
    assert res.refined.lo <= lo + slack and hi - slack <= res.refined.hi


def sixbar_system():
    return assemble(six_bar_truss())


F_COLUMN_CASES = (
    # right-hand-side-only multipliers
    [(example1_system, 0, [0.0, 1.0]), (example1_system, 0, [1.0, 1.0]),
     (example2_system, 0, [1.0, 0.0])]
    # the six-bar's load factor Q times each displacement
    + [(sixbar_system, 2, e) for e in np.eye(4).tolist()]
    # a rank-one parameter with an F column, and a right-hand-side-only one
    + [(out_of_range_family, i, b) for i in (0, 1)
       for b in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0])])


@pytest.mark.parametrize(
    "build, param, b", F_COLUMN_CASES,
    ids=[f"{build.__name__}-p{i}-b{''.join(f'{v:g}' for v in b)}"
         for build, i, b in F_COLUMN_CASES])
def test_f_column_multiplier_encloses_physical_range(build, param, b):
    assert_f_column_multiplier_sound(
        build(), SecondarySpec(b=b, param_index=param))


def test_f_column_multiplier_sound_on_loose_families():
    # every parameter of these families has an F column: two rank-one ones
    # whose right-hand sides miss their range, one right-hand side only
    rng = np.random.default_rng(0x5EC)
    for _ in range(20):
        sysm = random_rank_one_system(rng, n=3, K=2, rho_target=0.4,
                                      rhs_params=1, loose_rhs=True)
        for i in range(3):
            for _ in range(2):
                assert_f_column_multiplier_sound(
                    sysm, SecondarySpec(b=rng.normal(size=3), param_index=i))


def test_f_column_of_matrix_parameter_is_coupled():
    # parameter 0 of out_of_range_family has a g-column (sign 0) and an F
    # column (sign -1); the F column is coupled, so the refined bound is
    # pinned and narrower than the naive one
    sol = pg_solution(build_ldr(center(out_of_range_family()))).solution
    res = bilinear_secondary(sol, SecondarySpec(b=[1.0, 0.0], param_index=0))
    assert (res.lower_sign, res.upper_sign) != (None, None)
    assert res.refined.hi - res.refined.lo < res.naive.hi - res.naive.lo
    assert sol.sign[sol.param == 0].tolist() == [0, -1]


def test_swing_bounds_exact_sum_on_tower(monkeypatch):
    # a float sum of the |d_j| p_hat_j can fall below the exact one; the
    # refined bounds need the swing of every force row to be an upper bound
    swings = []

    def recording(*args):
        swings.append(args[4])
        return _form_range(*args)

    monkeypatch.setattr(secondary, "_form_range", recording)
    model = cantilever_truss(20)
    sol = pg_solution(build_ldr(center(assemble(model)))).solution
    rad = sol.q_box.rad
    specs = force_map(model).to_secondary_specs()
    assert len(specs) == 101
    for spec in specs:
        swings.clear()
        bilinear_secondary(sol, spec)
        d = spec.b @ sol.U
        col = np.flatnonzero(sol.param == spec.param_index)[0]
        exact = sum(Fraction(abs(float(d[j]))) * Fraction(float(rad[j]))
                    for j in range(len(d)) if j != col and d[j] != 0.0)
        # every force row of the tower has a definite sign at some bound
        assert len(swings) == 1 and Fraction(swings[0]) >= exact


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


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def test_form_extremum_encloses_exact_vertex_value(monkeypatch):
    # a bound taken at a parabola vertex inside the box encloses the exact
    # extremum of the one-dimensional form, not only its float vertex's
    # value; both bounds of every call match the scalar reference
    calls = []

    def recording(*args):
        bounds = _form_range(*args)
        calls.append((args, bounds))
        return bounds

    monkeypatch.setattr(secondary, "_form_range", recording)
    for model in (cantilever_truss(5), cantilever_truss(20), six_bar_truss()):
        sol = pg_solution(build_ldr(center(assemble(model)))).solution
        for spec in force_map(model).to_secondary_specs():
            if spec.param_index is not None:
                bilinear_secondary(sol, spec)
    interior = 0
    for args, bounds in calls:
        for want_max, bound in zip((False, True), bounds):
            assert bits(bound) == bits(ref.form_extremum(*args, want_max))
            exact, at_vertex = exact_form_extremum(*args, want_max)
            assert Fraction(bound) >= exact if want_max else Fraction(bound) <= exact
            interior += at_vertex
    assert interior > 0


moderate = st.floats(-10.0, 10.0)


@settings(deadline=None, max_examples=300)
@given(p_chk=moderate, p_hat=st.floats(0.0, 10.0), c=moderate,
       di=st.one_of(st.just(0.0), moderate),
       swing=st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
def test_form_range_matches_scalar_reference(p_chk, p_hat, c, di, swing):
    # both bounds from one candidate box equal the scalar reference's two
    # separate evaluations, bit for bit
    args = (p_chk, p_hat, c, di, swing)
    lo, hi = _form_range(*args)
    assert bits(lo) == bits(ref.form_extremum(*args, want_max=False))
    assert bits(hi) == bits(ref.form_extremum(*args, want_max=True))


def test_bilinear_rows_build_two_intervals_each(monkeypatch):
    # the arithmetic runs on lo/hi arrays: a force row of the 20-floor tower
    # builds one Interval for its naive bound and one for its refined bound
    model = cantilever_truss(20)
    sol = pg_solution(build_ldr(center(assemble(model)))).solution
    specs = [spec for spec in force_map(model).to_secondary_specs()
             if spec.param_index is not None]
    assert len(specs) == 101
    built, init = itertools.count(), Interval.__init__

    def counted_init(obj, lo, hi):
        next(built)
        init(obj, lo, hi)

    monkeypatch.setattr(Interval, "__init__", counted_init)
    for spec in specs:
        bilinear_secondary(sol, spec)
    assert next(built) <= 2 * len(specs)


@pytest.mark.parametrize("param_index", [0, 1, 2])
def test_unbounded_form_is_not_refined(recwarn, param_index):
    # b^T U overflows, so v1 = [-inf, inf]: the refined bound is the naive
    # one, with no sign claim and no NaN
    sol = ParamSolution(x_check=np.array([1.0, 2.0]),
                        U=np.array([[1.5e308, 1.5e308, 1.0], [1.0, 1.0, 1.0]]),
                        param=np.array([0, 1, 2]),
                        sign=np.ones(3, dtype=int),
                        p_hat=np.array([1.0, 1.0, 0.5]),
                        p_check=np.array([0.5, 0.0, 1.0]))
    res = bilinear_secondary(sol, SecondarySpec(b=[1.0, 0.0],
                                                param_index=param_index))
    assert (res.naive.lo, res.naive.hi) == (-math.inf, math.inf)
    assert res.refined == res.naive
    assert (res.lower_sign, res.upper_sign) == (None, None)
    assert np.flatnonzero(sol.param == param_index).tolist() == [param_index]
    assert [str(w.message) for w in recwarn] == []


def test_bilinear_scale_applied():
    rep = pg_solution(build_ldr(center(example1_system())))
    spec1 = SecondarySpec.from_doc({"b": [1.0, 2.0], "param": 1, "scale": 1.0})
    spec3 = SecondarySpec.from_doc({"b": [1.0, 2.0], "param": 1, "scale": 3.0})
    r1 = bilinear_secondary(rep.solution, spec1)
    r3 = bilinear_secondary(rep.solution, spec3)
    assert r3.refined.lo == pytest.approx(3 * r1.refined.lo, rel=1e-12)
    assert r3.refined.hi == pytest.approx(3 * r1.refined.hi, rel=1e-12)


def test_secondary_spec_doc_roundtrip():
    spec = SecondarySpec.from_doc({"b": [1.0, -2.0], "param": 3, "scale": 0.5})
    assert np.array_equal(spec.b, [0.5, -1.0])
    back = SecondarySpec.from_doc(spec.to_doc())
    assert np.array_equal(back.b, spec.b)
    assert back.param_index == 3
    linear = SecondarySpec.from_doc({"b": [1, 2]})
    assert linear.param_index is None
    # no scale reads as 1
    assert np.array_equal(linear.b, [1.0, 2.0])


def test_one_form_per_secondary_quantity():
    # a spec holds b with its document's scale applied, a result its bounds
    # and signs, and a solution's kind follows from its l-columns
    assert [f.name for f in dataclasses.fields(SecondarySpec)] == [
        "b", "param_index"]
    assert [f.name for f in dataclasses.fields(SecondaryResult)] == [
        "naive", "refined", "lower_sign", "upper_sign"]
    assert "kind" not in [f.name for f in dataclasses.fields(ParamSolution)]
    c = center(example1_system())
    assert kolev_pl_solution(c).solution.kind == "pl"
    assert pg_solution(build_ldr(c)).solution.kind == "pg"
    b = [0.1, -0.7, 3.0, 1e-300, 1e300]
    for s in (1, 3, 0.1, -2.5, 1e-8):
        spec = SecondarySpec.from_doc({"b": b, "param": 1, "scale": s})
        assert spec.b.tobytes() == (float(s) * np.array(b)).tobytes()


def test_overestimation_positive_for_strict_subset():
    outer = IntervalVector([Interval(-2, 2)])
    inner = IntervalVector([Interval(-1, 1)])
    assert overestimation_percent(outer, inner)[0] == pytest.approx(50.0)
