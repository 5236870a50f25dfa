"""The lo/hi array kernels against their references.  The hull of a
point matrix times a box must enclose the exact rational hull and exceed
it by at most the bound in `affine_image_hull`'s docstring; box sums,
differences and products, bilinear bounds and direct force bounds match
the scalar `Interval` loops of `scalar_reference`, and the auxiliary solve
the explicit auxiliary system, bit for bit."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from conftest import random_rank_one_system
from oracles import exact_hull, solve_at
from paramint import intervals
from paramint.intervals import IntervalVector, affine_image_hull, mat_interval_product
from paramint.problems import example1_system, example2_system, example3_system
from paramint.secondary import bilinear_secondary
from paramint.solvers import (kolev_pl_solution, pg_solution,
                              rank_one_enclosure, rohn_inverse,
                              spectral_radius)
from paramint.systems import (CenteredSystem, LdrSystem, build_ldr, center,
                              make_system)
from paramint.truss import (assemble, cantilever_truss, force_map,
                            six_bar_reference_force_map, six_bar_truss)

# exact zeros are drawn often: zero coefficients are skipped, zero
# endpoints exercise the sign-of-zero corners of the outward rounding
values = st.one_of(st.just(0.0), st.just(-0.0),
                   st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False))
shapes = st.tuples(st.integers(0, 5), st.integers(0, 35))
# entries of U per product block: one row per block, a few, or the default
blocks = st.sampled_from([1, 4, 16, intervals._BLOCK])

U_ROUND = Fraction(1, 2 ** 53)
ETA = Fraction(1, 2 ** 1074)


def same_bits(a: IntervalVector, b: IntervalVector) -> bool:
    return a.lo.tobytes() == b.lo.tobytes() and a.hi.tobytes() == b.hi.tobytes()


def excess_bound(x0, U, box, diag=None) -> list:
    """Per row, the weight w = |x0_i| + sum_j |a_ij| mag(q_j) over the
    row's generators a_ij, and the docstring's bound on how far each side
    of the hull may lie outside the exact one:
    4(n + 6) u w + 8(n + 1 + sum_j |a_ij|) eta."""
    k = U.shape[1]
    terms = k + (diag is not None)
    bounds = []
    for i in range(len(x0)):
        gens = [(j, Fraction(float(U[i, j]))) for j in range(k) if U[i, j] != 0.0]
        if diag is not None and diag[i] != 0.0:
            gens.append((k + i, Fraction(float(diag[i]))))
        size = sum(abs(a) for _, a in gens)
        weight = abs(Fraction(float(x0[i]))) + sum(
            abs(a) * max(abs(Fraction(float(box.lo[j]))), abs(Fraction(float(box.hi[j]))))
            for j, a in gens)
        bounds.append((weight, 4 * (terms + 6) * U_ROUND * weight
                       + 8 * (terms + 1 + size) * ETA))
    return bounds


def assert_tight_hull(got, x0, U, box, diag=None):
    """`got` encloses the exact hull, exceeds it by at most the kernel's
    bound, and is x0 itself, bit for bit, on a row with no nonzero
    generator."""
    x0, U = np.asarray(x0, dtype=float), np.asarray(U, dtype=float)
    for i, ((a, b), (_, e)) in enumerate(zip(exact_hull(x0, U, box, diag),
                                             excess_bound(x0, U, box, diag))):
        lo, hi = Fraction(float(got.lo[i])), Fraction(float(got.hi[i]))
        assert a - e <= lo <= a and b <= hi <= b + e, i
    zero = ~U.any(axis=1)
    if diag is not None:
        zero &= np.asarray(diag) == 0.0
    assert got.lo[zero].tobytes() == x0[zero].tobytes()
    assert got.hi[zero].tobytes() == x0[zero].tobytes()


# finite endpoints at the edges of the float range: signed zeros,
# subnormals and magnitudes whose sums and products overflow
TOP = float(np.finfo(float).max)
wide_values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308,
                     1e308, -1e308, TOP, -TOP]),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def arrays(draw, *shape, elements=values):
    size = int(np.prod(shape))
    return np.array(draw(st.lists(elements, min_size=size, max_size=size)),
                    dtype=float).reshape(shape)


@st.composite
def boxes(draw, m, elements=values):
    a, b = draw(arrays(m, elements=elements)), draw(arrays(m, elements=elements))
    return IntervalVector(lo=np.minimum(a, b), hi=np.maximum(a, b))


@settings(deadline=None)
@given(data=st.data(), shape=shapes, block=blocks)
def test_affine_image_hull_matches_scalar(data, shape, block):
    rows, cols = shape
    x0, U, box = data.draw(arrays(rows)), data.draw(arrays(rows, cols)), data.draw(boxes(cols))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intervals, "_BLOCK", block)
        assert_tight_hull(affine_image_hull(x0, U, box), x0, U, box)
        assert_tight_hull(mat_interval_product(U, box), np.zeros(rows), U, box)


@settings(deadline=None)
@given(data=st.data(), shape=shapes, block=blocks)
def test_affine_image_hull_diag_block_matches_scalar(data, shape, block):
    rows, cols = shape
    x0, U, d = data.draw(arrays(rows)), data.draw(arrays(rows, cols)), data.draw(arrays(rows))
    box = data.draw(boxes(cols + rows))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intervals, "_BLOCK", block)
        assert_tight_hull(affine_image_hull(x0, U, box, d), x0, U, box, d)


def dense_case(rng, rows, cols, with_diag):
    """x0, U, box and diagonal with the kernel's corner cases: a zero
    column and a zero row, -0.0 entries, zero radii, boxes off centre,
    magnitudes over many decades and zeros on the diagonal."""
    U = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-30, 30, (rows, cols))
    U[rng.random((rows, cols)) < 0.1] = 0.0
    U[rng.random((rows, cols)) < 0.1] = -0.0
    if rows and cols:
        U[:, rng.integers(cols)] = 0.0
        U[rng.integers(rows)] = 0.0
    x0 = rng.normal(size=rows)
    x0[rng.random(rows) < 0.2] = -0.0
    m = cols + rows * with_diag
    lo = rng.normal(size=m)
    hi = lo + rng.exponential(size=m) * (rng.random(m) > 0.2)
    diag = None
    if with_diag:
        diag = rng.normal(size=rows)
        diag[rng.random(rows) < 0.3] = 0.0
    return x0, U, IntervalVector.from_bounds(lo, hi), diag


def test_affine_image_hull_seeded_dense_matches_scalar(monkeypatch):
    # one row, a few rows and many; with blocks of 5 entries of U, column
    # counts either side of a block, and the default block
    rng = np.random.default_rng(20101)
    for block in (5, intervals._BLOCK):
        monkeypatch.setattr(intervals, "_BLOCK", block)
        for rows in (0, 1, 2, 3, 40):
            for cols in (0, 1, 4, 5, 6, 17):
                for with_diag in (False, True):
                    x0, U, box, d = dense_case(rng, rows, cols, with_diag)
                    assert_tight_hull(affine_image_hull(x0, U, box, d), x0, U, box, d)


def test_affine_image_hull_encloses_in_any_summation_order():
    # BLAS sums a product in an order that depends on the layout of U and
    # on its thread count; the bound holds for every order, so permuted
    # columns and a Fortran-ordered copy still give a tight enclosure
    rng = np.random.default_rng(20102)
    for rows, cols, with_diag in ((1, 241, False), (40, 120, True), (120, 60, False)):
        x0, U, box, d = dense_case(rng, rows, cols, with_diag)
        perm = rng.permutation(cols)
        tail = np.arange(cols, len(box))
        order = np.concatenate([perm, tail])
        pbox = IntervalVector.from_bounds(box.lo[order], box.hi[order])
        for args in ((x0, U, box, d), (x0, U[:, perm], pbox, d),
                     (x0, np.asfortranarray(U), box, d)):
            assert_tight_hull(affine_image_hull(*args), *args)


EDGE_VALUES = np.array([0.0, -0.0, 1.0, -2.5, 3e-5, 1e308, -1e308, math.inf, -math.inf,
                        5e-324, -5e-324, 1e-310, -2.2e-308])


def test_affine_image_hull_edge_entries():
    # +-1e308, +-inf and subnormal entries in x0, U, the diagonal and the
    # box: no endpoint is NaN and no floating-point warning escapes.  A row
    # of finite data encloses the exact hull and is infinite on a side
    # whose exact bound overflows; with a weight below a quarter of the
    # largest float nothing overflows, so it is within the excess bound
    # (an infinite box entry under a zero generator adds no 0 * inf)
    rng = np.random.default_rng(20103)
    top = Fraction(np.finfo(float).max)
    for case in range(200):
        rows, cols, with_diag = rng.integers(1, 5), rng.integers(0, 6), case % 2 == 1
        m = cols + rows * with_diag
        x0, U = rng.choice(EDGE_VALUES, rows), rng.choice(EDGE_VALUES, (rows, cols))
        d = rng.choice(EDGE_VALUES, rows) if with_diag else None
        ends = np.sort(rng.choice(EDGE_VALUES, (m, 2)), axis=1)
        box = IntervalVector.from_bounds(ends[:, 0], ends[:, 1])
        got = affine_image_hull(x0, U, box, d)
        assert not np.isnan(got.lo).any() and not np.isnan(got.hi).any()
        gens = U if d is None else np.hstack([U, np.diag(d)])
        for i in range(rows):
            used = gens[i] != 0.0
            if not (np.isfinite(x0[i]) and np.isfinite(gens[i]).all()
                    and np.isfinite(ends[used]).all()):
                continue
            (a, b), = exact_hull(x0[i:i + 1], gens[i:i + 1], box)
            assert got.lo[i] <= a and b <= got.hi[i], (case, i)
            own = np.r_[0:cols, cols + i] if with_diag else np.arange(cols)
            (weight, e), = excess_bound(
                x0[i:i + 1], U[i:i + 1], IntervalVector.from_bounds(*ends[own].T),
                None if d is None else d[i:i + 1])
            if weight < top / 4:
                assert np.isfinite(got.lo[i]) and np.isfinite(got.hi[i]), (case, i)
                assert a - e <= Fraction(float(got.lo[i])), (case, i)
                assert Fraction(float(got.hi[i])) <= b + e, (case, i)
            if b > top:
                assert got.hi[i] == math.inf, (case, i)
            if a < -top:
                assert got.lo[i] == -math.inf, (case, i)


def test_affine_image_hull_peak_memory():
    # the hull of a point matrix times a box needs only one row's two
    # endpoint products at a time, rounded out in place
    rng = np.random.default_rng(3)
    U = rng.normal(size=(400, 800))
    box = IntervalVector.symmetric(rng.uniform(0.1, 1.0, 800))
    tracemalloc.start()
    try:
        affine_image_hull(np.zeros(400), U, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * U.nbytes


@settings(deadline=None)
@given(data=st.data(), n=st.integers(0, 6))
def test_vector_sub_matches_scalar(data, n):
    a, b, t = data.draw(boxes(n)), data.draw(boxes(n)), data.draw(arrays(n))
    assert same_bits(a - b, ref.vector_sub(a, b))
    assert same_bits(a - t, ref.vector_sub(a, t))
    assert (a - t).mag.tobytes() == ref.deviation_magnitudes(a, t).tobytes()


@settings(deadline=None, max_examples=300)
@given(data=st.data(), n=st.integers(0, 6))
def test_vector_add_mul_match_scalar(data, n):
    a, b = data.draw(boxes(n, wide_values)), data.draw(boxes(n, wide_values))
    t = data.draw(arrays(n, elements=wide_values))
    points = [ref.point(v) for v in t]
    for got, op, other in ((a + b, ref.interval_add, b), (a * b, ref.interval_mul, b),
                           (a + t, ref.interval_add, points),
                           (a * t, ref.interval_mul, points)):
        assert same_bits(got, IntervalVector([op(x, y) for x, y in zip(a, other)]))


def explicit_aux_y(ldr):
    """y through the explicit auxiliary system: its public p,l solve and
    the hull of that solution, both by the library."""
    rep = kolev_pl_solution(center(ref.aux_system(ldr)))
    return rep, rep.hull


def test_cantilever_results_match_scalar_reference():
    # solved from its terms, the auxiliary system gives the explicit
    # system's y and regularity radius bit for bit
    for build in (lambda: assemble(cantilever_truss(5)), example1_system,
                  example2_system, example3_system,
                  lambda: assemble(six_bar_truss())):
        ldr = build_ldr(center(build()))
        aux, y_ref = explicit_aux_y(ldr)
        pg = pg_solution(ldr)
        assert aux.regularity_radius == pg.regularity_radius
        assert same_bits(pg.y_enclosure, y_ref)

    model = cantilever_truss(5)
    c = center(assemble(model))
    ldr = build_ldr(c)
    pg, pl = pg_solution(ldr), kolev_pl_solution(c)
    # each g-column is C L_i scaled by the outward-rounded |y_i - t_i|
    CL = np.linalg.inv(ldr.system.A0) @ ldr.system.factors.L
    dev = ref.deviation_magnitudes(pg.y_enclosure, ldr.t)
    # the g-columns of U are the columns of L, in order
    g_cols = np.flatnonzero(np.asarray(ldr.system.factors.sizes)[pg.solution.param] > 0)
    assert len(g_cols) == ldr.s
    for i, j in enumerate(g_cols):
        assert pg.solution.U[:, j].tobytes() == (CL[:, i] * dev[i]).tobytes()
    for rep in (pg, pl):
        s = rep.solution
        assert_tight_hull(rep.hull, s.x_check, s.U, s.q_box, s.l_hat if s.l_hat.size else None)


@pytest.mark.parametrize("floors", [5, 20, 40, None])
def test_bilinear_secondary_matches_scalar_reference(floors):
    # every force row of the towers, and the six-bar's rows of both its
    # force maps: results, signs and endpoint bits
    model = six_bar_truss() if floors is None else cantilever_truss(floors)
    maps = [force_map(model)] + ([six_bar_reference_force_map()] if floors is None else [])
    sol = pg_solution(build_ldr(center(assemble(model)))).solution
    specs = [sp for rec in maps for sp in rec.to_secondary_specs()
             if sp.param_index is not None]
    assert len(specs) == {5: 26, 20: 101, 40: 201, None: 4}[floors]
    for spec in specs:
        got = bilinear_secondary(sol, spec)
        want = ref.bilinear_secondary(sol, spec)
        assert got == want
        for a, b in ((got.naive, want.naive), (got.refined, want.refined)):
            assert np.array([a.lo, a.hi]).tobytes() == np.array([b.lo, b.hi]).tobytes()


def test_direct_bounds_match_scalar_reference():
    # direct force bounds from the six-bar's p,l and p,g hulls
    sysm = assemble(six_bar_truss())
    c = center(sysm)
    hulls = (kolev_pl_solution(c).hull, pg_solution(build_ldr(c)).hull)
    for rec in (force_map(six_bar_truss()), six_bar_reference_force_map()):
        assert any(k is None for k in rec.multiplier_param)
        assert any(k is not None for k in rec.multiplier_param)
        for hull in hulls:
            assert same_bits(rec.direct_bounds(hull, sysm.box),
                             ref.direct_bounds(rec, hull, sysm.box))


def multi_column_family(rng, n=6):
    """Two rank-two matrix parameters (one with a right-hand side outside
    the range of its coefficient, so that right-hand side is a column of
    F), one rank-one and one right-hand-side-only parameter; radii put the
    p,g regularity radius at 0.4."""
    A = np.zeros((5, n, n))
    a = np.zeros((5, n))
    A[0] = n * np.eye(n) + rng.uniform(-1.0, 1.0, (n, n))
    a[0] = rng.uniform(-2.0, 2.0, n)
    for k, rank in enumerate((2, 2, 1)):
        A[k + 1] = rng.uniform(-1.0, 1.0, (n, rank)) @ rng.uniform(-1.0, 1.0, (rank, n))
        a[k + 1] = A[k + 1] @ rng.uniform(-1.0, 1.0, n)
    a[1] = rng.uniform(-1.0, 1.0, n)
    a[4] = rng.uniform(-1.0, 1.0, n)
    mid = rng.uniform(-1.0, 1.0, 4)
    unit = build_ldr(center(make_system(A, a, IntervalVector.from_bounds(mid - 1.0, mid + 1.0))))
    RCL = unit.system.factors.R @ np.linalg.solve(unit.system.A0, unit.system.factors.L)
    rad = 0.4 / spectral_radius(np.abs(RCL))
    return make_system(A, a, IntervalVector.from_bounds(mid - rad, mid + rad))


def test_multi_column_blocks_match_explicit_aux_system(rng):
    # on blocks of two g-columns the explicit system sums A_k y over all s
    # columns, so y may move in the last ulps; parameter 0's right-hand
    # side is an F column beside its two g-columns
    for _ in range(8):
        ldr = build_ldr(center(multi_column_family(rng)))
        assert ldr.system.factors.sizes == (2, 2, 1, 0)
        assert ldr.F_param.tolist() == [0, 3]
        _, y_ref = explicit_aux_y(ldr)
        rep = pg_solution(ldr)
        y = rep.y_enclosure
        scale = np.max(np.abs(np.concatenate([y_ref.lo, y_ref.hi])))
        assert np.max(np.abs(y.lo - y_ref.lo)) <= 1e-14 * scale
        assert np.max(np.abs(y.hi - y_ref.hi)) <= 1e-14 * scale
        _, hull = rank_one_enclosure(ldr)
        assert same_bits(rep.hull, hull)


def test_out_of_range_rhs_is_an_f_column(rng, monkeypatch):
    # a right-hand side a_k outside range(L_k) adds no g-column: it is the
    # F column of parameter k, beside the system's own factors, and the
    # auxiliary Delta keeps no dummy zero row
    import paramint.solvers as solvers
    deltas = []

    def recorded(delta, family="inverse"):
        deltas.append(np.array(delta))
        return rohn_inverse(delta, family)

    monkeypatch.setattr(solvers, "rohn_inverse", recorded)
    families = [random_rank_one_system(rng, n=4, K=3, rhs_params=r, loose_rhs=True)
                for r in (0, 1, 2)] + [multi_column_family(rng) for _ in range(3)]
    for sys in families:
        c = center(sys)
        ldr = build_ldr(c)
        f = c.system.factors
        assert ldr.system.factors is f
        assert ldr.s == sum(f.sizes)
        for k, blk in enumerate(f.blocks):
            ak = c.system.a[k + 1]
            outside = np.linalg.matrix_rank(np.column_stack([f.L[:, blk], ak])) > f.sizes[k]
            assert (k in ldr.F_param) == outside
            if outside:
                j = ldr.F_param.tolist().index(k)
                assert ldr.F[:, j].tobytes() == ak.tobytes()
                assert not ldr.t[blk].any()
        assert any(f.sizes[k] for k in ldr.F_param)

        deltas.clear()
        rep = pg_solution(ldr)
        assert len(deltas) == 1
        assert np.all(np.any(deltas[0] != 0.0, axis=1))

        for _ in range(50):
            x = solve_at(c.system, rng.uniform(c.system.box.lo, c.system.box.hi))
            assert np.all(rep.hull.lo <= x) and np.all(x <= rep.hull.hi)

        # the hull of x_check - CF p'' + CL D_|y-t| g, y from the explicit
        # auxiliary system
        _, y_ref = explicit_aux_y(ldr)
        C = np.linalg.inv(ldr.system.A0)
        gens = np.hstack([(C @ f.L) * (y_ref - ldr.t).mag, C @ ldr.F])
        radii = np.concatenate([np.repeat(ldr.system.box.rad, f.sizes),
                                ldr.system.box.rad[ldr.F_param]])
        hull_ref = affine_image_hull(C @ ldr.system.a[0], gens,
                                     IntervalVector.symmetric(radii))
        scale = np.max(np.abs(np.concatenate([hull_ref.lo, hull_ref.hi])))
        assert np.max(np.abs(rep.hull.lo - hull_ref.lo)) <= 1e-14 * scale
        assert np.max(np.abs(rep.hull.hi - hull_ref.hi)) <= 1e-14 * scale


def test_ldr_form_is_the_centered_system_plus_its_t_fit(rng):
    # the LDR form keeps the centered system itself beside its t-fit and
    # F_param; F is read from a, and a p,l solve of the LDR form is the
    # p,l solve of that system, bit for bit
    assert issubclass(LdrSystem, CenteredSystem)
    assert [fl.name for fl in dataclasses.fields(LdrSystem)] == [
        "system", "p_check", "t", "F_param"]
    families = [example1_system(), example2_system(), example3_system(),
                assemble(six_bar_truss()), assemble(cantilever_truss(5))]
    families += [multi_column_family(rng) for _ in range(3)]
    families += [random_rank_one_system(rng, n=4, K=3, rhs_params=r, loose_rhs=True)
                 for r in (0, 1, 2)]
    for sys in families:
        c = center(sys)
        ldr = build_ldr(c)
        assert ldr.system is c.system
        assert ldr.p_check is c.p_check
        F = ldr.F
        assert F.flags.c_contiguous
        assert F.shape == (c.system.n, len(ldr.F_param))
        assert F.tobytes() == c.system.a[1:][ldr.F_param].T.tobytes()
        pl, ref = kolev_pl_solution(ldr), kolev_pl_solution(c)
        assert same_bits(pl.hull, ref.hull)
        assert pl.solution.U.tobytes() == ref.solution.U.tobytes()
        assert pl.solution.l_hat.tobytes() == ref.solution.l_hat.tobytes()
        assert pl.regularity_radius == ref.regularity_radius
