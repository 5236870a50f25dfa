"""The lo/hi array kernels against their references.  The hull of a
point matrix times a box must enclose the exact rational hull and exceed
it by at most the bound in `affine_image_hull`'s docstring; box
differences match the scalar Interval loop, and the auxiliary solve the
explicit auxiliary system, bit for bit."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from oracles import exact_hull
from paramint import intervals
from paramint.intervals import IntervalVector, affine_image_hull, mat_interval_product
from paramint.problems import example1_system, example2_system, example3_system
from paramint.secondary import bilinear_secondary
from paramint.solvers import (kolev_pl_solution, pg_solution,
                              rank_one_enclosure, spectral_radius)
from paramint.systems import build_ldr, center, make_system
from paramint.truss import assemble, cantilever_truss, force_map, six_bar_truss

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


@st.composite
def arrays(draw, *shape):
    size = int(np.prod(shape))
    return np.array(draw(st.lists(values, min_size=size, max_size=size)),
                    dtype=float).reshape(shape)


@st.composite
def boxes(draw, m):
    a, b = draw(arrays(m)), draw(arrays(m))
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
    CL = np.linalg.inv(ldr.A0) @ ldr.factors.L
    dev = ref.deviation_magnitudes(pg.y_enclosure, ldr.t)
    for j, lab in enumerate(pg.solution.labels):
        if ldr.factors.sizes[lab.index]:
            i = ldr.factors.blocks[lab.index].start + lab.copy
            assert pg.solution.U[:, j].tobytes() == (CL[:, i] * dev[i]).tobytes()
    for rep in (pg, pl):
        s = rep.solution
        assert_tight_hull(rep.hull, s.x_check, s.U, s.q_box, s.l_hat if s.l_hat.size else None)

    specs = [sp for sp in force_map(model).to_secondary_specs()
             if sp.param_index is not None]
    assert specs
    for spec in specs:
        got = bilinear_secondary(pg.solution, spec)
        want = ref.bilinear_secondary(pg.solution, spec)
        assert got == want
        for a, b in ((got.naive, want.naive), (got.refined, want.refined)):
            assert np.array([a.lo, a.hi]).tobytes() == np.array([b.lo, b.hi]).tobytes()


def multi_column_family(rng, n=6):
    """Two rank-two matrix parameters (one with a right-hand side outside
    the range of its coefficient, so its block is augmented), one rank-one
    and one right-hand-side-only parameter; radii put the p,g regularity
    radius at 0.4."""
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
    RCL = unit.factors.R @ np.linalg.solve(unit.A0, unit.factors.L)
    rad = 0.4 / spectral_radius(np.abs(RCL))
    return make_system(A, a, IntervalVector.from_bounds(mid - rad, mid + rad))


def test_multi_column_blocks_match_explicit_aux_system(rng):
    # on blocks of two or three g-columns the explicit system sums A_k y
    # over all s columns, so y may move in the last ulps
    for _ in range(8):
        ldr = build_ldr(center(multi_column_family(rng)))
        assert any(ldr.g_augmented)
        assert max(ldr.factors.sizes) == 3
        _, y_ref = explicit_aux_y(ldr)
        rep = pg_solution(ldr)
        y = rep.y_enclosure
        scale = np.max(np.abs(np.concatenate([y_ref.lo, y_ref.hi])))
        assert np.max(np.abs(y.lo - y_ref.lo)) <= 1e-14 * scale
        assert np.max(np.abs(y.hi - y_ref.hi)) <= 1e-14 * scale
        _, hull = rank_one_enclosure(ldr)
        assert same_bits(rep.hull, hull)
