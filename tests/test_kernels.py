"""The lo/hi array kernels against the scalar Interval reference, and the
auxiliary solve against the explicit auxiliary system, bit for bit."""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from paramint.intervals import (_SWEEP_BLOCK, IntervalVector,
                                affine_image_hull, mat_interval_product)
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
# columns reach past one block of the column sweep
shapes = st.tuples(st.integers(0, 5), st.integers(0, 2 * _SWEEP_BLOCK + 3))


def same_bits(a: IntervalVector, b: IntervalVector) -> bool:
    return a.lo.tobytes() == b.lo.tobytes() and a.hi.tobytes() == b.hi.tobytes()


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
@given(data=st.data(), shape=shapes)
def test_affine_image_hull_matches_scalar(data, shape):
    rows, cols = shape
    x0, U, box = data.draw(arrays(rows)), data.draw(arrays(rows, cols)), data.draw(boxes(cols))
    assert same_bits(affine_image_hull(x0, U, box), ref.affine_image_hull(x0, U, box))
    assert same_bits(mat_interval_product(U, box), ref.mat_interval_product(U, box))


@settings(deadline=None)
@given(data=st.data(), shape=shapes)
def test_affine_image_hull_diag_block_matches_scalar(data, shape):
    # the diagonal block is the scalar hull of the dense [U | diag(d)]
    rows, cols = shape
    x0, U, d = data.draw(arrays(rows)), data.draw(arrays(rows, cols)), data.draw(arrays(rows))
    box = data.draw(boxes(cols + rows))
    dense = np.hstack([U, np.diag(d)])
    assert same_bits(affine_image_hull(x0, U, box, d), ref.affine_image_hull(x0, dense, box))


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


def test_affine_image_hull_seeded_dense_matches_scalar():
    # row counts either side of the one-row scalar loop, column counts
    # either side of the sweep's block boundaries
    rng = np.random.default_rng(20101)
    B = _SWEEP_BLOCK
    for rows in (0, 1, 2, 3, 40):
        for cols in (0, 1, B - 1, B, B + 1, 3 * B + 5):
            for with_diag in (False, True):
                x0, U, box, d = dense_case(rng, rows, cols, with_diag)
                dense = U if d is None else np.hstack([U, np.diag(d)])
                assert same_bits(affine_image_hull(x0, U, box, d),
                                 ref.affine_image_hull(x0, dense, box)), (rows, cols, with_diag)


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
    the scalar hull of that solution."""
    rep = kolev_pl_solution(center(ref.aux_system(ldr)))
    s = rep.solution
    return rep, ref.affine_image_hull(s.x_check, s.generators(), s.q_box)


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
        assert same_bits(rep.hull, ref.affine_image_hull(s.x_check, s.generators(), s.q_box))

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
