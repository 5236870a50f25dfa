"""The lo/hi array kernels against the scalar Interval reference, bit for bit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from paramint.intervals import (IntervalMatrix, IntervalVector,
                                affine_image_hull, interval_mat_product,
                                mat_interval_product)
from paramint.secondary import bilinear_secondary
from paramint.solvers import kolev_pl_solution, pg_solution
from paramint.systems import build_ldr, center
from paramint.truss import assemble, cantilever_truss, force_map

# exact zeros are drawn often: zero coefficients are skipped, zero
# endpoints exercise the sign-of-zero corners of the outward rounding
values = st.one_of(st.just(0.0), st.just(-0.0),
                   st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False))
shapes = st.tuples(st.integers(0, 5), st.integers(0, 6))


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
def test_interval_mat_product_matches_scalar(data, shape):
    rows, cols = shape
    a, b = data.draw(arrays(rows, cols)), data.draw(arrays(rows, cols))
    M = IntervalMatrix(lo=np.minimum(a, b), hi=np.maximum(a, b))
    v = data.draw(boxes(cols))
    assert same_bits(interval_mat_product(M, v), ref.interval_mat_product(M, v))


@settings(deadline=None)
@given(data=st.data(), n=st.integers(0, 6))
def test_vector_add_sub_match_scalar(data, n):
    a, b, t = data.draw(boxes(n)), data.draw(boxes(n)), data.draw(arrays(n))
    assert same_bits(a + b, ref.vector_add(a, b))
    assert same_bits(a - b, ref.vector_sub(a, b))
    assert same_bits(a + t, ref.vector_add(a, t))
    assert same_bits(a - t, ref.vector_sub(a, t))
    assert (a - t).mag.tobytes() == ref.deviation_magnitudes(a, t).tobytes()


def test_cantilever_results_match_scalar_reference():
    model = cantilever_truss(5)
    c = center(assemble(model))
    ldr = build_ldr(c)
    pg, pl = pg_solution(ldr), kolev_pl_solution(c)

    # the public p,l solve of the auxiliary system works out its own Delta
    # and rho; the p,g solve hands over its own, and y must not change
    aux = []

    def scalar_aux_solve(aux_system):
        rep = kolev_pl_solution(center(aux_system))
        aux.append(rep)
        s = rep.solution
        return ref.affine_image_hull(s.x_check, s.U, s.q_box)

    pg_ref = pg_solution(ldr, y_solver=scalar_aux_solve)
    assert aux[0].regularity_radius == pg.regularity_radius
    assert same_bits(pg.y_enclosure, pg_ref.y_enclosure)
    # each g-column is C L_i scaled by the outward-rounded |y_i - t_i|
    CL = np.linalg.inv(ldr.A0) @ ldr.L
    dev = ref.deviation_magnitudes(pg_ref.y_enclosure, ldr.t)
    for j, lab in enumerate(pg.solution.labels):
        if lab.index in ldr.pi_prime:
            i = ldr.block(lab.index)[lab.copy]
            assert pg.solution.U[:, j].tobytes() == (CL[:, i] * dev[i]).tobytes()
    for rep in (pg, pl):
        s = rep.solution
        assert same_bits(rep.hull, ref.affine_image_hull(s.x_check, s.U, s.q_box))

    specs = [sp for sp in force_map(model).to_secondary_specs()
             if sp.param_index is not None]
    assert specs
    for spec in specs:
        got = bilinear_secondary(pg.solution, spec)
        want = ref.bilinear_secondary(pg.solution, spec)
        assert got == want
        for a, b in ((got.naive, want.naive), (got.refined, want.refined)):
            assert np.array([a.lo, a.hi]).tobytes() == np.array([b.lo, b.hi]).tobytes()
