"""Scalar `Interval` references for the lo/hi array kernels, the
explicit auxiliary system for the p,g solve, and the dense scatter
assembly of a truss.

The tests hold the library to these bit for bit: box differences and
|y - t| (`vector_sub`, `deviation_magnitudes`), the bilinear bounds given
the form value v1 from the library's hull kernel (`bilinear_secondary`),
the auxiliary system's y and regularity radius (`aux_system`) and the
assembled coefficients (`dense_scatter`).  The hull kernel itself has no
bit-for-bit reference: it must enclose the exact rational hull of
`oracles.exact_hull` within the bound its docstring states.
"""

import math

import numpy as np

from paramint.intervals import (Interval, IntervalVector, affine_image_hull,
                                next_down, next_up)
from paramint.secondary import (SecondaryResult, _form_extremum,
                                endpoint_sign_test)
from paramint.systems import make_system
from paramint.truss import _element_rows, _stiffness_split


def aux_system(ldr):
    """The s-dimensional auxiliary system of an LDR form, built as a dense
    (K+1) x s x s parametric system:
    (I - RCL D_g) y = R x_check - RCF p'' - RCL D_g t  over the same box,
    with C = A0^-1 and x_check = C a0."""
    s, K, f = ldr.s, ldr.K, ldr.factors
    C = np.linalg.inv(ldr.A0)
    RCL = f.R @ (C @ f.L)
    RCF = f.R @ (C @ ldr.F)
    A = np.zeros((K + 1, s, s))
    a = np.zeros((K + 1, s))
    A[0] = np.eye(s)
    a[0] = f.R @ (C @ ldr.a0)
    for k, blk in enumerate(f.blocks):
        A[k + 1][:, blk] = -RCL[:, blk]
        a[k + 1] = -RCL[:, blk] @ ldr.t[blk]
    a[1:][np.asarray(f.sizes) == 0] = -RCF.T
    return make_system(A, a, ldr.box)


def dense_scatter(model):
    """The stacks (A, a) of truss.assemble, each element stiffness
    scattered into a dense (K+1) x n x n array."""
    dof = model.dof_map()
    n = model.n_free
    P = len(model.params)
    A = np.zeros((P + 1, n, n))
    a = np.zeros((P + 1, n))
    for e in model.elements:
        crisp, pidx, pcoef = _stiffness_split(model, e)
        entries = _element_rows(model, e, dof)
        for (i, di) in entries:
            for (j, dj) in entries:
                if crisp:
                    A[0][i, j] += crisp * di * dj
                if pidx is not None:
                    A[pidx + 1][i, j] += pcoef * di * dj
    for t in model.loads:
        idx = dof[t.node, t.axis]
        a[0][idx] += t.const
        for name, coeff in t.terms:
            a[model.param_index(name) + 1][idx] += coeff
    return A, a


def interval_sub(x, y):
    """x - y for scalar intervals, each endpoint rounded outward."""
    return Interval(next_down(x.lo - y.hi), next_up(x.hi - y.lo))


def vector_sub(a, b):
    if not isinstance(b, IntervalVector):
        b = [Interval.point(float(s)) for s in b]
    return IntervalVector([interval_sub(x, y) for x, y in zip(a, b)])


def deviation_magnitudes(y, t):
    """|y_i - t_i| per component, as the p,g solve scales its g-columns."""
    return np.array([interval_sub(y[i], Interval.point(t[i])).mag
                     for i in range(len(y))])


def bilinear_secondary(sol, spec):
    """secondary.bilinear_secondary for a valid spec, with the form value
    v1 from the library's hull kernel and a scalar loop for the swing of
    the other columns (each product rounded up, summed by `math.fsum`,
    rounded up)."""
    i = spec.param_index
    cols = sol.columns_for(i)
    b = spec.scale * spec.b
    bu0 = float(b @ sol.x_check)
    d = b @ sol.U
    box = sol.q_box
    p_chk = float(sol.p_check[i])
    p_hat = float(sol.p_hat[i])
    p_full = Interval.point(p_chk) + Interval.symmetric(p_hat)

    v1 = affine_image_hull([bu0], d[None, :], box)[0]
    naive = p_full * v1
    if len(cols) != 1:
        return SecondaryResult(naive, naive, None, None, independent_copies=True)

    col = cols[0]
    di = float(d[col])
    test = endpoint_sign_test(v1, p_full * di)
    terms = [next_up(abs(d[j]) * float(box.rad[j]))
             for j in range(len(box)) if j != col and d[j] != 0.0]
    swing = next_up(math.fsum(terms))
    v_lo = naive.lo if test.lower is None else \
        _form_extremum(p_chk, p_hat, bu0, di, swing, want_max=False)
    v_hi = naive.hi if test.upper is None else \
        _form_extremum(p_chk, p_hat, bu0, di, swing, want_max=True)
    refined = Interval(max(v_lo, naive.lo), min(v_hi, naive.hi))
    return SecondaryResult(naive, refined, test.lower, test.upper)
