"""Scalar `Interval` references for the lo/hi array kernels, and the
explicit auxiliary system for the p,g solve.

Each kernel reference is the per-element loop over `Interval` objects that
the array kernels replace.  The tests hold the library to these bit for
bit, so they must stay plain scalar loops.
"""

import numpy as np

from paramint.intervals import Interval, IntervalVector
from paramint.secondary import (SecondaryResult, _form_extremum,
                                endpoint_sign_test)
from paramint.systems import ParamLinearSystem


def aux_system(ldr):
    """The s-dimensional auxiliary system of an LDR form, built as a dense
    (K+1) x s x s parametric system:
    (I - RCL D_g) y = R x_check - RCF p'' - RCL D_g t  over the same box,
    with C = A0^-1 and x_check = C a0."""
    s, K = ldr.s, ldr.K
    C = np.linalg.inv(ldr.A0)
    RCL = ldr.R @ (C @ ldr.L)
    RCF = ldr.R @ (C @ ldr.F)
    A = np.zeros((K + 1, s, s))
    a = np.zeros((K + 1, s))
    A[0] = np.eye(s)
    a[0] = ldr.R @ (C @ ldr.a0)
    for k in ldr.pi_prime:
        blk = ldr.block(k)
        for i in blk:
            A[k + 1][:, i] = -RCL[:, i]
        a[k + 1] = -RCL[:, blk] @ ldr.t[blk]
    for pos, k in enumerate(ldr.pi_double_prime):
        a[k + 1] = -RCF[:, pos]
    return ParamLinearSystem(A, a, ldr.box)


def affine_image_hull(x0, U, box):
    rows = []
    for i in range(U.shape[0]):
        acc = Interval(float(x0[i]), float(x0[i]))
        for j in range(U.shape[1]):
            if U[i, j] != 0.0:
                acc = acc + U[i, j] * box[j]
        rows.append(acc)
    return IntervalVector(rows)


def mat_interval_product(M, v):
    return affine_image_hull(np.zeros(M.shape[0]), M, v)


def interval_mat_product(M, v):
    rows = []
    for i in range(M.shape[0]):
        acc = Interval(0.0, 0.0)
        for j in range(M.shape[1]):
            acc = acc + M[i, j] * v[j]
        rows.append(acc)
    return IntervalVector(rows)


def vector_add(a, b):
    if isinstance(b, IntervalVector):
        return IntervalVector([x + y for x, y in zip(a, b)])
    return IntervalVector([x + float(s) for x, s in zip(a, b)])


def vector_sub(a, b):
    if isinstance(b, IntervalVector):
        return IntervalVector([x - y for x, y in zip(a, b)])
    return IntervalVector([x - float(s) for x, s in zip(a, b)])


def deviation_magnitudes(y, t):
    """|y_i - t_i| per component, as the p,g solve scales its g-columns."""
    return np.array([abs(y[i] - t[i]).hi for i in range(len(y))])


def bilinear_secondary(sol, spec):
    """secondary.bilinear_secondary for a valid spec, with scalar loops
    for the form value v1 and the swing of the other columns."""
    i = spec.param_index
    cols = sol.columns_for(i)
    b = spec.scale * spec.b
    bu0 = float(b @ sol.x_check)
    d = b @ sol.U
    box = sol.q_box
    p_chk = float(sol.p_check[i])
    p_hat = float(box.rad[cols[0]])
    p_full = Interval(p_chk - p_hat, p_chk + p_hat)

    v1 = Interval(bu0, bu0)
    for j in range(len(box)):
        if d[j] != 0.0:
            v1 = v1 + d[j] * box[j]
    naive = p_full * v1
    if not (len(cols) == 1 and sol.labels[cols[0]].kind == "p"):
        return SecondaryResult(naive, naive, None, None, independent_copies=True)

    col = cols[0]
    di = float(d[col])
    test = endpoint_sign_test(v1, p_full * di)
    swing = 0.0
    for j in range(len(box)):
        if j != col and d[j] != 0.0:
            swing += abs(d[j]) * float(box.rad[j])
    v_lo = naive.lo if test.lower is None else \
        _form_extremum(p_chk, p_hat, bu0, di, swing, want_max=False)
    v_hi = naive.hi if test.upper is None else \
        _form_extremum(p_chk, p_hat, bu0, di, swing, want_max=True)
    refined = Interval(max(v_lo, naive.lo), min(v_hi, naive.hi))
    return SecondaryResult(naive, refined, test.lower, test.upper)
