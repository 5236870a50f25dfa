"""Scalar interval arithmetic, written here one `Interval` at a time, as
the reference for the library's lo/hi array kernels; the explicit
auxiliary system for the p,g solve; and the dense scatter assembly of a
truss.

The scalar layer is the sum, difference, product and sign of two
intervals, each endpoint rounded one ulp outward (`interval_add`,
`interval_sub`, `interval_mul`, `sign`).  The tests hold the library to
these bit for bit: box sums, differences and products and |y - t|
(`vector_sub`, `deviation_magnitudes`), the bilinear bounds given the
form value v1 from the library's hull kernel (`bilinear_secondary`, with
its own `endpoint_sign_test` and `form_extremum`), direct force bounds
(`direct_bounds`), the auxiliary system's y and regularity radius
(`aux_system`) and the assembled coefficients (`dense_scatter`).  The
hull kernel itself has no bit-for-bit reference: it must enclose the
exact rational hull of `oracles.exact_hull` within the bound its
docstring states.
"""

import math

import numpy as np

from paramint.intervals import (Interval, IntervalVector, affine_image_hull,
                                mat_interval_product)
from paramint.secondary import SecondaryResult
from paramint.systems import make_system


def aux_system(ldr):
    """The s-dimensional auxiliary system of an LDR form, built as a dense
    (K+1) x s x s parametric system:
    (I - RCL D_g) y = R x_check - RCF p'' - RCL D_g t  over the same box,
    with C = A0^-1 and x_check = C a0; column j of RCF belongs to
    parameter F_param[j]."""
    sys = ldr.system
    s, K, f = ldr.s, ldr.K, sys.factors
    C = np.linalg.inv(sys.A0)
    RCL = f.R @ (C @ f.L)
    RCF = f.R @ (C @ ldr.F)
    A = np.zeros((K + 1, s, s))
    a = np.zeros((K + 1, s))
    A[0] = np.eye(s)
    a[0] = f.R @ (C @ sys.a[0])
    for k, blk in enumerate(f.blocks):
        A[k + 1][:, blk] = -RCL[:, blk]
        a[k + 1] = -RCL[:, blk] @ ldr.t[blk]
    a[1:][ldr.F_param] -= RCF.T
    return make_system(A, a, sys.box)


def dense_scatter(model):
    """The stacks (A, a) of truss.assemble, each element stiffness
    E A / L d d^T scattered into a dense (K+1) x n x n array.  The
    direction difference d and the split of E A / L into a crisp value or
    a parameter's coefficient are worked out here from the nodes and the
    element, not taken from the library."""
    dof = model.dof_map()
    n = model.n_free
    P = len(model.params)
    A = np.zeros((P + 1, n, n))
    a = np.zeros((P + 1, n))
    for e in model.elements:
        (xa, ya), (xb, yb) = model.nodes[e.node_a], model.nodes[e.node_b]
        length = math.hypot(xb - xa, yb - ya)
        c, s = (xb - xa) / length, (yb - ya) / length
        d = [(dof[node, axis], sign * comp)
             for node, sign in ((e.node_a, -1.0), (e.node_b, 1.0))
             for axis, comp in ((0, c), (1, s)) if dof[node, axis] >= 0]
        if isinstance(e.modulus, str):
            k, coeff = model.param_index(e.modulus) + 1, float(e.area) / length
        elif isinstance(e.area, str):
            k, coeff = model.param_index(e.area) + 1, float(e.modulus) / length
        else:
            k, coeff = 0, float(e.modulus) * float(e.area) / length
        for (i, di) in d:
            for (j, dj) in d:
                A[k][i, j] += coeff * di * dj
    for t in model.loads:
        idx = dof[t.node, t.axis]
        a[0][idx] += t.const
        for name, coeff in t.terms:
            a[model.param_index(name) + 1][idx] += coeff
    return A, a


def next_down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def next_up(x: float) -> float:
    return math.nextafter(x, math.inf)


def point(v) -> Interval:
    return Interval(float(v), float(v))


def interval_add(x, y):
    """x + y for scalar intervals, each endpoint rounded outward."""
    return Interval(next_down(x.lo + y.lo), next_up(x.hi + y.hi))


def interval_sub(x, y):
    """x - y for scalar intervals, each endpoint rounded outward."""
    return Interval(next_down(x.lo - y.hi), next_up(x.hi - y.lo))


def interval_mul(x, y):
    """x * y for scalar intervals: the extreme endpoint products, each
    rounded outward."""
    p = (x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi)
    return Interval(next_down(min(p)), next_up(max(p)))


def sign(x) -> int:
    """+1 / -1 for sign-definite intervals, 0 when zero is inside."""
    if x.lo > 0.0:
        return 1
    if x.hi < 0.0:
        return -1
    return 0


def vector_sub(a, b):
    if not isinstance(b, IntervalVector):
        b = [point(s) for s in b]
    return IntervalVector([interval_sub(x, y) for x, y in zip(a, b)])


def deviation_magnitudes(y, t):
    """|y_i - t_i| per component, as the p,g solve scales its g-columns."""
    return np.array([interval_sub(y[i], point(t[i])).mag
                     for i in range(len(y))])


def endpoint_sign_test(v1, v2):
    """(lower, upper): the sign of v1.lo + v2 and of v1.hi + v2, None
    where zero is inside.  A definite sign of the derivative enclosure at
    a bound means that bound of the quadratic form is attained with the
    coupled parameter at a box endpoint."""
    return (sign(interval_add(point(v1.lo), v2)) or None,
            sign(interval_add(point(v1.hi), v2)) or None)


def form_extremum(p_chk, p_hat, c, di, swing, want_max):
    """One bound of secondary._form_range, from that bound's candidates
    only, each evaluated as its own scalar interval expression
    (p + s) * (c + di s + [-swing, swing])."""
    candidates = [point(-p_hat), point(p_hat)]
    if -p_hat < -p_chk < p_hat:
        candidates.append(point(-p_chk))
    if di != 0.0:
        for lam_sign in (1.0, -1.0):
            shift = (lam_sign if want_max else -lam_sign) * swing
            num_lo = next_down(next_down(c + shift) + next_down(di * p_chk))
            num_hi = next_up(next_up(c + shift) + next_up(di * p_chk))
            q = (-num_lo / di / 2.0, -num_hi / di / 2.0)
            s_lo, s_hi = next_down(min(q)), next_up(max(q))
            reach = p_chk + (s_hi if lam_sign > 0.0 else s_lo)
            if s_lo <= p_hat and -p_hat <= s_hi and lam_sign * reach >= 0.0:
                candidates.append(Interval(max(s_lo, -p_hat), min(s_hi, p_hat)))
    p_iv, c_iv, di_iv = point(p_chk), point(c), point(di)
    swing_iv = Interval(-swing, swing)
    vals = [interval_mul(interval_add(p_iv, s),
                         interval_add(interval_add(c_iv, interval_mul(di_iv, s)),
                                      swing_iv))
            for s in candidates]
    return max(v.hi for v in vals) if want_max else min(v.lo for v in vals)


def bilinear_secondary(sol, spec):
    """secondary.bilinear_secondary for a valid spec, with the form value
    v1 and the swing of the other columns (the upper end of their hull,
    centred on zero) from the library's hull kernel."""
    i = spec.param_index
    cols = sol.columns_for(i)
    b = spec.b
    bu0 = float(b @ sol.x_check)
    d = b @ sol.U
    box = sol.q_box
    p_chk = float(sol.p_check[i])
    p_hat = float(sol.p_hat[i])
    p_full = interval_add(point(p_chk), Interval(-p_hat, p_hat))

    v1 = affine_image_hull([bu0], d[None, :], box)[0]
    naive = interval_mul(p_full, v1)
    if len(cols) != 1:
        return SecondaryResult(naive, naive, None, None)

    col = cols[0]
    di = float(d[col])
    lower, upper = endpoint_sign_test(v1, interval_mul(p_full, point(di)))
    others = d.copy()
    others[col] = 0.0
    swing = float(affine_image_hull([0.0], others[None, :], box).hi[0])
    v_lo = naive.lo if lower is None else \
        form_extremum(p_chk, p_hat, bu0, di, swing, want_max=False)
    v_hi = naive.hi if upper is None else \
        form_extremum(p_chk, p_hat, bu0, di, swing, want_max=True)
    refined = Interval(max(v_lo, naive.lo), min(v_hi, naive.hi))
    return SecondaryResult(naive, refined, lower, upper)


def direct_bounds(rec, hull, box):
    """ForceRecovery.direct_bounds with a scalar loop over the rows: T u
    over the hull by the library's hull kernel, times the parameter
    interval on the multiplied rows."""
    Tu = mat_interval_product(rec.T, hull)
    rows = []
    for i, k in enumerate(rec.multiplier_param):
        iv = Tu[i]
        if k is not None:
            iv = interval_mul(Interval(box.lo[k], box.hi[k]), iv)
        rows.append(iv)
    return IntervalVector(rows)
