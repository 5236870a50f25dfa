"""Sharp bounds for secondary (derived) variables of a parameterized solution.

Two cases:

* linear maps z = B x -- evaluated through the symbolic affine form
  B x_check + (B U) q, one interval occurrence per q-column per row, which
  is the exact range of the composed linear expression;
* bilinear element quantities v = p_i * (b^T u) -- the multiplying
  parameter is the one deliberate second occurrence; the sign of the
  partial derivative's enclosure at each end of the form's range decides
  whether that bound of the quadratic form is attained at an endpoint of
  p_i, in which case the one-dimensional reduction of the form gives its
  exact bound.  A spec's b has its document's `scale` folded in.

The evaluation discipline never cancels multiply-occurring parameters
algebraically; enclosures stay natural interval extensions, evaluated on
lo/hi arrays (`IntervalVector`) with `Interval` only in the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .intervals import Interval, IntervalVector, affine_image_hull, next_down, next_up
from .solvers import ParamSolution
from .systems import float_array, is_integer


@dataclass(frozen=True)
class SecondarySpec:
    """One secondary quantity: b^T u, optionally times parameter i; b has
    a document's `scale` applied when it is read."""

    b: np.ndarray
    param_index: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))

    def to_doc(self) -> dict:
        return {"b": self.b.tolist(), "param": self.param_index}

    @classmethod
    def from_doc(cls, doc: dict) -> "SecondarySpec":
        if not (isinstance(doc, dict) and "b" in doc):
            raise ValueError("secondary spec must be a JSON object with key 'b'")
        b = float_array(doc, "b")
        if b.ndim != 1 or not np.isfinite(b).all():
            raise ValueError("spec b must be a vector of finite numbers")
        param, scale = doc.get("param"), doc.get("scale", 1.0)
        if not ((param is None or is_integer(param))
                and (is_integer(scale) or isinstance(scale, float))
                and math.isfinite(scale)):
            raise ValueError("spec param must be an integer or null, "
                             "scale a finite number")
        with np.errstate(over="ignore"):
            b = float(scale) * b
        if not np.isfinite(b).all():
            raise ValueError("spec scale * b overflows the float range")
        return cls(b=b, param_index=param)


@dataclass(frozen=True)
class SecondaryResult:
    """Naive (product form) and refined (endpoint-fixed) enclosures, and the
    sign (+1/-1) pinning each refined bound to an endpoint of p_i, or None."""

    naive: Interval
    refined: Interval
    lower_sign: Optional[int]
    upper_sign: Optional[int]


def linear_secondary(B, sol: ParamSolution) -> IntervalVector:
    """Hull of B x(q) over the solution's box, exact for the affine form."""
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[1] != sol.n:
        raise ValueError(f"B has shape {B.shape}, expected columns = {sol.n}")
    # B times the dense generators: B @ U alone rounds differently from
    # the first columns of B @ [U | diag(l_hat)]
    return affine_image_hull(B @ sol.x_check, B @ sol.generators(), sol.q_box)


def overestimation_percent(outer: IntervalVector, inner: IntervalVector):
    """Componentwise 100 (1 - rad(inner)/rad(outer)) where outer encloses
    inner (the test of `Interval.encloses`), 0 where both are the same
    point, and NaN where outer does not enclose inner.  Each rad is
    hi/2 - lo/2, finite on a finite row wider than the float range."""
    if len(outer) != len(inner):
        raise ValueError("length mismatch")
    r_out, r_in = (0.5 * v.hi - 0.5 * v.lo for v in (outer, inner))
    zero = r_out == 0.0
    pct = 100.0 * (1.0 - r_in / np.where(zero, 1.0, r_out))
    inside = (outer.lo <= inner.lo) & (inner.hi <= outer.hi)
    return np.where(inside, np.where(zero, 0.0, pct), np.nan)


def _form_range(p_chk: float, p_hat: float, c: float, di: float,
                swing: float) -> tuple:
    """Exact lower and upper bounds of the coupled product over the box.

    With every single-occurrence parameter optimized out, the form reduces
    to the one-dimensional piecewise quadratic
        s -> (p_chk + s) * (c + di s -/+ sign(p_chk + s) * swing)
    on s in [-p_hat, p_hat], with -swing for the lower bound and +swing
    for the upper.  Its extrema sit at the segment endpoints, the sign
    kink of the first factor, or a parabola vertex of one of the two
    pieces.  A vertex -(c + shift + di p_chk) / (2 di) is enclosed by
    outward-rounded steps and kept for a bound while its enclosure meets
    the box and the piece's sign.  The candidates of both bounds are one
    box, each point s as [s, s], and the form (p_chk + s) * (c + di s +
    [-swing, swing]) is evaluated over it once in interval arithmetic,
    which keeps each bound outward.
    """
    points = [-p_hat, p_hat] + ([-p_chk] if -p_hat < -p_chk < p_hat else [])
    s_lo, s_hi = points[:], points[:]
    for_lo, for_hi = [True] * len(points), [True] * len(points)
    if di != 0.0:
        # shift +swing gives the vertex of the upper bound's piece
        # p_chk + s >= 0 and of the lower bound's piece p_chk + s <= 0;
        # shift -swing the other two
        for shift, up in ((swing, True), (-swing, False)):
            num_lo = next_down(next_down(c + shift) + next_down(di * p_chk))
            num_hi = next_up(next_up(c + shift) + next_up(di * p_chk))
            q = (-num_lo / di / 2.0, -num_hi / di / 2.0)
            lo, hi = next_down(min(q)), next_up(max(q))
            pos, neg = p_chk + hi >= 0.0, p_chk + lo <= 0.0   # meets the piece
            if lo <= p_hat and -p_hat <= hi:
                s_lo.append(max(lo, -p_hat))
                s_hi.append(min(hi, p_hat))
                for_lo.append(neg if up else pos)
                for_hi.append(pos if up else neg)
    s = IntervalVector(lo=s_lo, hi=s_hi)
    vals = (s + p_chk) * (s * di + c + IntervalVector.symmetric([swing]))
    return float(vals.lo[for_lo].min()), float(vals.hi[for_hi].max())


def bilinear_secondary(sol: ParamSolution, spec: SecondarySpec) -> SecondaryResult:
    """Refined enclosure of v = p_i * (b^T u) over the solution box.

    Step one evaluates the product form
        v' = (p_check_i + p'_i) (b^T u0 + (b^T U) q)
    naively.  Step two couples p'_i with parameter i's column of nonzero
    sign, q_col = sign p'_i (an F column, -CF, is -p'_i), so it encloses
    the derivative of v' in p'_i by v1 + p_i di, di = sign (b^T U_col);
    when the sign test excludes zero at a bound, that bound is recomputed
    exactly from the one-dimensional reduction of the form (which pins
    p'_i at the sign-implied endpoint except in a narrow corner where a
    parabola vertex of the coupled quadratic lies inside the box; plain
    endpoint re-evaluation would clip it there).

    A parameter with only g-copies (sign 0) is not coupled: the refined
    bounds are the naive ones, with no sign claim.
    """
    if sol.kind != "pg":
        raise ValueError("bilinear bounds need the p,g-parameterized solution")
    if spec.param_index is None:
        raise ValueError("spec has no multiplying parameter; use linear_secondary")
    i, K = spec.param_index, len(sol.p_hat)
    if not 0 <= i < K:
        raise ValueError(f"parameter {i} out of range 0..{K - 1}")
    coupled = np.flatnonzero((sol.param == i) & (sol.sign != 0))

    if spec.b.shape[0] != sol.n:
        raise ValueError(f"b has length {spec.b.shape[0]}, expected {sol.n}")
    bu0 = float(spec.b @ sol.x_check)
    d = spec.b @ sol.U
    box = sol.q_box

    p_chk = float(sol.p_check[i])
    p_hat = float(sol.p_hat[i])
    p_full = IntervalVector.symmetric([p_hat]) + p_chk

    v1 = affine_image_hull([bu0], d[None, :], box)
    naive = (p_full * v1)[0]

    # an unbounded form value (b^T U overflows) leaves nothing to refine
    if not coupled.size or not np.isfinite([v1.lo, v1.hi]).all():
        return SecondaryResult(naive=naive, refined=naive,
                               lower_sign=None, upper_sign=None)

    col = coupled[0]
    di = float(sol.sign[col] * d[col])
    # the derivative enclosure v1 + p_i di at each end of v1: +1/-1 where
    # it excludes zero, None where zero is inside
    ends = p_full * di + np.concatenate([v1.lo, v1.hi])
    lower, upper = (1 if lo > 0.0 else -1 if hi < 0.0 else None
                    for lo, hi in zip(ends.lo, ends.hi))

    refined = naive
    if lower is not None or upper is not None:
        # the swing bounds |sum_(j != col) d_j q_j|: the hull's upper end
        others = np.where(np.arange(len(d)) == col, 0.0, d)[None, :]
        swing = float(affine_image_hull([0.0], others, box).hi[0])
        f_lo, f_hi = _form_range(p_chk, p_hat, bu0, di, swing)
        # the form's bound never widens the product form; keep the
        # invariant exact against trailing-ulp wobble
        refined = Interval(naive.lo if lower is None else max(f_lo, naive.lo),
                           naive.hi if upper is None else min(f_hi, naive.hi))
    return SecondaryResult(naive=naive, refined=refined,
                           lower_sign=lower, upper_sign=upper)
