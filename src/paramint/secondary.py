"""Sharp bounds for secondary (derived) variables of a parameterized solution.

Two cases:

* linear maps z = B x -- evaluated through the symbolic affine form
  B x_check + (B U) q, one interval occurrence per q-column per row, which
  is the exact range of the composed linear expression;
* bilinear element quantities v = p_i * (b^T u) -- the multiplying
  parameter is the one deliberate second occurrence; an endpoint sign test
  on the partial derivative decides whether each bound of the quadratic
  form is attained at an endpoint of p_i, in which case re-evaluation with
  p_i fixed gives the exact bound of the form.

The evaluation discipline never cancels multiply-occurring parameters
algebraically; enclosures stay natural interval extensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .intervals import Interval, IntervalVector, affine_image_hull, next_down, next_up
from .solvers import KIND_PG, ParamSolution
from .systems import is_integer


@dataclass(frozen=True)
class SecondarySpec:
    """One secondary quantity: scale * (b^T u), optionally times parameter i."""

    b: np.ndarray
    param_index: Optional[int] = None
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))

    def to_doc(self) -> dict:
        return {"b": self.b.tolist(),
                "param": self.param_index,
                "scale": self.scale}

    @classmethod
    def from_doc(cls, doc: dict) -> "SecondarySpec":
        if not isinstance(doc, dict):
            raise ValueError("secondary spec must be a JSON object")
        b = np.asarray(doc["b"], dtype=float)
        if b.ndim != 1 or not np.isfinite(b).all():
            raise ValueError("spec b must be a vector of finite numbers")
        param, scale = doc.get("param"), doc.get("scale", 1.0)
        if not ((param is None or is_integer(param))
                and (is_integer(scale) or isinstance(scale, float))
                and math.isfinite(scale)):
            raise ValueError("spec param must be an integer or null, "
                             "scale a finite number")
        return cls(b=b, param_index=param, scale=float(scale))


@dataclass(frozen=True)
class EndpointTest:
    """Outcome of the derivative sign test: +1/-1 endpoint sign, None interior."""

    lower: Optional[int]
    upper: Optional[int]


@dataclass(frozen=True)
class SecondaryResult:
    """Naive (product form) and refined (endpoint-fixed) enclosures."""

    naive: Interval
    refined: Interval
    lower_sign: Optional[int]
    upper_sign: Optional[int]
    independent_copies: bool = False

    @property
    def lower_at_endpoint(self) -> bool:
        return self.lower_sign is not None

    @property
    def upper_at_endpoint(self) -> bool:
        return self.upper_sign is not None


def linear_secondary(B, sol: ParamSolution) -> IntervalVector:
    """Hull of B x(q) over the solution's box, exact for the affine form."""
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[1] != sol.n:
        raise ValueError(f"B has shape {B.shape}, expected columns = {sol.n}")
    # B times the dense generators: B @ U alone rounds differently from
    # the first columns of B @ [U | diag(l_hat)]
    return affine_image_hull(B @ sol.x_check, B @ sol.generators(), sol.q_box)


def overestimation_percent(outer: IntervalVector, inner: IntervalVector):
    """Componentwise 100 (1 - rad(inner)/rad(outer)) for inner inside outer."""
    if len(outer) != len(inner):
        raise ValueError("length mismatch")
    slack = 1e-9 * np.maximum(outer.mag, 1e-300)
    if np.any(inner.lo < outer.lo - slack) or np.any(inner.hi > outer.hi + slack):
        raise ValueError("inner box is not contained in outer box")
    r_out, r_in = outer.rad, inner.rad
    zero = r_out == 0.0
    if np.any(r_in[zero] > 0.0):
        raise ValueError("zero outer radius with nonzero inner radius")
    pct = 100.0 * (1.0 - r_in / np.where(zero, 1.0, r_out))
    return np.maximum(np.where(zero, 0.0, pct), 0.0)


def endpoint_sign_test(v1: Interval, v2: Interval) -> EndpointTest:
    """Sign of v1.lo + v2 and v1.hi + v2 when zero is excluded, else interior.

    A definite sign of the derivative enclosure at the candidate bound
    means that bound of the quadratic form is attained with the coupled
    parameter at a box endpoint.
    """
    lower = (v1.lo + v2).sign() or None
    upper = (v1.hi + v2).sign() or None
    return EndpointTest(lower=lower, upper=upper)


def _form_extremum(p_chk: float, p_hat: float, c: float, di: float,
                   swing: float, want_max: bool) -> float:
    """Exact bound of the coupled product over the box.

    With every single-occurrence parameter optimized out, the form reduces
    to the one-dimensional piecewise quadratic
        s -> (p_chk + s) * (c + di s -/+ sign(p_chk + s) * swing)
    on s in [-p_hat, p_hat].  Its extrema sit at the segment endpoints,
    the sign kink of the first factor, or a parabola vertex of one of the
    two pieces.  A vertex -(c + shift + di p_chk) / (2 di) is enclosed by
    outward-rounded steps, kept while its enclosure meets the box and the
    piece's sign, and the form is evaluated over that enclosure; evaluating
    every candidate with interval arithmetic keeps the bound outward.
    """
    candidates = [-p_hat, p_hat]
    if -p_hat < -p_chk < p_hat:
        candidates.append(-p_chk)
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
    p_iv, c_iv, di_iv = Interval.point(p_chk), Interval.point(c), Interval.point(di)
    swing_iv = Interval.symmetric(swing)
    vals = [(p_iv + s) * (c_iv + di_iv * s + swing_iv) for s in candidates]
    return max(v.hi for v in vals) if want_max else min(v.lo for v in vals)


def _swing(d, rad, col: int) -> float:
    """Upper bound of sum |d_j| rad_j over the nonzero d_j other than
    column `col`: each product rounded up, the sum rounded to nearest by
    `math.fsum` and then up."""
    others = (d != 0.0) & (np.arange(len(d)) != col)
    terms = np.nextafter(np.abs(d[others]) * rad[others], np.inf)
    try:
        return next_up(math.fsum(terms.tolist()))
    except OverflowError:   # fsum raises where the exact sum overflows
        return math.inf


def bilinear_secondary(sol: ParamSolution, spec: SecondarySpec) -> SecondaryResult:
    """Refined enclosure of v = scale * p_i * (b^T u) over the solution box.

    Step one evaluates the product form
        v' = (p_check_i + p'_i) (b^T u0 + (b^T U) p')
    naively.  Step two encloses the derivative of v' in p'_i by
    v1 + p_i (b^T U_col_i); when the sign test excludes zero at a bound,
    that bound is recomputed exactly from the one-dimensional reduction of
    the form (which pins p'_i at the sign-implied endpoint except in a
    narrow corner where a parabola vertex of the coupled quadratic lies
    inside the box; plain endpoint re-evaluation would clip it there).

    When the solution carries several g-copies of parameter i the copies
    are treated as independent of the multiplying factor (conservative;
    flagged via independent_copies and no exactness claim).
    """
    if sol.kind != KIND_PG:
        raise ValueError("bilinear bounds need the p,g-parameterized solution")
    if spec.param_index is None:
        raise ValueError("spec has no multiplying parameter; use linear_secondary")
    if sol.p_check is None:
        raise ValueError("solution lacks the original parameter midpoints")
    i = spec.param_index
    cols = sol.columns_for(i)
    if not cols:
        raise ValueError(f"parameter {i} has no column in the solution")

    b = spec.scale * spec.b
    if b.shape[0] != sol.n:
        raise ValueError(f"b has length {b.shape[0]}, expected {sol.n}")
    bu0 = float(b @ sol.x_check)
    d = b @ sol.U
    box = sol.q_box
    if np.any(box.mid != 0.0):
        raise ValueError("solution box must be symmetric around zero")

    p_chk = float(sol.p_check[i])
    p_hat = float(box.rad[cols[0]])
    p_full = Interval.point(p_chk) + Interval.symmetric(p_hat)

    v1 = affine_image_hull([bu0], d[None, :], box)[0]
    naive = p_full * v1

    coupled = (len(cols) == 1 and sol.labels[cols[0]].kind == "p")
    if not coupled:
        return SecondaryResult(naive=naive, refined=naive,
                               lower_sign=None, upper_sign=None,
                               independent_copies=True)

    col = cols[0]
    di = float(d[col])
    v2 = p_full * di
    test = endpoint_sign_test(v1, v2)

    swing = _swing(d, box.rad, col)
    v_lo = naive.lo if test.lower is None else \
        _form_extremum(p_chk, p_hat, bu0, di, swing, want_max=False)
    v_hi = naive.hi if test.upper is None else \
        _form_extremum(p_chk, p_hat, bu0, di, swing, want_max=True)

    # endpoint re-evaluation never widens the product form; keep the
    # invariant exact against trailing-ulp wobble
    refined = Interval(max(v_lo, naive.lo), min(v_hi, naive.hi))
    return SecondaryResult(naive=naive, refined=refined,
                           lower_sign=test.lower, upper_sign=test.upper)
