"""Closed-interval scalars and boxes with outward rounding.

Endpoints are binary64 floats.  Every arithmetic operation computes its
endpoints in round-to-nearest and then nudges each one unit in the last
place away from the interval's interior (epsilon-inflation).  This keeps
results mathematical enclosures without touching the FPU rounding mode,
and the inflation sits far below the 6-7 significant digits of any value
the regression data checks.

`IntervalVector` is a box held as lo/hi arrays; its difference and the
hull of a point matrix times a box run on the arrays, rounding in the
order of a scalar loop over `Interval` endpoints, so endpoints are
bit-identical to that loop.  `Interval` is the API's scalar: addition,
multiplication and the sign test, nothing more.

Empty intervals are not representable: construction requires lo <= hi.
All values are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

Number = Union[int, float]


def next_down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def next_up(x: float) -> float:
    return math.nextafter(x, math.inf)


@dataclass(frozen=True)
class Interval:
    """Closed real interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        lo = float(self.lo)
        hi = float(self.hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval endpoints must not be NaN")
        if lo > hi:
            raise ValueError(f"invalid interval: lo={lo} > hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # -- constructors ------------------------------------------------------

    @classmethod
    def point(cls, v: Number) -> "Interval":
        return cls(float(v), float(v))

    @classmethod
    def symmetric(cls, rad: Number) -> "Interval":
        r = abs(float(rad))
        return cls(-r, r)

    # -- functionals -------------------------------------------------------

    @property
    def mid(self) -> float:
        return (self.lo + self.hi) / 2.0

    @property
    def rad(self) -> float:
        return (self.hi - self.lo) / 2.0

    @property
    def mag(self) -> float:
        return max(abs(self.lo), abs(self.hi))

    # -- set predicates ----------------------------------------------------

    def encloses(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Interval":
        other = _as_interval(other)
        return Interval(next_down(self.lo + other.lo), next_up(self.hi + other.hi))

    __radd__ = __add__

    def __mul__(self, other) -> "Interval":
        other = _as_interval(other)
        p = (self.lo * other.lo, self.lo * other.hi,
             self.hi * other.lo, self.hi * other.hi)
        return Interval(next_down(min(p)), next_up(max(p)))

    __rmul__ = __mul__

    def sign(self) -> int:
        """+1 / -1 for sign-definite intervals, 0 when zero is inside."""
        if self.lo > 0.0:
            return 1
        if self.hi < 0.0:
            return -1
        return 0

    def to_pair(self) -> list:
        return [self.lo, self.hi]

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"


def _as_interval(x) -> Interval:
    if isinstance(x, Interval):
        return x
    if isinstance(x, (int, float, np.floating, np.integer)):
        return Interval.point(float(x))
    raise TypeError(f"cannot interpret {type(x).__name__} as Interval")


class IntervalVector:
    """Axis-aligned box: a vector of closed intervals, stored as lo/hi arrays."""

    __slots__ = ("lo", "hi")

    def __init__(self, intervals: Iterable[Interval] | None = None, *,
                 lo=None, hi=None):
        if intervals is not None:
            items = list(intervals)
            lo = np.array([iv.lo for iv in items], dtype=float)
            hi = np.array([iv.hi for iv in items], dtype=float)
        else:
            lo = np.asarray(lo, dtype=float).copy()
            hi = np.asarray(hi, dtype=float).copy()
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("lo/hi must be 1-D arrays of equal length")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ValueError("interval endpoints must not be NaN")
        if np.any(lo > hi):
            raise ValueError("invalid interval vector: lo > hi somewhere")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("IntervalVector is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_bounds(cls, lo, hi) -> "IntervalVector":
        return cls(lo=lo, hi=hi)

    @classmethod
    def from_pairs(cls, pairs: Sequence[Sequence[Number]]) -> "IntervalVector":
        arr = np.asarray(pairs, dtype=float)
        if arr.size == 0:
            return cls(lo=np.zeros(0), hi=np.zeros(0))
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"interval pairs must have shape (m, 2), not {arr.shape}")
        return cls(lo=arr[:, 0], hi=arr[:, 1])

    @classmethod
    def point(cls, values) -> "IntervalVector":
        v = np.asarray(values, dtype=float)
        return cls(lo=v, hi=v)

    @classmethod
    def symmetric(cls, radii) -> "IntervalVector":
        r = np.abs(np.asarray(radii, dtype=float))
        return cls(lo=-r, hi=r)

    # -- functionals -------------------------------------------------------

    @property
    def mid(self) -> np.ndarray:
        return (self.lo + self.hi) / 2.0

    @property
    def rad(self) -> np.ndarray:
        return (self.hi - self.lo) / 2.0

    @property
    def mag(self) -> np.ndarray:
        return np.maximum(np.abs(self.lo), np.abs(self.hi))

    def __len__(self) -> int:
        return self.lo.shape[0]

    def __getitem__(self, i: int) -> Interval:
        return Interval(float(self.lo[i]), float(self.hi[i]))

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    # -- set operations ----------------------------------------------------

    def encloses(self, other: "IntervalVector") -> bool:
        return bool(np.all(self.lo <= other.lo) and np.all(other.hi <= self.hi))

    # -- arithmetic --------------------------------------------------------

    def __sub__(self, other) -> "IntervalVector":
        o = other if isinstance(other, IntervalVector) else IntervalVector.point(other)
        return IntervalVector(lo=np.nextafter(self.lo - o.hi, -np.inf),
                              hi=np.nextafter(self.hi - o.lo, np.inf))

    def to_pairs(self) -> list:
        return [[float(l), float(h)] for l, h in zip(self.lo, self.hi)]

    def __repr__(self) -> str:
        body = ", ".join(f"[{l:g}, {h:g}]" for l, h in zip(self.lo, self.hi))
        return f"IntervalVector({body})"


# -- linear-map enclosures ----------------------------------------------------

def _outward_products(u, b_lo, b_hi):
    """Elementwise outward-rounded hulls of u * [b_lo, b_hi] for a point
    vector u: the hull of u_j * b_j is spanned by its two endpoint products
    (a zero product rounds out to the same denormal whatever its sign)."""
    p_lo, p_hi = u * b_lo, u * b_hi
    lo = np.minimum(p_lo, p_hi)
    np.maximum(p_lo, p_hi, out=p_hi)
    return np.nextafter(lo, -np.inf, out=lo), np.nextafter(p_hi, np.inf, out=p_hi)


# Columns whose outward products the column sweep forms at once, so its
# temporaries are O(rows x block) whatever the width of U.
_SWEEP_BLOCK = 16


def _column_sweep(x0, U, b_lo, b_hi, diag, d_lo, d_hi) -> IntervalVector:
    """affine_image_hull for all rows at once, one column at a time.

    `acc` holds [-lo; hi], so both bounds round toward +inf: negation is
    exact and round-to-nearest is symmetric, so next_down(a + x) equals
    -next_up(-a - x) bit for bit, signed zeros included.  A column adds
    its products only where its entry is nonzero (the `where` mask), so
    each row makes the scalar loop's additions in the scalar loop's order.
    """
    n, k = U.shape
    acc = np.concatenate([-x0, x0])
    t = np.empty(2 * n)
    P = np.empty((2 * n, _SWEEP_BLOCK), order="F")
    keep = np.empty((2 * n, _SWEEP_BLOCK), dtype=bool, order="F")

    def add_columns(u, lo_b, hi_b):
        w = u.shape[1]
        lo, hi = _outward_products(u, lo_b, hi_b)
        np.negative(lo, out=P[:n, :w])
        P[n:, :w] = hi
        np.not_equal(u, 0.0, out=keep[:n, :w])
        keep[n:, :w] = keep[:n, :w]
        # the scalar loop's float sums overflow to inf without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(w):
                np.add(acc, P[:, j], out=t)
                np.nextafter(t, np.inf, out=acc, where=keep[:, j])

    for j0 in range(0, k, _SWEEP_BLOCK):
        blk = slice(j0, j0 + _SWEEP_BLOCK)
        add_columns(U[:, blk], b_lo[blk], b_hi[blk])
    if diag is not None:
        add_columns(diag[:, None], d_lo[:, None], d_hi[:, None])
    return IntervalVector(lo=-acc[:n], hi=acc[n:])


def mat_interval_product(M, v: IntervalVector) -> IntervalVector:
    """Enclosure of {M x : x in v} for a real matrix M.

    Each x_j occurs once per row, so the row-wise interval sum is the exact
    hull of the linear image (up to outward rounding).
    """
    return affine_image_hull(np.zeros(len(M)), M, v)


def affine_image_hull(x0, U, box: IntervalVector, diag=None) -> IntervalVector:
    """Hull of {x0 + [U | diag(d)] q : q in box}, computed row-wise (exact
    per row); without `diag` the generators are U alone.

    Row i is the scalar loop `acc = acc + a_ij * q_j` over its nonzero
    generators, left to right, each product and each addition rounded
    outward: U's columns, then the diagonal entry d_i.  A U with more than
    one row is swept by column, all rows at once (`_column_sweep`); a
    single row runs the scalar loop, which is faster there.  Either way no
    temporary grows with the size of U.
    """
    x0 = np.asarray(x0, dtype=float)
    U = np.asarray(U, dtype=float)
    n = x0.shape[0]
    if diag is not None:
        diag = np.asarray(diag, dtype=float)
    if (U.ndim != 2 or U.shape[0] != n
            or (diag is not None and diag.shape != (n,))
            or U.shape[1] + (0 if diag is None else n) != len(box)):
        raise ValueError(f"shape mismatch: x0[{x0.shape}], U{U.shape}, "
                         f"diag{None if diag is None else diag.shape}, box[{len(box)}]")
    k = U.shape[1]
    b_lo, b_hi = box.lo[:k], box.hi[:k]
    if n > 1:
        return _column_sweep(x0, U, b_lo, b_hi, diag, box.lo[k:], box.hi[k:])
    if diag is not None:
        d_lo, d_hi = (p.tolist() for p in _outward_products(diag, box.lo[k:], box.hi[k:]))
    lo, hi = x0.tolist(), x0.tolist()
    for i, row in enumerate(U):
        cols = np.flatnonzero(row)
        p_lo, p_hi = _outward_products(row, b_lo, b_hi)
        xs, ys = p_lo[cols].tolist(), p_hi[cols].tolist()
        if diag is not None and diag[i] != 0.0:
            xs.append(d_lo[i])
            ys.append(d_hi[i])
        a, b = lo[i], hi[i]
        for x, y in zip(xs, ys):
            a = math.nextafter(a + x, -math.inf)
            b = math.nextafter(b + y, math.inf)
        lo[i], hi[i] = a, b
    return IntervalVector(lo=lo, hi=hi)
