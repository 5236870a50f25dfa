"""Closed-interval scalars and boxes with outward rounding.

Endpoints are binary64 floats.  Every arithmetic operation computes its
endpoints in round-to-nearest and then nudges each one unit in the last
place away from the interval's interior (epsilon-inflation).  This keeps
results mathematical enclosures without touching the FPU rounding mode,
and the inflation sits far below the 6-7 significant digits of any value
the regression data checks.

All interval arithmetic runs on `IntervalVector`, a box held as lo/hi
arrays: elementwise sums, differences and products, each endpoint formed
as a scalar loop over the endpoints would form it, so the results are
bit-identical to that loop; a point operand (a float or an array)
broadcasts.  The hull of a point matrix times a box is one
midpoint-radius BLAS product, widened by an a-priori bound on its
rounding error (`affine_image_hull`).  `Interval` is the API's scalar
pair, with no arithmetic.

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

    def to_pair(self) -> list:
        return [self.lo, self.hi]

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"


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
        if not (lo <= hi).all():    # false for a NaN endpoint too
            raise ValueError("interval endpoints must not be NaN"
                             if np.isnan(lo).any() or np.isnan(hi).any()
                             else "invalid interval vector: lo > hi somewhere")
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

    # -- arithmetic (a result past the float range rounds to inf, outward) --

    @np.errstate(over="ignore")
    def __add__(self, other) -> "IntervalVector":
        lo, hi = _bounds(other)
        return _outward(self.lo + lo, self.hi + hi)

    @np.errstate(over="ignore")
    def __sub__(self, other) -> "IntervalVector":
        lo, hi = _bounds(other)
        return _outward(self.lo - hi, self.hi - lo)

    @np.errstate(over="ignore")
    def __mul__(self, other) -> "IntervalVector":
        lo, hi = _bounds(other)
        a, b, c, d = self.lo * lo, self.lo * hi, self.hi * lo, self.hi * hi
        return _outward(np.minimum(np.minimum(a, b), np.minimum(c, d)),
                        np.maximum(np.maximum(a, b), np.maximum(c, d)))

    def to_pairs(self) -> list:
        return [[float(l), float(h)] for l, h in zip(self.lo, self.hi)]

    def __repr__(self) -> str:
        body = ", ".join(f"[{l:g}, {h:g}]" for l, h in zip(self.lo, self.hi))
        return f"IntervalVector({body})"


def _outward(lo, hi) -> IntervalVector:
    """The box [lo, hi] with each endpoint rounded one ulp outward."""
    return IntervalVector(lo=np.nextafter(lo, -np.inf), hi=np.nextafter(hi, np.inf))


def _bounds(x):
    """lo/hi arrays of a box, or a point (a float or an array) twice."""
    if isinstance(x, IntervalVector):
        return x.lo, x.hi
    v = np.asarray(x, dtype=float)
    return v, v


# -- linear-map enclosures ----------------------------------------------------

_U = 2.0 ** -53         # unit roundoff of binary64 in round-to-nearest
_ETA = 2.0 ** -1074     # smallest positive subnormal
_BLOCK = 1 << 15        # entries of |U| one product block holds


def mat_interval_product(M, v: IntervalVector) -> IntervalVector:
    """Enclosure of {M x : x in v}, the hull of the linear image, for a real M."""
    return affine_image_hull(np.zeros(len(M)), M, v)


def affine_image_hull(x0, U, box: IntervalVector, diag=None) -> IntervalVector:
    """Hull of {x0 + [U | diag(d)] q : q in box}; without `diag` the
    generators are U alone.

    Midpoint-radius form (Rump, "Fast and parallel interval arithmetic",
    BIT 39, 1999): for the box m +- r, row i of the exact hull is
    x0_i + (U m)_i +- (|U| r)_i.  In round-to-nearest, with BLAS summing
    in any order, the kernel forms

        m = lo/2 + hi/2,   r = max(hi - m, m - lo),
        c = x0 + U m       (x0 itself when every m_j is zero),
        S = |U| r,   T = |U| |m|,
        R = S + (2(n+2) u (S + T) + 2u |c| + 4(n+1) eta),
        hull = [next_down(c - R), next_up(c + R)],

    the diagonal block being one more term per row: n terms per row (k,
    plus one with `diag`), u = 2^-53, eta = 2^-1074.  Derivation: m +- the
    exact max(hi - m, m - lo) holds the box, and that radius is at most
    r / (1 - u).  A dot product of n terms, summed in any order, with or
    without FMA and under gradual underflow, is within
    gamma_n sum |a_j b_j| + n eta of its exact value, gamma_n = n u /
    (1 - n u) (Higham, Accuracy and Stability of Numerical Algorithms,
    3.1), and rounding c adds u |c|.  So the radius must reach S + (gamma_n
    + 2u) (S + T + 2n eta) / (1 - gamma_n) + u |c| + 2n eta, which R does,
    its own roundings included, for n u <= 2^-20.  Each side of the hull
    lies outside the exact one by at most

        4(n + 6) u (|x0_i| + sum_j |a_ij| mag(q_j)) + 8(n + 1 + sum_j |a_ij|) eta

    over the generators a_ij of row i.  A row with no nonzero generator is
    x0_i, signed zeros included.  A row the bound cannot cover (an
    overflow, or a nonzero generator on a box entry with an infinite
    endpoint) is [-inf, inf]; a zero generator on such an entry adds no
    0 * inf.  |U| is formed _BLOCK entries at a time.
    """
    x0 = np.asarray(x0, dtype=float)
    U = np.asarray(U, dtype=float)
    n = x0.shape[0]
    diag = None if diag is None else np.asarray(diag, dtype=float)
    if (U.ndim != 2 or U.shape[0] != n
            or (diag is not None and diag.shape != (n,))
            or U.shape[1] + (0 if diag is None else n) != len(box)):
        raise ValueError(f"shape mismatch: x0[{x0.shape}], U{U.shape}, "
                         f"diag{None if diag is None else diag.shape}, box[{len(box)}]")
    k = U.shape[1]
    # |U| V: S, T, the unbounded entries a row meets, its generators' size
    V = np.empty((len(box), 4))
    with np.errstate(all="ignore"):
        m = 0.5 * box.lo + 0.5 * box.hi
        r = np.maximum(box.hi - m, m - box.lo)
        unbounded = ~np.isfinite(r)
        m[unbounded] = r[unbounded] = 0.0
        V[:, 0], V[:, 2], V[:, 3] = r, unbounded, 1.0
        np.abs(m, out=V[:, 1])
        centred = not np.count_nonzero(m)
        S = np.empty((n, 4))
        C = np.zeros(n)
        rows = max(1, _BLOCK // max(k, 1))
        for i0 in range(0, n, rows):
            Ub = U[i0:i0 + rows]
            np.matmul(np.abs(Ub), V[:k], out=S[i0:i0 + rows])
            if not centred:
                np.matmul(Ub, m[:k], out=C[i0:i0 + rows])
        if diag is not None:
            S += np.abs(diag)[:, None] * V[k:]
            C += diag * m[k:]
        c = x0 if centred else x0 + C
        terms = k + (diag is not None)
        S_r, T, hit, size = S.T
        R = S_r + ((2.0 * (terms + 2) * _U) * (S_r + T)
                   + (2.0 * _U) * np.abs(c) + 4.0 * (terms + 1) * _ETA)
        lo = np.nextafter(c - R, -np.inf)
        hi = np.nextafter(c + R, np.inf)
        bad = (hit != 0.0) | ~np.isfinite(c + R)
    if bad.any():
        lo[bad], hi[bad] = -np.inf, np.inf
    exact = size == 0.0
    if exact.any():
        lo[exact] = hi[exact] = x0[exact]
    return IntervalVector(lo=lo, hi=hi)
