"""Affine parametric linear systems and their rank-one LDR rewriting.

A system is the family A(p) x = a(p) with
    A(p) = A_0 + sum_k p_k A_k,    a(p) = a_0 + sum_k p_k a_k,
parameters p ranging over a box.  `center` shifts the box to be symmetric
around zero (folding the midpoints into A_0 / a_0), and `build_ldr`
reads the centered family, adding only the fit t and the parameters
F_param of the F columns, as

    (A_0 + L D_g R) x = a_0 + L D_g t + F p''

where D_g is diagonal in the duplicated matrix parameters g, every
g-column's coefficient L_col R_row has rank one, and F p'' collects each
term p_k a_k with a_k outside range(L_k) (all of them for a parameter
that appears only on the right-hand side, where L_k is empty).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .intervals import IntervalVector

RANK_TOL = 1e-12       # pivot is zero if |pivot| <= RANK_TOL * max|A_k|
RHS_FIT_TOL = 1e-10    # relative t-fit residual above which a_k is an F column


@dataclass(frozen=True, eq=False)
class Factors:
    """Coefficient matrices A_k = L[:, blocks[k]] @ R[blocks[k]].

    The columns of L (n, s) and rows of R (s, n) are grouped by parameter:
    sizes[k] of them belong to A_k (0 for a zero matrix).  Both producers,
    `from_dense` and truss assembly, orient every pair with
    `orient_factors`."""

    L: np.ndarray
    R: np.ndarray
    sizes: tuple

    def __post_init__(self):
        ends = [int(e) for e in np.cumsum((0,) + tuple(self.sizes))]
        if (self.L.shape[0] != self.R.shape[1]
                or not self.L.shape[1] == self.R.shape[0] == ends[-1]):
            raise ValueError("factor shapes do not match the block sizes")
        object.__setattr__(self, "blocks", tuple(
            slice(a, b) for a, b in zip(ends[:-1], ends[1:])))

    @classmethod
    def from_dense(cls, stack) -> "Factors":
        """Factors of a dense (K, n, n) stack A_1..A_K: `rank_one_factorize`
        of each nonzero A_k."""
        n = stack.shape[1]
        pairs = [rank_one_factorize(Ak) if Ak.any()
                 else (np.zeros((n, 0)), np.zeros((0, n))) for Ak in stack]
        return cls(np.hstack([np.zeros((n, 0))] + [Lk for Lk, _ in pairs]),
                   np.vstack([np.zeros((0, n))] + [Rk for _, Rk in pairs]),
                   tuple(Lk.shape[1] for Lk, _ in pairs))

    def matrix(self, k: int) -> np.ndarray:
        blk = self.blocks[k]
        return self.L[:, blk] @ self.R[blk]

    def combine(self, p) -> np.ndarray:
        """sum_k p_k A_k, for one p or for each row of a (P, K) stack."""
        return (self.L * np.repeat(p, self.sizes, axis=-1)[..., None, :]) @ self.R


@dataclass(frozen=True, eq=False)
class ParamLinearSystem:
    """A(p) x = a(p) with A(p) = A0 + sum_k p_k A_k and a stacked as (K+1, n).

    `factors` holds A_1..A_K: from the elimination of a dense stack
    (`make_system`, JSON documents) or from truss assembly.  No dense
    coefficient is kept; the (K+1, n, n) stack `A` is multiplied out on
    each access, for `to_doc`, the benchmark's oracle and the tests.
    """

    A0: np.ndarray
    factors: Factors
    a: np.ndarray
    box: IntervalVector

    def __post_init__(self):
        A0 = np.asarray(self.A0, dtype=float)
        a = np.asarray(self.a, dtype=float)
        n = self.factors.L.shape[0]
        if n == 0:
            raise ValueError("a system needs at least one unknown (n >= 1)")
        if A0.shape != (n, n):
            raise ValueError("A must be a stack of square matrices")
        if a.shape != (len(self.factors.sizes) + 1, n):
            raise ValueError("a must stack K+1 vectors of length n")
        if len(self.box) != len(self.factors.sizes):
            raise ValueError("box length must equal the parameter count K")
        object.__setattr__(self, "A0", A0)
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return self.A0.shape[0]

    @property
    def K(self) -> int:
        return len(self.box)

    @property
    def A(self) -> np.ndarray:
        """The dense stack [A0, A_1, ..., A_K], built on each access."""
        return np.stack([self.A0] + [self.factors.matrix(k) for k in range(self.K)])

    def matrix_at(self, p) -> np.ndarray:
        """A(p), for one p or for each row of a (P, K) stack."""
        return self.A0 + self.factors.combine(np.asarray(p, dtype=float))

    def rhs_at(self, p) -> np.ndarray:
        """a(p), for one p or for each row of a (P, K) stack."""
        p = np.asarray(p, dtype=float)
        return self.a[0] + p @ self.a[1:]

    # -- JSON document interface -------------------------------------------

    def to_doc(self) -> dict:
        return {
            "n": self.n,
            "K": self.K,
            "A": [m.tolist() for m in self.A],
            "a": [v.tolist() for v in self.a],
            "box": self.box.to_pairs(),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "ParamLinearSystem":
        if not isinstance(doc, dict):
            raise ValueError("system document must be a JSON object")
        for key in ("n", "K", "A", "a", "box"):
            if key not in doc:
                raise ValueError(f"system document missing key {key!r}")
        n, K = doc["n"], doc["K"]
        if not (is_integer(n) and is_integer(K)):
            raise ValueError(f"n and K must be integers, not {n!r} and {K!r}")
        A, a = float_array(doc, "A"), float_array(doc, "a")
        if A.shape != (K + 1, n, n):
            raise ValueError(f"A has shape {A.shape}, expected {(K + 1, n, n)}")
        if a.shape != (K + 1, n):
            raise ValueError(f"a has shape {a.shape}, expected {(K + 1, n)}")
        pairs = float_array(doc, "box")
        for key, arr in (("A", A), ("a", a), ("box", pairs)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{key} has non-finite entries")
        box = IntervalVector.from_pairs(pairs)
        with np.errstate(over="ignore"):
            if not np.isfinite(box.hi - box.lo).all():
                raise ValueError("box has an entry whose width overflows")
        if len(box) != K:
            raise ValueError(f"box has {len(box)} entries, expected {K}")
        return make_system(A, a, box)


def is_integer(v) -> bool:
    """True for a JSON integer; a JSON boolean is a Python int, not one."""
    return isinstance(v, int) and not isinstance(v, bool)


def float_array(doc: dict, key: str) -> np.ndarray:
    """doc[key] as a float array; ValueError for a string, null or object,
    and for a ragged or too deeply nested array."""
    try:
        arr = np.asarray(doc[key])
    except ValueError:
        raise ValueError(f"{key} has rows of different lengths or too "
                         "many levels of nesting") from None
    # an integer past 2**64 makes an object array, which float() reads
    if arr.dtype.kind not in "biuf" and not all(
            isinstance(v, (int, float)) for v in arr.flat):
        raise ValueError(f"{key} must be an array of numbers (floats), "
                         "not strings, nulls or objects")
    return arr.astype(float, copy=False)


def make_system(A, a, box: IntervalVector) -> ParamLinearSystem:
    """Canonical constructor from the dense (K+1, n, n) stack [A0, A_1, ...].

    A_1..A_K are factorized here, once (`Factors.from_dense`; ValueError
    if one overflows), and the system keeps a copy of A0: it holds no
    view of the stack.  Every box entry keeps its index, a zero-radius one
    too: `center` folds its midpoint into A(p_check) like any other."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 3 or len(A) == 0 or A.shape[1] != A.shape[2]:
        raise ValueError("A must be a stack of square matrices")
    return ParamLinearSystem(A[0].copy(), Factors.from_dense(A[1:]), a, box)


@dataclass(frozen=True, eq=False)
class CenteredSystem:
    """Equivalent system over the symmetric box [-p_hat, p_hat].

    `p_check` keeps the original parameter midpoints so downstream code can
    map centered deviations back to physical parameter values.
    """

    system: ParamLinearSystem
    p_check: np.ndarray


def center(sys: ParamLinearSystem) -> CenteredSystem:
    """Shift the parameter box to be symmetric around zero.  The centered
    system shares the factors of A_1..A_K with `sys`; only A0, a0 and the
    box are new."""
    p_check = sys.box.mid
    if np.all(p_check == 0.0):
        return CenteredSystem(sys, p_check)
    a = sys.a.copy()
    a[0] = sys.rhs_at(p_check)
    box = IntervalVector.symmetric(sys.box.rad)
    return CenteredSystem(
        ParamLinearSystem(sys.matrix_at(p_check), sys.factors, a, box), p_check)


def orient_factors(L, R):
    """Flip each (column of L, row of R) pair in place so that the row's
    first entry above 1e-14 of its largest is positive, and return (L, R).
    No copy is made (both callers pass arrays they have just built), and
    |R| is formed once.  This fixes the orientation of every g-column; the
    bilinear secondary refinement is sensitive to it."""
    mag = np.abs(R)
    big = mag > 1e-14 * mag.max(axis=1, keepdims=True)
    lead = R[np.arange(R.shape[0]), np.argmax(big, axis=1)]
    sign = np.where(lead < 0.0, -1.0, 1.0)
    return np.multiply(L, sign, out=L), np.multiply(R, sign[:, None], out=R)


def rank_one_factorize(Ak):
    """Full-rank factorization A_k = L_k R_k with s_k = rank(A_k) columns,
    for a coefficient given as a dense matrix (truss assembly builds its
    factors directly).

    Gaussian elimination with complete pivoting on the running residual:
    each step peels off the outer product of the pivot column and the
    pivot row.  A pivot counts as zero when |pivot| <= RANK_TOL * max|A_k|.
    The pairs are oriented by `orient_factors`.  Raises ValueError for a
    zero matrix or one that overflows.
    """
    Ak = np.asarray(Ak, dtype=float)
    mag = np.abs(Ak)            # buffer: each step's |residual| and update
    flat = int(np.argmax(mag))
    scale = mag.flat[flat]
    if scale == 0.0:
        raise ValueError("zero coefficient matrix has no rank-one factorization")
    resid = Ak.copy()
    cols, rows = [], []
    # entries near the float limit overflow in the residual update; the
    # non-finite pivot row that follows is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(min(Ak.shape)):
            if step:
                flat = int(np.argmax(np.abs(resid, out=mag)))
            i, j = divmod(flat, Ak.shape[1])
            pivot = resid[i, j]
            if abs(pivot) <= RANK_TOL * scale:
                break
            c = resid[:, j].copy()
            r = resid[i, :] / pivot
            if not np.all(np.isfinite(r)):
                raise ValueError("coefficient matrix overflows in its "
                                 "rank-one factorization")
            cols.append(c)
            rows.append(r)
            resid -= np.multiply.outer(c, r, out=mag)
    return orient_factors(np.column_stack(cols), np.vstack(rows))


@dataclass(frozen=True, eq=False)
class LdrSystem(CenteredSystem):
    """Centered system read as (A0 + L D_g R) x = a0 + L D_g t + F p''.

    A0, a0, the box and the factors are `system`'s: block k holds
    parameter k's g-columns, none for a right-hand-side-only parameter.
    Column j of F is a_k for k = F_param[j] (increasing): every
    right-hand-side-only parameter, and every matrix parameter whose a_k
    lies outside range(L_k), whose t-block is then zero.
    """

    t: np.ndarray
    F_param: np.ndarray

    @property
    def F(self) -> np.ndarray:
        """Columns a_k of F_param, C-contiguous as `C @ F` rounds by."""
        return np.ascontiguousarray(self.system.a[1:][self.F_param].T)

    @property
    def s(self) -> int:
        return self.system.factors.L.shape[1]

    @property
    def K(self) -> int:
        return self.system.K

    @property
    def g_augmented(self) -> tuple:
        """One True per matrix parameter with an F column; the benchmark counts them."""
        sizes = np.asarray(self.system.factors.sizes)
        return (True,) * int(np.count_nonzero(sizes[self.F_param]))


def build_ldr(c: CenteredSystem) -> LdrSystem:
    """Optimal rank-one LDR form of a centered system: it plus its t-fit.

    A parameter with a nonzero matrix coefficient gets the rank(A_k)
    columns of its factors as g-columns, and t_k fits a_k = L_k t_k by
    least squares.  When the fit's residual exceeds RHS_FIT_TOL of
    max|a_k| or is not finite, or the parameter appears only in the
    right-hand side, a_k is a column of F instead.
    """
    sys = c.system
    f = sys.factors
    t = np.zeros(f.L.shape[1])
    in_F = np.asarray(f.sizes) == 0
    # a fit that overflows has a non-finite residual, which no test passes
    with np.errstate(over="ignore", invalid="ignore"):
        for k in np.flatnonzero(~in_F):
            Lk, ak = f.L[:, f.blocks[k]], sys.a[k + 1]
            tk, *_ = np.linalg.lstsq(Lk, ak, rcond=None)
            resid = np.max(np.abs(Lk @ tk - ak))
            in_F[k] = not resid <= RHS_FIT_TOL * max(np.max(np.abs(ak)), 1e-300)
            t[f.blocks[k]] = 0.0 if in_F[k] else tk
    return LdrSystem(sys, c.p_check, t, np.flatnonzero(in_F))
