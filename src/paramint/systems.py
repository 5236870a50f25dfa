"""Affine parametric linear systems and their rank-one LDR rewriting.

A system is the family A(p) x = a(p) with
    A(p) = A_0 + sum_k p_k A_k,    a(p) = a_0 + sum_k p_k a_k,
parameters p ranging over a box.  `center` shifts the box to be symmetric
around zero (folding the midpoints into A_0 / a_0), and `build_ldr`
rewrites the centered family as

    (A_0 + L D_g R) x = a_0 + L D_g t + F p''

where D_g is diagonal in the duplicated matrix parameters g, every
g-column's coefficient L_col R_row has rank one, and p'' collects the
parameters appearing only on the right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .intervals import Interval, IntervalVector

RANK_TOL = 1e-12       # pivot is zero if |pivot| <= RANK_TOL * max|A_k|
RHS_FIT_TOL = 1e-10    # residual threshold for t-fitting before augmenting


@dataclass(frozen=True, eq=False)
class ParamLinearSystem:
    """A(p) x = a(p) with A stacked as (K+1, n, n) and a as (K+1, n)."""

    A: np.ndarray
    a: np.ndarray
    box: IntervalVector

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        a = np.asarray(self.a, dtype=float)
        if A.ndim != 3 or A.shape[1] != A.shape[2]:
            raise ValueError("A must be a stack of square matrices")
        if a.ndim != 2 or a.shape[0] != A.shape[0] or a.shape[1] != A.shape[1]:
            raise ValueError("a must stack K+1 vectors of length n")
        if len(self.box) != A.shape[0] - 1:
            raise ValueError("box length must equal the parameter count K")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def K(self) -> int:
        return self.A.shape[0] - 1

    def matrix_at(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return self.A[0] + np.tensordot(p, self.A[1:], axes=1)

    def rhs_at(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return self.a[0] + p @ self.a[1:]

    def solve_at(self, p) -> np.ndarray:
        return np.linalg.solve(self.matrix_at(p), self.rhs_at(p))

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
        for key in ("n", "K", "A", "a", "box"):
            if key not in doc:
                raise ValueError(f"system document missing key {key!r}")
        n, K = int(doc["n"]), int(doc["K"])
        A = np.asarray(doc["A"], dtype=float)
        a = np.asarray(doc["a"], dtype=float)
        if A.shape != (K + 1, n, n):
            raise ValueError(f"A has shape {A.shape}, expected {(K + 1, n, n)}")
        if a.shape != (K + 1, n):
            raise ValueError(f"a has shape {a.shape}, expected {(K + 1, n)}")
        pairs = np.asarray(doc["box"], dtype=float)
        for key, arr in (("A", A), ("a", a), ("box", pairs)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{key} has non-finite entries")
        box = IntervalVector.from_pairs(pairs)
        if len(box) != K:
            raise ValueError(f"box has {len(box)} entries, expected {K}")
        return make_system(A, a, box)


def make_system(A, a, box: IntervalVector) -> ParamLinearSystem:
    """Canonical constructor: folds degenerate parameters into A_0 / a_0."""
    A = np.asarray(A, dtype=float)
    a = np.asarray(a, dtype=float)
    if not isinstance(box, IntervalVector):
        box = IntervalVector.from_pairs(box)
    keep = [k for k in range(len(box)) if box.rad[k] > 0.0]
    if len(keep) < len(box):
        A0, a0 = A[0].copy(), a[0].copy()
        for k in range(len(box)):
            if box.rad[k] == 0.0:
                A0 += box.mid[k] * A[k + 1]
                a0 += box.mid[k] * a[k + 1]
        A = np.concatenate([A0[None], A[1:][keep]])
        a = np.concatenate([a0[None], a[1:][keep]])
        box = IntervalVector(lo=box.lo[keep], hi=box.hi[keep])
    return ParamLinearSystem(A, a, box)


@dataclass(frozen=True, eq=False)
class CenteredSystem:
    """Equivalent system over the symmetric box [-p_hat, p_hat].

    `p_check` keeps the original parameter midpoints so downstream code can
    map centered deviations back to physical parameter values.
    """

    system: ParamLinearSystem
    p_check: np.ndarray

    @property
    def A_check(self) -> np.ndarray:
        return self.system.A[0]

    @property
    def a_check(self) -> np.ndarray:
        return self.system.a[0]


def center(sys: ParamLinearSystem) -> CenteredSystem:
    """Shift the parameter box to be symmetric around zero."""
    p_check = sys.box.mid
    if np.all(p_check == 0.0):
        return CenteredSystem(sys, p_check)
    A = sys.A.copy()
    a = sys.a.copy()
    A[0] = sys.matrix_at(p_check)
    a[0] = sys.rhs_at(p_check)
    box = IntervalVector.symmetric(sys.box.rad)
    return CenteredSystem(ParamLinearSystem(A, a, box), p_check)


def rank_one_factorize(Ak, tol: float = RANK_TOL):
    """Full-rank factorization A_k = L_k R_k with s_k = rank(A_k) columns.

    Gaussian elimination with complete pivoting on the running residual:
    each step peels off the outer product of the pivot column and the
    pivot row.  A pivot counts as zero when |pivot| <= tol * max|A_k|.
    Each (column, row) pair is normalized so the row's first nonzero entry
    is positive; this fixes the orientation of every g-column (the
    bilinear secondary refinement is sensitive to it) and for symmetric
    element matrices reproduces the factor layout the regression tables
    were computed with.
    """
    Ak = np.asarray(Ak, dtype=float)
    scale = np.max(np.abs(Ak))
    if scale == 0.0:
        raise ValueError("zero coefficient matrix has no rank-one factorization")
    resid = Ak.copy()
    cols, rows = [], []
    # entries near the float limit overflow in the residual update; the
    # non-finite pivot row that follows is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(min(Ak.shape)):
            i, j = np.unravel_index(np.argmax(np.abs(resid)), resid.shape)
            pivot = resid[i, j]
            if abs(pivot) <= tol * scale:
                break
            c = resid[:, j].copy()
            r = resid[i, :] / pivot
            if not np.all(np.isfinite(r)):
                raise ValueError("coefficient matrix overflows in its "
                                 "rank-one factorization")
            lead = r[np.abs(r) > 1e-14 * np.max(np.abs(r))][0]
            if lead < 0.0:
                c, r = -c, -r
            cols.append(c)
            rows.append(r)
            resid = resid - np.outer(c, r)
    L = np.column_stack(cols)
    R = np.vstack(rows)
    return L, R


@dataclass(frozen=True, eq=False)
class LdrSystem:
    """Centered system in the form (A0 + L D_g R) x = a0 + L D_g t + F p''.

    g_param maps each g-column to its source parameter index; columns with
    g_augmented[i] = True were added to carry a right-hand side outside
    range(L_k) (their R-row is zero, so they do not affect the rank-one
    structure of the matrix part).
    """

    A0: np.ndarray
    a0: np.ndarray
    L: np.ndarray
    R: np.ndarray
    t: np.ndarray
    F: np.ndarray
    pi_prime: tuple
    pi_double_prime: tuple
    g_param: tuple
    g_augmented: tuple
    box: IntervalVector
    p_check: np.ndarray

    @property
    def n(self) -> int:
        return self.A0.shape[0]

    @property
    def s(self) -> int:
        return self.L.shape[1]

    @property
    def K(self) -> int:
        return len(self.box)

    def block(self, k: int) -> list:
        """g-column indices belonging to parameter k."""
        return [i for i, src in enumerate(self.g_param) if src == k]

    def g_of(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return np.array([p[k] for k in self.g_param])

    def matrix_at(self, p) -> np.ndarray:
        g = self.g_of(p)
        return self.A0 + (self.L * g) @ self.R

    def rhs_at(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        rhs = self.a0 + self.L @ (self.g_of(p) * self.t)
        if self.pi_double_prime:
            rhs = rhs + self.F @ p[list(self.pi_double_prime)]
        return rhs

    def to_doc(self) -> dict:
        return {
            "n": self.n,
            "s": self.s,
            "K": self.K,
            "A0": self.A0.tolist(),
            "a0": self.a0.tolist(),
            "L": self.L.tolist(),
            "R": self.R.tolist(),
            "t": self.t.tolist(),
            "F": self.F.tolist(),
            "piPrime": list(self.pi_prime),
            "piDoublePrime": list(self.pi_double_prime),
            "gParam": list(self.g_param),
            "gAugmented": list(self.g_augmented),
            "box": self.box.to_pairs(),
            "pCheck": self.p_check.tolist(),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "LdrSystem":
        return cls(
            A0=np.asarray(doc["A0"], dtype=float),
            a0=np.asarray(doc["a0"], dtype=float),
            L=np.asarray(doc["L"], dtype=float),
            R=np.asarray(doc["R"], dtype=float),
            t=np.asarray(doc["t"], dtype=float),
            F=np.asarray(doc["F"], dtype=float),
            pi_prime=tuple(doc["piPrime"]),
            pi_double_prime=tuple(doc["piDoublePrime"]),
            g_param=tuple(doc["gParam"]),
            g_augmented=tuple(doc["gAugmented"]),
            box=IntervalVector.from_pairs(doc["box"]),
            p_check=np.asarray(doc["pCheck"], dtype=float),
        )


def build_ldr(c: CenteredSystem) -> LdrSystem:
    """Optimal rank-one LDR form of a centered system.

    Parameters with a nonzero matrix coefficient go to pi_prime and get
    rank(A_k) g-columns each (plus one augmentation column when a_k lies
    outside range(L_k)); parameters appearing only in the right-hand side
    go to pi_double_prime and become columns of F.
    """
    sys = c.system
    n, K = sys.n, sys.K
    pi_prime, pi_dd = [], []
    for k in range(K):
        if np.max(np.abs(sys.A[k + 1])) > 0.0:
            pi_prime.append(k)
        else:
            pi_dd.append(k)

    L_cols, R_rows, t_entries, g_param, g_aug = [], [], [], [], []
    for k in pi_prime:
        Lk, Rk = rank_one_factorize(sys.A[k + 1])
        ak = sys.a[k + 1]
        tk, *_ = np.linalg.lstsq(Lk, ak, rcond=None)
        resid = np.max(np.abs(Lk @ tk - ak))
        augment = resid > RHS_FIT_TOL * max(np.max(np.abs(ak)), 1e-300)
        if augment:
            tk = np.zeros(Lk.shape[1])
        for j in range(Lk.shape[1]):
            L_cols.append(Lk[:, j])
            R_rows.append(Rk[j, :])
            t_entries.append(tk[j])
            g_param.append(k)
            g_aug.append(False)
        if augment:
            L_cols.append(ak.copy())
            R_rows.append(np.zeros(n))
            t_entries.append(1.0)
            g_param.append(k)
            g_aug.append(True)

    L = np.column_stack(L_cols) if L_cols else np.zeros((n, 0))
    R = np.vstack(R_rows) if R_rows else np.zeros((0, n))
    t = np.asarray(t_entries, dtype=float)
    F = (np.column_stack([sys.a[k + 1] for k in pi_dd])
         if pi_dd else np.zeros((n, 0)))
    return LdrSystem(
        A0=sys.A[0], a0=sys.a[0], L=L, R=R, t=t, F=F,
        pi_prime=tuple(pi_prime), pi_double_prime=tuple(pi_dd),
        g_param=tuple(g_param), g_augmented=tuple(g_aug),
        box=sys.box, p_check=np.asarray(c.p_check, dtype=float),
    )
