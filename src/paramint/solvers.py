"""Enclosure solvers for the united solution set of parametric systems.

Four procedures, all reporting the uniform parameterized form
x(q) = x_check + U q over a symmetric box q:

* ``rohn_inverse``       -- inverse of the interval matrix [I-Delta, I+Delta];
* ``kolev_pl_solution``  -- single-step p,l-solution x_check + V p' + l;
* ``rank_one_enclosure`` -- numerical hull through the auxiliary s-dim
  system of the rank-one LDR form;
* ``pg_solution``        -- the p,g-parameterized solution built from the
  same auxiliary enclosure; for systems whose matrix coefficients all have
  rank one it collapses to a function of the original parameters only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .intervals import IntervalMatrix, IntervalVector, affine_image_hull
from .systems import CenteredSystem, LdrSystem

RHO_MARGIN = 1e-9       # safety margin against 1 for the unvalidated rho estimate
RCOND_MIN = 1e-13       # reciprocal condition threshold for MidpointSingular

KIND_PL = "pl"
KIND_PG = "pg"


class RegularityViolation(RuntimeError):
    """A spectral-radius regularity condition failed (estimate >= 1)."""

    def __init__(self, rho: float, family: str):
        super().__init__(f"regularity condition failed for the {family} "
                         f"family: rho estimate {rho:.6g} >= 1")
        self.rho = rho
        self.family = family


class MidpointSingular(RuntimeError):
    """The midpoint matrix A(p_check) is singular or numerically so."""


@dataclass(frozen=True)
class ColumnLabel:
    """Tag for one q-column: original parameter, auxiliary g-copy, or l-term."""

    kind: str            # "p" | "g" | "l"
    index: int           # parameter index for p/g, row index for l
    copy: int = 0        # which duplicate within a g-block

    def to_doc(self) -> dict:
        return {"kind": self.kind, "index": self.index, "copy": self.copy}

    @classmethod
    def from_doc(cls, doc: dict) -> "ColumnLabel":
        return cls(doc["kind"], int(doc["index"]), int(doc.get("copy", 0)))


@dataclass(frozen=True, eq=False)
class ParamSolution:
    """Parameterized enclosure x(q) = x_check + U q, q in q_box (symmetric)."""

    kind: str
    x_check: np.ndarray
    U: np.ndarray
    q_box: IntervalVector
    labels: tuple
    p_check: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self.x_check.shape[0]

    @property
    def m(self) -> int:
        return self.U.shape[1]

    def columns_for(self, param: int) -> list:
        """q-column indices tied to one original parameter."""
        return [j for j, lab in enumerate(self.labels)
                if lab.kind in ("p", "g") and lab.index == param]

    @property
    def is_p_only(self) -> bool:
        """True when every column is a plain original parameter."""
        return all(lab.kind == "p" for lab in self.labels)

    def at(self, q) -> np.ndarray:
        return self.x_check + self.U @ np.asarray(q, dtype=float)

    def to_doc(self) -> dict:
        doc = {
            "kind": self.kind,
            "xCheck": self.x_check.tolist(),
            "U": self.U.tolist(),
            "qBox": self.q_box.to_pairs(),
            "labels": [lab.to_doc() for lab in self.labels],
        }
        if self.p_check is not None:
            doc["pCheck"] = self.p_check.tolist()
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "ParamSolution":
        p_check = doc.get("pCheck")
        return cls(
            kind=doc["kind"],
            x_check=np.asarray(doc["xCheck"], dtype=float),
            U=np.asarray(doc["U"], dtype=float),
            q_box=IntervalVector.from_pairs(doc["qBox"]),
            labels=tuple(ColumnLabel.from_doc(d) for d in doc["labels"]),
            p_check=None if p_check is None else np.asarray(p_check, float),
        )


@dataclass(frozen=True, eq=False)
class EnclosureReport:
    """Solver output: the parameterized solution plus its exact interval hull."""

    solution: ParamSolution
    hull: IntervalVector
    regularity_radius: float
    y_enclosure: Optional[IntervalVector] = None

    def to_doc(self) -> dict:
        doc = self.solution.to_doc()
        doc["hull"] = self.hull.to_pairs()
        doc["rho"] = self.regularity_radius
        doc["y"] = None if self.y_enclosure is None else self.y_enclosure.to_pairs()
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "EnclosureReport":
        y = doc.get("y")
        return cls(
            solution=ParamSolution.from_doc(doc),
            hull=IntervalVector.from_pairs(doc["hull"]),
            regularity_radius=float(doc["rho"]),
            y_enclosure=None if y is None else IntervalVector.from_pairs(y),
        )


def spectral_radius(M, tol: float = 1e-12, maxiter: int = 10000) -> float:
    """Upper estimate of the Perron root of a nonnegative matrix.

    Power iteration on M + I (the unit shift keeps imprimitive matrices
    from oscillating) with Collatz-Wielandt brackets: for any positive v,
    max_i (Mv)_i / v_i bounds rho(M) from above, so the running minimum of
    the upper bracket is always a valid estimate.  The first iterate from
    v = ones reproduces the infinity-norm fallback bound.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("need a square matrix")
    if M.size and np.min(M) < 0.0:
        raise ValueError("spectral_radius requires a componentwise nonnegative matrix")
    # a zero row would pin the lower bracket at 0 until maxiter; it splits
    # off a 1x1 zero diagonal block, so deleting it and its column keeps rho
    while M.size:
        live = np.any(M != 0.0, axis=1)
        if live.all():
            break
        M = M[live][:, live]
    if M.size == 0:
        return 0.0
    n = M.shape[0]
    v = np.ones(n)
    best_upper = np.inf
    for _ in range(maxiter):
        w = M @ v + v
        ratios = w / v
        upper = np.max(ratios) - 1.0
        lower = np.min(ratios) - 1.0
        best_upper = min(best_upper, upper)
        if upper - lower <= tol * max(upper, 1e-300):
            break
        v = np.maximum(w / np.max(w), 1e-16)
    return float(max(best_upper, 0.0))


def rohn_inverse(delta, rho: Optional[float] = None) -> IntervalMatrix:
    """Inverse interval matrix of [I - Delta, I + Delta] for rho(Delta) < 1.

    Upper bound H_bar = (I - Delta)^-1; lower bound keeps -H_bar off the
    diagonal and h_jj / (2 h_jj - 1) on it.  `rho` is spectral_radius(delta)
    when the caller has already computed it; the check uses it as given.
    """
    delta = np.asarray(delta, dtype=float)
    if np.min(delta) < 0.0:
        raise ValueError("Delta must be componentwise nonnegative")
    if rho is None:
        rho = spectral_radius(delta)
    if rho + RHO_MARGIN >= 1.0:
        raise RegularityViolation(rho, "inverse")
    n = delta.shape[0]
    h_bar = np.linalg.inv(np.eye(n) - delta)
    h_under = -h_bar.copy()
    d = np.diag(h_bar)
    h_under[np.diag_indices(n)] = d / (2.0 * d - 1.0)
    return IntervalMatrix(lo=h_under, hi=h_bar)


def _midpoint_inverse(A0) -> np.ndarray:
    try:
        C = np.linalg.inv(A0)
    except np.linalg.LinAlgError as exc:
        raise MidpointSingular("midpoint matrix is singular") from exc
    norm = np.linalg.norm(A0, 1) * np.linalg.norm(C, 1)
    if not np.isfinite(norm) or norm == 0.0 or 1.0 / norm < RCOND_MIN:
        raise MidpointSingular(
            f"midpoint matrix numerically singular (rcond ~ {1.0 / norm:.2e})")
    return C


def evaluate_solution(sol: ParamSolution, box: IntervalVector) -> IntervalVector:
    """Exact hull of x_check + U q over a sub-box of the solution's domain."""
    if len(box) != sol.m:
        raise ValueError(f"box has {len(box)} entries, solution expects {sol.m}")
    if not sol.q_box.encloses(box):
        raise ValueError("box is not contained in the solution's parameter box")
    return affine_image_hull(sol.x_check, sol.U, box)


def kolev_pl_solution(c: CenteredSystem) -> EnclosureReport:
    """Single-step p,l-solution of a centered system.

    With C = A(p_check)^-1, x_check = C a(p_check), B0 = C (F - G) and the
    inverse interval matrix H of [I - Delta, I + Delta] for
    Delta = sum_k |C A_k| p_hat_k, the solution is
    x(p', l) = x_check + (H_mid B0) p' + l,  |l| <= H_rad |B0| p_hat.
    """
    sys = c.system
    K = sys.K
    C = _midpoint_inverse(sys.A[0])
    x_check = C @ sys.a[0]
    B0, delta, rho = None, None, 0.0
    if K > 0:
        CA = np.stack([C @ sys.A[k + 1] for k in range(K)])
        delta = np.tensordot(sys.box.rad, np.abs(CA), axes=1)
        rho = spectral_radius(delta)
        if rho + RHO_MARGIN >= 1.0:
            raise RegularityViolation(rho, "midpoint")
        F = sys.a[1:].T
        G = np.column_stack([sys.A[k + 1] @ x_check for k in range(K)])
        B0 = C @ (F - G)
    return _pl_solution(x_check, B0, delta, rho, sys.box.rad,
                        np.asarray(c.p_check, dtype=float))


def _pl_solution(x_check, B0, delta, rho: float, p_hat,
                 p_check=None) -> EnclosureReport:
    """The p,l-solution from its terms: x_check, B0 (one column per
    parameter) and Delta, whose regularity (rho < 1) the caller has
    already checked."""
    n, K = x_check.shape[0], p_hat.shape[0]
    if K > 0:
        H = rohn_inverse(delta, rho)
        V = H.mid @ B0
        l_hat = H.rad @ (np.abs(B0) @ p_hat)
    else:
        V = np.zeros((n, 0))
        l_hat = np.zeros(n)

    U = np.hstack([V, np.diag(l_hat)])
    radii = np.concatenate([p_hat, np.ones(n)])
    labels = tuple([ColumnLabel("p", k) for k in range(K)] +
                   [ColumnLabel("l", i) for i in range(n)])
    sol = ParamSolution(KIND_PL, x_check, U, IntervalVector.symmetric(radii),
                        labels, p_check=p_check)
    hull = evaluate_solution(sol, sol.q_box)
    return EnclosureReport(sol, hull, rho)


def _pg_pipeline(ldr: LdrSystem, y_override: Optional[IntervalVector] = None):
    """Shared machinery for rank_one_enclosure and pg_solution."""
    n, s, K = ldr.n, ldr.s, ldr.K
    C = _midpoint_inverse(ldr.A0)
    x_check = C @ ldr.a0
    p_hat = ldr.box.rad
    CL = C @ ldr.L
    CF = C @ ldr.F
    RCL = ldr.R @ CL
    RCF = ldr.R @ CF
    g_hat = np.array([p_hat[k] for k in ldr.g_param])

    # y encloses the auxiliary system (I - RCL D_g) y = R x_check - RCF p''
    # - RCL D_g t over the same box, solved from its terms without forming
    # it: its midpoint matrix is I, so C = I, y_check = R x_check, the k-th
    # column of B0 is a_k - A_k y_check (kept as that difference, which
    # rounds as the explicit system does) and Delta = |RCL| D_g_hat
    delta = np.abs(RCL) * g_hat[None, :]
    rho = spectral_radius(delta) if s else 0.0
    if rho + RHO_MARGIN >= 1.0:
        raise RegularityViolation(rho, "rank-one")

    if y_override is not None:
        y = y_override
    elif s == 0:
        y = IntervalVector(lo=np.zeros(0), hi=np.zeros(0))
    else:
        y_check = ldr.R @ x_check
        B0 = np.zeros((s, K))
        for k in ldr.pi_prime:
            blk = ldr.block(k)
            B0[:, k] = (-RCL[:, blk] @ ldr.t[blk]) - (-RCL[:, blk] @ y_check[blk])
        for pos, k in enumerate(ldr.pi_double_prime):
            B0[:, k] = -RCF[:, pos]
        y = _pl_solution(y_check, B0, delta, rho, p_hat).hull
    if len(y) != s:
        raise ValueError(f"y enclosure has {len(y)} entries, expected {s}")

    # |y - t| per g-column, with outward rounding on the subtraction
    y_dev = (y - ldr.t).mag

    cols, labels, radii = [], [], []
    dd_pos = {k: pos for pos, k in enumerate(ldr.pi_double_prime)}
    for k in range(K):
        if k in dd_pos:
            cols.append(-CF[:, dd_pos[k]])
            labels.append(ColumnLabel("p", k))
            radii.append(p_hat[k])
        else:
            blk = ldr.block(k)
            plain = len(blk) == 1 and not ldr.g_augmented[blk[0]]
            for copy, i in enumerate(blk):
                cols.append(CL[:, i] * y_dev[i])
                labels.append(ColumnLabel("p" if plain else "g", k, copy))
                radii.append(p_hat[k])
    U = np.column_stack(cols) if cols else np.zeros((n, 0))
    sol = ParamSolution(KIND_PG, x_check, U, IntervalVector.symmetric(radii),
                        tuple(labels), p_check=np.asarray(ldr.p_check, float))
    hull = evaluate_solution(sol, sol.q_box)
    return sol, hull, rho, y


def rank_one_enclosure(ldr: LdrSystem):
    """Numerical enclosure via the auxiliary system of the LDR form.

    Returns (y, hull): an enclosure y of the auxiliary united solution set
    and the hull x_check - (CF) p''_box + (CL) D_g(box) |y - t| of the
    primary unknowns.
    """
    _, hull, _, y = _pg_pipeline(ldr)
    return y, hull


def pg_solution(ldr: LdrSystem,
                y_override: Optional[IntervalVector] = None) -> EnclosureReport:
    """The p,g-parameterized solution of the rank-one LDR form.

    x(p'', g) = x_check - (CF) p'' + (CL D_|y-t|) g over the symmetric box;
    built from the same y as rank_one_enclosure, so both hulls coincide
    bit for bit.  When every matrix coefficient has rank one the g-columns
    collapse onto the original parameters (a p-only solution).
    """
    sol, hull, rho, y = _pg_pipeline(ldr, y_override=y_override)
    return EnclosureReport(sol, hull, rho, y_enclosure=y)
