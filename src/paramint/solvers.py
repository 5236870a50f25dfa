"""Enclosure solvers for the united solution set of parametric systems.

The regularity gate and three solvers; the solvers report the uniform
parameterized form x(q) = x_check + [U | diag(l_hat)] q over a symmetric
box q (l_hat is empty for p,g):

* ``rohn_inverse``       -- the one regularity gate: bounds rho(Delta)
  from above, raises unless that bound is < 1, and returns it with the
  midpoint and radius of the inverse of [I-Delta, I+Delta];
* ``kolev_pl_solution``  -- single-step p,l-solution x_check + V p' + l,
  whose remainder l is kept as the vector of its radii;
* ``pg_solution``        -- the p,g-parameterized solution built from an
  p,l-solution of the auxiliary s-dim system of the rank-one LDR form; for
  rank-one coefficients with right-hand sides in their ranges it collapses
  to a function of the original parameters only;
* ``rank_one_enclosure`` -- the numerical hull: the auxiliary enclosure
  and hull of ``pg_solution``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .intervals import IntervalVector, affine_image_hull, mat_interval_product
from .systems import CenteredSystem, LdrSystem

RCOND_MIN = 1e-13       # reciprocal condition threshold for MidpointSingular
SPECTRAL_TOL = 1e-12    # power iteration stops at this relative bracket gap
SPECTRAL_MAXITER = 10000  # ... or after this many steps


class RegularityViolation(RuntimeError):
    """A spectral-radius regularity condition failed (certified rho >= 1)."""

    def __init__(self, rho: float, family: str):
        super().__init__(f"regularity condition failed for the {family} "
                         f"family: certified rho {rho:.6g} >= 1")
        self.rho = rho
        self.family = family


class MidpointSingular(RuntimeError):
    """The midpoint matrix A(p_check) is singular or numerically so."""


@dataclass(frozen=True, eq=False)
class ParamSolution:
    """Parameterized enclosure x(q) = x_check + [U | diag(l_hat)] q, q in
    q_box (symmetric).

    U holds the p- and g-columns: column j belongs to original parameter
    param[j] (nondecreasing) and ranges over [-p_hat[param[j]],
    p_hat[param[j]]].  `l_hat` is the diagonal block of the p,l remainder:
    l_i = l_hat_i q_(K+i) with q_(K+i) in [-1, 1], one l-column per row;
    it is empty for p,g.
    """

    x_check: np.ndarray
    U: np.ndarray
    param: np.ndarray
    p_hat: np.ndarray
    p_check: np.ndarray
    l_hat: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def kind(self) -> str:
        return "pl" if self.l_hat.size else "pg"

    @property
    def n(self) -> int:
        return self.x_check.shape[0]

    @property
    def m(self) -> int:
        return self.U.shape[1] + self.l_hat.shape[0]

    def generators(self) -> np.ndarray:
        """The dense n x m generator matrix [U | diag(l_hat)]."""
        if not self.l_hat.size:
            return self.U
        return np.hstack([self.U, np.diag(self.l_hat)])

    @cached_property
    def q_box(self) -> IntervalVector:
        """The symmetric box of every column: p_hat per U-column, then
        [-1, 1] per l-column."""
        return IntervalVector.symmetric(
            np.concatenate([self.p_hat[self.param], np.ones(len(self.l_hat))]))

    @cached_property
    def _widths(self) -> np.ndarray:
        """Number of U-columns of each original parameter."""
        return np.bincount(self.param, minlength=len(self.p_hat))

    def columns_for(self, param: int) -> list:
        """q-column indices tied to one original parameter."""
        return np.flatnonzero(self.param == param).tolist()

    @property
    def is_p_only(self) -> bool:
        """True when every column is a plain original parameter: no
        l-column, and no parameter with several g-copies."""
        return not self.l_hat.size and bool(np.all(self._widths <= 1))

    def to_doc(self) -> dict:
        # a column is kind p when its parameter has one column, else g
        # with its copy number; one l per row follows for p,l
        first = np.searchsorted(self.param, self.param)
        labels = [{"kind": "p" if self._widths[k] == 1 else "g",
                   "index": int(k), "copy": int(j - first[j])}
                  for j, k in enumerate(self.param)]
        labels += [{"kind": "l", "index": i, "copy": 0}
                   for i in range(len(self.l_hat))]
        return {
            "kind": self.kind,
            "xCheck": self.x_check.tolist(),
            "U": self.generators().tolist(),
            "qBox": self.q_box.to_pairs(),
            "labels": labels,
            "pCheck": self.p_check.tolist(),
        }


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


def spectral_radius(M) -> float:
    """Certified upper bound of the Perron root of a nonnegative matrix.

    Power iteration on M + I (the unit shift keeps imprimitive matrices
    from oscillating) picks the positive v of the smallest float
    Collatz-Wielandt bracket max_i (Mv)_i / v_i.  The bound is max_i
    next_up(h_i / v_i), h the upper end of the hull of M v (its rounding
    bounded), >= rho(M) for M's float entries in exact arithmetic.  A
    non-finite entry, or an iterate that overflows, gives inf at once.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("need a square matrix")
    if M.size and np.min(M) < 0.0:
        raise ValueError("spectral_radius requires a componentwise nonnegative matrix")
    # a zero row would pin the lower bracket at 0 for SPECTRAL_MAXITER steps;
    # it splits off a 1x1 zero diagonal block, so deleting it and its
    # column keeps rho
    while M.size:
        live = np.any(M != 0.0, axis=1)
        if live.all():
            break
        M = M[live][:, live]
    if M.size == 0:
        return 0.0
    v = best_v = np.ones(len(M))
    best_upper = np.inf
    with np.errstate(over="ignore"):
        for _ in range(SPECTRAL_MAXITER):
            w = M @ v + v
            ratios = w / v
            upper = np.max(ratios) - 1.0
            # inf or nan: some entry is non-finite or the iterate overflowed
            if not math.isfinite(upper):
                return math.inf
            lower = np.min(ratios) - 1.0
            if upper < best_upper:
                best_upper, best_v = upper, v
            if upper - lower <= SPECTRAL_TOL * max(upper, 1e-300):
                break
            v = np.maximum(w / np.max(w), 1e-16)
        h = mat_interval_product(M, IntervalVector(lo=best_v, hi=best_v)).hi
        return float(np.max(np.nextafter(h / best_v, np.inf)))


def rohn_inverse(delta, family: str = "inverse"
                 ) -> tuple[np.ndarray, np.ndarray, float]:
    """The regularity gate of every solve: (h_mid, H_rad, rho) for the
    inverse [H_lo, H_hi] of [I - Delta, I + Delta].

    rho = spectral_radius(delta), a certified upper bound, must be below
    1, or RegularityViolation(rho, family) is raised before anything else
    is formed.  H_hi = (I - Delta)^-1, and H_lo keeps -H_hi off the diagonal
    and h_jj / (2 h_jj - 1) on it.  So H_mid = (H_lo + H_hi) / 2 is zero
    off the diagonal and is returned as its diagonal h_mid; H_rad =
    (H_hi - H_lo) / 2 equals H_hi off the diagonal.  H_lo = H_mid - H_rad
    and H_hi = H_mid + H_rad.
    """
    rho = spectral_radius(delta)
    if rho >= 1.0:
        raise RegularityViolation(rho, family)
    i_minus_delta = np.subtract(0.0, delta)
    diag = np.diag_indices(i_minus_delta.shape[0])
    i_minus_delta[diag] += 1.0
    h_rad = np.linalg.inv(i_minus_delta)
    d = h_rad[diag]
    d_lo = d / (2.0 * d - 1.0)
    h_rad[diag] = (d - d_lo) / 2.0
    return (d_lo + d) / 2.0, h_rad, rho


def _preconditioned(sys) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(C, x_check, C L) for both solves: C = A0^-1, MidpointSingular if
    A0 is singular or numerically so, and x_check = C a0."""
    try:
        C = np.linalg.inv(sys.A0)
    except np.linalg.LinAlgError as exc:
        raise MidpointSingular("midpoint matrix is singular") from exc
    norm = np.linalg.norm(sys.A0, 1) * np.linalg.norm(C, 1)
    if not np.isfinite(norm) or norm == 0.0 or 1.0 / norm < RCOND_MIN:
        raise MidpointSingular(
            f"midpoint matrix numerically singular (rcond ~ {1.0 / norm:.2e})")
    with np.errstate(over="ignore", invalid="ignore"):
        return C, C @ sys.a[0], C @ sys.factors.L


def evaluate_solution(sol: ParamSolution, box: IntervalVector) -> IntervalVector:
    """Exact hull of x_check + U q over a sub-box of the solution's domain."""
    if len(box) != sol.m:
        raise ValueError(f"box has {len(box)} entries, solution expects {sol.m}")
    if not sol.q_box.encloses(box):
        raise ValueError("box is not contained in the solution's parameter box")
    return affine_image_hull(sol.x_check, sol.U, box,
                             sol.l_hat if sol.l_hat.size else None)


def kolev_pl_solution(c: CenteredSystem) -> EnclosureReport:
    """Single-step p,l-solution of a centered system.

    With C = A(p_check)^-1, x_check = C a(p_check), B0 = C (F - G) and the
    inverse interval matrix H of [I - Delta, I + Delta] for
    Delta = sum_k |C A_k| p_hat_k, the solution is
    x(p', l) = x_check + (H_mid B0) p' + l,  |l| <= H_rad |B0| p_hat.
    """
    sys = c.system
    f = sys.factors
    C, x_check, CL = _preconditioned(sys)
    p_hat = sys.box.rad
    # C A_k = (C L_k) R_k and A_k x_check = L_k (R_k x_check), one
    # coefficient at a time: O(n^2) memory for every coefficient rank
    delta = np.zeros((sys.n, sys.n))
    buf = np.empty((sys.n, sys.n))
    # no warnings: a non-finite C L or Delta is a regularity violation
    # (rho = inf), a non-finite x_check or B0 an OverflowError
    with np.errstate(over="ignore", invalid="ignore"):
        for k, blk in enumerate(f.blocks):
            np.matmul(CL[:, blk], f.R[blk], out=buf)
            np.abs(buf, out=buf)
            np.multiply(p_hat[k], buf, out=buf)
            delta += buf
        # the gate before G and B0: a violation allocates no n x K array
        inverse = rohn_inverse(delta, "midpoint")
        del CL, delta, buf
        Rx = f.R @ x_check
        G = np.empty((sys.n, sys.K))
        for k, blk in enumerate(f.blocks):
            G[:, k] = f.L[:, blk] @ Rx[blk]
        B0 = C @ (sys.a[1:].T - G)
    _check_rhs(x_check, B0)
    return _pl_solution(x_check, B0, inverse, p_hat, c.p_check)


def _check_rhs(*terms) -> None:
    """Raise OverflowError unless every term (x_check, B0, C F) is finite."""
    if not all(np.isfinite(t).all() for t in terms):
        raise OverflowError("right-hand side overflows the float range")


def _pl_solution(x_check, B0, inverse, p_hat, p_check) -> EnclosureReport:
    """The p,l-solution from its terms: x_check, B0 (one column per
    parameter) and rohn_inverse's (h_mid, H_rad, rho) of its Delta."""
    h_mid, h_rad, rho = inverse
    l_hat = h_rad @ (np.abs(B0) @ p_hat)
    # H_mid is diagonal, so H_mid B0 scales the rows of B0; + 0.0 turns a
    # -0.0 into the +0.0 that the matrix product gives
    V = h_mid[:, None] * B0
    V += 0.0
    sol = ParamSolution(x_check, V, np.arange(p_hat.shape[0]), p_hat,
                        p_check, l_hat=l_hat)
    hull = evaluate_solution(sol, sol.q_box)
    return EnclosureReport(sol, hull, rho)


def _aux_b0(ldr: LdrSystem, RCL, RCF, y_check) -> np.ndarray:
    """B0 of the auxiliary system: column k is a_k - A_k y_check with
    A_k = -RCL on block k and a_k = A_k t, less parameter k's column of
    RCF when it has one (k in F_param)."""
    B0 = np.zeros((ldr.s, ldr.K))
    for k, blk in enumerate(ldr.system.factors.blocks):
        A_k = np.negative(RCL[:, blk])
        B0[:, k] = A_k @ ldr.t[blk] - A_k @ y_check[blk]
    B0[:, ldr.F_param] -= RCF
    return B0


def pg_solution(ldr: LdrSystem) -> EnclosureReport:
    """The p,g-parameterized solution of the rank-one LDR form.

    x(p'', g) = x_check - (CF) p'' + (CL D_|y-t|) g over the symmetric box,
    where y is the hull of the p,l-solution of the auxiliary s-dim system,
    whose rho the report carries (a violation is of the "rank-one"
    family).  When every matrix coefficient has rank one, with a_k in
    range(L_k), the columns collapse onto the original parameters (a
    p-only solution).
    """
    sys = ldr.system
    f = sys.factors
    C, x_check, CL = _preconditioned(sys)
    p_hat = sys.box.rad

    # y encloses the auxiliary system (I - RCL D_g) y = R x_check - RCF p''
    # - RCL D_g t over the same box and parameters, solved from its terms
    # without forming it: its midpoint matrix is I, so C = I, y_check =
    # R x_check, the k-th column of B0 is a_k - A_k y_check (kept as that
    # difference, which rounds as the explicit system does) and Delta =
    # |RCL| D_g_hat, formed in RCL once B0 is built.  A non-finite C L
    # gives rho = inf, a regularity violation, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        CF = C @ ldr.F
        y_check = f.R @ x_check
        RCL = f.R @ CL
        B0 = _aux_b0(ldr, RCL, f.R @ CF, y_check)
        delta = np.abs(RCL, out=RCL)
        delta *= np.repeat(p_hat, f.sizes)
    inverse = rohn_inverse(delta, "rank-one")
    del RCL, delta      # one s x s array less during the auxiliary solve
    _check_rhs(x_check, CF, B0)
    y = _pl_solution(y_check, B0, inverse, p_hat, ldr.p_check).hull

    # |y - t| per g-column, with outward rounding on the subtraction
    y_dev = (y - ldr.t).mag

    # U = [CL D_|y-t| | -CF] with its columns in parameter order: each
    # parameter's g-columns, then its F column if it has one
    widths = np.asarray(f.sizes, dtype=int)
    widths[ldr.F_param] += 1
    param = np.repeat(np.arange(sys.K), widths)
    g = np.ones(param.shape[0], dtype=bool)
    g[np.cumsum(widths)[ldr.F_param] - 1] = False
    U = np.empty((sys.n, param.shape[0]))
    U[:, g] = CL * y_dev
    U[:, ~g] = -CF
    sol = ParamSolution(x_check, U, param, p_hat, ldr.p_check)
    hull = evaluate_solution(sol, sol.q_box)
    return EnclosureReport(sol, hull, inverse[2], y_enclosure=y)


def rank_one_enclosure(ldr: LdrSystem):
    """Numerical enclosure via the auxiliary system of the LDR form.

    Returns (y, hull): an enclosure y of the auxiliary united solution set
    and the hull x_check - (CF) p''_box + (CL) D_g(box) |y - t| of the
    primary unknowns -- the y and hull of pg_solution.
    """
    rep = pg_solution(ldr)
    return rep.y_enclosure, rep.hull
