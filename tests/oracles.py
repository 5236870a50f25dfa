"""Reference oracles and published data for the tests, independent of
the enclosure solvers.

Sampled point solutions give inner approximations of solution-set hulls,
grids give inner approximations of secondary-variable ranges, and an LP
decides membership in a parameterized-solution polytope.  The published
auxiliary enclosure of example1 and LDR factors of example2 are the data
the acceptance tests check against, and the equilibrium residual is an
independent statics check of truss assembly and force recovery.  The hull
of a point matrix times a box is also computed in exact rational
arithmetic, the reference the outward-rounded kernel must enclose.  The
images of all box vertices and their 2-D convex hull, in floating point
and in exact rational arithmetic, are the references of
`paramint.oracle.zonogon`.  The Perron root of a float matrix, from
50-digit `mpmath` eigenvalues, is the reference of the certified
spectral radius.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath
import numpy as np
from scipy.optimize import linprog

from paramint.intervals import Interval, IntervalVector
from paramint.oracle import point_solutions
from paramint.problems import example2_system
from paramint.secondary import SecondarySpec
from paramint.solvers import ParamSolution
from paramint.systems import Factors, LdrSystem, ParamLinearSystem, center
from paramint.truss import TrussModel, assemble, force_map

DEFAULT_SEED = 0xC0FFEE
VERTEX_DIM_LIMIT = 20


@dataclass(frozen=True)
class SamplingPlan:
    mode: str                       # "vertices" | "grid" | "random"
    grid_points: int = 0
    count: int = 0
    seed: int = DEFAULT_SEED
    max_evaluations: int = 500_000

    @classmethod
    def vertices(cls) -> "SamplingPlan":
        return cls(mode="vertices")

    @classmethod
    def grid(cls, points_per_axis: int) -> "SamplingPlan":
        return cls(mode="grid", grid_points=points_per_axis)

    @classmethod
    def random(cls, count: int, seed: int = DEFAULT_SEED) -> "SamplingPlan":
        return cls(mode="random", count=count, seed=seed)

    def points(self, box: IntervalVector) -> np.ndarray:
        """Sample points in the box, shape (N, K).  Grid and vertex modes
        include the box corners (ranges of multilinear forms tend to be
        attained there)."""
        K = len(box)
        if K == 0:
            return np.zeros((1, 0))
        if self.mode == "vertices":
            if K > VERTEX_DIM_LIMIT:
                raise ValueError(f"vertex enumeration limited to {VERTEX_DIM_LIMIT} axes")
            corners = itertools.product(*[(box.lo[k], box.hi[k]) for k in range(K)])
            return np.array(list(corners))
        if self.mode == "grid":
            g = max(2, self.grid_points)
            if g ** K > self.max_evaluations:
                raise ValueError("grid exceeds max_evaluations")
            axes = [np.linspace(box.lo[k], box.hi[k], g) for k in range(K)]
            mesh = np.meshgrid(*axes, indexing="ij")
            return np.column_stack([m.ravel() for m in mesh])
        if self.mode == "random":
            rng = np.random.default_rng(self.seed)
            n = min(self.count, self.max_evaluations)
            pts = rng.uniform(box.lo, box.hi, size=(n, K))
            # always include the corners' hull-relevant extremes cheaply
            return np.vstack([pts, box.lo[None, :], box.hi[None, :]])
        raise ValueError(f"unknown sampling mode {self.mode!r}")


def exact_hull(x0, U, box: IntervalVector, diag=None) -> list:
    """Hull of {x0 + [U | diag(d)] q : q in box} in exact rational
    arithmetic, as one (lo, hi) pair of Fractions per row.  x0, U, d and
    the box entries that meet a nonzero generator must be finite."""
    k = np.shape(U)[1]
    rows = []
    for i in range(len(x0)):
        gens = [(j, U[i, j]) for j in range(k)]
        if diag is not None:
            gens.append((k + i, diag[i]))
        lo = hi = Fraction(float(x0[i]))
        for j, a in gens:
            if a != 0.0:
                a = Fraction(float(a))
                p, q = a * Fraction(float(box.lo[j])), a * Fraction(float(box.hi[j]))
                lo, hi = lo + min(p, q), hi + max(p, q)
        rows.append((lo, hi))
    return rows


def sample_hull(sys: ParamLinearSystem, plan: SamplingPlan) -> IntervalVector:
    """Componentwise min/max over sampled point solutions: an inner
    approximation of the united solution set's hull."""
    pts = plan.points(sys.box)
    sols, _ = point_solutions(sys, pts)
    return IntervalVector(lo=sols.min(axis=0), hi=sols.max(axis=0))


def secondary_range(spec: SecondarySpec, sol: ParamSolution,
                    plan: SamplingPlan,
                    system: Optional[ParamLinearSystem] = None) -> Interval:
    """Sampled range of a secondary expression.

    Without `system`, evaluates the parameterized form
    (p_check_i + p'_i) * (b^T u0 + (b^T G) q), G =
    sol.generators(), over the solution's own box -- the quantity the
    refined bounds enclose.  p'_i is sign q_col for parameter i's column
    of nonzero sign, else its first column q_col.  With `system`,
    evaluates the secondary on true point solutions of the original family
    (an inner approximation of the physical range); the box sampled is the
    solution's centered box mapped back through p_check.
    """
    pts = plan.points(sol.q_box)
    if system is not None:
        phys = pts + sol.p_check[None, :]
        u, _ = point_solutions(system, phys)
        vals = u @ spec.b
        if spec.param_index is not None:
            vals = vals * phys[:, spec.param_index]
    else:
        bu0 = float(spec.b @ sol.x_check)
        d = spec.b @ sol.generators()
        vals = bu0 + pts @ d
        if spec.param_index is not None:
            i = spec.param_index
            cols = np.flatnonzero(sol.param == i)
            coupled = cols[sol.sign[cols] != 0]
            col, sign = ((coupled[0], sol.sign[coupled[0]]) if coupled.size
                         else (cols[0], 1))
            vals = vals * (sol.p_check[i] + sign * pts[:, col])
    return Interval(float(np.min(vals)), float(np.max(vals)))


def zonotope_contains(sol: ParamSolution, x, tol: float = 1e-9) -> bool:
    """Whether x lies in {x_check + G q : q in q_box} for the dense
    generators G = sol.generators() (LP feasibility)."""
    x = np.asarray(x, dtype=float)
    target = x - sol.x_check
    if sol.m == 0:
        return bool(np.max(np.abs(target)) <= tol)
    bounds = [(sol.q_box.lo[j] - tol, sol.q_box.hi[j] + tol)
              for j in range(sol.m)]
    res = linprog(c=np.zeros(sol.m), A_eq=sol.generators(), b_eq=target,
                  bounds=bounds, method="highs")
    return bool(res.status == 0)


def polytope_vertices(sol: ParamSolution) -> np.ndarray:
    """Images x_check + G v of all box vertices v, shape (2^m, n), for
    the dense generators G = sol.generators()."""
    if sol.m > VERTEX_DIM_LIMIT:
        raise ValueError(f"vertex enumeration limited to {VERTEX_DIM_LIMIT} axes")
    corners = np.array(list(itertools.product(
        *[(sol.q_box.lo[j], sol.q_box.hi[j]) for j in range(sol.m)])))
    return sol.x_check[None, :] + corners @ sol.generators().T


def convex_hull_2d(points) -> np.ndarray:
    """Vertices of the convex hull of 2-D points in counterclockwise order
    (Andrew's monotone chain; handles collinear/degenerate clouds)."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if pts.shape[0] <= 2:
        return pts
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


def exact_zonogon(sol: ParamSolution, i: int, j: int) -> list:
    """Boundary of the projection of sol's polytope onto rows (i, j) in
    exact rational arithmetic, as (x, y) pairs of Fractions,
    counterclockwise from the lexicographically smallest vertex and
    without collinear vertices.

    The generators are the columns of sol.generators() times the box
    radii, each product rounded once as in floating point; every sum of
    them is exact.  The hull is built one generator g at a time, as the
    convex hull of the previous hull shifted by -g and +g (Andrew's
    monotone chain with exact cross products), so rounding never decides
    whether a vertex with a tiny turn is kept.
    """
    G = sol.generators()[[i, j]] * sol.q_box.hi
    hull = [(Fraction(sol.x_check[i]), Fraction(sol.x_check[j]))]
    for gx, gy in G.T:
        gx, gy = Fraction(gx), Fraction(gy)
        pts = sorted({(x + s * gx, y + s * gy) for x, y in hull for s in (-1, 1)})
        if len(pts) <= 2:
            hull = pts
            continue
        chains = []
        for seq in (pts, pts[::-1]):
            chain = []
            for p in seq:
                while len(chain) >= 2 and (
                        (chain[-1][0] - chain[-2][0]) * (p[1] - chain[-2][1])
                        - (chain[-1][1] - chain[-2][1]) * (p[0] - chain[-2][0])) <= 0:
                    chain.pop()
                chain.append(p)
            chains.append(chain[:-1])
        hull = chains[0] + chains[1]
    return hull


def example1_reference_y() -> IntervalVector:
    """Published auxiliary enclosure for example1: y = [-1/2, 17/3]."""
    return IntervalVector([Interval(-0.5, 17.0 / 3.0)])


def example2_reference_ldr() -> LdrSystem:
    """Published LDR factors for example2 (g ordered as (p2, p3), scaled as
    tabulated) in the centered example2's A0, a and box; used to
    regression-check the auxiliary enclosure against the published y.
    Its F is read from a1 = [3, 2], the published F."""
    c = center(example2_system())
    published = Factors(L=np.array([[0.5, 1.0], [-1.0, 0.0]]),
                        R=np.array([[1.0, -1.0], [-2.0, 0.0]]),
                        sizes=(0, 1, 1))
    return LdrSystem(
        system=ParamLinearSystem(c.system.A0, published, c.system.a, c.system.box),
        p_check=c.p_check,
        t=np.array([2.0, 0.0]),
        F_param=np.array([0]),
    )


def ldr_matrix_at(ldr: LdrSystem, p) -> np.ndarray:
    """A0 + L D_g R of an LDR form at parameter point p."""
    sys = ldr.system
    return sys.A0 + sys.factors.combine(np.asarray(p, dtype=float))


def ldr_rhs_at(ldr: LdrSystem, p) -> np.ndarray:
    """a0 + L D_g t + F p'' of an LDR form at parameter point p; column j
    of F carries parameter F_param[j]."""
    p = np.asarray(p, dtype=float)
    f = ldr.system.factors
    g = np.repeat(p, f.sizes)
    return ldr.system.a[0] + f.L @ (g * ldr.t) + ldr.F @ p[ldr.F_param]


def solve_at(sys: ParamLinearSystem, p) -> np.ndarray:
    """The point solution at parameter point p, by one dense solve."""
    return np.linalg.solve(sys.matrix_at(p), sys.rhs_at(p))


def equilibrium_residual(model: TrussModel, p) -> float:
    """Max unbalanced force over free DOFs at parameter point p, relative to
    the applied load scale.  Independent statics check for the assembly and
    force recovery."""
    sys = assemble(model)
    u = solve_at(sys, p)
    rec = force_map(model)
    forces = rec.forces_at(u, p)
    dof = model.dof_map()
    residual = -sys.rhs_at(p)
    for row, eid in enumerate(rec.element_ids):
        e = model.elements[eid]
        c, s = model.direction(e)
        N = forces[row]
        for node, sign in ((e.node_a, -1.0), (e.node_b, 1.0)):
            for axis, comp in ((0, c), (1, s)):
                idx = dof[node, axis]
                if idx >= 0:
                    residual[idx] += sign * comp * N
    scale = max(np.max(np.abs(sys.rhs_at(p))), 1.0)
    return float(np.max(np.abs(residual)) / scale)


def perron_root(M, digits: int = 50):
    """Perron root (the spectral radius) of a nonnegative float matrix,
    its entries taken exactly, from mpmath's eigenvalues at `digits`
    significant digits; an mpf."""
    with mpmath.workdps(digits):
        A = mpmath.matrix(np.asarray(M, dtype=float).tolist())
        if A.rows == 1:     # mpmath.eig returns its vectors for a 1 x 1
            return abs(A[0, 0])
        return max(abs(e) for e in mpmath.eig(A, left=False, right=False))
