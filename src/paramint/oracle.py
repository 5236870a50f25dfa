"""Brute-force reference machinery, independent of the enclosure solvers.

Everything here works by direct point evaluation: sampled point solutions
give inner approximations of solution-set hulls, grids give inner
approximations of secondary-variable ranges, and box-vertex images give
the parameterized-solution polytopes.  These are the falsification tools
for every enclosure the solvers produce.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .intervals import Interval, IntervalVector
from .secondary import SecondarySpec
from .solvers import ParamSolution
from .systems import ParamLinearSystem

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


def point_solutions(sys: ParamLinearSystem, points: np.ndarray):
    """Solve the point system at each sample; returns (solutions, skipped)."""
    if points.shape[0] == 0:
        raise ValueError("no sample points")
    mats = sys.A[0] + np.einsum("pk,kij->pij", points, sys.A[1:]) \
        if sys.K else np.broadcast_to(sys.A[0], (points.shape[0], sys.n, sys.n))
    rhs = sys.a[0] + points @ sys.a[1:] if sys.K \
        else np.broadcast_to(sys.a[0], (points.shape[0], sys.n))
    try:
        return np.linalg.solve(mats, rhs[..., None])[..., 0], 0
    except np.linalg.LinAlgError:
        pass
    sols, skipped = [], 0
    for i in range(points.shape[0]):
        try:
            sols.append(np.linalg.solve(mats[i], rhs[i]))
        except np.linalg.LinAlgError:
            skipped += 1
    if not sols:
        raise ValueError("every sampled point system was singular")
    return np.array(sols), skipped


def sample_hull(sys: ParamLinearSystem, plan: SamplingPlan) -> IntervalVector:
    """Componentwise min/max over sampled point solutions: an inner
    approximation of the united solution set's hull."""
    pts = plan.points(sys.box)
    sols, _ = point_solutions(sys, pts)
    return IntervalVector.hull_of_points(sols)


def secondary_range(spec: SecondarySpec, sol: ParamSolution,
                    plan: SamplingPlan,
                    system: Optional[ParamLinearSystem] = None) -> Interval:
    """Sampled range of a secondary expression.

    Without `system`, evaluates the parameterized form
    scale * (p_check_i + p'_i) * (b^T u0 + (b^T U) p') over the solution's
    own box -- the quantity the refined bounds enclose.  With `system`,
    evaluates the secondary on true point solutions of the original family
    (an inner approximation of the physical range); the box sampled is the
    solution's centered box mapped back through p_check.
    """
    pts = plan.points(sol.q_box)
    if system is not None:
        if sol.p_check is None:
            raise ValueError("solution lacks parameter midpoints")
        phys = pts + sol.p_check[None, :]
        u, _ = point_solutions(system, phys)
        vals = u @ (spec.scale * spec.b)
        if spec.param_index is not None:
            vals = vals * phys[:, spec.param_index]
    else:
        bu0 = float(spec.b @ sol.x_check) * spec.scale
        d = (spec.b @ sol.U) * spec.scale
        vals = bu0 + pts @ d
        if spec.param_index is not None:
            if sol.p_check is None:
                raise ValueError("solution lacks parameter midpoints")
            cols = sol.columns_for(spec.param_index)
            p_i = sol.p_check[spec.param_index] + pts[:, cols[0]]
            vals = vals * p_i
    return Interval(float(np.min(vals)), float(np.max(vals)))


def polytope_vertices(sol: ParamSolution) -> np.ndarray:
    """Images x_check + U v of all box vertices v, shape (2^m, n)."""
    if sol.m > VERTEX_DIM_LIMIT:
        raise ValueError(f"vertex enumeration limited to {VERTEX_DIM_LIMIT} axes")
    if sol.m == 0:
        return sol.x_check[None, :].copy()
    corners = np.array(list(itertools.product(
        *[(sol.q_box.lo[j], sol.q_box.hi[j]) for j in range(sol.m)])))
    return sol.x_check[None, :] + corners @ sol.U.T


def zonotope_contains(sol: ParamSolution, x, tol: float = 1e-9) -> bool:
    """Whether x lies in {x_check + U q : q in q_box} (LP feasibility)."""
    from scipy.optimize import linprog  # lazy: it dominates the package's import time
    x = np.asarray(x, dtype=float)
    target = x - sol.x_check
    if sol.m == 0:
        return bool(np.max(np.abs(target)) <= tol)
    bounds = [(sol.q_box.lo[j] - tol, sol.q_box.hi[j] + tol)
              for j in range(sol.m)]
    res = linprog(c=np.zeros(sol.m), A_eq=sol.U, b_eq=target, bounds=bounds,
                  method="highs")
    return bool(res.status == 0)


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


def polygon_area(vertices) -> float:
    """Shoelace area of a polygon given in boundary order."""
    v = np.asarray(vertices, dtype=float)
    if v.shape[0] < 3:
        return 0.0
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))
