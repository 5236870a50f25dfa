"""Point evaluation of parametric systems and their parameterized
solutions, independent of the enclosure solvers.

Batched point solutions feed the benchmark's containment checks; the
images of the box vertices, their 2-D convex hull and its area give the
polytope projections of `paramint polygon` and `paramint reproduce`.
"""

from __future__ import annotations

import itertools

import numpy as np

from .solvers import ParamSolution
from .systems import ParamLinearSystem

VERTEX_DIM_LIMIT = 20


def point_solutions(sys: ParamLinearSystem, points: np.ndarray):
    """Solve the point system at each sample; returns (solutions, skipped)."""
    if points.shape[0] == 0:
        raise ValueError("no sample points")
    A = sys.A
    mats = A[0] + np.einsum("pk,kij->pij", points, A[1:])
    rhs = sys.a[0] + points @ sys.a[1:]
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


def polygon_area(vertices) -> float:
    """Shoelace area of a polygon given in boundary order."""
    v = np.asarray(vertices, dtype=float)
    if v.shape[0] < 3:
        return 0.0
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))
