"""Point evaluation of parametric systems and their parameterized
solutions, independent of the enclosure solvers.

Batched point solutions feed the benchmark's containment checks; the
zonogon (the 2-D projection of a solution polytope, built by sorting its
generators by angle) and its area give the polygons of `paramint polygon`
and `paramint reproduce`.
"""

from __future__ import annotations

import numpy as np

from .solvers import ParamSolution
from .systems import ParamLinearSystem


def point_solutions(sys: ParamLinearSystem, points: np.ndarray):
    """Solve the point system at each sample; returns (solutions, skipped)."""
    if points.shape[0] == 0:
        raise ValueError("no sample points")
    mats, rhs = sys.matrix_at(points), sys.rhs_at(points)
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


def zonogon(sol: ParamSolution, i: int, j: int) -> np.ndarray:
    """Boundary of the projection of {x_check + [U | diag(l_hat)] q : q in
    q_box} onto rows (i, j), counterclockwise from its lexicographically
    smallest (x, y) vertex, without collinear vertices.

    The box is symmetric, so the projection is a zonogon centred at
    c = x_check[(i, j)], with one generator per column scaled by its
    radius.  Turned into the right half-plane and summed where their
    slopes are equal, the generators sorted by slope are the edges from
    c - sum(g) to c + sum(g); the way back mirrors them.  O(m log m).
    """
    rows = np.array([i, j])
    G = np.hstack([sol.U[rows] * sol.p_hat[sol.param],
                   sol.l_hat * (np.arange(len(sol.l_hat)) == rows[:, None])])
    G = G[:, np.any(G != 0.0, axis=0)]
    G[:, (G[0] < 0.0) | ((G[0] == 0.0) & (G[1] < 0.0))] *= -1.0
    G += 0.0    # -0.0 to +0.0: a vertical generator's slope is +inf
    # a correctly rounded slope never orders two generators against
    # their angles
    with np.errstate(divide="ignore", over="ignore"):
        group = np.unique(G[1] / G[0], return_inverse=True)[1]
    edges = np.stack([np.bincount(group, g) for g in G])
    # run[:, k] sums the first k edges: vertex k is c - (total - 2 run_k)
    run = np.cumsum(np.hstack([np.zeros((2, 1)), edges]), axis=1)
    d = (run[:, -1:] - 2.0 * run).T
    centre = sol.x_check[rows]
    return np.vstack([centre - d, centre + d[1:-1]])


def polygon_area(vertices) -> float:
    """Shoelace area of a polygon given in boundary order."""
    v = np.asarray(vertices, dtype=float)
    if v.shape[0] < 3:
        return 0.0
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))
