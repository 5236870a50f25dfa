"""Reference oracles and published data for the tests, independent of
the enclosure solvers.

Sampled point solutions give inner approximations of solution-set hulls,
grids give inner approximations of secondary-variable ranges, and an LP
decides membership in a parameterized-solution polytope.  The published
auxiliary enclosure of example1 and LDR factors of example2 are the data
the acceptance tests check against, and the equilibrium residual is an
independent statics check of truss assembly and force recovery.  The hull
of a point matrix times a box is also computed in exact rational
arithmetic, the reference the outward-rounded kernel must enclose.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from paramint.intervals import Interval, IntervalVector
from paramint.oracle import VERTEX_DIM_LIMIT, point_solutions
from paramint.problems import example2_system
from paramint.secondary import SecondarySpec
from paramint.solvers import ParamSolution
from paramint.systems import Factors, LdrSystem, ParamLinearSystem, center
from paramint.truss import TrussModel, assemble, force_map

DEFAULT_SEED = 0xC0FFEE


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
    scale * (p_check_i + p'_i) * (b^T u0 + (b^T G) q), G =
    sol.generators(), over the solution's own box -- the quantity the
    refined bounds enclose.  With `system`,
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
        d = (spec.b @ sol.generators()) * spec.scale
        vals = bu0 + pts @ d
        if spec.param_index is not None:
            if sol.p_check is None:
                raise ValueError("solution lacks parameter midpoints")
            cols = sol.columns_for(spec.param_index)
            p_i = sol.p_check[spec.param_index] + pts[:, cols[0]]
            vals = vals * p_i
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


def example1_reference_y() -> IntervalVector:
    """Published auxiliary enclosure for example1: y = [-1/2, 17/3]."""
    return IntervalVector([Interval(-0.5, 17.0 / 3.0)])


def example2_reference_ldr() -> LdrSystem:
    """Published LDR factors for example2 (g ordered as (p2, p3), scaled as
    tabulated); used to regression-check the auxiliary enclosure against
    the published y."""
    c = center(example2_system())
    return LdrSystem(
        A0=c.system.A0,
        a0=c.system.a[0],
        factors=Factors(L=np.array([[0.5, 1.0], [-1.0, 0.0]]),
                        R=np.array([[1.0, -1.0], [-2.0, 0.0]]),
                        sizes=(0, 1, 1)),
        t=np.array([2.0, 0.0]),
        F=np.array([[3.0], [2.0]]),
        g_augmented=(False, False),
        box=c.system.box,
        p_check=c.p_check,
    )


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
