"""2-D pin-jointed truss models with interval material/load parameters.

Assembly produces an affine parametric family K(p) u = f(p): each element
whose modulus or area is an interval parameter contributes its rank-one
element stiffness to that parameter's coefficient, kept as one factor
column and row, and loads may be affine in load parameters.  Force
recovery yields one axial-force row per element, split so a parametric
EA/L multiplier appears exactly once.  Both read each element from one
walk (`_elements`), so a parametric element's force row is its factor
column up to the orientation sign.  Construction rejects a non-finite
number and a negative EA/L at the box midpoint; a mechanism is left to
the solves' singularity check.

Bundled generators build the two reference structures used throughout the
test suite: a 6-bar planar truss (4 free DOFs, two interval areas and an
interval load) and a one-bay X-braced cantilever tower (5 members per
story plus a base chord, interval modulus per element and interval floor
loads).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .intervals import Interval, IntervalVector, mat_interval_product
from .secondary import SecondarySpec
from .systems import Factors, ParamLinearSystem, orient_factors

Quantity = Union[float, str]   # crisp value or named interval parameter

SUPPORT_KINDS = ("pin", "roller-x", "roller-y", "free")


@dataclass(frozen=True)
class Element:
    node_a: int
    node_b: int
    modulus: Quantity
    area: Quantity


@dataclass(frozen=True)
class LoadTerm:
    """Affine load component const + sum(coeff * param)."""

    node: int
    axis: int                      # 0 = x, 1 = y
    const: float = 0.0
    terms: tuple = ()              # ((param_name, coeff), ...)


@dataclass(frozen=True, eq=False)
class TrussModel:
    nodes: tuple                   # ((x, y), ...)
    elements: tuple                # (Element, ...)
    supports: dict                 # node index -> support kind
    loads: tuple                   # (LoadTerm, ...)
    params: tuple                  # ((name, Interval), ...)

    def __post_init__(self):
        # the position map keeps a name's last index, so an earlier copy
        # of a duplicate name is found at a different index
        for k, (name, iv) in enumerate(self.params):
            if self._param_position[name] != k:
                raise ValueError(f"duplicate parameter name {name!r}")
            if not (math.isfinite(iv.lo) and math.isfinite(iv.hi)):
                raise ValueError(f"parameter {name!r} {iv} is not finite")
        # NaN would pass the zero-length check below
        for i, xy in enumerate(self.nodes):
            if not all(map(math.isfinite, xy)):
                raise ValueError(f"node {i} coordinate {xy} is not finite")
        for node, kind in self.supports.items():
            self._check_node(node, "support")
            if kind not in SUPPORT_KINDS:
                raise ValueError(f"unknown support kind {kind!r} at node {node}")
        for t in self.loads:
            self._check_node(t.node, "load")
            if t.axis not in (0, 1):
                raise ValueError(f"load axis {t.axis} is neither 0 (x) nor 1 (y)")
            for name, _ in t.terms:
                self.param_index(name)     # raises for an unknown name
            if not all(map(math.isfinite, (t.const, *(c for _, c in t.terms)))):
                raise ValueError(f"load at node {t.node} axis {t.axis} (const "
                                 f"{t.const}, terms {t.terms}) is not finite")
        for k, e in enumerate(self.elements):
            self._check_node(e.node_a, "element")
            self._check_node(e.node_b, "element")
            if self.length(e) <= 0.0:
                raise ValueError("element with zero length")
            if isinstance(e.modulus, str) and isinstance(e.area, str):
                raise ValueError(
                    "modulus and area cannot both be interval parameters "
                    "(stiffness must stay affine)")
            for what, q in (("modulus", e.modulus), ("area", e.area)):
                mid = (self.params[self.param_index(q)][1].mid
                       if isinstance(q, str) else q)
                if not math.isfinite(mid):
                    raise ValueError(f"element {k} {what} {q} is not finite")
                # EA/L >= 0 at the box midpoint keeps K(p_check) semidefinite,
                # so the solves' singularity check is the stability check
                if mid < 0.0:
                    raise ValueError(f"element {k} {what} {q} is negative at "
                                     f"the box midpoint ({mid})")

    def _check_node(self, node, role: str) -> None:
        # a negative index would silently count from the last node
        if node not in range(len(self.nodes)):
            raise ValueError(f"{role} node {node} out of range "
                             f"0..{len(self.nodes) - 1}")

    # -- parameters ----------------------------------------------------------

    @property
    def param_names(self) -> list:
        return [name for name, _ in self.params]

    @cached_property
    def _param_position(self) -> dict:
        return {name: k for k, name in enumerate(self.param_names)}

    def param_index(self, name: str) -> int:
        try:
            return self._param_position[name]
        except KeyError:
            raise ValueError(f"unknown parameter {name!r}") from None

    @property
    def param_box(self) -> IntervalVector:
        return IntervalVector([iv for _, iv in self.params])

    # -- geometry --------------------------------------------------------------

    def length(self, e: Element) -> float:
        (xa, ya), (xb, yb) = self.nodes[e.node_a], self.nodes[e.node_b]
        return math.hypot(xb - xa, yb - ya)

    def direction(self, e: Element):
        (xa, ya), (xb, yb) = self.nodes[e.node_a], self.nodes[e.node_b]
        L = self.length(e)
        return (xb - xa) / L, (yb - ya) / L

    # -- degrees of freedom ------------------------------------------------------

    def dof_map(self) -> np.ndarray:
        """(num_nodes, 2) array of free-DOF indices, -1 where constrained;
        the free DOFs are numbered node by node, x before y."""
        kinds = [self.supports.get(i, "free") for i in range(len(self.nodes))]
        free = np.array([[k not in ("pin", f"roller-{axis}") for axis in "xy"]
                         for k in kinds], dtype=bool).reshape(-1, 2)
        dof = np.full(free.shape, -1)
        dof[free] = np.arange(np.count_nonzero(free))
        return dof

    @property
    def n_free(self) -> int:
        return int((self.dof_map() >= 0).sum())


def _elements(model: TrussModel, dof: np.ndarray):
    """Per element: the free-DOF (index, weight) entries of its direction
    difference (-c, -s, c, s), zero weights dropped; its EA/L coefficient,
    without the interval factor if there is one; and that factor's
    parameter index, None when EA/L is crisp."""
    for e in model.elements:
        c, s = model.direction(e)
        entries = [(dof[node, axis], sign * comp)
                   for node, sign in ((e.node_a, -1.0), (e.node_b, 1.0))
                   for axis, comp in ((0, c), (1, s))
                   if dof[node, axis] >= 0 and comp != 0.0]
        L = model.length(e)
        if isinstance(e.modulus, str):
            yield entries, float(e.area) / L, model.param_index(e.modulus)
        elif isinstance(e.area, str):
            yield entries, float(e.modulus) / L, model.param_index(e.area)
        else:
            yield entries, float(e.modulus) * float(e.area) / L, None


def assemble(model: TrussModel) -> ParamLinearSystem:
    """Reduced parametric stiffness family K(p) u = f(p) on the free DOFs.

    Reads each element from the same walk as `force_map`.  Crisp elements
    are scattered into A0.  The coefficient of parameter k is kept
    factored: one column L = coef d sigma and row R = sigma d^T per element
    it drives, where d is the element's free-DOF direction difference and
    the sign sigma makes the row's first nonzero positive (`orient_factors`).
    No dense coefficient is formed, nor K(p_check): `center` forms that."""
    dof = model.dof_map()
    n = model.n_free
    P = len(model.params)
    A0 = np.zeros((n, n))
    a = np.zeros((P + 1, n))
    terms = [[] for _ in range(P)]   # per parameter: (coef, entries)

    for entries, coef, pidx in _elements(model, dof):
        if pidx is None:
            for (i, di) in entries:
                for (j, dj) in entries:
                    A0[i, j] += coef * di * dj
        elif entries:
            terms[pidx].append((coef, entries))

    for t in model.loads:
        idx = dof[t.node, t.axis]
        if idx < 0:
            raise ValueError(f"load applied on constrained DOF at node {t.node}")
        a[0][idx] += t.const
        for name, coeff in t.terms:
            a[model.param_index(name) + 1][idx] += coeff

    cols = [col for group in terms for col in group]
    L, R = np.zeros((n, len(cols))), np.zeros((len(cols), n))
    for j, (coef, entries) in enumerate(cols):
        for idx, di in entries:
            L[idx, j] = coef * di
            R[j, idx] = di
    orient_factors(L, R)
    return ParamLinearSystem(A0, Factors(L, R, tuple(map(len, terms))),
                             a, model.param_box)


@dataclass(frozen=True, eq=False)
class ForceRecovery:
    """Axial-force map F = D_v T u with any parametric multiplier split out.

    Row i gives element element_ids[i]'s axial force as
    multiplier_i * (T[i] @ u), where multiplier_i is 1 for crisp rows and
    the interval parameter multiplier_param[i] otherwise (the parameter's
    single deliberate occurrence).
    """

    element_ids: tuple
    T: np.ndarray
    multiplier_param: tuple           # parameter index or None, per row

    @property
    def m(self) -> int:
        return self.T.shape[0]

    def forces_at(self, u, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        vals = self.T @ np.asarray(u, dtype=float)
        mult = np.array([1.0 if k is None else p[k]
                         for k in self.multiplier_param])
        return mult * vals

    def direct_bounds(self, hull: IntervalVector,
                      box: IntervalVector) -> IntervalVector:
        """Direct force bounds from a displacement hull: T u over the hull,
        times the parameter interval on the multiplied rows."""
        Tu = mat_interval_product(self.T, hull)
        on = np.array([k is not None for k in self.multiplier_param], dtype=bool)
        k = [k for k in self.multiplier_param if k is not None]
        scaled = (IntervalVector(lo=box.lo[k], hi=box.hi[k])
                  * IntervalVector(lo=Tu.lo[on], hi=Tu.hi[on]))
        lo, hi = Tu.lo.copy(), Tu.hi.copy()
        lo[on], hi[on] = scaled.lo, scaled.hi
        return IntervalVector(lo=lo, hi=hi)

    def to_secondary_specs(self) -> list:
        return [SecondarySpec(b=self.T[i], param_index=self.multiplier_param[i])
                for i in range(self.m)]


def force_map(model: TrussModel) -> ForceRecovery:
    """Geometric force recovery: one row per element that touches a free DOF,
    axial force = (EA/L) * direction difference of the end displacements.
    Reads each element from the same walk as `assemble`."""
    rows = [(eid, entries, coef, pidx) for eid, (entries, coef, pidx)
            in enumerate(_elements(model, model.dof_map())) if entries]
    T = np.zeros((len(rows), model.n_free))
    for i, (_, entries, coef, _) in enumerate(rows):
        for idx, d in entries:
            T[i, idx] = coef * d
    return ForceRecovery(element_ids=tuple(r[0] for r in rows), T=T,
                         multiplier_param=tuple(r[3] for r in rows))


# ---------------------------------------------------------------------------
# bundled structures
# ---------------------------------------------------------------------------

def six_bar_truss() -> TrussModel:
    """6-bar benchmark truss: two pinned base nodes, two free nodes, interval
    areas on the two diagonals and an interval load factor Q."""
    E = 2.1e8          # kN/m^2
    A14 = 1.0e-3       # m^2, elements 1..4
    return TrussModel(
        nodes=((0.0, 0.0), (0.0, 0.8), (0.6, 0.8), (0.6, 0.0)),
        elements=(
            Element(1, 2, E, A14),          # e1: top chord, L = 0.6
            Element(0, 3, E, A14),          # e2: base chord between supports
            Element(0, 1, E, A14),          # e3: left post, L = 0.8
            Element(3, 2, E, A14),          # e4: right post, L = 0.8
            Element(3, 1, E, "A5"),         # e5: diagonal, L = 1.0
            Element(0, 2, E, "A6"),         # e6: diagonal, L = 1.0
        ),
        supports={0: "pin", 3: "pin"},
        loads=(
            LoadTerm(1, 0, terms=(("Q", 1.0),)),
            LoadTerm(1, 1, terms=(("Q", 2.0),)),
            LoadTerm(2, 0, terms=(("Q", 2.5),)),
            LoadTerm(2, 1, terms=(("Q", -1.5),)),
        ),
        params=(
            ("A5", Interval(1.008e-3, 1.092e-3)),
            ("A6", Interval(1.0e-3, 1.1e-3)),
            ("Q", Interval(20.0, 21.0)),
        ),
    )


def six_bar_reference_force_map() -> ForceRecovery:
    """Force rows as tabulated for this benchmark structure.

    Rows cover elements e1, e3, e4, e5, e6 (the base chord joins two
    supports and carries no free-DOF force).  The e6 row keeps the
    tabulated direction weights (0.8, 0.6); the geometric map derived from
    the assembled topology has them transposed (0.6, 0.8).  The published
    force tables follow this matrix, and all regression tables use it.
    """
    E = 2.1e8
    T = np.array([
        [-E * 1e-3 / 0.6, 0.0, E * 1e-3 / 0.6, 0.0],
        [0.0, E * 1e-3 / 0.8, 0.0, 0.0],
        [0.0, 0.0, 0.0, E * 1e-3 / 0.8],
        [-0.6 * E, 0.8 * E, 0.0, 0.0],
        [0.0, 0.0, 0.8 * E, 0.6 * E],
    ])
    return ForceRecovery(
        element_ids=(0, 2, 3, 4, 5),
        T=T,
        multiplier_param=(None, None, None, 0, 1),
    )


def cantilever_truss(floors: int = 20) -> TrussModel:
    """One-bay X-braced cantilever tower.

    Bay 1 m, story height 0.75 m, area 0.01 m^2, nominal modulus 2e8
    kN/m^2 with +/-5% interval per element, and a 10 kN +/-5% horizontal
    load at every left-side floor node.  Element numbering (frozen by
    `test_cantilever_frozen_numbering`): the base chord first, then per
    story bottom-up: left column, right column, falling diagonal
    (top-left to bottom-right), rising diagonal (bottom-left to top-right),
    story beam.  With 20 floors the rising diagonal of story 8 is element
    40.
    """
    if floors < 1:
        raise ValueError("floors must be >= 1")
    nodes = []
    for level in range(floors + 1):
        y = 0.75 * level
        nodes.append((0.0, y))
        nodes.append((1.0, y))

    E_lo, E_hi = 0.95 * 2.0e8, 1.05 * 2.0e8
    area = 0.01
    elements = []
    params = []

    def new_element(a, b):
        name = f"E{len(elements) + 1}"
        elements.append(Element(a, b, name, area))
        params.append((name, Interval(E_lo, E_hi)))

    new_element(0, 1)                              # base chord
    for s in range(1, floors + 1):
        bl, br = 2 * (s - 1), 2 * (s - 1) + 1
        tl, tr = 2 * s, 2 * s + 1
        new_element(bl, tl)                        # left column
        new_element(br, tr)                        # right column
        new_element(tl, br)                        # falling diagonal
        new_element(bl, tr)                        # rising diagonal
        new_element(tl, tr)                        # story beam

    loads = []
    for j in range(1, floors + 1):
        params.append((f"P{j}", Interval(9.5, 10.5)))
        loads.append(LoadTerm(2 * j, 0, terms=((f"P{j}", 1.0),)))

    return TrussModel(
        nodes=tuple(nodes),
        elements=tuple(elements),
        supports={0: "pin", 1: "roller-y"},
        loads=tuple(loads),
        params=tuple(params),
    )
