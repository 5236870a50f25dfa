"""2-D pin-jointed truss models with interval material/load parameters.

Assembly produces an affine parametric family K(p) u = f(p): each element
whose modulus or area is an interval parameter contributes its (rank-one)
element stiffness as that parameter's coefficient matrix, and loads may be
affine in load parameters.  Force recovery yields one axial-force row per
element, split so a parametric EA/L multiplier appears exactly once.

Bundled generators build the two reference structures used throughout the
test suite: a 6-bar planar truss (4 free DOFs, two interval areas and an
interval load) and a one-bay X-braced cantilever tower (5 members per
story plus a base chord, interval modulus per element and interval floor
loads).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .intervals import Interval, IntervalVector, mat_interval_product
from .secondary import SecondarySpec
from .solvers import MidpointSingular
from .systems import ParamLinearSystem, make_system

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
        for node, kind in self.supports.items():
            if kind not in SUPPORT_KINDS:
                raise ValueError(f"unknown support kind {kind!r} at node {node}")
        for e in self.elements:
            if self.length(e) <= 0.0:
                raise ValueError("element with zero length")
            if isinstance(e.modulus, str) and isinstance(e.area, str):
                raise ValueError(
                    "modulus and area cannot both be interval parameters "
                    "(stiffness must stay affine)")
            for q in (e.modulus, e.area):
                if isinstance(q, str) and q not in self.param_names:
                    raise ValueError(f"unknown parameter {q!r}")

    # -- parameters ----------------------------------------------------------

    @property
    def param_names(self) -> list:
        return [name for name, _ in self.params]

    def param_index(self, name: str) -> int:
        return self.param_names.index(name)

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
        """(num_nodes, 2) array of free-DOF indices, -1 where constrained."""
        dof = -np.ones((len(self.nodes), 2), dtype=int)
        counter = 0
        for i in range(len(self.nodes)):
            kind = self.supports.get(i, "free")
            fixed_x = kind in ("pin", "roller-x")
            fixed_y = kind in ("pin", "roller-y")
            if not fixed_x:
                dof[i, 0] = counter
                counter += 1
            if not fixed_y:
                dof[i, 1] = counter
                counter += 1
        return dof

    @property
    def n_free(self) -> int:
        return int((self.dof_map() >= 0).sum())

    # -- serialization ---------------------------------------------------------

    def to_doc(self) -> dict:
        def qty(q):
            return {"param": q} if isinstance(q, str) else {"crisp": q}

        return {
            "nodes": [list(xy) for xy in self.nodes],
            "elements": [{"a": e.node_a, "b": e.node_b,
                          "E": qty(e.modulus), "A": qty(e.area)}
                         for e in self.elements],
            "supports": {str(i): kind for i, kind in self.supports.items()},
            "loads": [{"node": t.node, "axis": t.axis, "const": t.const,
                       "terms": [[name, c] for name, c in t.terms]}
                      for t in self.loads],
            "params": [[name, iv.to_pair()] for name, iv in self.params],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "TrussModel":
        def qty(d):
            if "param" in d:
                return d["param"]
            return float(d["crisp"])

        return cls(
            nodes=tuple((float(x), float(y)) for x, y in doc["nodes"]),
            elements=tuple(Element(int(e["a"]), int(e["b"]),
                                   qty(e["E"]), qty(e["A"]))
                           for e in doc["elements"]),
            supports={int(i): kind for i, kind in doc["supports"].items()},
            loads=tuple(LoadTerm(int(t["node"]), int(t["axis"]),
                                 float(t.get("const", 0.0)),
                                 tuple((n, float(c)) for n, c in t.get("terms", [])))
                        for t in doc["loads"]),
            params=tuple((name, Interval(lo, hi))
                         for name, (lo, hi) in doc["params"]),
        )


def _stiffness_split(model: TrussModel, e: Element):
    """(crisp coefficient, param index or None, param coefficient) of EA/L."""
    L = model.length(e)
    if isinstance(e.modulus, str):
        return 0.0, model.param_index(e.modulus), float(e.area) / L
    if isinstance(e.area, str):
        return 0.0, model.param_index(e.area), float(e.modulus) / L
    return float(e.modulus) * float(e.area) / L, None, 0.0


def _element_rows(model: TrussModel, e: Element, dof: np.ndarray):
    """Free-DOF scatter of the element direction difference (-c,-s,c,s)."""
    c, s = model.direction(e)
    entries = []
    for node, sign in ((e.node_a, -1.0), (e.node_b, 1.0)):
        for axis, comp in ((0, c), (1, s)):
            idx = dof[node, axis]
            if idx >= 0 and comp != 0.0:
                entries.append((idx, sign * comp))
    return entries


def assemble(model: TrussModel) -> ParamLinearSystem:
    """Reduced parametric stiffness family K(p) u = f(p) on the free DOFs."""
    dof = model.dof_map()
    n = model.n_free
    P = len(model.params)
    A = np.zeros((P + 1, n, n))
    a = np.zeros((P + 1, n))

    for e in model.elements:
        crisp, pidx, pcoef = _stiffness_split(model, e)
        entries = _element_rows(model, e, dof)
        for (i, di) in entries:
            for (j, dj) in entries:
                if crisp:
                    A[0][i, j] += crisp * di * dj
                if pidx is not None:
                    A[pidx + 1][i, j] += pcoef * di * dj

    for t in model.loads:
        idx = dof[t.node, t.axis]
        if idx < 0:
            raise ValueError(f"load applied on constrained DOF at node {t.node}")
        a[0][idx] += t.const
        for name, coeff in t.terms:
            a[model.param_index(name) + 1][idx] += coeff

    sys = make_system(A, a, model.param_box)
    try:
        np.linalg.cholesky(sys.matrix_at(sys.box.mid))
    except np.linalg.LinAlgError as exc:
        raise MidpointSingular("structure is unstable: midpoint stiffness "
                               "matrix is not positive definite") from exc
    return sys


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
        rows = []
        for i, k in enumerate(self.multiplier_param):
            iv = Tu[i]
            if k is not None:
                iv = Interval(box.lo[k], box.hi[k]) * iv
            rows.append(iv)
        return IntervalVector(rows)

    def to_secondary_specs(self) -> list:
        return [SecondarySpec(b=self.T[i], param_index=self.multiplier_param[i])
                for i in range(self.m)]


def force_map(model: TrussModel) -> ForceRecovery:
    """Geometric force recovery: one row per element that touches a free DOF,
    axial force = (EA/L) * direction difference of the end displacements."""
    dof = model.dof_map()
    n = model.n_free
    ids, rows, mult = [], [], []
    for eid, e in enumerate(model.elements):
        crisp, pidx, pcoef = _stiffness_split(model, e)
        row = np.zeros(n)
        for idx, d in _element_rows(model, e, dof):
            row[idx] = d
        if not row.any():
            continue
        ids.append(eid)
        rows.append((crisp if pidx is None else pcoef) * row)
        mult.append(pidx)
    return ForceRecovery(element_ids=tuple(ids), T=np.vstack(rows),
                         multiplier_param=tuple(mult))


def equilibrium_residual(model: TrussModel, p) -> float:
    """Max unbalanced force over free DOFs at parameter point p, relative to
    the applied load scale.  Independent statics check for the assembly and
    force recovery."""
    sys = assemble(model)
    u = sys.solve_at(p)
    rec = force_map(model)
    forces = rec.forces_at(u, p)
    dof = model.dof_map()
    n = model.n_free
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
    the assembled topology has them transposed (0.6, 0.8), see
    fixtures/sixbar_force_rows.json.  All regression tables use this map.
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
    load at every left-side floor node.  Element numbering (frozen in
    fixtures/cantilever_numbering.json): the base chord first, then per
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
