import math
from dataclasses import replace

import numpy as np
import pytest

from paramint.intervals import Interval
from paramint.secondary import bilinear_secondary
from paramint.solvers import MidpointSingular, kolev_pl_solution, pg_solution
from paramint.systems import build_ldr, center
from paramint.truss import (Element, LoadTerm, TrussModel, assemble,
                            cantilever_truss, force_map,
                            six_bar_reference_force_map, six_bar_truss)

import scalar_reference as ref
from conftest import shared_area_truss
from oracles import equilibrium_residual, solve_at


def single_bar_model(P=5.0):
    # horizontal bar fixed at the left end, axial point load at the right
    return TrussModel(
        nodes=((0.0, 0.0), (2.0, 0.0)),
        elements=(Element(0, 1, 2.0e8, 1.0e-3),),
        supports={0: "pin", 1: "roller-y"},
        loads=(LoadTerm(1, 0, const=P),),
        params=(("dummy", Interval(-1.0, 1.0)),),
    )


def test_single_bar_solution_and_force():
    model = single_bar_model(P=5.0)
    sys = assemble(model)
    assert sys.n == 1
    k = 2.0e8 * 1.0e-3 / 2.0
    u = solve_at(sys, sys.box.mid)
    assert u[0] == pytest.approx(5.0 / k)
    rec = force_map(model)
    assert rec.forces_at(u, sys.box.mid) == pytest.approx([5.0])


def test_six_bar_stiffness_matches_reference_entries():
    model = six_bar_truss()
    sys = assemble(model)
    assert sys.n == 4
    K = sys.matrix_at(sys.box.mid)
    k1 = 2.1e8 * 1e-3 / 0.6
    k3 = 2.1e8 * 1e-3 / 0.8
    k5 = 2.1e8 * 1.05e-3 / 1.0
    expect = np.array([
        [k1 + 0.36 * k5, -0.48 * k5, -k1, 0.0],
        [-0.48 * k5, k3 + 0.64 * k5, 0.0, 0.0],
        [-k1, 0.0, k1 + 0.36 * k5, 0.48 * k5],
        [0.0, 0.0, 0.48 * k5, k3 + 0.64 * k5],
    ])
    assert K == pytest.approx(expect, rel=1e-12)


def test_six_bar_load_vector():
    sys = assemble(six_bar_truss())
    assert np.all(sys.a[0] == 0.0)
    # the load parameter is the third one (A5, A6, Q)
    assert sys.a[3] == pytest.approx([1.0, 2.0, 2.5, -1.5])
    f_mid = sys.rhs_at(sys.box.mid)
    assert f_mid == pytest.approx([20.5, 41.0, 51.25, -30.75])


def test_six_bar_ldr_structure():
    sys = assemble(six_bar_truss())
    ldr = build_ldr(center(sys))
    f = ldr.system.factors
    assert f.sizes == (1, 1, 0)  # single bar per area: rank one
    assert ldr.t == pytest.approx([0.0, 0.0])
    for k in (0, 1):
        blk = f.blocks[k]
        prod = np.outer(f.L[:, blk.start], f.R[blk.start])
        assert prod == pytest.approx(sys.factors.matrix(k), rel=1e-12)


def test_six_bar_symmetry_and_spd(rng):
    sys = assemble(six_bar_truss())
    for _ in range(20):
        p = rng.uniform(sys.box.lo, sys.box.hi)
        K = sys.matrix_at(p)
        assert K == pytest.approx(K.T, rel=1e-14)
    np.linalg.cholesky(sys.matrix_at(sys.box.mid))


def test_six_bar_equilibrium(rng):
    model = six_bar_truss()
    sys = assemble(model)
    assert equilibrium_residual(model, sys.box.mid) < 1e-9
    for _ in range(30):
        p = rng.uniform(sys.box.lo, sys.box.hi)
        assert equilibrium_residual(model, p) < 1e-8


def test_rank_one_coefficients_both_models():
    for model in (six_bar_truss(), cantilever_truss(3)):
        sys = assemble(model)
        for k in range(sys.K):
            Ak = sys.factors.matrix(k)
            if np.max(np.abs(Ak)) == 0.0:
                continue
            assert np.linalg.matrix_rank(Ak, tol=1e-9 * np.max(np.abs(Ak))) == 1


@pytest.mark.parametrize("model", [six_bar_truss(), cantilever_truss(5),
                                   cantilever_truss(20)],
                         ids=["sixbar", "cantilever5", "cantilever20"])
def test_assemble_matches_dense_scatter(model):
    # the factored coefficients multiply out to the scattered element
    # stiffnesses entry by entry, oriented as rank_one_factorize orients
    sys, (A, a) = assemble(model), ref.dense_scatter(model)
    assert np.array_equal(sys.A, A)
    assert np.array_equal(sys.a, a)
    R = sys.factors.R
    lead = R[np.arange(R.shape[0]), np.argmax(R != 0.0, axis=1)]
    assert np.all(lead > 0.0)


def test_cantilever_40_g_columns():
    ldr = build_ldr(center(assemble(cantilever_truss(40))))
    assert ldr.s == 201
    # no load lies outside the range of its element's stiffness
    assert all(ldr.system.factors.sizes[k] == 0 for k in ldr.F_param)


def test_six_bar_fixed_area_forces_keep_their_parameter():
    # A5 fixed at a point stays parameter 0: the e5 and e6 rows are still
    # multiplied by A5 and A6, and every bound encloses the grid forces
    model = six_bar_truss()
    model = replace(model, params=(("A5", Interval(1.05e-3, 1.05e-3)),)
                    + model.params[1:])
    sys = assemble(model)
    assert sys.K == 3
    rep = pg_solution(build_ldr(center(sys)))
    rec = force_map(model)
    grid = [(1.05e-3, a6, q) for a6 in np.linspace(1.0e-3, 1.1e-3, 11)
            for q in np.linspace(20.0, 21.0, 11)]
    forces = np.array([rec.forces_at(solve_at(sys, p), p) for p in grid])
    lo, hi = forces.min(axis=0), forces.max(axis=0)
    direct = rec.direct_bounds(rep.hull, sys.box)
    assert np.all(direct.lo <= lo) and np.all(hi <= direct.hi)
    for row, spec in enumerate(rec.to_secondary_specs()):
        if spec.param_index is not None:
            v = bilinear_secondary(rep.solution, spec).refined
            assert v.lo <= lo[row] and hi[row] <= v.hi


@pytest.mark.parametrize("change, message", [
    ({"loads": (LoadTerm(-3, 0, const=1.0),)}, "load node -3 out of range 0..3"),
    ({"loads": (LoadTerm(1, -1, const=1.0),)}, "load axis -1"),
    ({"elements": (Element(0, -2, 2.1e8, 1e-3),)}, "element node -2 out of"),
    ({"elements": (Element(0, 9, 2.1e8, 1e-3),)}, "element node 9 out of"),
    ({"supports": {0: "pin", 3: "pin", 9: "pin"}}, "support node 9 out of"),
    ({"supports": {0: "pin", 3: "hinge"}}, "unknown support kind 'hinge'"),
    ({"elements": (Element(0, 1, 2.1e8, "A9"),)}, "unknown parameter 'A9'"),
    ({"loads": (LoadTerm(1, 0, terms=(("Z", 1.0),)),)},
     "unknown parameter 'Z'"),
], ids=["load-node", "load-axis", "element-negative", "element-past-end",
        "support-past-end", "support-kind", "element-parameter",
        "load-parameter"])
def test_truss_index_out_of_range_rejected(change, message):
    with pytest.raises(ValueError, match=message):
        replace(six_bar_truss(), **change)


@pytest.mark.parametrize("change, message", [
    ({"loads": (LoadTerm(0, 1, const=1.0),)},
     "load applied on constrained DOF at node 0"),
], ids=["load-on-support"])
def test_truss_bad_load_rejected_on_assembly(change, message):
    model = replace(six_bar_truss(), **change)
    with pytest.raises(ValueError, match=message):
        assemble(model)


def six_bar_change(field, index, value):
    return {field: tuple(value if i == index else v
                         for i, v in enumerate(getattr(six_bar_truss(), field)))}


@pytest.mark.parametrize("change, message", [
    (six_bar_change("nodes", 1, (np.nan, 0.8)),
     r"node 1 coordinate \(nan, 0.8\) is not finite"),
    (six_bar_change("nodes", 2, (0.6, np.inf)),
     r"node 2 coordinate \(0.6, inf\) is not finite"),
    (six_bar_change("elements", 0, Element(1, 2, 2.1e8, np.nan)),
     "element 0 area nan is not finite"),
    (six_bar_change("elements", 2, Element(0, 1, np.inf, 1e-3)),
     "element 2 modulus inf is not finite"),
    (six_bar_change("params", 0, ("A5", Interval(1e-3, np.inf))),
     r"parameter 'A5' \[0.001, inf\] is not finite"),
    (six_bar_change("params", 2, ("Q", Interval(-np.inf, 21.0))),
     r"parameter 'Q' \[-inf, 21.0\] is not finite"),
    (six_bar_change("loads", 0, LoadTerm(1, 0, const=np.nan,
                                         terms=(("Q", 1.0),))),
     r"load at node 1 axis 0 \(const nan, terms \(\('Q', 1.0\),\)\) is not"),
    (six_bar_change("loads", 1, LoadTerm(1, 1, const=np.inf)),
     r"load at node 1 axis 1 \(const inf, terms \(\)\) is not finite"),
    (six_bar_change("loads", 2, LoadTerm(2, 0, terms=(("Q", np.nan),))),
     r"load at node 2 axis 0 \(const 0.0, terms \(\('Q', nan\),\)\) is not"),
], ids=["node-nan", "node-inf", "area-nan", "modulus-inf",
        "parameter-hi-inf", "parameter-lo-inf", "load-const-nan",
        "load-const-inf", "load-coefficient-nan"])
def test_truss_nonfinite_number_rejected(change, message):
    # unchecked, each fails later under another name (singular midpoint,
    # right-hand-side overflow)
    with pytest.raises(ValueError, match=message):
        replace(six_bar_truss(), **change)


@pytest.mark.parametrize("model", [six_bar_truss(), cantilever_truss(5),
                                   cantilever_truss(20), shared_area_truss()],
                         ids=["sixbar", "cantilever5", "cantilever20",
                              "shared-area"])
def test_force_rows_match_factor_pairs(model):
    # a parametric element's force row EA/L d is its factor column L = EA/L d
    # up to the orientation sign; the columns of a parameter's block follow
    # element order
    sys, rec = assemble(model), force_map(model)
    L, R, sizes = sys.factors.L, sys.factors.R, sys.factors.sizes
    used = [0] * len(sizes)
    for row, eid, k in zip(rec.T, rec.element_ids, rec.multiplier_param):
        e = model.elements[eid]
        names = [q for q in (e.modulus, e.area) if isinstance(q, str)]
        if not names:
            assert k is None
            continue
        assert k == model.param_index(names[0])
        j = sys.factors.blocks[k].start + used[k]
        used[k] += 1
        assert row.tobytes() in (L[:, j].tobytes(), (-L[:, j]).tobytes())
        assert np.array_equal(R[j] != 0.0, row != 0.0)
    assert tuple(used) == sizes


def test_reference_force_rows_vs_geometric():
    # the tabulated map agrees with the geometric one except the last row,
    # whose direction weights are transposed in the published table
    ref = six_bar_reference_force_map()
    geo = force_map(six_bar_truss())
    assert ref.element_ids == geo.element_ids == (0, 2, 3, 4, 5)
    assert ref.multiplier_param == geo.multiplier_param
    assert ref.T[:4] == pytest.approx(geo.T[:4], rel=1e-12)
    assert ref.T[4] == pytest.approx([0.0, 0.0, 0.8 * 2.1e8, 0.6 * 2.1e8])
    assert geo.T[4] == pytest.approx([0.0, 0.0, 0.6 * 2.1e8, 0.8 * 2.1e8])


def test_reference_force_rows_match_printed_matrix():
    ref = six_bar_reference_force_map()
    assert ref.T * 1e-5 == pytest.approx(np.array([
        [-3.5, 0.0, 3.5, 0.0],
        [0.0, 21.0 / 8.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 21.0 / 8.0],
        [-1260.0, 1680.0, 0.0, 0.0],
        [0.0, 0.0, 1680.0, 1260.0],
    ]), rel=1e-12)
    assert ref.multiplier_param == (None, None, None, 0, 1)


def test_cantilever_counts():
    model = cantilever_truss(20)
    assert len(model.nodes) == 42
    assert len(model.elements) == 101
    assert len(model.params) == 121
    assert assemble(model).n == 81

    small = cantilever_truss(1)
    assert len(small.nodes) == 4
    assert len(small.elements) == 6


def test_cantilever_frozen_numbering():
    model = cantilever_truss(20)
    e40 = model.elements[39]
    assert [e40.node_a, e40.node_b] == [14, 17]
    # rising diagonal of story 8: bottom-left level 7 to top-right level 8
    assert model.nodes[14] == (0.0, 0.75 * 7)
    assert model.nodes[17] == (1.0, 0.75 * 8)
    assert e40.modulus == "E40"


def test_cantilever_equilibrium(rng):
    model = cantilever_truss(4)
    sys = assemble(model)
    for _ in range(5):
        p = rng.uniform(sys.box.lo, sys.box.hi)
        assert equilibrium_residual(model, p) < 1e-8


def test_cantilever_floor_smoke():
    model = cantilever_truss(1)
    sys = assemble(model)
    u = solve_at(sys, sys.box.mid)
    assert np.all(np.isfinite(u))
    assert equilibrium_residual(model, sys.box.mid) < 1e-9


def test_unstable_structure_raises():
    # mechanism: two collinear bars with a free middle node loaded axially;
    # assembly makes no stability check, and both solves reject the
    # singular midpoint stiffness
    model = TrussModel(
        nodes=((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)),
        elements=(Element(0, 1, 2.0e8, 1e-3), Element(1, 2, 2.0e8, 1e-3)),
        supports={0: "pin", 2: "pin"},
        loads=(LoadTerm(1, 1, const=1.0),),
        params=(("q", Interval(-1.0, 1.0)),),
    )
    c = center(assemble(model))
    with pytest.raises(MidpointSingular, match="midpoint matrix is singular"):
        kolev_pl_solution(c)
    with pytest.raises(MidpointSingular, match="midpoint matrix is singular"):
        pg_solution(build_ldr(c))


def test_rotated_mechanism_raises():
    # a 30 degree bar with a free end can rotate about its pin: the midpoint
    # stiffness is positive semidefinite (a Cholesky factorization does not
    # fail on it) but numerically singular, which both solves report
    model = TrussModel(
        nodes=((0.0, 0.0), (math.cos(math.pi / 6), math.sin(math.pi / 6))),
        elements=(Element(0, 1, "E", 1e-3),),
        supports={0: "pin"},
        loads=(LoadTerm(1, 1, const=1.0),),
        params=(("E", Interval(1.9e8, 2.1e8)),),
    )
    c = center(assemble(model))
    with pytest.raises(MidpointSingular, match="rcond ~"):
        kolev_pl_solution(c)
    with pytest.raises(MidpointSingular, match="rcond ~"):
        pg_solution(build_ldr(c))


@pytest.mark.parametrize("change, message", [
    (six_bar_change("elements", 2, Element(0, 1, -2.1e8, 1e-3)),
     r"element 2 modulus -210000000.0 is negative at the box midpoint"),
    (six_bar_change("elements", 1, Element(0, 3, 2.1e8, -1e-3)),
     r"element 1 area -0.001 is negative at the box midpoint \(-0.001\)"),
    (six_bar_change("params", 0, ("A5", Interval(-3e-3, 1e-3))),
     r"element 4 area A5 is negative at the box midpoint \(-0.001\)"),
], ids=["modulus-crisp", "area-crisp-base-chord", "area-parameter-midpoint"])
def test_truss_negative_stiffness_rejected(change, message):
    # EA/L >= 0 at the midpoint keeps K(p_check) positive semidefinite; the
    # base chord e2 touches no free DOF, so no later check would see it
    with pytest.raises(ValueError, match=message):
        replace(six_bar_truss(), **change)


def test_both_quantities_parametric_rejected():
    with pytest.raises(ValueError):
        TrussModel(
            nodes=((0.0, 0.0), (1.0, 0.0)),
            elements=(Element(0, 1, "E1", "A1"),),
            supports={0: "pin", 1: "roller-y"},
            loads=(LoadTerm(1, 0, const=1.0),),
            params=(("E1", Interval(1.0, 2.0)), ("A1", Interval(1.0, 2.0))),
        )


def test_duplicate_parameter_name_rejected():
    # a second "E" would be a phantom parameter whose interval is dropped
    with pytest.raises(ValueError, match="duplicate parameter name 'E'"):
        TrussModel(
            nodes=((0.0, 0.0), (1.0, 0.0)),
            elements=(Element(0, 1, "E", 1e-3),),
            supports={0: "pin", 1: "roller-y"},
            loads=(LoadTerm(1, 0, const=1.0),),
            params=(("E", Interval(1.0, 2.0)), ("E", Interval(5.0, 6.0))),
        )


def test_zero_length_element_rejected():
    with pytest.raises(ValueError):
        TrussModel(
            nodes=((0.0, 0.0), (0.0, 0.0)),
            elements=(Element(0, 1, 2.0e8, 1e-3),),
            supports={0: "pin"},
            loads=(),
            params=(),
        )
