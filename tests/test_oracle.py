import numpy as np
import pytest

from paramint.intervals import IntervalVector
from paramint.oracle import polygon_area, zonogon
from paramint.problems import SYSTEM_BUILDERS, example1_system, example3_system
from paramint.secondary import SecondarySpec
from paramint.solvers import (ParamSolution, kolev_pl_solution, pg_solution)
from paramint.systems import build_ldr, center, make_system
from paramint.truss import assemble, six_bar_reference_force_map, six_bar_truss

from conftest import random_rank_one_system
from oracles import (SamplingPlan, convex_hull_2d, exact_zonogon,
                     polytope_vertices, sample_hull, secondary_range,
                     zonotope_contains)


def test_sample_hull_example1_grid():
    sys = example1_system()
    inner = sample_hull(sys, SamplingPlan.grid(40))
    enclosure = IntervalVector.from_pairs([[-17 / 12, 55 / 24],
                                           [-27 / 8, -11 / 12]])
    assert enclosure.encloses(inner)
    # the published enclosure is attained on two sides only; the solution
    # set's own hull (box extremes on edges, converged by grid 40) is
    assert inner.lo == pytest.approx([-5 / 6, -27 / 8], abs=1e-9)
    assert inner.hi == pytest.approx([55 / 24, -3 / 2], abs=1e-9)


def test_sample_hull_example3_grid():
    # published hull digits (x3's lower endpoint print is a hair inside the
    # sampled value, so containment is asserted with a 2e-6 print slack)
    inner = sample_hull(example3_system(), SamplingPlan.grid(60))
    printed = IntervalVector.from_pairs([[-0.156997, 0.363637],
                                         [-0.727273, 0.5972697],
                                         [0.1896562, 0.4927185]])
    assert np.all(inner.lo >= printed.lo - 2e-6)
    assert np.all(inner.hi <= printed.hi + 2e-6)
    assert inner.lo == pytest.approx(printed.lo, abs=1e-5)
    assert inner.hi == pytest.approx(printed.hi, abs=1e-5)


def test_sample_hull_crisp_degenerate():
    A = np.stack([np.diag([2.0, 5.0])])
    a = np.array([[4.0, 10.0]])
    sys = make_system(A, a, IntervalVector(lo=np.zeros(0), hi=np.zeros(0)))
    hull = sample_hull(sys, SamplingPlan.random(10))
    assert hull.mid == pytest.approx([2.0, 2.0])
    assert np.all(hull.rad == 0.0)


def test_sample_hull_monotone_in_grid_density():
    sys = example1_system()
    coarse = sample_hull(sys, SamplingPlan.grid(5))
    fine = sample_hull(sys, SamplingPlan.grid(9))  # refinement includes coarse
    assert fine.encloses(coarse)


def test_sample_hull_random_inside_solver_hull(rng):
    sys = example3_system()
    hull = pg_solution(build_ldr(center(sys))).hull
    inner = sample_hull(sys, SamplingPlan.random(2000, seed=7))
    assert hull.encloses(inner)


def test_vertex_mode_and_guards():
    sys = example1_system()
    hv = sample_hull(sys, SamplingPlan.vertices())
    assert hv.lo == pytest.approx([-5 / 6, -27 / 8], abs=1e-12)
    big_box = IntervalVector.symmetric(np.ones(25))
    with pytest.raises(ValueError):
        SamplingPlan.vertices().points(big_box)
    with pytest.raises(ValueError):
        SamplingPlan.grid(100).points(IntervalVector.symmetric(np.ones(4)))


def test_all_singular_samples_raise():
    A = np.stack([np.zeros((1, 1)), np.zeros((1, 1))])
    a = np.array([[1.0], [0.0]])
    sys = make_system(A, a, IntervalVector.from_pairs([[-1, 1]]))
    with pytest.raises(ValueError):
        sample_hull(sys, SamplingPlan.random(50))


def test_singular_samples_skipped():
    # A(p) = p on [-1, 1]: the batch solve fails only at p = 0, which the
    # vertex-augmented random sample does not hit
    A = np.stack([np.zeros((1, 1)), np.eye(1)])
    a = np.array([[1.0], [0.0]])
    sys = make_system(A, a, IntervalVector.from_pairs([[0.5, 1.0]]))
    hull = sample_hull(sys, SamplingPlan.random(100))
    assert hull.lo[0] == pytest.approx(1.0)
    assert hull.hi[0] == pytest.approx(2.0)


def test_secondary_range_constant_expression():
    rep = pg_solution(build_ldr(center(example1_system())))
    from dataclasses import replace
    sol0 = replace(rep.solution, U=np.zeros_like(rep.solution.U))
    spec = SecondarySpec(b=np.array([1.0, 0.0]))
    rng_ = secondary_range(spec, sol0, SamplingPlan.grid(5))
    assert rng_.lo == pytest.approx(sol0.x_check[0])
    assert rng_.rad == pytest.approx(0.0, abs=1e-15)


def test_secondary_range_six_bar_true_forces():
    # axial-force ranges on true point solutions, frozen against the
    # published exact ranges (outward-rounded prints)
    model = six_bar_truss()
    sys = assemble(model)
    rep = pg_solution(build_ldr(center(sys)))
    rec = six_bar_reference_force_map()
    specs = rec.to_secondary_specs()
    plan = SamplingPlan.grid(31)
    expected = {0: (11.8215, 14.3755), 4: (-58.9591, -53.0358),
                5: (109.960, 123.970)}
    for row, eid in enumerate(rec.element_ids):
        if eid not in expected:
            continue
        got = secondary_range(specs[row], rep.solution, plan, system=sys)
        lo, hi = expected[eid]
        assert got.lo == pytest.approx(lo, abs=2e-3)
        assert got.hi == pytest.approx(hi, abs=2e-3)


def test_polytope_vertices_example1_skew_box():
    rep = pg_solution(build_ldr(center(example1_system())))
    verts = polytope_vertices(rep.solution)
    assert verts.shape == (4, 2)
    assert len(np.unique(verts.round(12), axis=0)) == 4
    # affine image of a 2-box: a parallelogram (skew box)
    hull = convex_hull_2d(verts)
    assert hull.shape[0] == 4
    mids = verts.mean(axis=0)
    assert mids == pytest.approx(rep.solution.x_check, abs=1e-12)


def test_polytope_vertices_no_columns():
    # a crisp system's p,g solution has no q-columns: one vertex, x_check
    A = np.stack([np.diag([2.0, 5.0])])
    sys = make_system(A, np.array([[4.0, 10.0]]),
                      IntervalVector(lo=np.zeros(0), hi=np.zeros(0)))
    sol = pg_solution(build_ldr(center(sys))).solution
    assert sol.m == 0
    verts = polytope_vertices(sol)
    assert verts.shape == (1, 2)
    assert verts[0].tobytes() == sol.x_check.tobytes()


def test_polytope_vertices_zero_U():
    rep = pg_solution(build_ldr(center(example1_system())))
    from dataclasses import replace
    sol0 = replace(rep.solution, U=np.zeros_like(rep.solution.U))
    verts = polytope_vertices(sol0)
    assert np.allclose(verts, sol0.x_check[None, :])


def test_kolev_vertex_hull_contains_pg_vertices():
    c = center(example1_system())
    rep_pl = kolev_pl_solution(c)
    rep_pg = pg_solution(build_ldr(c))
    pl_verts = polytope_vertices(rep_pl.solution)
    assert pl_verts.shape == (16, 2)
    for v in polytope_vertices(rep_pg.solution):
        assert zonotope_contains(rep_pl.solution, v, tol=1e-9)


def test_sample_hull_inside_every_solver_hull_random(rng):
    for _ in range(5):
        sys = random_rank_one_system(rng, n=3, K=2, rhs_params=1)
        c = center(sys)
        hulls = [kolev_pl_solution(c).hull,
                 pg_solution(build_ldr(c)).hull]
        inner = sample_hull(sys, SamplingPlan.random(500, seed=3))
        for hull in hulls:
            assert hull.encloses(inner)


def test_convex_hull_2d_degenerate():
    assert convex_hull_2d([[1.0, 2.0], [1.0, 2.0]]).shape == (1, 2)
    collinear = convex_hull_2d([[0, 0], [1, 1], [2, 2]])
    assert collinear.shape[0] <= 2
    assert polygon_area(collinear) == 0.0


def test_polygon_area_unit_square():
    sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])
    assert polygon_area(sq) == pytest.approx(1.0)
    assert polygon_area(convex_hull_2d(sq + 0.0)) == pytest.approx(1.0)



def _both_solutions(sysm):
    c = center(sysm)
    return [kolev_pl_solution(c).solution, pg_solution(build_ldr(c)).solution]


def assert_same_boundary(got, want):
    """The same vertices in the same order, coordinates within
    1e-13 * max(1, |coordinate|)."""
    want = np.array(want, dtype=float)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("name", sorted(SYSTEM_BUILDERS))
def test_zonogon_matches_vertex_enumeration(name):
    sysm = SYSTEM_BUILDERS[name]()
    for sol in _both_solutions(sysm):
        for i in range(sysm.n):
            for j in range(sysm.n):
                got = zonogon(sol, i, j)
                assert_same_boundary(
                    got, convex_hull_2d(polytope_vertices(sol)[:, (i, j)]))
                assert_same_boundary(got, exact_zonogon(sol, i, j))


def test_zonogon_six_bar_matches_exact_enumeration():
    # at dims (2, 4) two generators turn by about 2e-15 rad; whether the
    # float enumeration keeps the vertex between them depends on how its
    # vertex images round, so the exact enumeration is the reference here
    sysm = assemble(six_bar_truss())
    for sol in _both_solutions(sysm):
        for i in range(sysm.n):
            for j in range(sysm.n):
                assert_same_boundary(zonogon(sol, i, j), exact_zonogon(sol, i, j))


@pytest.mark.parametrize("seed", range(6))
def test_zonogon_random_families(seed):
    # right-hand-side-only parameters, and on odd seeds an F column beside
    # each matrix parameter's g-column
    rng = np.random.default_rng(seed)
    sysm = random_rank_one_system(rng, n=3, K=2, rhs_params=2,
                                  loose_rhs=bool(seed % 2))
    sols = _both_solutions(sysm)
    assert sols[1].U.shape[1] == (6 if seed % 2 else 4)
    for sol in sols:
        for i in range(3):
            for j in range(3):
                got = zonogon(sol, i, j)
                assert_same_boundary(
                    got, convex_hull_2d(polytope_vertices(sol)[:, (i, j)]))
                assert_same_boundary(got, exact_zonogon(sol, i, j))


def test_zonogon_no_columns_is_x_check():
    A = np.stack([np.diag([2.0, 5.0])])
    sys = make_system(A, np.array([[4.0, 10.0]]),
                      IntervalVector(lo=np.zeros(0), hi=np.zeros(0)))
    sol = pg_solution(build_ldr(center(sys))).solution
    assert sol.m == 0
    got = zonogon(sol, 0, 1)
    assert got.shape == (1, 2)
    assert got[0].tobytes() == sol.x_check.tobytes()


def test_zonogon_zero_U():
    from dataclasses import replace
    sol = pg_solution(build_ldr(center(example1_system()))).solution
    sol0 = replace(sol, U=np.zeros_like(sol.U))
    got = zonogon(sol0, 1, 0)
    assert got.shape == (1, 2)
    assert got[0].tobytes() == sol.x_check[[1, 0]].tobytes()


@pytest.mark.parametrize("U, want", [
    # horizontal, with -0.0 in either coordinate and one zero column
    ([[1.0, -2.0, 0.5, -0.0], [-0.0, 0.0, -0.0, 0.0]],
     [[-2.5, 2.0], [4.5, 2.0]]),
    # vertical, with a -0.0 abscissa
    ([[-0.0, 0.0], [1.0, -3.0]], [[1.0, -2.0], [1.0, 6.0]]),
    # one diagonal, both senses
    ([[1.0, -2.0, 3.0], [1.0, -2.0, 3.0]], [[-5.0, -4.0], [7.0, 8.0]]),
], ids=["horizontal", "vertical", "diagonal"])
def test_zonogon_parallel_generators(U, want):
    U = np.array(U)
    sol = ParamSolution(np.array([1.0, 2.0]), U,
                        np.arange(U.shape[1]), np.ones(U.shape[1], dtype=int),
                        np.ones(U.shape[1]), np.zeros(U.shape[1]))
    got = zonogon(sol, 0, 1)
    assert got.tolist() == want
    assert polygon_area(got) == 0.0
    assert_same_boundary(got, convex_hull_2d(polytope_vertices(sol)))
    assert_same_boundary(got, exact_zonogon(sol, 0, 1))


@pytest.mark.parametrize("U", [[[-0.0, 1.0], [1.0, 0.5]],
                               [[0.0, -1.0], [-1.0, -0.5]]],
                         ids=["minus-zero-up", "zero-down"])
def test_zonogon_vertical_beside_slanted(U):
    # a vertical generator turns into (+0.0, 1), whose slope sorts last
    sol = ParamSolution(np.array([1.0, 2.0]), np.array(U),
                        np.arange(2), np.ones(2, dtype=int), np.ones(2),
                        np.zeros(2))
    got = zonogon(sol, 0, 1)
    assert got.tolist() == [[0.0, 0.5], [2.0, 1.5], [2.0, 3.5], [0.0, 2.5]]
    assert_same_boundary(got, convex_hull_2d(polytope_vertices(sol)))


def test_zonogon_same_row_twice():
    # rows (i, i): every generator lies on the diagonal, so two vertices
    c = center(example3_system())
    for sol in (kolev_pl_solution(c).solution,
                pg_solution(build_ldr(c)).solution):
        got = zonogon(sol, 1, 1)
        assert got.shape == (2, 2)
        assert np.all(got[:, 0] == got[:, 1])
        assert polygon_area(got) == 0.0
