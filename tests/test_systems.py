import json
import tracemalloc

import numpy as np
import pytest

from paramint.intervals import IntervalVector
from paramint.problems import (example1_system, example2_system,
                               example3_system)
from paramint.systems import (RANK_TOL, Factors, ParamLinearSystem,
                              build_ldr, center, make_system,
                              rank_one_factorize)
from paramint.truss import assemble, cantilever_truss, six_bar_truss

import scalar_reference as ref
from conftest import FIXTURES, random_rank_one_system
from oracles import ldr_matrix_at, ldr_rhs_at, solve_at


def test_center_example1():
    c = center(example1_system())
    assert c.p_check == pytest.approx([0.375, 1.0])
    assert c.system.box.rad == pytest.approx([0.625, 0.5])
    assert np.all(c.system.box.mid == 0.0)
    assert c.system.A0 == pytest.approx(np.array([[-0.5, -1.5], [-2.0, 0.0]]))
    assert c.system.a[0] == pytest.approx([3.0, -0.875])
    # coefficient matrices unchanged
    assert np.array_equal(c.system.A[1:], example1_system().A[1:])


def test_center_symmetric_is_identity():
    sys = make_system(np.stack([np.eye(2), np.eye(2)]),
                      np.zeros((2, 2)),
                      IntervalVector.from_pairs([[-1, 1]]))
    c = center(sys)
    assert c.system is sys
    assert np.all(c.p_check == 0.0)


def test_center_idempotent():
    c = center(example2_system())
    c2 = center(c.system)
    assert np.array_equal(c.system.A, c2.system.A)
    assert np.array_equal(c.system.a, c2.system.a)
    assert np.array_equal(c.system.box.lo, c2.system.box.lo)


def test_center_six_bar_load():
    sys = assemble(six_bar_truss())
    c = center(sys)
    assert c.p_check[2] == pytest.approx(20.5)
    assert c.system.box.rad[2] == pytest.approx(0.5)


def test_zero_radius_parameter_keeps_its_index():
    # a fixed parameter stays parameter k of the system; centering folds
    # its midpoint into A(p_check) like every other midpoint
    A = np.stack([np.eye(2), np.eye(2), 2 * np.eye(2)])
    a = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    box = IntervalVector.from_pairs([[-1, 1], [5, 5]])
    sys = make_system(A, a, box)
    assert sys.K == 2
    assert np.array_equal(sys.A0, np.eye(2))
    assert np.array_equal(sys.A, A)
    c = center(sys)
    assert c.system.K == 2
    assert c.system.A0 == pytest.approx(11 * np.eye(2))
    assert c.system.a[0] == pytest.approx([1.0, 5.0])
    assert np.array_equal(c.system.box.rad, [1.0, 0.0])


def test_make_system_keeps_no_dense_stack():
    # a dense-random-shaped family: the system keeps factors and its own A0,
    # so the caller's (K+1) x n x n stack is freed with the caller's name
    rng = np.random.default_rng(5)
    n, K = 120, 60
    tracemalloc.start()
    try:
        A = np.zeros((K + 1, n, n))
        A[0] = n * np.eye(n) + rng.uniform(-1.0, 1.0, (n, n))
        for k in range(K):
            r = 1 if k < 30 else 2
            A[k + 1] = rng.uniform(-1.0, 1.0, (n, r)) @ rng.uniform(-1.0, 1.0, (r, n))
        a = rng.uniform(-1.0, 1.0, (K + 1, n))
        mid = rng.uniform(-1.0, 1.0, K)
        sys = make_system(A, a, IntervalVector.from_bounds(mid - 1e-3, mid + 1e-3))
        shared = np.shares_memory(sys.A0, A)
        del A
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not shared
    assert held < K * n ** 2 * 8


def input_stacks():
    rng = np.random.default_rng(3)
    n = 30
    mixed = np.zeros((8, n, n))
    mixed[0] = n * np.eye(n)
    for k, r in enumerate((1, 0, 2, 1, n, 3, 2)):
        mixed[k + 1] = rng.normal(size=(n, r)) @ rng.normal(size=(r, n))
    stacks = {name: np.asarray(json.loads((FIXTURES / f"{name}.json").read_text())["A"],
                               dtype=float)
              for name in ("example1", "example2", "example3")}
    stacks["mixed-rank"] = mixed
    stacks["cantilever5"] = ref.dense_scatter(cantilever_truss(5))[0]
    return stacks


@pytest.mark.parametrize("name", list(input_stacks()))
def test_make_system_coefficients_match_input(name):
    # A0 is kept as given; each A_k = L_k R_k up to the residual the
    # elimination drops (RANK_TOL * max|A_k|) plus the rounding of the
    # elimination and of the product, each at most gamma_{n+1} |L_k| |R_k|
    A = input_stacks()[name]
    K, n = len(A) - 1, A.shape[1]
    sys = make_system(A, np.zeros((K + 1, n)), IntervalVector.from_pairs([[-1.0, 1.0]] * K))
    dense = sys.A
    assert np.array_equal(dense[0], A[0])
    u = np.finfo(float).eps / 2
    gamma = (n + 1) * u / (1 - (n + 1) * u)
    f = sys.factors
    for k, blk in enumerate(f.blocks):
        bound = (RANK_TOL * np.max(np.abs(A[k + 1]))
                 + 2 * gamma * (np.abs(f.L[:, blk]) @ np.abs(f.R[blk])))
        assert np.all(np.abs(dense[k + 1] - A[k + 1]) <= bound)


def test_folded_coefficient_is_factorized():
    # make_system factorizes every coefficient, so a coefficient that
    # overflows in the elimination is rejected even when its parameter is
    # fixed
    A = np.stack([np.eye(2), np.array([[1e308, 1e308], [1e308, -1e308]])])
    with pytest.raises(ValueError, match="overflows"):
        make_system(A, np.zeros((2, 2)), IntervalVector.from_pairs([[0.0, 0.0]]))


@pytest.mark.parametrize("K", [0, 1])
def test_system_without_unknowns_rejected(K):
    # an n = 0 system is an input error at construction, not a solve that
    # divides by zero and reports a singular midpoint
    box = IntervalVector.from_bounds(-np.ones(K), np.ones(K))
    with pytest.raises(ValueError, match="at least one unknown"):
        make_system(np.zeros((K + 1, 0, 0)), np.zeros((K + 1, 0)), box)


def _one_parameter(A0=np.eye(2), a=np.zeros((2, 2)), box=((-1.0, 1.0),)):
    # a 2 x 2 system with A_1 = e_1 e_1^T, but for the part given
    return ParamLinearSystem(np.asarray(A0),
                             Factors(np.eye(2)[:, :1], np.eye(2)[:1], (1,)),
                             a, IntervalVector.from_pairs(box))


@pytest.mark.parametrize("build, message", [
    (lambda: Factors(np.ones((2, 1)), np.ones((2, 2)), (1,)),
     "factor shapes do not match the block sizes"),
    (lambda: Factors(np.ones((2, 2)), np.ones((2, 2)), (1,)),
     "factor shapes do not match the block sizes"),
    (lambda: _one_parameter(A0=np.eye(3)), "A must be a stack of square"),
    (lambda: _one_parameter(a=np.zeros((1, 2))), "a must stack K\\+1 vectors"),
    (lambda: _one_parameter(box=((-1.0, 1.0), (0.0, 1.0))),
     "box length must equal the parameter count K"),
    (lambda: make_system(np.eye(2), np.zeros((1, 2)),
                         IntervalVector.from_pairs([])),
     "A must be a stack of square matrices"),
    (lambda: make_system(np.zeros((2, 2, 3)), np.zeros((2, 2)),
                         IntervalVector.from_pairs([[-1.0, 1.0]])),
     "A must be a stack of square matrices"),
], ids=["factor-rows", "factor-sizes", "A0-shape", "a-shape", "box-length",
        "A-two-dim", "A-not-square"])
def test_constructor_shape_mismatch_rejected(build, message):
    _one_parameter()            # the parts not given are consistent
    with pytest.raises(ValueError, match=message):
        build()


def test_rank_one_factorize_example1_matrix():
    A2 = np.array([[0.5, -0.5], [-1.0, 1.0]])
    L, R = rank_one_factorize(A2)
    assert L.shape == (2, 1) and R.shape == (1, 2)
    assert L[:, 0] == pytest.approx([0.5, -1.0])
    assert R[0] == pytest.approx([1.0, -1.0])


def test_rank_one_factorize_rank_two():
    A1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    L, R = rank_one_factorize(A1)
    assert L.shape[1] == 2
    assert L @ R == pytest.approx(A1, abs=1e-14)


def test_rank_one_factorize_outer_product(rng):
    u, v = rng.normal(size=4), rng.normal(size=4)
    A = np.outer(u, v)
    L, R = rank_one_factorize(A)
    assert L.shape[1] == 1
    assert L @ R == pytest.approx(A, abs=1e-12 * np.max(np.abs(A)))


def test_rank_one_factorize_zero_matrix():
    with pytest.raises(ValueError):
        rank_one_factorize(np.zeros((2, 2)))


def test_factorization_validity_random(rng):
    for _ in range(25):
        r = rng.integers(1, 4)
        n = rng.integers(int(r), 6) if r <= 5 else r
        n = max(n, r)
        A = sum(np.outer(rng.normal(size=n), rng.normal(size=n))
                for _ in range(r))
        L, R = rank_one_factorize(A)
        scale = np.max(np.abs(A))
        assert np.max(np.abs(L @ R - A)) <= 1e-10 * scale
        assert L.shape[1] == np.linalg.matrix_rank(A, tol=1e-9 * scale)


def rhs_only(ldr) -> list:
    """The right-hand-side-only parameters: those with no g-column."""
    return np.flatnonzero(np.asarray(ldr.system.factors.sizes) == 0).tolist()


def test_build_ldr_example1():
    ldr = build_ldr(center(example1_system()))
    assert ldr.system.factors.sizes == (0, 1)
    assert rhs_only(ldr) == [0]
    assert ldr.t == pytest.approx([2.0])
    assert ldr.F[:, 0] == pytest.approx([0.0, 3.0])
    assert ldr.system.factors.L[:, 0] == pytest.approx([0.5, -1.0])
    assert ldr.system.factors.R[0] == pytest.approx([1.0, -1.0])
    assert ldr.F_param.tolist() == [0]


def test_build_ldr_example2():
    ldr = build_ldr(center(example2_system()))
    assert ldr.system.factors.sizes == (0, 1, 1)
    assert rhs_only(ldr) == [0]
    assert ldr.t == pytest.approx([2.0, 0.0])
    assert ldr.F[:, 0] == pytest.approx([3.0, 2.0])


def test_build_ldr_six_bar():
    sys = assemble(six_bar_truss())
    ldr = build_ldr(center(sys))
    assert ldr.system.factors.sizes == (1, 1, 0)  # the two interval areas
    assert rhs_only(ldr) == [2]            # the load factor
    assert ldr.t == pytest.approx([0.0, 0.0])
    for k, blk in enumerate(ldr.system.factors.blocks):
        prod = ldr.system.factors.L[:, blk] @ ldr.system.factors.R[blk, :]
        assert prod == pytest.approx(sys.A[k + 1], abs=1e-3)


@pytest.mark.parametrize("builder", [example1_system, example2_system,
                                     example3_system])
def test_ldr_reconstruction_equivalence(builder, rng):
    c = center(builder())
    ldr = build_ldr(c)
    sys = c.system
    for _ in range(50):
        p = rng.uniform(sys.box.lo, sys.box.hi)
        Ap = sys.matrix_at(p)
        bp = sys.rhs_at(p)
        scale_A = np.max(np.abs(Ap))
        scale_b = max(np.max(np.abs(bp)), 1e-300)
        assert np.max(np.abs(ldr_matrix_at(ldr, p) - Ap)) <= 1e-10 * scale_A
        assert np.max(np.abs(ldr_rhs_at(ldr, p) - bp)) <= 1e-10 * scale_b
        x_direct = np.linalg.solve(Ap, bp)
        x_ldr = np.linalg.solve(ldr_matrix_at(ldr, p), ldr_rhs_at(ldr, p))
        assert x_ldr == pytest.approx(x_direct, rel=1e-10, abs=1e-12)


def test_ldr_overflowing_t_fit_is_an_f_column():
    # A_1[0][1] = 5e-324 in example2: the least-squares t-fit of parameter
    # 0 overflows to inf and its residual is NaN, so a_1 is an F column;
    # t stays finite and numpy warns of nothing
    doc = example2_system().to_doc()
    doc["A"][1][0][1] = 5e-324
    ldr = build_ldr(center(ParamLinearSystem.from_doc(doc)))
    assert ldr.system.factors.sizes[0] == 1
    assert ldr.F_param.tolist() == [0]
    assert np.isfinite(ldr.t).all()


def test_ldr_rhs_augmentation():
    # a1 = (0, 1) lies outside range(L1) for A1 = e1 e1^T: it is the F
    # column of parameter 0, whose t-block is zero; the g-columns are the
    # system's own factors
    A = np.stack([np.eye(2), np.array([[1.0, 0.0], [0.0, 0.0]])])
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    box = IntervalVector.from_pairs([[-0.25, 0.25]])
    c = center(make_system(A, a, box))
    ldr = build_ldr(c)
    assert ldr.system.factors is c.system.factors
    assert ldr.s == 1
    assert ldr.F_param.tolist() == [0]
    assert ldr.F[:, 0].tolist() == [0.0, 1.0]
    assert ldr.t.tolist() == [0.0]
    assert ldr.g_augmented == (True,)
    for p in ([-0.2], [0.0], [0.2]):
        assert ldr_matrix_at(ldr, p) == pytest.approx(c.system.matrix_at(p))
        assert ldr_rhs_at(ldr, p) == pytest.approx(c.system.rhs_at(p))


def test_ldr_equivalence_random(rng):
    # every right-hand side is drawn freely, so each parameter is a column
    # of F, in parameter order, and every t-block is zero
    for trial in range(10):
        sys = random_rank_one_system(rng, n=4, K=3, rhs_params=1,
                                     loose_rhs=True)
        c = center(sys)
        ldr = build_ldr(c)
        assert ldr.F_param.tolist() == [0, 1, 2, 3]
        assert ldr.F.T.tobytes() == c.system.a[1:].tobytes()
        assert not ldr.t.any()
        for _ in range(5):
            p = rng.uniform(c.system.box.lo, c.system.box.hi)
            x_direct = solve_at(c.system, p)
            x_ldr = np.linalg.solve(ldr_matrix_at(ldr, p), ldr_rhs_at(ldr, p))
            assert x_ldr == pytest.approx(x_direct, rel=1e-10, abs=1e-12)


def test_system_json_roundtrip(tmp_path):
    sys = example2_system()
    doc = sys.to_doc()
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc))
    back = ParamLinearSystem.from_doc(json.loads(path.read_text()))
    assert np.array_equal(back.A, sys.A)
    assert np.array_equal(back.a, sys.a)
    assert np.array_equal(back.box.lo, sys.box.lo)


def test_document_integers_read_as_floats():
    # JSON integers read as floats, also one past 2**64 (numpy makes an
    # object array of it) while it fits the float range
    doc = example1_system().to_doc()
    doc["a"][0] = [1, 10 ** 20]
    doc["box"][0] = [0, 1]
    sys = ParamLinearSystem.from_doc(json.loads(json.dumps(doc)))
    assert sys.a[0].tolist() == [1.0, 1e20]
    assert sys.box.lo[0] == 0.0 and sys.box.hi[0] == 1.0


def test_system_doc_validation():
    doc = example1_system().to_doc()
    bad = dict(doc)
    bad.pop("box")
    with pytest.raises(ValueError):
        ParamLinearSystem.from_doc(bad)
    bad = dict(doc)
    bad["n"] = 3
    with pytest.raises(ValueError):
        ParamLinearSystem.from_doc(bad)


def test_fixture_documents_match_builders():
    for name, builder in [("example1", example1_system),
                          ("example2", example2_system),
                          ("example3", example3_system)]:
        doc = json.loads((FIXTURES / f"{name}.json").read_text())
        sys = ParamLinearSystem.from_doc(doc)
        ref = builder()
        assert np.array_equal(sys.A, ref.A)
        assert np.array_equal(sys.a, ref.a)

