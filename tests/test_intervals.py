import re
from pathlib import Path

import numpy as np
import pytest

import paramint
from hypothesis import given, settings
from hypothesis import strategies as st

from paramint.intervals import (Interval, IntervalVector, affine_image_hull,
                                mat_interval_product)


@st.composite
def intervals(draw, bound=1e100):
    a = draw(st.floats(min_value=-bound, max_value=bound,
                       allow_nan=False, allow_infinity=False))
    b = draw(st.floats(min_value=-bound, max_value=bound,
                       allow_nan=False, allow_infinity=False))
    return Interval(min(a, b), max(a, b))


def test_mid_rad_mag_basic():
    iv = Interval(-1.0, 3.0)
    assert iv.mid == 1.0
    assert iv.rad == 2.0
    assert iv.mag == 3.0


def test_degenerate_functionals():
    iv = Interval(5.0, 5.0)
    assert (iv.mid, iv.rad, iv.mag) == (5.0, 0.0, 5.0)


def test_parameter_interval_functionals():
    # the [1/2, 3/2] parameter interval from the bundled example1
    iv = Interval(0.5, 1.5)
    assert iv.mid == 1.0
    assert iv.rad == 0.5


def test_construction_rejects_inverted():
    with pytest.raises(ValueError):
        Interval(1.0, 0.0)
    with pytest.raises(ValueError):
        Interval(float("nan"), 1.0)


@pytest.mark.parametrize("lo, hi, message", [
    ([0.0, 1.0], [1.0], "lo/hi must be 1-D arrays of equal length"),
    ([[0.0]], [[1.0]], "lo/hi must be 1-D arrays of equal length"),
    ([0.0, 2.0], [1.0, 1.0], "lo > hi somewhere"),
    ([0.0, float("nan")], [1.0, 1.0], "must not be NaN"),
    ([0.0, 0.0], [1.0, float("nan")], "must not be NaN"),
], ids=["length", "two-dim", "inverted", "nan-lo", "nan-hi"])
def test_interval_vector_rejects_bad_bounds(lo, hi, message):
    with pytest.raises(ValueError, match=message):
        IntervalVector(lo=lo, hi=hi)


def vec(iv):
    """A one-entry box of a scalar interval."""
    return IntervalVector([iv])


def test_arithmetic_examples():
    prod = (vec(Interval(1, 2)) * vec(Interval(-1, 1)))[0]
    assert prod.lo == pytest.approx(-2.0, abs=1e-15)
    assert prod.hi == pytest.approx(2.0, abs=1e-15)
    s = (vec(Interval(0, 0)) + vec(Interval(3, 4)))[0]
    assert s.encloses(Interval(3, 4))
    assert s.lo == pytest.approx(3.0)


def test_mat_interval_product_identity():
    v = IntervalVector([Interval(-1, 1), Interval(2, 3)])
    got = mat_interval_product(np.eye(2), v)
    assert got.lo == pytest.approx(v.lo)
    assert got.hi == pytest.approx(v.hi)


def test_mat_interval_product_solution_coefficients():
    # rows of the example1 p,g-solution over its centered box; frozen from
    # brute force over the box vertices
    V = np.array([[1.5, 11.0 / 6.0], [-0.5, -11.0 / 6.0]])
    box = IntervalVector.symmetric([0.625, 0.5])
    got = mat_interval_product(V, box)

    corners = np.array([[sx * 0.625, sy * 0.5]
                        for sx in (-1, 1) for sy in (-1, 1)])
    images = corners @ V.T
    assert got.lo == pytest.approx(images.min(axis=0), abs=1e-12)
    assert got.hi == pytest.approx(images.max(axis=0), abs=1e-12)
    assert got.hi[0] == pytest.approx(89.0 / 48.0, abs=1e-12)
    assert got.hi[1] == pytest.approx(59.0 / 48.0, abs=1e-12)


def test_affine_hull_reproduces_example1_enclosure():
    V = np.array([[1.5, 11.0 / 6.0], [-0.5, -11.0 / 6.0]])
    x0 = np.array([7.0 / 16.0, -103.0 / 48.0])
    box = IntervalVector.symmetric([0.625, 0.5])
    hull = affine_image_hull(x0, V, box)
    assert hull.lo == pytest.approx([-17.0 / 12.0, -27.0 / 8.0], abs=1e-12)
    assert hull.hi == pytest.approx([55.0 / 24.0, -11.0 / 12.0], abs=1e-12)


# -- property tests ----------------------------------------------------------

OPS = {
    "add": lambda a, b: (vec(a) + vec(b))[0],
    "mul": lambda a, b: (vec(a) * vec(b))[0],
}


@settings(max_examples=200, deadline=None)
@given(a=intervals(1e20), b=intervals(1e20),
       sa=st.floats(0, 1), sb=st.floats(0, 1),
       ta=st.floats(0, 1), tb=st.floats(0, 1),
       op=st.sampled_from(sorted(OPS)))
def test_inclusion_isotonicity(a, b, sa, sb, ta, tb, op):
    # shrink a, b to sub-intervals; the op result must stay inside
    def sub_interval(iv, s, t):
        lo = iv.lo + s * (iv.hi - iv.lo) * 0.5
        hi = iv.hi - t * (iv.hi - iv.lo) * 0.5
        return Interval(min(lo, hi), max(lo, hi))

    a2, b2 = sub_interval(a, sa, ta), sub_interval(b, sb, tb)
    outer = OPS[op](a, b)
    inner = OPS[op](a2, b2)
    assert outer.lo <= inner.lo and inner.hi <= outer.hi


def test_range_containment_random_samples():
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        a = Interval(*sorted(rng.uniform(-10, 10, 2)))
        b = Interval(*sorted(rng.uniform(-10, 10, 2)))
        for name, op in OPS.items():
            result = op(a, b)
            xs = rng.uniform(a.lo, a.hi, 100)
            ys = rng.uniform(b.lo, b.hi, 100)
            vals = {"add": xs + ys, "mul": xs * ys}[name]
            assert vals.min() >= result.lo
            assert vals.max() <= result.hi


def test_vector_sub_overflows_to_the_float_limits():
    # the exact difference 2e308 is past the float range: the lower end is
    # the largest float below it, the upper end inf, and no warning escapes
    d = (IntervalVector.from_bounds([1e308], [1e308])
         - IntervalVector.from_bounds([-1e308], [-1e308]))
    assert d.lo[0] == np.finfo(float).max
    assert d.hi[0] == np.inf


def test_mid_rad_roundtrip_exact_for_dyadics():
    iv = Interval(-1.0, 3.0)
    back = Interval(iv.mid - iv.rad, iv.mid + iv.rad)
    assert (back.lo, back.hi) == (iv.lo, iv.hi)


def test_public_api_surface():
    # any growth or shrinkage of the package's public names shows here
    assert sorted(paramint.__all__) == [
        "CenteredSystem", "Element", "EnclosureReport",
        "ForceRecovery", "Interval", "IntervalVector",
        "LdrSystem", "LoadTerm", "MidpointSingular", "ParamLinearSystem",
        "ParamSolution", "RegularityViolation", "SecondaryResult",
        "SecondarySpec", "TrussModel", "affine_image_hull", "assemble",
        "bilinear_secondary", "build_ldr", "cantilever_truss", "center",
        "evaluate_solution", "force_map",
        "kolev_pl_solution", "linear_secondary", "make_system",
        "mat_interval_product", "overestimation_percent", "pg_solution",
        "rank_one_enclosure", "rank_one_factorize", "rohn_inverse",
        "six_bar_reference_force_map", "six_bar_truss", "spectral_radius"]


def test_every_library_name_is_reached():
    # a def or class stays in the library only if a command, the benchmark
    # or another library function names it; a re-export in __init__.py or
    # a test is not a use
    package = Path(paramint.__file__).resolve().parent
    library = [f for f in sorted(package.glob("*.py")) if f.name != "__init__.py"]
    bench = sorted((package.parents[1] / "perfbench").glob("*.py"))
    readers = {f: f.read_text().splitlines() for f in library + bench}
    unreached = []
    for f in library:
        for i, line in enumerate(readers[f]):
            m = re.match(r"\s*(?:def|class)\s+(\w+)", line)
            if not m or m.group(1).startswith("__"):
                continue
            word = re.compile(rf"\b{m.group(1)}\b")
            if not any(word.search(text) for g, lines in readers.items()
                       for j, text in enumerate(lines) if (g, j) != (f, i)):
                unreached.append(f"{f.stem}.{m.group(1)}")
    assert unreached == []
