import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import paramint
from paramint.cli import ReportRow, fmt_outward, main
from paramint.intervals import Interval, IntervalVector
from paramint.oracle import point_solutions, polygon_area
from paramint.problems import (example1_system, example2_system,
                               example3_system)
from paramint.secondary import overestimation_percent
from paramint.solvers import kolev_pl_solution, pg_solution
from paramint.systems import ParamLinearSystem, build_ldr, center, make_system

from bundled_commands import COMMANDS, name
from conftest import FIXTURES, random_rank_one_system
from oracles import SamplingPlan

EX1 = str(FIXTURES / "example1.json")
EX2 = str(FIXTURES / "example2.json")
EX3 = str(FIXTURES / "example3.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", COMMANDS, ids=map(name, COMMANDS))
def test_bundled_command_runs_clean(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert err == ""
    assert out.strip()


def test_solve_new_json(capsys):
    code, out, err = run(capsys, "solve", EX1, "--method", "new",
                         "--format", "json")
    assert code == 0
    doc = json.loads(out)
    hull = doc["hull"]
    assert hull[0][0] == pytest.approx(-17 / 12, abs=1e-9)
    assert hull[0][1] == pytest.approx(55 / 24, abs=1e-9)
    assert hull[1][0] == pytest.approx(-27 / 8, abs=1e-9)
    assert hull[1][1] == pytest.approx(-11 / 12, abs=1e-9)
    assert doc["kind"] == "pg"
    assert "rho" in doc and doc["rho"] < 1


def test_solve_all_methods_agree_on_example1(capsys):
    hulls = {}
    for method in ("kolev", "numeric", "new"):
        code, out, _ = run(capsys, "solve", EX1, "--method", method,
                           "--format", "json")
        assert code == 0
        hulls[method] = json.loads(out)["hull"]
    for method in ("numeric", "new"):
        assert np.asarray(hulls[method]) == pytest.approx(
            np.asarray(hulls["kolev"]), abs=1e-9)


def test_solve_crisp_system_point_hull(tmp_path, capsys):
    A = np.stack([np.diag([2.0, 4.0])])
    a = np.array([[2.0, 8.0]])
    sys = make_system(A, a, IntervalVector(lo=np.zeros(0), hi=np.zeros(0)))
    path = tmp_path / "crisp.json"
    path.write_text(json.dumps(sys.to_doc()))
    code, out, _ = run(capsys, "solve", str(path), "--format", "json")
    assert code == 0
    hull = np.asarray(json.loads(out)["hull"])
    assert hull[:, 0] == pytest.approx([1.0, 2.0], abs=1e-12)
    assert hull[:, 1] == pytest.approx([1.0, 2.0], abs=1e-12)


def test_solve_regularity_violation_exit2(tmp_path, capsys):
    base = example1_system()
    wide = make_system(base.A, base.a,
                       IntervalVector.from_bounds(base.box.mid - 10 * base.box.rad,
                                                 base.box.mid + 10 * base.box.rad))
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(wide.to_doc()))
    code, out, err = run(capsys, "solve", str(path))
    assert code == 2
    assert "rho" in err
    assert out == ""


# finite documents whose Delta is not finite: rho = inf, and no numpy
# warning.  In the first Delta overflows; in the other two C L overflows,
# and a zero-radius box keeps its parameter, so p_hat = 0 takes the same
# path
OVERFLOW_DOCS = [
    {"n": 2, "K": 1, "A": [[[1, 0], [0, 1]], [[1e10, 1e10], [1e10, 1e10]]],
     "a": [[1, 1], [0, 0]], "box": [[-1e300, 1e300]]},
    {"n": 2, "K": 1, "A": [[[0.1, 0], [0, 0.1]], [[1e308, 0], [0, 0]]],
     "a": [[1, 2], [0, 0]], "box": [[-1e-300, 1e-300]]},
    {"n": 2, "K": 1, "A": [[[0.1, 0], [0, 0.1]], [[1e308, 0], [0, 0]]],
     "a": [[1, 2], [0, 0]], "box": [[0, 0]]},
]


@pytest.mark.parametrize("argv, family", [
    (["solve", "--method", "kolev"], "midpoint"),
    (["solve", "--method", "numeric"], "rank-one"),
    (["solve", "--method", "new"], "rank-one"),
    (["secondary", "--spec", "SPEC"], "midpoint"),
    (["polygon"], "rank-one"),
], ids=["kolev", "numeric", "new", "secondary", "polygon"])
def test_overflowing_delta_exit2_one_line(tmp_path, capsys, argv, family):
    path = tmp_path / "overflow.json"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"specs": [{"b": [1.0, 0.0]}]}))
    argv = [str(spec) if a == "SPEC" else a for a in argv]
    for doc in OVERFLOW_DOCS:
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (2, ""), doc
        assert err == f"regularity violation ({family}): rho = inf\n"


@pytest.mark.parametrize("argv", [
    ["solve", "--method", "kolev"],
    ["solve", "--method", "numeric"],
    ["solve", "--method", "new"],
    ["secondary", "--spec", "SPEC"],
    ["polygon"],
], ids=["kolev", "numeric", "new", "secondary", "polygon"])
def test_overflowing_rhs_exit1_one_line(tmp_path, capsys, recwarn, argv):
    # Delta is regular, but C a_1 overflows: an input error, not an
    # infinite hull
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(
        {"n": 2, "K": 1, "A": [[[0.1, 0], [0, 0.1]], [[0, 0], [0, 0]]],
         "a": [[1, 2], [1e308, 0]], "box": [[-1, 1]]}))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"specs": [{"b": [1.0, 0.0]}]}))
    argv = [str(spec) if a == "SPEC" else a for a in argv]
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (1, "")
    assert err == "input error: right-hand side overflows the float range\n"
    assert [str(w.message) for w in recwarn] == []


def test_solve_singular_exit3(tmp_path, capsys):
    A = np.stack([np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2)])
    a = np.zeros((2, 2))
    sys = make_system(A, a, IntervalVector.from_pairs([[-0.1, 0.1]]))
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(sys.to_doc()))
    code, _, err = run(capsys, "solve", str(path))
    assert code == 3
    assert "singular" in err
    # a crisp midpoint invertible in floats, but with a reciprocal condition
    # below RCOND_MIN
    path.write_text(json.dumps({"n": 2, "K": 0, "a": [[1.0, 2.0]], "box": [],
                                "A": [[[1.0, 1.0], [1.0, 1.0 + 1e-15]]]}))
    for method in ("kolev", "new"):
        code, out, err = run(capsys, "solve", str(path), "--method", method)
        assert (code, out) == (3, "")
        assert err.startswith("singular midpoint matrix: midpoint matrix "
                              "numerically singular (rcond ~ ")
        assert len(err.splitlines()) == 1


def test_parse_error_exit1_with_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 2, "K": ???}')
    code, _, err = run(capsys, "solve", str(path))
    assert code == 1
    assert "line 1" in err and "column" in err


def test_schema_error_exit1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "K": 1, "A": [], "a": [],
                                "box": []}))
    code, _, err = run(capsys, "solve", str(path))
    assert code == 1


def test_usage_error_exit1(capsys):
    code, out, err = run(capsys, "solve", EX1, "--no-such-flag")
    assert code == 1
    assert "unrecognized arguments" in err
    assert out == ""
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "usage" in out


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_system_exit1(tmp_path, capsys, value):
    doc = example1_system().to_doc()
    if value == "inf":
        doc["A"][1][0][0] = math.inf
    else:
        doc["box"][0][0] = math.nan
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "solve", str(path))
    assert code == 1
    assert err.startswith("input error") and "non-finite" in err
    assert out == ""


def _malformed(key, value):
    def doc():
        d = example1_system().to_doc()
        d[key] = value
        return d
    return doc


SPEC = json.loads((FIXTURES / "example3_secondary.json").read_text())


def _spec(**fields):
    return lambda: {"specs": [dict(SPEC["specs"][0], **fields)]}


# an array nested deeper than the JSON parser's recursion limit, as text:
# json.dumps cannot write it
DEEP = "[" * 100000 + "]" * 100000


def _entry(key, *index, value, system=example1_system):
    # the system's document with its entry d[key][index...] replaced by
    # value(entry)
    def doc():
        d = system().to_doc()
        parent, last = d, key
        for i in index:
            parent, last = parent[last], i
        parent[last] = value(parent[last])
        return d
    return doc


def _huge(key, *index):
    # one entry a JSON integer too large for a float
    return _entry(key, *index, value=lambda _: 10 ** 400)


def _one_by_one(n, K):
    # a well-formed 1x1 system but for the types of n and K
    return lambda: {"n": n, "K": K, "A": [[[2.0]], [[1.0]]],
                    "a": [[1.0], [0.0]], "box": [[-0.1, 0.1]]}


@pytest.mark.parametrize("command, document, needle", [
    ("solve", lambda: 5, ""),
    ("solve", _malformed("n", None), ""),
    ("solve", _malformed("box", [1, 2]), ""),
    ("solve", _malformed("box", [pair + [0.0] for pair
                                 in example1_system().box.to_pairs()]), ""),
    ("solve", _one_by_one(True, True), "integers"),
    ("solve", _one_by_one(1, True), "integers"),
    ("solve", _huge("A", 1, 0, 0), "float"),
    ("solve", _huge("a", 0, 1), "float"),
    ("solve", _huge("box", 0, 1), "float"),
    ("solve", _malformed("A", {"x": 1}), "A must be an array of numbers"),
    ("solve", _malformed("a", [{"x": 1}] * 3), "a must be an array of numbers"),
    ("solve", _malformed("box", {"x": 1}), "box must be an array of numbers"),
    ("solve", DEEP, "nested too deeply"),
    ("secondary", lambda: SPEC["specs"], ""),
    ("secondary", lambda: {"specs": [[1.0, 2.0, 3.0]]}, ""),
    ("secondary", lambda: {"specs": [{"b": None}]}, ""),
    ("secondary", _spec(param=True), "param"),
    ("secondary", _spec(scale=True), "scale"),
    ("secondary", _spec(scale=math.nan), "scale"),
    ("secondary", _spec(scale=math.inf), "scale"),
    ("secondary", _spec(b=[10 ** 400, 0.0, 0.0]), "float"),
    ("secondary", _spec(scale=10 ** 400), "float"),
    ("secondary", _spec(b=[1e308, 0.0, 0.0], param=0, scale=10), "overflows"),
    ("secondary", _spec(param=-1), "parameter -1 out of range 0..1"),
    ("secondary", _spec(param=2), "parameter 2 out of range 0..1"),
    ("secondary", _spec(b={"x": 1}), "b must be an array of numbers"),
    ("secondary", DEEP, "nested too deeply"),
    ("solve", _malformed("a", [[1.0, 2.0]]), "a has shape (1, 2)"),
    ("solve", _malformed("box", [[0.5, 1.5]]), "box has 1 entries, expected 2"),
    # JSON strings where numbers belong
    ("solve", _entry("A", value=lambda A: json.loads(json.dumps(A),
                                                     parse_float=str)),
     "A must be an array of numbers"),
    ("solve", _entry("box", 1, 0, value=str), "box must be an array of numbers"),
    ("secondary", _spec(b=["1", "0", "0"]), "b must be an array of numbers"),
    ("secondary", lambda: {"specs": [{"param": 0}]}, "key 'b'"),
    ("secondary", _spec(b=[1.0, 0.0], param=0), "b has length 2, expected 3"),
    # ragged arrays: a row of A0 replaced by a number, a short box pair
    ("solve", _entry("A", 0, 1, value=lambda _: -1e308, system=example2_system),
     "A has rows of different lengths"),
    ("solve", _malformed("box", [[0.1, 0.2], [0.3, 0.4], [0.5]]),
     "box has rows of different lengths"),
    ("secondary", _spec(b=[1.0, [2.0], 3.0]), "b has rows of different lengths"),
], ids=["system-not-object", "n-null", "flat-box", "box-triples",
        "n-K-true", "K-true", "A-huge-int", "a-huge-int", "box-huge-int",
        "A-object", "a-entries-object", "box-object", "system-deep",
        "spec-file-list", "spec-entry-list", "spec-b-null", "spec-param-true",
        "spec-scale-true", "spec-scale-nan", "spec-scale-inf",
        "spec-b-huge-int", "spec-scale-huge-int", "spec-scale-b-overflow",
        "spec-param-minus-one",
        "spec-param-K", "spec-b-object", "spec-deep", "a-shape", "box-count",
        "A-strings", "box-string", "spec-b-strings", "spec-no-b",
        "spec-b-length", "A-ragged", "box-ragged", "spec-b-ragged"])
def test_malformed_document_exit1(tmp_path, capsys, command, document, needle):
    path = tmp_path / "doc.json"
    path.write_text(document if isinstance(document, str) else json.dumps(document()))
    if command == "solve":
        argv = ("solve", str(path))
    else:
        argv = ("secondary", EX3, "--spec", str(path))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("input error:") and len(err.splitlines()) == 1
    assert needle in err
    assert out == ""


# stands for the written document's path in an argv below
DOC = "{doc}"


@pytest.mark.parametrize("argv, document", [
    (("solve", DOC), _entry("box", 0, value=lambda _: [-0.25, 1e308],
                            system=example2_system)),
    (("solve", DOC), _entry("A", 1, 0, 0, value=lambda _: 1e308,
                            system=example2_system)),
    (("solve", DOC), _entry("a", 0, 1, value=lambda _: -1e308,
                            system=example2_system)),
    (("polygon", DOC), _entry("a", 0, 0, value=lambda _: 1e308,
                              system=example2_system)),
    # bounds the solvers return as [-inf, inf] without a float fault
    (("solve", DOC, "--method", "kolev"),
     _entry("a", 0, 1, value=lambda _: -1e308, system=example2_system)),
    (("solve", DOC, "--method", "new"),
     _entry("a", 1, 1, value=lambda _: -1e308, system=example3_system)),
    (("solve", DOC, "--method", "numeric"),
     _entry("a", 1, 1, value=lambda _: -1e308, system=example3_system)),
    (("solve", DOC, "--method", "kolev"),
     _entry("box", 0, 0, value=lambda _: -1e308)),
    (("secondary", DOC, "--spec", str(FIXTURES / "example3_secondary.json")),
     _entry("a", 2, 2, value=lambda _: 1e308, system=example3_system)),
], ids=["box-hi-1e308", "A-1e308", "a-minus-1e308",
        "polygon-a-1e308", "a-minus-1e308-kolev", "ex3-a-minus-1e308-new",
        "ex3-a-minus-1e308-numeric", "box-lo-minus-1e308-kolev",
        "secondary-a-1e308"])
def test_float_fault_exit1_one_line(tmp_path, capsys, recwarn, argv, document):
    # an overflow, invalid operation or division by zero that the library
    # does not handle itself, or a bound that is not finite, comes from the
    # size of an input: one input error line, no output and no warning
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document()))
    code, out, err = run(capsys, *(str(path) if a == DOC else a for a in argv))
    assert (code, out) == (1, "")
    assert err.startswith("input error:") and len(err.splitlines()) == 1
    assert "float range" in err
    assert [str(w.message) for w in recwarn] == []


def test_subnormal_t_fit_exit0_enclosing_hull(tmp_path, capsys, recwarn):
    # A_1[0][1] = 5e-324 in example2: the least-squares t-fit of parameter
    # 0 overflows, so its right-hand side is a column of F; every method
    # prints a finite hull that encloses sampled point solutions
    doc = _entry("A", 1, 0, 1, value=lambda _: 5e-324,
                 system=example2_system)()
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    sysm = ParamLinearSystem.from_doc(doc)
    sols, _ = point_solutions(sysm, SamplingPlan.grid(5).points(sysm.box))
    for method in ("kolev", "numeric", "new"):
        code, out, err = run(capsys, "solve", str(path), "--method", method,
                             "--format", "json")
        assert (code, err) == (0, "")
        hull = IntervalVector.from_pairs(json.loads(out)["hull"])
        assert np.isfinite(hull.lo).all() and np.isfinite(hull.hi).all()
        assert np.all(hull.lo <= sols) and np.all(sols <= hull.hi)
    assert [str(w.message) for w in recwarn] == []


def test_wide_secondary_row_exit0_enclosing(tmp_path, capsys, recwarn):
    # b = [0.5, 1e308, 1.0] on example3: finite rows wider than half the
    # float range, whose overestimation % is formed without overflow; each
    # row encloses b^T x at a grid of point solutions
    b = [0.5, 1e308, 1.0]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_spec(b=b)()))
    code, out, err = run(capsys, "secondary", EX3, "--spec", str(path),
                         "--format", "json")
    assert (code, err) == (0, "")
    rows = [Interval(*r["interval"]) for r in json.loads(out)["rows"]]
    assert len(rows) == 2
    assert all(math.isfinite(r.lo) and math.isfinite(r.hi) for r in rows)
    sysm = example3_system()
    sols, _ = point_solutions(sysm, SamplingPlan.grid(5).points(sysm.box))
    z = sols @ np.asarray(b)
    for r in rows:
        assert np.all(r.lo <= z) and np.all(z <= r.hi)
    assert [str(w.message) for w in recwarn] == []


def test_huge_coefficients_exit1(tmp_path, capsys):
    # the rank-one factorization of A1 overflows to a non-finite pivot row
    A = [np.eye(2).tolist(), [[1e308, 1e308], [1e308, -1e308]]]
    a = [[1.0, 1.0], [0.0, 0.0]]
    box = [[-1e-320, 1e-320]]
    with pytest.raises(ValueError, match="overflows"):
        make_system(A, a, IntervalVector.from_pairs(box))
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 2, "K": 1, "A": A, "a": a, "box": box}))
    for method in ("new", "numeric", "kolev"):
        code, out, err = run(capsys, "solve", str(path), "--method", method)
        assert code == 1
        assert err.startswith("input error") and len(err.splitlines()) == 1
        assert out == ""


@pytest.mark.parametrize("command", ["solve", "secondary", "polygon"])
def test_box_width_overflow_exit1(tmp_path, capsys, recwarn, command):
    # both endpoints are finite, but hi - lo is past the float range
    doc = example3_system().to_doc()
    doc["box"][0] = [-1e308, 1e308]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    argv = {"solve": ("solve", str(path)),
            "secondary": ("secondary", str(path), "--spec",
                          str(FIXTURES / "example3_secondary.json")),
            "polygon": ("polygon", str(path))}[command]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("input error:") and len(err.splitlines()) == 1
    assert "width" in err
    assert out == ""
    assert [str(w.message) for w in recwarn] == []


def test_secondary_example3_table(capsys):
    code, out, _ = run(capsys, "secondary", EX3, "--spec",
                       str(FIXTURES / "example3_secondary.json"),
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 6
    pg_rows = [r for r in rows if r["method"] == "pg"]
    assert len(pg_rows) == 3
    pct = [round(r["overestimationPct"]) for r in pg_rows]
    assert pct == [8, 16, 12]
    assert pg_rows[0]["interval"][0] == pytest.approx(-1.0222306, abs=1e-6)


def test_secondary_fixed_parameter_keeps_its_index(tmp_path, capsys):
    # p_0 is fixed at 10; spec i bounds p_i x_i in the input numbering
    A = [[[4.0, 1.0], [1.0, 3.0]], np.diag([1.0, 0.0]).tolist(),
         np.diag([0.0, 1.0]).tolist()]
    doc = {"n": 2, "K": 2, "A": A, "a": [[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]],
           "box": [[10.0, 10.0], [0.5, 1.5]]}
    path, spec = tmp_path / "fixed.json", tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    spec.write_text(json.dumps({"specs": [{"b": [1.0, 0.0], "param": 0},
                                          {"b": [0.0, 1.0], "param": 1}]}))
    code, out, _ = run(capsys, "secondary", str(path), "--spec", str(spec),
                       "--format", "json")
    assert code == 0
    bounds = np.array([r["interval"] for r in json.loads(out)["rows"]])
    family = ParamLinearSystem.from_doc(doc)
    assert family.K == 2
    p = np.column_stack([np.full(1001, 10.0), np.linspace(0.5, 1.5, 1001)])
    x = np.linalg.solve(family.matrix_at(p), family.rhs_at(p)[..., None])[..., 0]
    # rows come in naive/refined pairs, one pair per spec
    for row, (lo, hi) in enumerate(bounds):
        v = p[:, row // 2] * x[:, row // 2]
        assert lo <= v.min() and v.max() <= hi


def test_truss_sixbar_table(capsys):
    code, out, _ = run(capsys, "truss", "--model", "sixbar",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    by_key = {(r["label"], r["method"]): r["interval"] for r in rows}
    e5_lo, e5_hi = by_key[("F_e5", "param-pg")]
    assert e5_lo == pytest.approx(-62.3642, abs=2e-3)
    assert e5_hi == pytest.approx(-49.8486, abs=2e-3)
    e1_lo, e1_hi = by_key[("F_e1", "direct-pl")]
    assert e1_lo == pytest.approx(-17.740, abs=2e-3)
    assert e1_hi == pytest.approx(43.875, abs=2e-3)


def test_truss_cantilever_small_smoke(capsys):
    code, out, _ = run(capsys, "truss", "--model", "cantilever",
                       "--floors", "1", "--element", "3",
                       "--format", "json")
    assert code == 0
    rows = {r["method"]: Interval(*r["interval"])
            for r in json.loads(out)["rows"]}
    assert set(rows) == {"pg-naive", "pg-refined"}
    assert rows["pg-naive"].encloses(rows["pg-refined"])


def json_rows(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    return json.loads(out)["rows"]


def contains_slice(rows, part):
    return any(rows[i:i + len(part)] == part
               for i in range(len(rows) - len(part) + 1))


def test_reproduce_holds_every_table(capsys):
    rows = json_rows(capsys, "reproduce")
    for argv in (("secondary", EX3, "--spec",
                  str(FIXTURES / "example3_secondary.json")),
                 ("truss", "--model", "sixbar"),
                 ("truss", "--model", "cantilever", "--floors", "20",
                  "--element", "40")):
        assert contains_slice(rows, json_rows(capsys, *argv)), argv
    for name, path in (("example1", EX1), ("example2", EX2),
                       ("example3", EX3)):
        mine = [r for r in rows if r["note"] == name]
        for method, solve_method in (("pl", "kolev"), ("pg", "new")):
            code, out, _ = run(capsys, "solve", path, "--method",
                               solve_method, "--format", "json")
            doc = json.loads(out)
            hull = [r["interval"] for r in mine
                    if r["method"] == method and r["label"].startswith("x")]
            assert hull == doc["hull"]
            rho = [r["interval"] for r in mine
                   if r["method"] == method and r["label"] == "rho"]
            assert rho == [[doc["rho"], doc["rho"]]]
        area = {r["method"]: r["interval"] for r in mine
                if r["label"] == "area"}
        assert (len(area) == 2) == (name != "example3")
        if area:
            assert area["pg"][1] < area["pl"][0]
    pct = [r["overestimationPct"] for r in rows
           if r["note"] == "example3" and r["method"] == "pg"
           and r["label"].startswith("x")]
    assert pct[0] is None and pct[1] > 0 and pct[2] > 0
    # the p,l bound of x1 does not enclose the p,g bound: NaN in the
    # library, a blank cell in the table
    c = center(example3_system())
    lib = overestimation_percent(kolev_pl_solution(c).hull,
                                 pg_solution(build_ldr(c)).hull)
    assert math.isnan(lib[0]) and lib[1:].tolist() == pct[1:]
    sixbar_pg = [r["interval"] for r in rows if r["note"] == "sixbar"
                 and r["method"] == "pg" and r["label"].startswith("x")]
    assert sixbar_pg == [r["interval"] for r in rows
                         if r["method"] == "pg-hull"]


def test_reproduce_table_rounds_outward(capsys):
    code, out, _ = run(capsys, "reproduce")
    assert code == 0
    e1 = next(ln for ln in out.splitlines()
              if ln.startswith("F_e1") and "direct-pl" in ln)
    assert "[-17.7397, 43.8744]" in e1


def test_reproduce_solves_each_system_once(capsys, monkeypatch):
    # the tower once by p,g, and the four demo systems once by each method
    import paramint.cli as cli
    calls = {"pg": 0, "pl": 0}

    def counted(key, solve):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return solve(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "pg_solution", counted("pg", cli.pg_solution))
    monkeypatch.setattr(cli, "kolev_pl_solution",
                        counted("pl", cli.kolev_pl_solution))
    code, _, _ = run(capsys, "reproduce")
    assert code == 0
    assert calls == {"pg": 5, "pl": 4}


@pytest.mark.parametrize("argv", [("--floors", "0"),
                                  ("--floors", "1", "--element", "99")])
def test_truss_tower_out_of_range_exit1(capsys, argv):
    code, out, err = run(capsys, "truss", "--model", "cantilever", *argv)
    assert code == 1
    assert err.startswith("input error:") and len(err.splitlines()) == 1
    assert out == ""
    # reproduce's tower is fixed: it takes neither option
    code, _, err = run(capsys, "reproduce", *argv)
    assert code == 1 and "unrecognized arguments" in err


def test_polygon_example1(capsys):
    code, out, _ = run(capsys, "polygon", EX1, "--dims", "1,2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "part,x,y"
    poly = [tuple(map(float, ln.split(",")[1:]))
            for ln in lines[1:] if ln.startswith("polygon")]
    rect = [tuple(map(float, ln.split(",")[1:]))
            for ln in lines[1:] if ln.startswith("hull")]
    assert len(poly) == 4          # skew box
    assert len(rect) == 4
    assert polygon_area(np.array(poly)) == pytest.approx(55 / 24, rel=1e-6)


@pytest.mark.parametrize("dims, needle", [
    ("0,1", "out of range 1..2"),
    ("1,9", "out of range 1..2"),
    ("1;2", "bad --dims '1;2', expected like 1,2"),
], ids=["0,1", "1,9", "malformed"])
def test_polygon_dims_out_of_range_exit1(capsys, dims, needle):
    code, out, err = run(capsys, "polygon", EX1, "--dims", dims)
    assert code == 1
    assert err.startswith("input error") and needle in err
    assert len(err.splitlines()) == 1
    assert out == ""


def test_polygon_zero_radius(tmp_path, capsys):
    A = np.stack([np.eye(2)])
    a = np.array([[1.0, 2.0]])
    sys = make_system(A, a, IntervalVector(lo=np.zeros(0), hi=np.zeros(0)))
    path = tmp_path / "point.json"
    path.write_text(json.dumps(sys.to_doc()))
    code, out, _ = run(capsys, "polygon", str(path))
    assert code == 0
    poly = [ln for ln in out.strip().splitlines() if ln.startswith("polygon")]
    assert len(poly) == 1


def polygon_rows(out):
    return np.array([[float(v) for v in ln.split(",")[1:]]
                     for ln in out.strip().splitlines()[1:]
                     if ln.startswith("polygon")])


def turns(poly):
    """Cross product of each pair of consecutive edges, in boundary order."""
    e = np.roll(poly, -1, axis=0) - poly
    f = np.roll(e, -1, axis=0)
    return e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0]


def test_polygon_areas_pg_inside_pl(capsys):
    # projected polytope areas, of the boundary as printed: the
    # p,g-solution's polygon is smaller
    for fixture in (EX1, EX2):
        areas = {}
        for method in ("kolev", "new"):
            code, out, _ = run(capsys, "polygon", fixture,
                               "--method", method)
            assert code == 0
            poly = polygon_rows(out)
            assert np.all(turns(poly) > 0)      # convex, counterclockwise
            areas[method] = polygon_area(poly)
        assert areas["new"] < areas["kolev"]


@pytest.mark.parametrize("method", ["kolev", "new"])
def test_polygon_more_than_twenty_columns(tmp_path, capsys, method):
    # 18 rank-one parameters on a 4 x 4 system: 22 columns for p,l and,
    # with every right-hand side outside its coefficient's range, 36 for
    # p,g -- 2^22 and 2^36 box vertices
    sysm = random_rank_one_system(np.random.default_rng(18), n=4, K=18,
                                  loose_rhs=True)
    path = tmp_path / "family.json"
    path.write_text(json.dumps(sysm.to_doc()))
    code, out, err = run(capsys, "polygon", str(path), "--method", method)
    assert (code, err) == (0, "")
    poly = polygon_rows(out)
    assert np.all(turns(poly) > 0)
    assert len(poly) == (40 if method == "kolev" else 72)
    # the images of random box points lie inside every edge
    c = center(sysm)
    sol = (kolev_pl_solution(c) if method == "kolev"
           else pg_solution(build_ldr(c))).solution
    assert sol.m == (22 if method == "kolev" else 36)
    q = np.random.default_rng(7).uniform(sol.q_box.lo, sol.q_box.hi,
                                         (200, sol.m))
    pts = (sol.x_check + q @ sol.generators().T)[:, :2]
    e = np.roll(poly, -1, axis=0) - poly
    side = (e[None, :, 0] * (pts[:, None, 1] - poly[None, :, 1])
            - e[None, :, 1] * (pts[:, None, 0] - poly[None, :, 0]))
    slack = 1e-12 * np.max(np.abs(poly)) * np.linalg.norm(e, axis=1)
    assert np.all(side >= -slack[None, :])


def test_report_row_roundtrip():
    row = ReportRow("u1", "pg", Interval(-1.5, 2.5), 3.25, "note here")
    assert json.loads(json.dumps(row.to_doc())) == {
        "label": "u1", "method": "pg", "interval": [-1.5, 2.5],
        "overestimationPct": 3.25, "note": "note here"}


def test_fmt_outward():
    assert fmt_outward(11.7228, -1, 5) == "11.722"
    assert fmt_outward(14.4119, +1, 5) == "14.412"
    assert fmt_outward(-62.3642, -1, 5) == "-62.365"
    assert fmt_outward(-49.8486, +1, 5) == "-49.848"
    assert fmt_outward(0.0, 1) == "0"


def test_fmt_outward_below_float_step():
    # below about 1e-300 the float step 10**(exp - 5) is no normal float
    # (it underflows to 0 under 1e-308); the printed bounds still enclose
    # x outward, exactly
    for x in (5e-324, 1e-320, -1e-320, 2.5e-310, -1.234567e-305):
        lo, hi = fmt_outward(x, -1), fmt_outward(x, +1)
        assert Fraction(lo) <= Fraction(x) <= Fraction(hi)
        assert lo != hi
    assert fmt_outward(5e-324, -1) == "4.94065e-324"
    assert fmt_outward(1e-320, -1) == "9.99988e-321"
    assert fmt_outward(-1e-320, +1) == "-9.99988e-321"


def test_fmt_outward_encloses_at_every_magnitude():
    rng = np.random.default_rng(11)
    values = [m * 10.0 ** e for e in range(-320, 300, 7) for m in rng.uniform(1.0, 10.0, 3)]
    values += [1e-300, 1e-20, 1e-5, 9.999999999999999e-5, 1e-4, 2.98e-4, 184.0,
               999999.95, 1e6, 1e23, 5e-324, 1.7976931348623157e308]
    for x in values + [-v for v in values]:
        for digits in (5, 6):
            lo, hi = fmt_outward(x, -1, digits), fmt_outward(x, +1, digits)
            assert Fraction(lo) <= Fraction(x) <= Fraction(hi), (x, lo, hi)


def test_fmt_outward_width():
    # %g's rule: exponent form below 1e-4 and from 10**digits on, so tiny
    # and huge bounds fit the table's enclosure column
    for x in (1e-300, -1e-300, 1e-20, -1e-20):
        for direction in (-1, +1):
            assert len(fmt_outward(x, direction)) <= 13
    assert fmt_outward(1e-20, +1) == "1.00000e-20"
    assert fmt_outward(2.5e6, -1) == "2.50000e+6"
    # the magnitudes today's tables print stay fixed point
    assert fmt_outward(2.98e-4, -1) == "0.000297999"
    assert fmt_outward(184.0, +1) == "184.000"
    # rounding out that carries into the next decade still prints exactly
    # `digits` significant digits, in the form %g gives the rounded value
    assert fmt_outward(9.999995, +1) == "10.0000"
    assert fmt_outward(-9.999995, -1) == "-10.0000"
    assert fmt_outward(999999.7, +1) == "1.00000e+6"
    assert fmt_outward(9.999999999999999e-05, +1) == "0.000100000"
    assert fmt_outward(9999.5, +1, 4) == "1.000e+4"


def test_solve_table_of_subnormal_solution(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"n": 1, "K": 1, "A": [[[1.0]], [[0.1]]],
                                "a": [[1e-320], [0.0]], "box": [[-0.1, 0.1]]}))
    code, out, err = run(capsys, "solve", str(path), "--format", "json")
    assert code == 0
    (hull_lo, hull_hi), = json.loads(out)["hull"]
    code, out, err = run(capsys, "solve", str(path))
    assert code == 0 and err == ""
    row = out.splitlines()[1]
    assert row.startswith("x1")
    lo, hi = row[row.index("[") + 1:row.index("]")].split(", ")
    assert Fraction(lo) <= Fraction(hull_lo) and Fraction(hull_hi) <= Fraction(hi)


def test_examples_listing_and_writing(tmp_path, capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    assert "example1" in out and "sixbar" in out
    outdir = tmp_path / "fx"
    code, out, _ = run(capsys, "examples", "--out", str(outdir))
    assert code == 0
    files = [Path(line) for line in out.splitlines()]
    assert len(files) == 4
    assert sorted(files) == sorted(outdir.iterdir())
    # `paramint examples --out fixtures` regenerates the committed files
    for path in files:
        assert path.read_bytes() == (FIXTURES / path.name).read_bytes(), path.name
    assert sorted(FIXTURES.iterdir()) == sorted(FIXTURES / p.name for p in files)


def test_written_examples_are_command_inputs(tmp_path, capsys):
    # every document `examples --out` writes is read by a command: a
    # `<system>_secondary.json` by `secondary` on `<system>.json`, every
    # other one by `solve`
    code, out, _ = run(capsys, "examples", "--out", str(tmp_path))
    assert code == 0
    for path in map(Path, out.splitlines()):
        system = path.with_name(path.name.replace("_secondary", ""))
        argv = (("secondary", str(system), "--spec", str(path))
                if system != path else ("solve", str(path)))
        code, text, err = run(capsys, *argv)
        assert (code, err) == (0, ""), path.name
        assert text


def test_solve_table_and_csv_formats(capsys):
    code, out, _ = run(capsys, "solve", EX1, "--method", "kolev",
                       "--format", "table")
    assert code == 0
    assert "rho" in out
    assert "x1" in out and "x2" in out
    code, out, _ = run(capsys, "solve", EX1, "--format", "csv")
    assert code == 0
    header, *rows = [ln for ln in out.splitlines() if ln.strip()]
    assert header.startswith("label,method")
    first = rows[0].split(",")
    assert float(first[2]) == pytest.approx(-17 / 12, abs=1e-9)


def test_cli_import_leaves_scipy_optimize_unloaded():
    # linprog is used only by the test oracle, and it dominates start-up
    src = str(Path(paramint.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, paramint.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("module", ["scipy.linalg", "scipy.sparse"])
def test_cli_import_leaves_scipy_module_unloaded(module):
    # each adds 20 MB or more to the resident memory of every process
    src = str(Path(paramint.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import sys, paramint.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_import_loads_no_scipy():
    # scipy is a test dependency only, and it adds 20 MB or more to the
    # resident memory of every process that loads it
    src = str(Path(paramint.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, paramint, paramint.cli, paramint.oracle; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")   # Python 3.11 on
    package = Path(paramint.__file__).resolve().parent
    assert [f.name for f in sorted(package.glob("*.py"))
            if "scipy" in f.read_text()] == []
    project = tomllib.loads((package.parents[1] / "pyproject.toml").read_text())
    names = [re.match(r"[\w.-]+", dep).group(0)
             for dep in project["project"]["dependencies"]]
    assert names == ["numpy"]
