import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paramint
from paramint.cli import ReportRow, fmt_outward, main
from paramint.intervals import Interval, IntervalVector
from paramint.oracle import convex_hull_2d, polygon_area
from paramint.problems import example1_system
from paramint.systems import make_system

from conftest import FIXTURES

EX1 = str(FIXTURES / "example1.json")
EX2 = str(FIXTURES / "example2.json")
EX3 = str(FIXTURES / "example3.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
                       IntervalVector.from_mid_rad(base.box.mid,
                                                   10 * base.box.rad))
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(wide.to_doc()))
    code, out, err = run(capsys, "solve", str(path))
    assert code == 2
    assert "rho" in err
    assert out == ""


def test_solve_singular_exit3(tmp_path, capsys):
    A = np.stack([np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2)])
    a = np.zeros((2, 2))
    sys = make_system(A, a, IntervalVector.from_pairs([[-0.1, 0.1]]))
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(sys.to_doc()))
    code, _, err = run(capsys, "solve", str(path))
    assert code == 3
    assert "singular" in err


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


def test_huge_coefficients_exit1(tmp_path, capsys):
    # the rank-one factorization of A1 overflows to a non-finite pivot row
    A = np.array([np.eye(2), [[1e308, 1e308], [1e308, -1e308]]])
    sys = make_system(A, np.array([[1.0, 1.0], [0.0, 0.0]]),
                      IntervalVector.from_pairs([[-1e-320, 1e-320]]))
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(sys.to_doc()))
    code, out, err = run(capsys, "solve", str(path))
    assert code == 1
    assert err.startswith("input error") and len(err.splitlines()) == 1
    assert out == ""


def test_secondary_example3_table(capsys):
    code, out, _ = run(capsys, "secondary", EX3, "--spec",
                       str(FIXTURES / "example3_secondary.json"),
                       "--format", "json")
    assert code == 0
    rows = [ReportRow.from_doc(d) for d in json.loads(out)["rows"]]
    assert len(rows) == 6
    pg_rows = [r for r in rows if r.method == "pg"]
    assert len(pg_rows) == 3
    pct = [round(r.overestimation_pct) for r in pg_rows]
    assert pct == [8, 16, 12]
    assert pg_rows[0].interval.lo == pytest.approx(-1.0222306, abs=1e-6)


def test_truss_sixbar_table(capsys):
    code, out, _ = run(capsys, "truss", "--model", "sixbar",
                       "--format", "json")
    assert code == 0
    rows = [ReportRow.from_doc(d) for d in json.loads(out)["rows"]]
    by_key = {(r.label, r.method): r for r in rows}
    e5 = by_key[("F_e5", "param-pg")]
    assert e5.interval.lo == pytest.approx(-62.3642, abs=2e-3)
    assert e5.interval.hi == pytest.approx(-49.8486, abs=2e-3)
    e1_direct = by_key[("F_e1", "direct-pl")]
    assert e1_direct.interval.lo == pytest.approx(-17.740, abs=2e-3)
    assert e1_direct.interval.hi == pytest.approx(43.875, abs=2e-3)


def test_truss_cantilever_small_smoke(capsys):
    code, out, _ = run(capsys, "truss", "--model", "cantilever",
                       "--floors", "1", "--element", "3",
                       "--format", "json")
    assert code == 0
    rows = [ReportRow.from_doc(d) for d in json.loads(out)["rows"]]
    assert {r.method for r in rows} == {"pg-naive", "pg-refined"}
    naive = next(r for r in rows if r.method == "pg-naive")
    refined = next(r for r in rows if r.method == "pg-refined")
    assert naive.interval.encloses(refined.interval)


def test_truss_cantilever_bad_element(capsys):
    code, _, err = run(capsys, "truss", "--model", "cantilever",
                       "--floors", "1", "--element", "99")
    assert code == 1


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
    sixbar_pg = [r["interval"] for r in rows if r["note"] == "sixbar"
                 and r["method"] == "pg" and r["label"].startswith("x")]
    assert sixbar_pg == [r["interval"] for r in rows
                         if r["method"] == "pg-hull"]


def test_reproduce_table_rounds_outward(capsys):
    code, out, _ = run(capsys, "reproduce", "--floors", "1", "--element", "3")
    assert code == 0
    e1 = next(ln for ln in out.splitlines()
              if ln.startswith("F_e1") and "direct-pl" in ln)
    assert "[-17.7397, 43.8744]" in e1


@pytest.mark.parametrize("argv", [("--floors", "0"),
                                  ("--floors", "1", "--element", "99")])
def test_reproduce_tower_out_of_range_exit1(capsys, argv):
    code, out, err = run(capsys, "reproduce", *argv)
    assert code == 1
    assert err.startswith("input error")
    assert out == ""


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


@pytest.mark.parametrize("dims", ["0,1", "1,9"])
def test_polygon_dims_out_of_range_exit1(capsys, dims):
    code, out, err = run(capsys, "polygon", EX1, "--dims", dims)
    assert code == 1
    assert err.startswith("input error") and "out of range 1..2" in err
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


def test_polygon_areas_pg_inside_pl(capsys):
    # projected polytope areas: the p,g-solution's polygon is smaller
    for fixture in (EX1, EX2):
        areas = {}
        for method in ("kolev", "new"):
            code, out, _ = run(capsys, "polygon", fixture,
                               "--method", method)
            assert code == 0
            pts = np.array([
                [float(v) for v in ln.split(",")[1:]]
                for ln in out.strip().splitlines()[1:]
                if ln.startswith("polygon")])
            areas[method] = polygon_area(convex_hull_2d(pts))
        assert areas["new"] < areas["kolev"]


def test_report_row_roundtrip():
    row = ReportRow("u1", "pg", Interval(-1.5, 2.5), 3.25, "note here")
    back = ReportRow.from_doc(json.loads(json.dumps(row.to_doc())))
    assert back == row


def test_fmt_outward():
    assert fmt_outward(11.7228, -1, 5) == "11.722"
    assert fmt_outward(14.4119, +1, 5) == "14.412"
    assert fmt_outward(-62.3642, -1, 5) == "-62.365"
    assert fmt_outward(-49.8486, +1, 5) == "-49.848"
    assert fmt_outward(0.0, 1) == "0"


def test_examples_listing_and_writing(tmp_path, capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    assert "example1" in out and "sixbar" in out
    outdir = tmp_path / "fx"
    code, out, _ = run(capsys, "examples", "--out", str(outdir))
    assert code == 0
    files = [Path(line) for line in out.splitlines()]
    assert len(files) == 9
    assert sorted(files) == sorted(outdir.iterdir())
    # `paramint examples --out fixtures` regenerates the committed files
    for path in files:
        assert path.read_bytes() == (FIXTURES / path.name).read_bytes(), path.name


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
    # only oracle.zonotope_contains needs it, and it dominates start-up
    src = str(Path(paramint.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, paramint.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"
