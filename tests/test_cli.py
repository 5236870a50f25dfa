import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paramint
from paramint.cli import ReportRow, fmt_outward, main, write_fixtures
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


def test_secondary_example3_table(capsys):
    code, out, _ = run(capsys, "secondary", EX3, "--spec",
                       str(FIXTURES / "example3_secondary.json"),
                       "--format", "json")
    assert code == 0
    rows = [ReportRow.from_doc(d) for d in json.loads(out)["rows"]]
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
    files = write_fixtures(str(outdir))
    assert (outdir / "example1.json").exists()
    assert (outdir / "cantilever.json").exists()
    regenerated = json.loads((outdir / "example1.json").read_text())
    committed = json.loads((FIXTURES / "example1.json").read_text())
    assert regenerated == committed


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


def test_secondary_jobs_flag(capsys):
    code, out, _ = run(capsys, "secondary", EX3, "--spec",
                       str(FIXTURES / "example3_secondary.json"),
                       "--format", "json", "--jobs", "2")
    assert code == 0
    rows = [ReportRow.from_doc(d) for d in json.loads(out)["rows"]]
    assert len(rows) == 6


def test_cli_import_leaves_scipy_optimize_unloaded():
    # only oracle.zonotope_contains needs it, and it dominates start-up
    src = str(Path(paramint.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, paramint.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"
