"""Batch command-line front end.

Subcommands:

* ``paramint solve SYSTEM.json --method kolev|numeric|new`` -- enclosure of
  one parametric system, with hull, solution coefficients and the
  regularity radius;
* ``paramint secondary SYSTEM.json --spec SPECS.json``      -- secondary
  quantity table (naive/refined columns, endpoint flags, overestimation);
* ``paramint truss --model sixbar|cantilever``              -- the bundled
  structures' displacement and axial-force tables;
* ``paramint polygon SYSTEM.json --dims i,j``               -- 2-D
  projection of the solution polytope (its zonogon boundary,
  counterclockwise) and of the hull box as plot-ready CSV;
* ``paramint reproduce``                                    -- every
  reference table in one row stream: the demo-system and 6-bar hulls,
  regularity radii and polygon areas, then the ``secondary`` and
  ``truss`` tables;
* ``paramint examples --out DIR``                           -- write the
  documents ``solve``, ``secondary`` and ``polygon`` read.

Exit codes: 0 success, 1 input error (parse errors, float faults and
bounds that overflow too), 2 regularity violation, 3 singular midpoint
matrix.
Diagnostics go to stderr only.
"""

from __future__ import annotations

import argparse
import decimal
import json
import math
import os
import sys as _sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .intervals import Interval
from .oracle import polygon_area, zonogon
from .problems import SYSTEM_BUILDERS, example3_secondary_matrix
from .secondary import (SecondarySpec, bilinear_secondary, linear_secondary,
                        overestimation_percent)
from .solvers import (MidpointSingular, RegularityViolation,
                      kolev_pl_solution, pg_solution)
from .systems import ParamLinearSystem, build_ldr, center
from .truss import (assemble, cantilever_truss, force_map, six_bar_truss,
                    six_bar_reference_force_map)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_REGULARITY = 2
EXIT_SINGULAR = 3

TOWER_FLOORS, TOWER_ELEMENT = 20, 40    # reproduce's tower, truss's default


@dataclass
class ReportRow:
    label: str
    method: str
    interval: Interval
    overestimation_pct: Optional[float] = None
    note: str = ""

    def __post_init__(self):
        # every table row passes here before anything is written
        iv = self.interval
        if not (math.isfinite(iv.lo) and math.isfinite(iv.hi)):
            raise ValueError(f"{self.label} ({self.method}) bound {iv} "
                             "overflows the float range")

    def to_doc(self) -> dict:
        return {"label": self.label, "method": self.method,
                "interval": self.interval.to_pair(),
                "overestimationPct": self.overestimation_pct,
                "note": self.note}


def fmt_outward(x: float, direction: int, digits: int = 6) -> str:
    """Decimal form of x rounded outward (direction -1 for lower endpoints,
    +1 for upper) to exactly `digits` significant digits.

    `decimal` converts x exactly and rounds once toward -inf or +inf, so
    the printed bound encloses x at every magnitude.  As with %g, the
    exponent form is used when the rounded value's decimal exponent is
    below -4 or at least `digits`.
    """
    if x == 0.0 or not math.isfinite(x):
        return f"{x:g}"
    rounding = decimal.ROUND_FLOOR if direction < 0 else decimal.ROUND_CEILING
    d = decimal.Context(prec=digits, rounding=rounding).create_decimal(x)
    exp = d.adjusted()
    if exp < -4 or exp >= digits:
        return f"{d:.{digits - 1}e}"
    return f"{d:.{digits - 1 - exp}f}"


def _emit_rows(rows, fmt: str, stream) -> None:
    if fmt == "json":
        json.dump({"rows": [r.to_doc() for r in rows]}, stream, indent=2)
        stream.write("\n")
    elif fmt == "csv":
        stream.write("label,method,lo,hi,overestimation_pct,note\n")
        for r in rows:
            pct = "" if r.overestimation_pct is None else f"{r.overestimation_pct:.6g}"
            stream.write(f"{r.label},{r.method},{r.interval.lo!r},"
                         f"{r.interval.hi!r},{pct},{r.note}\n")
    else:
        width = max(5, max((len(r.label) for r in rows), default=5)) + 2
        stream.write(f"{'label':<{width}}{'method':<12}{'enclosure':<32}"
                     f"{'overest.%':<10}note\n")
        for r in rows:
            text = (f"[{fmt_outward(r.interval.lo, -1)}, "
                    f"{fmt_outward(r.interval.hi, +1)}]")
            pct = "" if r.overestimation_pct is None else f"{r.overestimation_pct:.2f}"
            stream.write(f"{r.label:<{width}}{r.method:<12}{text:<32}"
                         f"{pct:<10}{r.note}\n")


def _read_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("document is nested too deeply") from None


def _load_system(path: str) -> ParamLinearSystem:
    return ParamLinearSystem.from_doc(_read_json(path))


def _hull_rows(method: str, hull, pct=None, note: str = "", unknown="x"):
    """Rows x1..xn (or u1..un) of one enclosure hull, as ``solve`` has them."""
    pct = [None] * len(hull) if pct is None else pct
    return [ReportRow(f"{unknown}{i + 1}", method, iv, p, note)
            for i, (iv, p) in enumerate(zip(hull, pct))]


def _overestimation(outer, inner) -> list:
    """`overestimation_percent` of each row of ``outer`` over ``inner``,
    None (a blank cell) where the row does not enclose ``inner``'s."""
    return [None if math.isnan(p) else float(p)
            for p in overestimation_percent(outer, inner)]


def _endpoint_note(res) -> str:
    """Which bounds of a bilinear row are pinned to a parameter endpoint."""
    if res.lower_sign is None and res.upper_sign is None:
        return "interior"
    return f"endpoints lower={res.lower_sign} upper={res.upper_sign}"


def _bilinear_rows(label: str, sol, spec):
    """The naive and refined rows of one bilinear secondary quantity."""
    res = bilinear_secondary(sol, spec)
    return [ReportRow(label, "pg-naive", res.naive),
            ReportRow(label, "pg-refined", res.refined,
                      note=_endpoint_note(res))]


def _solve(sysm, method: str):
    """The p,l report for method "kolev", else the p,g report."""
    c = center(sysm)
    return kolev_pl_solution(c) if method == "kolev" else pg_solution(build_ldr(c))


def cmd_solve(args) -> int:
    rep = _solve(_load_system(args.system), args.method)
    rows = _hull_rows(args.method, rep.hull)
    # numeric reports only the hull and y of the p,g solution
    numeric = args.method == "numeric"
    if numeric:
        doc = {"kind": "numeric", "hull": rep.hull.to_pairs(),
               "y": rep.y_enclosure.to_pairs()}
    else:
        doc = rep.to_doc()
        doc["rows"] = [r.to_doc() for r in rows]
    if args.format == "json":
        json.dump(doc, _sys.stdout, indent=2)
        _sys.stdout.write("\n")
    else:
        _emit_rows(rows, args.format, _sys.stdout)
        if not numeric:
            _sys.stdout.write(f"# rho = {rep.regularity_radius:.6g}\n")
    return EXIT_OK


def _solve_both(sysm) -> dict:
    """The p,l and p,g reports of one system, keyed "pl" and "pg"."""
    c = center(sysm)
    return {"pl": kolev_pl_solution(c), "pg": pg_solution(build_ldr(c))}


def _secondary_rows(reps, specs):
    rep_pl, rep_pg = reps["pl"], reps["pg"]
    rows = []
    for idx, spec in enumerate(specs):
        if spec.param_index is None:
            label = f"z{idx + 1}"
            zp = linear_secondary(spec.b[None, :], rep_pl.solution)
            zpp = linear_secondary(spec.b[None, :], rep_pg.solution)
            rows.append(ReportRow(label, "pl", zp[0]))
            rows.append(ReportRow(label, "pg", zpp[0],
                                  overestimation_pct=_overestimation(zp, zpp)[0]))
        else:
            rows += _bilinear_rows(f"v{idx + 1}", rep_pg.solution, spec)
    return rows


def cmd_secondary(args) -> int:
    sysm = _load_system(args.system)
    doc = _read_json(args.spec)
    if not (isinstance(doc, dict) and isinstance(doc.get("specs"), list)):
        raise ValueError("spec document must be an object with a list 'specs'")
    specs = [SecondarySpec.from_doc(d) for d in doc["specs"]]
    rows = _secondary_rows(_solve_both(sysm), specs)
    _emit_rows(rows, args.format, _sys.stdout)
    return EXIT_OK


def _sixbar_rows(sysm, reps):
    rep_pl, rep_pg = reps["pl"], reps["pg"]
    rec = six_bar_reference_force_map()
    rows = _hull_rows("pg-hull", rep_pg.hull,
                      _overestimation(rep_pl.hull, rep_pg.hull), unknown="u")
    direct_pl = rec.direct_bounds(rep_pl.hull, sysm.box)
    direct_pg = rec.direct_bounds(rep_pg.hull, sysm.box)
    pct = _overestimation(direct_pl, direct_pg)
    for row, (eid, spec) in enumerate(zip(rec.element_ids,
                                          rec.to_secondary_specs())):
        label = f"F_e{eid + 1}"
        rows.append(ReportRow(label, "direct-pl", direct_pl[row]))
        rows.append(ReportRow(label, "direct-pg", direct_pg[row],
                              overestimation_pct=pct[row]))
        if spec.param_index is None:
            z = linear_secondary(spec.b[None, :], rep_pg.solution)[0]
            rows.append(ReportRow(label, "param-pg", z))
        else:
            res = bilinear_secondary(rep_pg.solution, spec)
            rows.append(ReportRow(label, "param-pg", res.refined,
                                  note=_endpoint_note(res)))
    return rows


def _cantilever_rows(floors: int, element: int):
    model = cantilever_truss(floors)
    if element < 1 or element > len(model.elements):
        raise ValueError(f"element {element} out of range 1..{len(model.elements)}")
    rep_pg = pg_solution(build_ldr(center(assemble(model))))
    rec = force_map(model)
    row = rec.element_ids.index(element - 1)
    return _bilinear_rows(f"F{element}", rep_pg.solution,
                          rec.to_secondary_specs()[row])


def cmd_truss(args) -> int:
    if args.model == "sixbar":
        sysm = assemble(six_bar_truss())
        rows = _sixbar_rows(sysm, _solve_both(sysm))
    else:
        rows = _cantilever_rows(args.floors, args.element)
    _emit_rows(rows, args.format, _sys.stdout)
    return EXIT_OK


def _system_rows(name: str, sysm, reps):
    """p,l and p,g hulls (with the overestimation % where the p,l hull
    encloses the p,g hull), both regularity radii and, for n = 2, both
    polygon areas; point values are point-interval rows."""
    pct = _overestimation(reps["pl"].hull, reps["pg"].hull)
    rows = (_hull_rows("pl", reps["pl"].hull, note=name)
            + _hull_rows("pg", reps["pg"].hull, pct, name))
    for method, rep in reps.items():
        rho = rep.regularity_radius
        rows.append(ReportRow("rho", method, Interval(rho, rho), note=name))
        if sysm.n == 2:
            area = polygon_area(zonogon(rep.solution, 0, 1))
            rows.append(ReportRow("area", method, Interval(area, area),
                                  note=name))
    return rows


def cmd_reproduce(args) -> int:
    systems = {name: build() for name, build in SYSTEM_BUILDERS.items()}
    systems["sixbar"] = assemble(six_bar_truss())
    reps = {name: _solve_both(sysm) for name, sysm in systems.items()}
    rows = [r for name, sysm in systems.items()
            for r in _system_rows(name, sysm, reps[name])]
    specs = [SecondarySpec(b=b) for b in example3_secondary_matrix()]
    rows += _secondary_rows(reps["example3"], specs)
    rows += _sixbar_rows(systems["sixbar"], reps["sixbar"])
    rows += _cantilever_rows(TOWER_FLOORS, TOWER_ELEMENT)
    _emit_rows(rows, args.format, _sys.stdout)
    return EXIT_OK


def cmd_polygon(args) -> int:
    sysm = _load_system(args.system)
    try:
        i, j = (int(d) - 1 for d in args.dims.split(","))
    except ValueError:
        raise ValueError(f"bad --dims {args.dims!r}, expected like 1,2")
    if not (0 <= i < sysm.n and 0 <= j < sysm.n):
        raise ValueError(f"--dims {args.dims!r} out of range 1..{sysm.n}")
    rep = _solve(sysm, args.method)
    polygon = zonogon(rep.solution, i, j)    # before any output
    rect = [(rep.hull.lo[i], rep.hull.lo[j]), (rep.hull.hi[i], rep.hull.lo[j]),
            (rep.hull.hi[i], rep.hull.hi[j]), (rep.hull.lo[i], rep.hull.hi[j])]
    if not (np.isfinite(polygon).all() and np.isfinite(rect).all()):
        raise ValueError("polygon bound overflows the float range")
    out = _sys.stdout
    out.write("part,x,y\n")
    for x, y in polygon:
        out.write(f"polygon,{float(x)!r},{float(y)!r}\n")
    for x, y in rect:
        out.write(f"hull,{float(x)!r},{float(y)!r}\n")
    return EXIT_OK


def cmd_examples(args) -> int:
    """List the bundled problems or, with --out, write the documents the
    commands read: each bundled system and the example3 secondary specs."""
    lines = sorted(SYSTEM_BUILDERS) + ["sixbar", "cantilever"]
    if args.out is not None:
        docs = {f"{name}.json": build().to_doc()
                for name, build in SYSTEM_BUILDERS.items()}
        docs["example3_secondary.json"] = {
            "specs": [SecondarySpec(b=row).to_doc()
                      for row in example3_secondary_matrix()]}
        os.makedirs(args.out, exist_ok=True)
        lines = [os.path.join(args.out, name) for name in docs]
        for path, doc in zip(lines, docs.values()):
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
    _sys.stdout.write("".join(line + "\n" for line in lines))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paramint",
        description="enclosures for interval parametric linear systems")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "csv", "table"),
                       default="table")

    p_solve = sub.add_parser("solve", help="enclose one parametric system")
    p_solve.add_argument("system")
    p_solve.add_argument("--method", choices=("kolev", "numeric", "new"),
                         default="new")
    add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_sec = sub.add_parser("secondary", help="bound secondary quantities")
    p_sec.add_argument("system")
    p_sec.add_argument("--spec", required=True)
    add_common(p_sec)
    p_sec.set_defaults(func=cmd_secondary)

    p_truss = sub.add_parser("truss", help="bundled truss structures")
    p_truss.add_argument("--model", choices=("sixbar", "cantilever"),
                         required=True)
    p_truss.add_argument("--floors", type=int, default=TOWER_FLOORS)
    p_truss.add_argument("--element", type=int, default=TOWER_ELEMENT)
    add_common(p_truss)
    p_truss.set_defaults(func=cmd_truss)

    p_poly = sub.add_parser("polygon", help="2-D polytope projection as CSV")
    p_poly.add_argument("system")
    p_poly.add_argument("--dims", default="1,2")
    p_poly.add_argument("--method", choices=("kolev", "new"), default="new")
    p_poly.set_defaults(func=cmd_polygon)

    p_rep = sub.add_parser("reproduce", help="all reference tables")
    add_common(p_rep)
    p_rep.set_defaults(func=cmd_reproduce)

    p_ex = sub.add_parser("examples", help="list or write bundled fixtures")
    p_ex.add_argument("--out", default=None)
    p_ex.set_defaults(func=cmd_examples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error; 2 is the
        # regularity-violation code here, so a usage error is an input error
        return EXIT_OK if exc.code == 0 else EXIT_PARSE
    try:
        # a float fault comes from an input's size; raising it also overrides
        # library checks made after the fact (the midpoint's rcond estimate)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"parse error: {exc.msg} at line {exc.lineno} column {exc.colno}",
              file=_sys.stderr)
        return EXIT_PARSE
    except FloatingPointError as exc:
        print("input error: an input number is too large or too small for "
              f"the float range ({exc})", file=_sys.stderr)
        return EXIT_PARSE
    except (OSError, ValueError, OverflowError) as exc:
        print(f"input error: {exc}", file=_sys.stderr)
        return EXIT_PARSE
    except RegularityViolation as exc:
        print(f"regularity violation ({exc.family}): rho = {exc.rho:.6g}",
              file=_sys.stderr)
        return EXIT_REGULARITY
    except MidpointSingular as exc:
        print(f"singular midpoint matrix: {exc}", file=_sys.stderr)
        return EXIT_SINGULAR


if __name__ == "__main__":
    raise SystemExit(main())
