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
  projection of the solution polytope as plot-ready CSV;
* ``paramint reproduce``                                    -- every
  reference table in one row stream: the demo-system and 6-bar hulls,
  regularity radii and polygon areas, then the ``secondary`` and
  ``truss`` tables;
* ``paramint examples --out DIR``                           -- write the
  bundled fixture documents.

Exit codes: 0 success, 1 input/parse error, 2 regularity violation,
3 singular midpoint matrix.  Diagnostics go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys
from dataclasses import dataclass
from typing import Optional

from .intervals import Interval, IntervalVector
from .oracle import convex_hull_2d, polygon_area, polytope_vertices
from .problems import SYSTEM_BUILDERS, example3_secondary_matrix
from .secondary import (SecondarySpec, bilinear_secondary, linear_secondary,
                        overestimation_percent)
from .solvers import (MidpointSingular, RegularityViolation,
                      kolev_pl_solution, pg_solution, rank_one_enclosure)
from .systems import ParamLinearSystem, build_ldr, center
from .truss import (assemble, cantilever_truss, force_map, six_bar_truss,
                    six_bar_reference_force_map)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_REGULARITY = 2
EXIT_SINGULAR = 3


@dataclass
class ReportRow:
    label: str
    method: str
    interval: Interval
    overestimation_pct: Optional[float] = None
    note: str = ""

    def to_doc(self) -> dict:
        return {"label": self.label, "method": self.method,
                "interval": self.interval.to_pair(),
                "overestimationPct": self.overestimation_pct,
                "note": self.note}

    @classmethod
    def from_doc(cls, doc: dict) -> "ReportRow":
        lo, hi = doc["interval"]
        return cls(doc["label"], doc["method"], Interval(lo, hi),
                   doc.get("overestimationPct"), doc.get("note", ""))


def fmt_outward(x: float, direction: int, digits: int = 6) -> str:
    """Decimal form rounded outward (direction -1 for lower endpoints,
    +1 for upper) to the given number of significant digits."""
    if x == 0.0 or not math.isfinite(x):
        return f"{x:g}"
    exp = math.floor(math.log10(abs(x)))
    q = 10.0 ** (exp - digits + 1)
    scaled = x / q
    rounded = math.floor(scaled) if direction < 0 else math.ceil(scaled)
    return f"{rounded * q:.{max(0, digits - 1 - exp)}f}"


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


def _load_system(path: str) -> ParamLinearSystem:
    with open(path) as fh:
        doc = json.load(fh)
    return ParamLinearSystem.from_doc(doc)


def _hull_rows(method: str, hull, pct=None, note: str = ""):
    """Rows x1..xn of one enclosure hull, as ``solve`` tabulates them."""
    pct = [None] * len(hull) if pct is None else pct
    return [ReportRow(f"x{i + 1}", method, iv, p, note)
            for i, (iv, p) in enumerate(zip(hull, pct))]


def _overestimation(outer: Interval, inner: Interval):
    """Overestimation % of ``outer`` over ``inner``; None unless it encloses."""
    if not outer.encloses(inner):
        return None
    return float(overestimation_percent(IntervalVector([outer]),
                                        IntervalVector([inner]))[0])


def cmd_solve(args) -> int:
    sysm = _load_system(args.system)
    c = center(sysm)
    if args.method == "numeric":
        y, hull = rank_one_enclosure(build_ldr(c))
        doc = {"kind": "numeric", "hull": hull.to_pairs(), "y": y.to_pairs()}
        rep = None
    else:
        rep = (kolev_pl_solution(c) if args.method == "kolev"
               else pg_solution(build_ldr(c)))
        hull, doc = rep.hull, rep.to_doc()
    rows = _hull_rows(args.method, hull)
    if rep is not None:
        doc["rows"] = [r.to_doc() for r in rows]
    if args.format == "json":
        json.dump(doc, _sys.stdout, indent=2)
        _sys.stdout.write("\n")
    else:
        _emit_rows(rows, args.format, _sys.stdout)
        if rep is not None:
            _sys.stdout.write(f"# rho = {rep.regularity_radius:.6g}\n")
    return EXIT_OK


def _secondary_rows(sysm, specs):
    c = center(sysm)
    rep_pl = kolev_pl_solution(c)
    rep_pg = pg_solution(build_ldr(c))
    rows = []
    for idx, spec in enumerate(specs):
        if spec.param_index is None:
            label = f"z{idx + 1}"
            zp = linear_secondary(spec.b[None, :] * spec.scale, rep_pl.solution)[0]
            zpp = linear_secondary(spec.b[None, :] * spec.scale, rep_pg.solution)[0]
            rows.append(ReportRow(label, "pl", zp))
            rows.append(ReportRow(label, "pg", zpp,
                                  overestimation_pct=_overestimation(zp, zpp)))
        else:
            label = f"v{idx + 1}"
            res = bilinear_secondary(rep_pg.solution, spec)
            flags = (f"endpoints lower={res.lower_sign} upper={res.upper_sign}"
                     if (res.lower_at_endpoint or res.upper_at_endpoint)
                     else "interior")
            rows.append(ReportRow(label, "pg-naive", res.naive))
            rows.append(ReportRow(label, "pg-refined", res.refined, note=flags))
    return rows


def cmd_secondary(args) -> int:
    sysm = _load_system(args.system)
    with open(args.spec) as fh:
        doc = json.load(fh)
    specs = [SecondarySpec.from_doc(d) for d in doc["specs"]]
    rows = _secondary_rows(sysm, specs)
    _emit_rows(rows, args.format, _sys.stdout)
    return EXIT_OK


def _sixbar_rows():
    model = six_bar_truss()
    sysm = assemble(model)
    c = center(sysm)
    rep_pl = kolev_pl_solution(c)
    rep_pg = pg_solution(build_ldr(c))
    rec = six_bar_reference_force_map()
    rows = []
    for i, iv in enumerate(rep_pg.hull):
        rows.append(ReportRow(f"u{i + 1}", "pg-hull", iv,
                              overestimation_pct=float(overestimation_percent(
                                  IntervalVector([rep_pl.hull[i]]),
                                  IntervalVector([iv]))[0])))
    direct_pl = rec.direct_bounds(rep_pl.hull, sysm.box)
    direct_pg = rec.direct_bounds(rep_pg.hull, sysm.box)
    pct = overestimation_percent(direct_pl, direct_pg)
    for row, eid in enumerate(rec.element_ids):
        label = f"F_e{eid + 1}"
        rows.append(ReportRow(label, "direct-pl", direct_pl[row]))
        rows.append(ReportRow(label, "direct-pg", direct_pg[row],
                              overestimation_pct=float(pct[row])))
        spec = rec.to_secondary_specs()[row]
        if spec.param_index is None:
            z = linear_secondary(spec.b[None, :], rep_pg.solution)[0]
            rows.append(ReportRow(label, "param-pg", z))
        else:
            res = bilinear_secondary(rep_pg.solution, spec)
            rows.append(ReportRow(label, "param-pg", res.refined,
                                  note=f"endpoints lower={res.lower_sign} "
                                       f"upper={res.upper_sign}"))
    return rows


def _cantilever_rows(floors: int, element: int):
    model = cantilever_truss(floors)
    if element < 1 or element > len(model.elements):
        raise ValueError(f"element {element} out of range 1..{len(model.elements)}")
    rep_pg = pg_solution(build_ldr(center(assemble(model))))
    rec = force_map(model)
    row = rec.element_ids.index(element - 1)
    spec = rec.to_secondary_specs()[row]
    res = bilinear_secondary(rep_pg.solution, spec)
    return [
        ReportRow(f"F{element}", "pg-naive", res.naive),
        ReportRow(f"F{element}", "pg-refined", res.refined,
                  note=f"endpoints lower={res.lower_sign} upper={res.upper_sign}"),
    ]


def cmd_truss(args) -> int:
    if args.model == "sixbar":
        rows = _sixbar_rows()
    else:
        rows = _cantilever_rows(args.floors, args.element)
    _emit_rows(rows, args.format, _sys.stdout)
    return EXIT_OK


def _system_rows(name: str, sysm):
    """p,l and p,g hulls (with the overestimation % where the p,l hull
    encloses the p,g hull), both regularity radii and, for n = 2, both
    polygon areas; point values are point-interval rows."""
    c = center(sysm)
    reps = {"pl": kolev_pl_solution(c), "pg": pg_solution(build_ldr(c))}
    pct = [_overestimation(a, b)
           for a, b in zip(reps["pl"].hull, reps["pg"].hull)]
    rows = (_hull_rows("pl", reps["pl"].hull, note=name)
            + _hull_rows("pg", reps["pg"].hull, pct, name))
    for method, rep in reps.items():
        rho = rep.regularity_radius
        rows.append(ReportRow("rho", method, Interval(rho, rho), note=name))
        if sysm.n == 2:
            area = polygon_area(convex_hull_2d(polytope_vertices(rep.solution)))
            rows.append(ReportRow("area", method, Interval(area, area),
                                  note=name))
    return rows


def cmd_reproduce(args) -> int:
    # the tower first: a bad --floors/--element fails before the other solves
    tower = _cantilever_rows(args.floors, args.element)
    systems = {name: build() for name, build in SYSTEM_BUILDERS.items()}
    systems["sixbar"] = assemble(six_bar_truss())
    rows = [r for name, sysm in systems.items()
            for r in _system_rows(name, sysm)]
    specs = [SecondarySpec(b=b) for b in example3_secondary_matrix()]
    rows += _secondary_rows(systems["example3"], specs)
    rows += _sixbar_rows() + tower
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
    c = center(sysm)
    if args.method == "kolev":
        rep = kolev_pl_solution(c)
    else:
        rep = pg_solution(build_ldr(c))
    verts = polytope_vertices(rep.solution)[:, (i, j)]
    hull2d = convex_hull_2d(verts)
    out = _sys.stdout
    out.write("part,x,y\n")
    for x, y in hull2d:
        out.write(f"polygon,{float(x)!r},{float(y)!r}\n")
    rect = [(rep.hull.lo[i], rep.hull.lo[j]), (rep.hull.hi[i], rep.hull.lo[j]),
            (rep.hull.hi[i], rep.hull.hi[j]), (rep.hull.lo[i], rep.hull.hi[j])]
    for x, y in rect:
        out.write(f"hull,{float(x)!r},{float(y)!r}\n")
    return EXIT_OK


def write_fixtures(out_dir: str) -> list:
    """Materialize the bundled example and truss documents."""
    from .problems import example2_reference_ldr
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def dump(name, doc):
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        written.append(path)

    for name, builder in SYSTEM_BUILDERS.items():
        dump(f"{name}.json", builder().to_doc())
    B = example3_secondary_matrix()
    dump("example3_secondary.json",
         {"specs": [SecondarySpec(b=row).to_doc() for row in B]})
    dump("example2_reference_ldr.json", example2_reference_ldr().to_doc())
    dump("sixbar.json", six_bar_truss().to_doc())
    ref = six_bar_reference_force_map()
    dump("sixbar_force_rows.json", {
        "note": ("tabulated axial-force rows for the 6-bar benchmark; the "
                 "e6 row keeps the published weights (0.8, 0.6) although the "
                 "assembled geometry implies (0.6, 0.8) -- the published "
                 "force tables follow this matrix"),
        "element_ids": list(ref.element_ids),
        "T": ref.T.tolist(),
        "multiplier_param": list(ref.multiplier_param),
    })
    dump("cantilever_numbering.json", {
        "note": ("frozen element numbering of the cantilever tower: base "
                 "chord is element 1; each story bottom-up contributes "
                 "left column, right column, falling diagonal, rising "
                 "diagonal, story beam"),
        "order": ["base-chord"] + ["column-left", "column-right",
                                   "diagonal-falling", "diagonal-rising",
                                   "story-beam"],
        "element40": {"story": 8, "member": "diagonal-rising",
                      "nodes": [14, 17]},
    })
    dump("cantilever.json", cantilever_truss(20).to_doc())
    return written


def cmd_examples(args) -> int:
    if args.out is None:
        for name in sorted(SYSTEM_BUILDERS):
            _sys.stdout.write(name + "\n")
        _sys.stdout.write("sixbar\ncantilever\n")
        return EXIT_OK
    for path in write_fixtures(args.out):
        _sys.stdout.write(path + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paramint",
        description="enclosures for interval parametric linear systems")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "csv", "table"),
                       default="table")

    def add_tower(p):
        p.add_argument("--floors", type=int, default=20)
        p.add_argument("--element", type=int, default=40)

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
    add_tower(p_truss)
    add_common(p_truss)
    p_truss.set_defaults(func=cmd_truss)

    p_poly = sub.add_parser("polygon", help="2-D polytope projection as CSV")
    p_poly.add_argument("system")
    p_poly.add_argument("--dims", default="1,2")
    p_poly.add_argument("--method", choices=("kolev", "new"), default="new")
    p_poly.set_defaults(func=cmd_polygon)

    p_rep = sub.add_parser("reproduce", help="all reference tables")
    add_tower(p_rep)
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
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"parse error: {exc.msg} at line {exc.lineno} column {exc.colno}",
              file=_sys.stderr)
        return EXIT_PARSE
    except (OSError, ValueError, KeyError) as exc:
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
