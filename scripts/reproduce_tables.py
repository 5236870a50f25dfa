#!/usr/bin/env python3
"""End-to-end reproduction of the bundled reference results.

Prints, for the three demo systems: both enclosure hulls and the polygon
areas of the two parameterized-solution polytopes; for the 6-bar truss:
displacement hulls, the three force columns and the overestimation
vectors; for the cantilever tower: the naive and refined bounds of the
requested element force.

Usage: python scripts/reproduce_tables.py [--floors N] [--element K]
"""

import argparse
import time

from paramint.oracle import convex_hull_2d, polygon_area, polytope_vertices
from paramint.problems import SYSTEM_BUILDERS, example3_secondary_matrix
from paramint.secondary import (bilinear_secondary, linear_secondary,
                                overestimation_percent)
from paramint.solvers import kolev_pl_solution, pg_solution
from paramint.systems import build_ldr, center
from paramint.truss import (assemble, cantilever_truss, force_map,
                            six_bar_reference_force_map, six_bar_truss)


def fmt(iv):
    return f"[{iv.lo:.6g}, {iv.hi:.6g}]"


def show_systems():
    for name, builder in SYSTEM_BUILDERS.items():
        c = center(builder())
        rep_pl = kolev_pl_solution(c)
        rep_pg = pg_solution(build_ldr(c))
        print(f"== {name} (rho_pl={rep_pl.regularity_radius:.4f}, "
              f"rho_pg={rep_pg.regularity_radius:.4f})")
        for i in range(rep_pl.solution.n):
            print(f"  x{i + 1}: pl {fmt(rep_pl.hull[i])}   "
                  f"pg {fmt(rep_pg.hull[i])}")
        if rep_pl.solution.n == 2:
            a_pl = polygon_area(convex_hull_2d(
                polytope_vertices(rep_pl.solution)))
            a_pg = polygon_area(convex_hull_2d(
                polytope_vertices(rep_pg.solution)))
            print(f"  polygon areas: pl {a_pl:.4f}  pg {a_pg:.4f}")
    c = center(SYSTEM_BUILDERS["example3"]())
    rep_pl = kolev_pl_solution(c)
    rep_pg = pg_solution(build_ldr(c))
    B = example3_secondary_matrix()
    z_pl = linear_secondary(B, rep_pl.solution)
    z_pg = linear_secondary(B, rep_pg.solution)
    pct = overestimation_percent(z_pl, z_pg)
    print("== example3 secondaries z = B x")
    for i in range(3):
        print(f"  z{i + 1}: pl {fmt(z_pl[i])}  pg {fmt(z_pg[i])}  "
              f"overest {pct[i]:.1f}%")


def show_six_bar():
    t0 = time.perf_counter()
    model = six_bar_truss()
    sysm = assemble(model)
    c = center(sysm)
    rep_pl = kolev_pl_solution(c)
    rep_pg = pg_solution(build_ldr(c))
    print("== 6-bar truss displacements (x 1e-4 m)")
    over = overestimation_percent(rep_pl.hull, rep_pg.hull)
    for i in range(4):
        pl, pg = rep_pl.hull[i], rep_pg.hull[i]
        print(f"  u{i + 1}: pl [{pl.lo * 1e4:.4f}, {pl.hi * 1e4:.4f}]  "
              f"pg [{pg.lo * 1e4:.4f}, {pg.hi * 1e4:.4f}]  "
              f"overest {over[i]:.2f}%")
    rec = six_bar_reference_force_map()
    d_pl = rec.direct_bounds(rep_pl.hull, sysm.box)
    d_pg = rec.direct_bounds(rep_pg.hull, sysm.box)
    pct = overestimation_percent(d_pl, d_pg)
    print("== 6-bar axial forces (kN)")
    for row, eid in enumerate(rec.element_ids):
        spec = rec.to_secondary_specs()[row]
        if spec.param_index is None:
            refined = linear_secondary(spec.b[None, :], rep_pg.solution)[0]
            note = ""
        else:
            res = bilinear_secondary(rep_pg.solution, spec)
            refined = res.refined
            note = f"  endpoints ({res.lower_sign}, {res.upper_sign})"
        print(f"  e{eid + 1}: direct-pl {fmt(d_pl[row])}  "
              f"direct-pg {fmt(d_pg[row])} ({pct[row]:.1f}%)  "
              f"param-pg {fmt(refined)}{note}")
    print(f"   ({time.perf_counter() - t0:.2f} s)")


def show_cantilever(floors, element):
    t0 = time.perf_counter()
    model = cantilever_truss(floors)
    sysm = assemble(model)
    rep = pg_solution(build_ldr(center(sysm)))
    rec = force_map(model)
    row = rec.element_ids.index(element - 1)
    res = bilinear_secondary(rep.solution, rec.to_secondary_specs()[row])
    print(f"== cantilever tower ({floors} floors, {len(model.elements)} "
          f"elements, {sysm.n} DOFs, {sysm.K} parameters, "
          f"rho={rep.regularity_radius:.4f})")
    print(f"  F{element}: naive {fmt(res.naive)}  refined {fmt(res.refined)}"
          f"  endpoints ({res.lower_sign}, {res.upper_sign})")
    print(f"   ({time.perf_counter() - t0:.2f} s)")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--floors", type=int, default=20)
    ap.add_argument("--element", type=int, default=40)
    args = ap.parse_args()
    show_systems()
    show_six_bar()
    show_cantilever(args.floors, args.element)


if __name__ == "__main__":
    main()
