"""Span tracing of paramint from outside the program.

`Tracer.install` replaces every public function of the `paramint` package
in every module namespace that binds it (so `paramint.solvers.center`,
`paramint.systems.center` and `paramint.center` all route through one
wrapper).  Internal calls such as pg_solution -> kolev_pl_solution ->
rohn_inverse -> spectral_radius then become nested spans with parent ids.
`Interval.__init__` is wrapped too, to count scalar interval objects; the
counter is a bare `itertools.count` because a tower op builds about 0.7 M
of them.

A span is [id, parent_id, op, name, start_s, end_s, attrs]; `op` is the
index of the benchmark operation that caused it, or None for spans made
while the benchmark checks results.  Spans stay in memory until `dump`.
The tracer is installed once per process and never removed: the worker
runs its untraced phase first.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict


def _aux_stack(args, out):
    ldr = args[0]
    return {"stack_bytes": (ldr.K + 1) * ldr.s ** 2 * 8}


def _pl_stack(args, out):
    sysm = args[0].system
    return {"stack_bytes": sysm.K * sysm.n ** 2 * 8}


# Attributes recorded on spans of particular functions, from their
# arguments and result.  Stack bytes are computed from shapes, not measured.
ANNOTATIONS = {
    "systems.build_ldr": lambda args, out: {
        "s": out.s, "augmented": int(sum(out.g_augmented))},
    "solvers.pg_solution": _aux_stack,
    "solvers.rank_one_enclosure": _aux_stack,
    "solvers.kolev_pl_solution": _pl_stack,
    "secondary.bilinear_secondary": lambda args, out: {
        "pinned": int(out.lower_sign is not None)
                  + int(out.upper_sign is not None)},
}

# Scalar rounding helpers run once per endpoint of every Interval
# operation (about a million calls per tower op): a span each would cost
# far more than the work it times.  intervals.interval_objects counts
# that work instead.
UNTRACED = ("intervals.next_down", "intervals.next_up")

# A kolev_pl_solution span under one of these is the auxiliary s-dim solve.
AUX_PARENTS = ("solvers.pg_solution", "solvers.rank_one_enclosure")


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._intervals = itertools.count()

    def install(self, package) -> None:
        prefix = package.__name__ + "."
        modules = [package] + [m for name, m in sorted(sys.modules.items())
                               if name.startswith(prefix)]
        wrappers = {}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith(prefix)
                        or _span_name(obj) in UNTRACED):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                setattr(mod, name, wrappers[obj])

        interval = package.intervals.Interval
        init, tick = interval.__init__, self._intervals.__next__

        def counted_init(obj, lo, hi):
            tick()
            init(obj, lo, hi)

        interval.__init__ = counted_init

    def intervals_built(self) -> int:
        """Interval constructions so far (each reading counts one)."""
        return next(self._intervals)

    def _wrap(self, fn):
        name = _span_name(fn)
        annotate = ANNOTATIONS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1][0] if stack else None, self.op,
                    name, clock(), None, None]
            spans.append(span)
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if annotate is not None:
                span[6] = annotate(args, out)
            return out

        return traced

    def self_times(self) -> list:
        """Per span: duration minus the durations of its direct children
        (calls are sequential, so children never overlap)."""
        child = defaultdict(float)
        for s in self.spans:
            if s[1] is not None:
                child[s[1]] += s[5] - s[4]
        return [(s[5] - s[4]) - child[s[0]] for s in self.spans]

    def layer_metrics(self, ops: int, interval_objects: int) -> dict:
        """name -> (value, unit), per operation over the traced ops.

        Every traced function gets `<module>.<fn>.self_s` and `.calls`,
        every module `<module>.self_s`; the named metrics of the benchmark
        are derived below.  `oracle.point_solutions.self_s` comes from the
        check phase (the oracle runs only there), amortized per op."""
        selfs = self.self_times()
        total = defaultdict(float)
        calls = defaultdict(int)
        module = defaultdict(float)
        attrs = defaultdict(list)
        aux_self = primary_self = check_oracle = 0.0
        for s, self_s in zip(self.spans, selfs):
            name = s[3]
            if s[2] is None:
                if name == "oracle.point_solutions":
                    check_oracle += self_s
                continue
            total[name] += self_s
            calls[name] += 1
            module[name.split(".")[0]] += self_s
            if s[6] is not None:
                attrs[name].append(s[6])
            if name == "solvers.kolev_pl_solution":
                if s[1] is not None and self.spans[s[1]][3] in AUX_PARENTS:
                    aux_self += self_s
                else:
                    primary_self += self_s
                    if s[6] is not None:       # None when the call raised
                        attrs["primary_kolev"].append(s[6])

        def mean(items, key):
            return sum(a[key] for a in items) / len(items) if items else None

        out = {}
        for name in sorted(total):
            out[f"{name}.self_s"] = (total[name] / ops, "s")
            out[f"{name}.calls"] = (calls[name] / ops, "count")
        for mod in sorted(module):
            out[f"{mod}.self_s"] = (module[mod] / ops, "s")
        stack_spans = [a for n in AUX_PARENTS for a in attrs[n]]
        pinned = attrs["secondary.bilinear_secondary"]
        out.update({
            "solvers.aux_solve.self_s": (aux_self / ops, "s"),
            "solvers.kolev_pl_solution.self_s": (primary_self / ops, "s"),
            "solvers.aux_stack_bytes": (mean(stack_spans, "stack_bytes"), "B"),
            "solvers.pl_stack_bytes": (mean(attrs["primary_kolev"], "stack_bytes"), "B"),
            "systems.g_columns": (mean(attrs["systems.build_ldr"], "s"), "count"),
            "systems.augmented_columns": (
                mean(attrs["systems.build_ldr"], "augmented"), "count"),
            "secondary.endpoint_pinned_share": (
                sum(a["pinned"] for a in pinned) / (2 * len(pinned))
                if pinned else None, "ratio"),
            "intervals.interval_objects": (interval_objects / ops, "count"),
            "oracle.point_solutions.self_s": (check_oracle / ops, "s"),
        })
        return out

    def dump(self, path, meta: dict) -> None:
        doc = dict(meta)
        doc["fields"] = ["id", "parent", "op", "name", "start_s", "end_s", "attrs"]
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh)
