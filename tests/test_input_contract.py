"""The input contract under single-value mutations.

Each seed replaces one value of one bundled document (a number, a row, a
key's whole value, ...) with one of VALUES and runs the result through
`solve` (every method), `polygon` (both methods) and, for example3 and
its specs, `secondary`.  Every run exits 0, 1, 2 or 3; a non-zero exit
prints nothing on stdout and one line on stderr; no run raises a Python
warning; and an exit 0 prints no non-finite number.

The truss models are built in code, so their sweep calls the library:
each seed replaces one number of the six-bar truss or the 3-floor tower
with one of TRUSS_VALUES, and the model is rejected at construction,
rejected by a named error on the way through both solves, or solved with
finite hulls on a positive definite midpoint stiffness.
"""

import json
import math
import operator
import random
import re
import warnings
from functools import partial, reduce

import numpy as np
import pytest

from paramint.cli import main
from paramint.intervals import Interval
from paramint.solvers import (MidpointSingular, RegularityViolation,
                              kolev_pl_solution, pg_solution)
from paramint.systems import build_ldr, center
from paramint.truss import (Element, LoadTerm, TrussModel, assemble,
                            cantilever_truss, six_bar_truss)

from conftest import FIXTURES

SYSTEMS = ("example1.json", "example2.json", "example3.json")
SPECS = "example3_secondary.json"
VALUES = ("1.0", "x", True, False, None, 1e308, -1e308, 5e-324, -5e-324,
          math.nan, math.inf, -math.inf, 10 ** 400, [], [1.0, 2.0], {},
          {"b": 1.0})
SEEDS = range(300)
NON_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")


def _paths(node, path=()):
    # the key path of every value in a document but the document itself
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutated(seed):
    """(document name, mutated document, what was changed, the seed's
    generator, which picks the output formats) of one seed."""
    rng = random.Random(seed)
    name = rng.choice(SYSTEMS + (SPECS,))
    doc = json.loads((FIXTURES / name).read_text())
    path = rng.choice(list(_paths(doc)))
    value = rng.choice(VALUES)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return name, doc, f"{name}{list(path)} = {value!r}", rng


def _commands(name, path, rng):
    ex3, specs = str(FIXTURES / "example3.json"), str(FIXTURES / SPECS)
    if name == SPECS:
        return [("secondary", ex3, "--spec", path,
                 "--format", rng.choice(("json", "csv", "table")))]
    runs = [("solve", path, "--method", method,
             "--format", rng.choice(("json", "csv", "table")))
            for method in ("kolev", "numeric", "new")]
    runs += [("polygon", path, "--method", method)
             for method in ("kolev", "new")]
    if name == "example3.json":
        runs.append(("secondary", path, "--spec", specs))
    return runs


def _broken(code, out, err, caught):
    """What a run does against the contract, or None."""
    if caught:
        return f"warning {caught[0].message}"
    if code not in (0, 1, 2, 3):
        return f"exit {code}"
    if code != 0 and (out or len(err.splitlines()) != 1):
        return f"exit {code} with stdout {out[:80]!r}, stderr {err!r}"
    if code == 0 and NON_FINITE.search(out):
        return f"exit 0 printing {NON_FINITE.search(out).group()}"
    return None


@pytest.mark.parametrize("first", range(SEEDS.start, SEEDS.stop, 100))
def test_single_value_mutations_keep_the_contract(tmp_path, capsys, first):
    failures = []
    for seed in range(first, first + 100):
        name, doc, change, rng = _mutated(seed)
        path = tmp_path / f"{seed}.json"
        path.write_text(json.dumps(doc))
        for argv in _commands(name, str(path), rng):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    code = main(list(argv))
                except Exception as exc:    # uncaught: no exit code
                    code = repr(exc)
            out, err = capsys.readouterr()
            broken = _broken(code, out, err, caught)
            if broken:
                failures.append(f"seed {seed}: {change}: {argv[0]} "
                                f"{' '.join(argv[2:])}: {broken}")
    assert failures == []


TRUSS_MODELS = (six_bar_truss, partial(cantilever_truss, 3))
TRUSS_VALUES = (math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, 5e-324,
                -5e-324, 1e-300, 1e30, -1.0, "negated")
TRUSS_SEEDS = range(200)


def _truss_doc(model):
    # the model's numbers as nested lists; its only floats are the node
    # coordinates, crisp moduli and areas, load numbers and parameter ends
    return {"nodes": [list(xy) for xy in model.nodes],
            "elements": [[e.node_a, e.node_b, e.modulus, e.area]
                         for e in model.elements],
            "loads": [[t.node, t.axis, t.const, [list(x) for x in t.terms]]
                      for t in model.loads],
            "params": [[name, [iv.lo, iv.hi]] for name, iv in model.params]}


def _truss_model(doc, supports):
    return TrussModel(
        nodes=tuple(map(tuple, doc["nodes"])),
        elements=tuple(Element(*e) for e in doc["elements"]),
        supports=supports,
        loads=tuple(LoadTerm(node, axis, const, tuple(map(tuple, terms)))
                    for node, axis, const, terms in doc["loads"]),
        params=tuple((name, Interval(*ends)) for name, ends in doc["params"]))


def _truss_broken(seed):
    """What one seed's model does against the contract, or None."""
    rng = random.Random(seed)
    base = rng.choice(TRUSS_MODELS)()
    doc = _truss_doc(base)
    path = rng.choice([p for p in _paths(doc)
                       if isinstance(reduce(operator.getitem, p, doc), float)])
    parent = reduce(operator.getitem, path[:-1], doc)
    value = rng.choice(TRUSS_VALUES)
    parent[path[-1]] = -parent[path[-1]] if value == "negated" else value
    try:
        model = _truss_model(doc, base.supports)
    except ValueError:
        return None
    try:
        c = center(assemble(model))
        reports = (kolev_pl_solution(c), pg_solution(build_ldr(c)))
    except (MidpointSingular, RegularityViolation, OverflowError, ValueError):
        return None
    except Exception as exc:            # any other error is unnamed
        return f"{list(path)} = {value!r}: {exc!r}"
    if not all(np.isfinite(r.hull.lo).all() and np.isfinite(r.hull.hi).all()
               for r in reports):
        return f"{list(path)} = {value!r}: non-finite hull"
    try:
        np.linalg.cholesky(c.system.A0)
    except np.linalg.LinAlgError:
        return f"{list(path)} = {value!r}: solved on an indefinite midpoint"
    return None


def test_truss_number_mutations_keep_the_contract():
    # float warnings on extreme inputs are outside this contract: library
    # calls carry no float policy of their own (the CLI raises on them)
    with np.errstate(all="ignore"):
        failures = [f"seed {seed}: {broken}" for seed in TRUSS_SEEDS
                    if (broken := _truss_broken(seed))]
    assert failures == []
