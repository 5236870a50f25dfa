"""The command-line input contract under single-value mutations.

Each seed replaces one value of one bundled document (a number, a row, a
key's whole value, ...) with one of VALUES and runs the result through
`solve` (every method), `polygon` (both methods) and, for example3 and
its specs, `secondary`.  Every run exits 0, 1, 2 or 3; a non-zero exit
prints nothing on stdout and one line on stderr; no run raises a Python
warning; and an exit 0 prints no non-finite number.
"""

import json
import math
import random
import re
import warnings

import pytest

from paramint.cli import main

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
