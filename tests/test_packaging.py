"""`pip install -e .[test]` installs every module the test suite imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the library itself, and perfbench's modules, which test_bench_harness
# imports from the perfbench directory
NOT_THIRD_PARTY = {"paramint", "tracing", "workloads"}


def imported_modules():
    """Top-level names of every absolute import in tests/*.py, at any depth."""
    names = set()
    for path in (ROOT / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def requirement_names(reqs):
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
            for r in reqs}


def test_test_extra_declares_every_test_import():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    extra = requirement_names(project["optional-dependencies"]["test"])
    local = {p.stem for p in (ROOT / "tests").glob("*.py")}
    third_party = (imported_modules() - set(sys.stdlib_module_names)
                   - NOT_THIRD_PARTY - local)
    assert {"numpy", "pytest", "mpmath"} <= third_party
    # the extra installs beside the library's own dependencies (numpy)
    installed = extra | requirement_names(project["dependencies"])
    assert third_party <= installed, sorted(third_party - installed)
