"""The bundled `paramint` commands whose output a refactor keeps byte-identical.

`COMMANDS` holds 40 argv lists: `reproduce` in three formats; `solve` on
example1-3 with each method in each format; `secondary` on example3;
`truss` on the six-bar truss, the default tower and the 40-floor tower's
element 100 as json; `polygon` on example1-3 with each method.  The test
suite runs each one in process.  Run as a script,

    python tests/bundled_commands.py OUT_DIR

writes each command's exit code, stderr and stdout to one file in OUT_DIR,
so two checkouts compare with `diff -r`.  The script uses one BLAS thread
unless OPENBLAS_NUM_THREADS is set: json and csv digits depend on the
thread count.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
EXAMPLES = [str(FIXTURES / f"example{i}.json") for i in (1, 2, 3)]
FORMATS = ("table", "csv", "json")

COMMANDS = (
    [["reproduce", "--format", f] for f in FORMATS]
    + [["solve", ex, "--method", m, "--format", f] for ex in EXAMPLES
       for m in ("kolev", "numeric", "new") for f in FORMATS]
    + [["secondary", EXAMPLES[2], "--spec",
        str(FIXTURES / "example3_secondary.json")]]
    + [["truss", "--model", "sixbar"], ["truss", "--model", "cantilever"],
       ["truss", "--model", "cantilever", "--floors", "40", "--element",
        "100", "--format", "json"]]
    + [["polygon", ex, "--method", m] for ex in EXAMPLES
       for m in ("kolev", "new")])


def name(argv) -> str:
    """Short name of a command: fixture paths by file name, no dashes."""
    return "_".join(Path(a).stem if a.startswith(str(ROOT)) else a.lstrip("-")
                    for a in argv)


def main(out_dir) -> None:
    from paramint.cli import main as paramint_main

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for argv in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = paramint_main(list(argv))
        (out_dir / f"{name(argv)}.txt").write_text(
            f"exit {code}\n--- stderr\n{err.getvalue()}"
            f"--- stdout\n{out.getvalue()}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python tests/bundled_commands.py OUT_DIR")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")   # before numpy loads
    sys.path.insert(0, str(ROOT / "src"))
    main(sys.argv[1])
