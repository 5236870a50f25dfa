"""The bundled `paramint` commands whose output a refactor keeps byte-identical.

`COMMANDS` holds 40 argv lists: `reproduce` in three formats; `solve` on
example1-3 with each method in each format; `secondary` on example3;
`truss` on the six-bar truss, the default tower and the 40-floor tower's
element 100 as json; `polygon` on example1-3 with each method.  The test
suite runs each one in process.  Run as a script,

    python tests/bundled_commands.py OUT_DIR

writes each command's exit code, stderr and stdout to one file in OUT_DIR,
and `bench_digests.txt` beside them: one SHA-256 per op output of each
benchmark workload (`perfbench/workloads.py`) at seed 7, each op run
once in schedule order.  So two checkouts compare with `diff -r`.  The
script uses one BLAS thread unless OPENBLAS_NUM_THREADS is set: json and
csv digits depend on the thread count.
"""

import contextlib
import hashlib
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


def _feed(h, obj) -> None:
    """Hash an op output: dicts by sorted key, sequences item by item,
    everything else as an array's dtype, shape and bytes."""
    import numpy as np      # loaded after the script sets the BLAS threads

    if isinstance(obj, dict):
        for key in sorted(obj):
            h.update(f"{key!r}:".encode())
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    else:
        arr = np.ascontiguousarray(obj)
        h.update(f"{arr.dtype}{arr.shape}".encode())
        h.update(arr.tobytes())


def bench_digests(workloads) -> list:
    """`workload slot key sha256` for every op of the benchmark's plans at
    seed 7, from the `perfbench/workloads.py` module."""
    lines = []
    for workload in workloads.WORKLOADS:
        plan = workloads.build(workload, 7, ROOT)
        for slot, (key, op) in enumerate(plan.schedule):
            h = hashlib.sha256()
            _feed(h, op())
            lines.append(f"{workload} {slot} {key} {h.hexdigest()}")
    return lines


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
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    (out_dir / "bench_digests.txt").write_text(
        "".join(f"{line}\n" for line in bench_digests(workloads)))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python tests/bundled_commands.py OUT_DIR")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")   # before numpy loads
    sys.path.insert(0, str(ROOT / "src"))
    main(sys.argv[1])
