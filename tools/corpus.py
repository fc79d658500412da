"""Run the CLI corpus in two trees and compare every byte.

    python tools/corpus.py --against REV

checks REV out with ``git worktree`` into a temporary directory and runs
every line of the corpus twice: against this tree's ``src`` and against
REV's, each tree in one fresh interpreter.  It compares the exit codes,
stdout, stderr and every file a run writes (outputs and ``.meta.json``
sidecars), after replacing the paths of the temporary output, input and
source directories with ``{out}``, ``{inputs}`` and ``{src}``.  It prints
one line per run that differs and a count, and exits 1 if any run
differs.  The worktree, the inputs and the outputs live in the temporary
directory, which is removed at the end, and no bytecode is written, so
neither tree gains a file.

Corpus format: one argv per line, split as a POSIX shell splits it; blank
lines and lines that start with ``#`` are skipped.  ``{out}`` stands for a
fresh, empty directory of that run alone, and ``{inputs}`` for the
directory that ``write_inputs`` fills.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "cli_corpus.txt"


def load() -> list:
    """(line number, argv template) of each run in the corpus file."""
    runs = []
    for number, text in enumerate(CORPUS.read_text().splitlines(), 1):
        if text.strip() and not text.lstrip().startswith("#"):
            runs.append((number, shlex.split(text)))
    return runs


def _grid_csv(nx: int, ny: int, value) -> str:
    rows = ["x,y,value"]
    for i in range(nx):
        for j in range(ny):
            x, y = 1.0 + i / (nx - 1), 1.0 + j / (ny - 1)
            rows.append(f"{x!r},{y!r},{value(x, y)!r}")
    return "\n".join(rows) + "\n"


def write_inputs(directory) -> None:
    """The input files that the corpus names with ``{inputs}``: catenoid
    grid CSVs at the corpus's three sizes, a grid with a NaN, malformed
    grids, and problem files good and bad."""
    d = Path(directory)

    def catenoid(x, y):
        return -math.asinh(math.hypot(x, y))

    for nx, ny in ((9, 9), (65, 33), (129, 129)):
        (d / f"catenoid-{nx}x{ny}.csv").write_text(
            _grid_csv(nx, ny, catenoid))
    (d / "nan.csv").write_text(_grid_csv(
        3, 3, lambda x, y: math.nan if (x, y) == (1.5, 2.0) else x * y))
    (d / "bad-header.csv").write_text("x,y,z\n1.0,1.0,0.0\n")
    (d / "ragged.csv").write_text(_grid_csv(3, 3, catenoid).rsplit(
        "\n", 2)[0] + "\n")
    problem = {"equation": "maximal", "domain": [1, 2, 1, 2],
               "resolution": [17, 17], "boundary": "-asinh(sqrt(x^2 + y^2))",
               "tolerances": {"newton": 1e-10, "linear": 1e-12}}
    (d / "catenoid-problem.json").write_text(json.dumps(problem))
    (d / "no-boundary.json").write_text(json.dumps(
        {k: v for k, v in problem.items() if k != "boundary"}))
    (d / "infinite-domain.json").write_text(json.dumps(
        {**problem, "domain": [1, math.inf, 1, 2]}))
    (d / "not-json.json").write_text("{equation: maximal")


def run_one(argv: list) -> tuple:
    """(exit code, stdout, stderr) of one in-process CLI run; the exit code
    is the text ``raised Type: message`` where the run raised."""
    from zmclab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except Exception as exc:  # a run that raises is a finding
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def _digest(text: str, paths: dict) -> str:
    for path, name in paths.items():
        text = text.replace(path, name)
    return hashlib.sha256(text.encode()).hexdigest()


def _run_tree(src, inputs, results) -> None:
    """Run every corpus line against the zmclab under ``src`` and write
    each run's exit code and digests to the JSON file ``results``."""
    sys.path.insert(0, src)
    import zmclab

    package = Path(zmclab.__file__).resolve().parent
    if package != Path(src, "zmclab").resolve():
        sys.exit(f"zmclab imported from {zmclab.__file__}, not from {src}")
    outputs = Path(tempfile.mkdtemp(prefix="corpus-out-"))
    paths = {str(inputs): "{inputs}", str(Path(src).resolve()): "{src}"}
    record = []
    try:
        for number, template in load():
            out = outputs / str(number)
            out.mkdir()
            argv = [a.replace("{out}", str(out)).replace("{inputs}", inputs)
                    for a in template]
            code, stdout, stderr = run_one(argv)
            each = {str(out): "{out}", **paths}
            files = {str(p.relative_to(out)): _digest(p.read_text(), each)
                     for p in sorted(out.rglob("*")) if p.is_file()}
            record.append({"line": number, "exit": code,
                           "stdout": _digest(stdout, each),
                           "stderr": _digest(stderr, each), "files": files})
            shutil.rmtree(out)
    finally:
        shutil.rmtree(outputs)
    Path(results).write_text(json.dumps(record))


def _differences(ours: dict, theirs: dict) -> list:
    if ours["exit"] != theirs["exit"]:
        return [f"exit {theirs['exit']} -> {ours['exit']}"]
    parts = [k for k in ("stdout", "stderr") if ours[k] != theirs[k]]
    names = sorted(set(ours["files"]) | set(theirs["files"]))
    parts += [name for name in names
              if ours["files"].get(name) != theirs["files"].get(name)]
    return parts


def _compare(rev: str) -> int:
    root = Path(subprocess.run(
        ["git", "-C", str(HERE), "rev-parse", "--show-toplevel"],
        check=True, capture_output=True, text=True).stdout.strip())
    runs = dict(load())
    temp = Path(tempfile.mkdtemp(prefix="corpus-"))
    tree = temp / "tree"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    try:
        subprocess.run(["git", "-C", str(root), "worktree", "add", "--quiet",
                        "--detach", str(tree), rev], check=True)
        (temp / "inputs").mkdir()
        write_inputs(temp / "inputs")
        results = {}
        for name, src in (("ours", root / "src"), ("theirs", tree / "src")):
            results[name] = temp / f"{name}.json"
            subprocess.run([sys.executable, "-B", __file__,
                            "--run-tree", str(src),
                            "--inputs", str(temp / "inputs"),
                            "--results", str(results[name])],
                           check=True, env=env)
        ours, theirs = (json.loads(results[k].read_text())
                        for k in ("ours", "theirs"))
    finally:
        subprocess.run(["git", "-C", str(root), "worktree", "remove",
                        "--force", str(tree)], capture_output=True)
        subprocess.run(["git", "-C", str(root), "worktree", "prune"],
                       capture_output=True)
        shutil.rmtree(temp, ignore_errors=True)
    differ = 0
    for a, b in zip(ours, theirs, strict=True):
        parts = _differences(a, b)
        if parts:
            differ += 1
            print(f"line {a['line']}: {shlex.join(runs[a['line']])}: "
                  f"{', '.join(parts)}")
    print(f"{differ} of {len(ours)} runs differ from {rev}")
    return 1 if differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--against", metavar="REV",
                    help="the git revision to compare this tree with")
    # one tree's run, in the fresh interpreter that --against starts
    ap.add_argument("--run-tree", metavar="SRC", help=argparse.SUPPRESS)
    ap.add_argument("--inputs", help=argparse.SUPPRESS)
    ap.add_argument("--results", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.run_tree:
        _run_tree(args.run_tree, args.inputs, args.results)
        return 0
    if not args.against:
        ap.error("--against REV is required")
    return _compare(args.against)


if __name__ == "__main__":
    sys.exit(main())
