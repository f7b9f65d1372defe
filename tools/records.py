#!/usr/bin/env python3
"""Compare the records of this checkout with those of a parent revision.

Run from the root of a source checkout:

    python3 tools/records.py --parent HEAD~1
    python3 tools/records.py --parent HEAD --extra 'torsion --n 40'

The requests are every request of ``clibench/workloads.build`` for each
workload at seeds 1-3, every ``COLD`` request, the fixed ``REFUSALS``,
``ENGINE`` and ``BEYOND`` requests and each ``--extra`` (split like a shell
line), each distinct request once.  Every run includes the refusals: one or
more requests per exit code of ``cli.main``'s exit table, so that every
diff compares their exit codes and stderr lines too.  It also includes the
engine's extremes, which no workload reaches: passes at the precision
ceiling, and Hurwitz passes at a > 1 above 128 bits; and requests beyond
the workloads' n or ``--max``: ``verify`` at n = 6 and 8, and at n = 4 with
``--max 60``, three times the workloads' bound, ``spectrum`` at n = 5 as a
CSV and a JSON table and at n = 4 as a JSON table of degree 5, the direct
``kappa`` route at n = 6 and, with scaled powers, at n = 5, the reduced one
truncated by ``--max`` at n = 7, and ``torsion`` at n = 40.  The parent
revision is checked out in a temporary ``git worktree``
(``bench.parent_worktree``); the change is this checkout's working tree,
committed or not.  One subprocess per tree runs every request through that
tree's ``rumin_sphere.cli.main`` and keeps its stdout, its exit code and, on
a nonzero exit, its last stderr line.

Printed: the number of identical records per subcommand, then one line per
request that differs: a changed exit code or stderr line, the JSON pointers
(RFC 6901) of the values that differ in a JSON record (a list whose length
changed is named as a whole), or the first differing line of any other
record.  Exits 0 only if nothing differs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

from bench import ROOT, parent_worktree

SEEDS = (1, 2, 3)

# Requests that ``cli.main`` refuses, by exit code.
REFUSALS = tuple(tuple(line.split()) for line in (
    # 2: a usage error or a precision outside the working range.
    "verify --n 0", "verify --n 2 --prec 7000",
    "kappa --n 1 --s 2 --mode direct", "kappa --n 1 --s nan",
    # 3: a spectrum degree outside 0..2n+1, or a result outside the double range.
    "spectrum --n 1 --degree 9 --max 3", "torsion --n 300", "kappa --n 1 --s 600",
    # 4: a pole, or a divergent direct sum.
    "kappa --n 1 --s 0.5", "kappa --n 1 --s 0.9 --mode direct --max 5",
))

# Requests that replay the zeta engine at its extremes, about a second each.
ENGINE = tuple(tuple(line.split()) for line in (
    # zeta(4.6) and the zeta(0)/zeta'(0) pass at the precision ceiling.
    "kappa --n 1 --s 2.3 --mode closed --prec 5227", "torsion --n 2 --prec 5227",
    # The Hurwitz shift check's passes at a in 1..9, at 1024 bits.
    "verify --n 1 --max 1 --prec 1024",
))

# Requests beyond the workloads' n or bound, about 1.4 s together: the
# label checks and the row generator at n = 6 and 8 and at bound 60, a CSV
# and a JSON spectrum table at n = 5, a larger JSON table at n = 4, the pair
# kernel at n = 6 and, with scaled powers, at n = 5, the truncated reduced
# route at n = 7 and the torsion report at n = 40.
BEYOND = tuple(tuple(line.split()) for line in (
    "verify --n 6 --max 10", "verify --n 8 --max 6",
    # Runs of 60 rows, each counted from its top row by the GT check.
    "verify --n 4 --max 60",
    "spectrum --n 5 --degree 2 --max 8 --format csv",
    "spectrum --n 5 --degree 3 --max 6",
    # A 2.2 MB JSON table at a mirrored degree, with many multi-family rows.
    "spectrum --n 4 --degree 5 --max 30",
    "kappa --n 6 --s 4.9 --mode direct --max 60",
    # Both kernels on scaled powers, 2^-e with e > 0, end to end.
    "kappa --n 5 --s 150.75 --mode direct --max 40",
    "kappa --n 7 --s 4.6 --mode reduced --max 120", "torsion --n 40",
))

# Runs in each tree: reads the requests as JSON on stdin and writes one
# [stdout, exit code, last stderr line] per request as JSON on stdout.  An
# exception that escapes cli.main counts as a process would show it: exit 1
# and the traceback's last line.
_WORKER = r"""
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from rumin_sphere import cli

results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=err)
    lines = err.getvalue().splitlines()
    results.append([out.getvalue(), int(code or 0), lines[-1] if code and lines else ""])
json.dump(results, sys.stdout)
"""


def requests(extra: list[str]) -> list[tuple[str, ...]]:
    """The workload requests at ``SEEDS``, the ``COLD`` ones, the
    ``REFUSALS``, the ``ENGINE`` and ``BEYOND`` ones, then ``extra``, each
    distinct request once, in that order."""
    sys.path.insert(0, str(ROOT / "clibench"))
    import workloads

    found = [argv for name in workloads.WORKLOADS for seed in SEEDS
             for argv in workloads.build(name, seed)]
    found += [argv for cold in workloads.COLD.values() for argv in cold]
    found += REFUSALS
    found += ENGINE
    found += BEYOND
    found += [tuple(shlex.split(line)) for line in extra]
    return list(dict.fromkeys(found))


def run_tree(tree: Path, reqs: list[tuple[str, ...]]) -> list[list]:
    """[stdout, exit code, stderr line] of each request, through the
    ``cli.main`` of the package under ``tree/src``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-c", _WORKER], cwd=tree, env=env,
                          input=json.dumps(reqs), capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"records: the run in {tree} exited {proc.returncode}: "
                 f"{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def json_paths(a, b, path: str = "") -> list[str]:
    """JSON pointers of the values that differ between the JSON values a and
    b: a changed leaf (a value of another type counts as changed), a key on
    one side only, or a list whose length changed, named as a whole."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}/{key.replace('~', '~0').replace('/', '~1')}"
            out += json_paths(a[key], b[key], sub) if key in a and key in b else [sub]
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for i, (x, y) in enumerate(zip(a, b))
                for p in json_paths(x, y, f"{path}/{i}")]
    return [] if type(a) is type(b) and a == b else [path]


def first_line_diff(a: str, b: str) -> str:
    """The first line at which the texts a and b differ."""
    pairs = itertools.zip_longest(a.splitlines(), b.splitlines())
    for number, (x, y) in enumerate(pairs, 1):
        if x != y:
            return f"line {number}: {x!r} -> {y!r}"
    return "the line ends differ"


def _json(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def differences(parent: list, change: list) -> list[str]:
    """What differs between the parent's and the change's result of one
    request, each a [stdout, exit code, stderr line]; empty if nothing."""
    (p_out, p_code, p_err), (c_out, c_code, c_err) = parent, change
    found = []
    if p_code != c_code:
        found.append(f"exit {p_code} -> {c_code}")
    if p_err != c_err:
        found.append(f"stderr {p_err!r} -> {c_err!r}")
    if p_out != c_out:
        p_rec, c_rec = _json(p_out), _json(c_out)
        paths = json_paths(p_rec, c_rec) if p_rec is not None and c_rec is not None else []
        found.append(", ".join(p or "(whole record)" for p in paths) if paths
                     else first_line_diff(p_out, c_out))
    return found


def report(reqs: list[tuple[str, ...]], parent: list, change: list) -> tuple[list[str], bool]:
    """The printed lines and whether any request differs."""
    same: dict[str, list[int]] = {}
    lines = []
    for argv, p, c in zip(reqs, parent, change):
        found = differences(p, c)
        counts = same.setdefault(argv[0] if argv else "", [0, 0])
        counts[0] += not found
        counts[1] += 1
        if found:
            lines.append(f"{shlex.join(argv)}: " + "; ".join(found))
    head = "identical records: " + ", ".join(
        f"{command} {n}/{total}" for command, (n, total) in sorted(same.items()))
    return [head, *lines], bool(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--extra", action="append", default=[], metavar="ARGV",
                        help="one more request, as a shell line; repeatable")
    args = parser.parse_args(argv)
    reqs = requests(args.extra)
    with parent_worktree(args.parent) as (_, parent_tree):
        parent = run_tree(parent_tree, reqs)
    lines, differ = report(reqs, parent, run_tree(ROOT, reqs))
    print("\n".join(lines))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
