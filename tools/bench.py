#!/usr/bin/env python3
"""Alternating parent/change pairs of the clibench workloads.

Run from the root of a source checkout:

    python3 tools/bench.py --parent HEAD --pairs 3 --workload precise_torsion
    python3 tools/bench.py --parent HEAD~1 --pairs 3 --out BENCH.json

The parent revision is checked out in a temporary ``git worktree``; the
change is this checkout's working tree, committed or not.  For each
workload and each seed 1..k, ``clibench/run.py --trace 0`` runs once in
each tree, for BENCHMARK.json's ``run_seconds``, the parent first on odd
seeds and the change first on even ones, and its last stdout line (one
JSON object) is kept.  For each workload one
line is printed, ready to paste into CHANGES.md: per end-to-end metric of
BENCHMARK.json, its verdict, the pairs the change wins (ties count for
neither), the medians parent -> change and the interquartile range of the
parent's runs.  The verdict applies the metric's relative ``bound``:
``worse`` if the change's median is worse than the parent's by more than
the bound; else ``unresolved`` if the parent's IQR exceeds the bound times
its median and not every change run beats every parent run; else ``ok``.
Before the runs, one line gives the code lines of ``src/rumin_sphere`` in
both trees (``code_lines``: non-blank lines outside comments and
docstrings).  ``--out`` stores every run's metrics with the seeds, both git
shas, both code line counts, the Python and mpmath versions and the CPU
count.  A run killed by a signal
leaves its worktree behind; ``git worktree prune`` forgets it once its
directory is gone.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

import mpmath

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


@contextlib.contextmanager
def parent_worktree(rev: str):
    """Yield (sha, path) of ``rev`` checked out in a temporary ``git
    worktree``, which is removed on exit."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    with tempfile.TemporaryDirectory(prefix="parent-") as tmp:
        tree = Path(tmp) / "tree"
        _git("worktree", "add", "--detach", str(tree), sha)
        try:
            yield sha, tree
        finally:
            _git("worktree", "remove", "--force", str(tree))


# Tokens that are not code: comments, line ends, indentation.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The non-blank lines of a Python module that hold code: lines outside
    comments and the docstrings of the module, its classes and functions.
    A line counts once however many tokens it holds, and each non-blank
    line of a multi-line token counts."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    lines = source.splitlines()
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(k for k in range(tok.start[0], tok.end[0] + 1)
                        if k not in docstrings and lines[k - 1].strip())
    return len(code)


def src_code_lines(tree: Path) -> int:
    """``code_lines`` summed over the modules of ``src/rumin_sphere``."""
    return sum(code_lines(path.read_text())
               for path in sorted((tree / "src" / "rumin_sphere").glob("*.py")))


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One ``clibench/run.py --trace 0`` run in ``tree``: its JSON object."""
    proc = subprocess.run(
        [sys.executable, "clibench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench: {workload} seed {seed} in {tree} exited "
                 f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _iqr(xs: list[float]) -> float:
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q3 - q1


def verdict(metric: dict, parent: list[float], change: list[float]) -> str:
    """``worse``, ``unresolved`` or ``ok`` for one end-to-end metric of
    BENCHMARK.json, from its ``better`` and relative ``bound``."""
    lower, bound = metric["better"] == "lower", metric["bound"]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    if (c_med - p_med if lower else p_med - c_med) > bound * p_med:
        return "worse"
    beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
    if _iqr(parent) > bound * p_med and not beats_all:
        return "unresolved"
    return "ok"


def summarise(runs: list[dict]) -> dict:
    """Per end-to-end metric: the verdict, wins of the change, medians and
    the parent's IQR."""
    out = {}
    for metric in BENCHMARK["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [(r["parent"]["metrics"][name]["value"],
                  r["change"]["metrics"][name]["value"]) for r in runs]
        parent, change = [p for p, _ in pairs], [c for _, c in pairs]
        out[name] = {
            "unit": metric["unit"],
            "verdict": verdict(metric, parent, change),
            "wins": sum((c < p) if lower else (c > p) for p, c in pairs),
            "pairs": len(pairs),
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_iqr": _iqr(parent),
        }
    return out


def paste_line(workload: str, runs: list[dict], summary: dict) -> str:
    parts = []
    for name, m in summary.items():
        unit = "" if m["unit"] == "1/s" else f" {m['unit']}"
        parts.append(f"{name} {m['verdict']}: {m['wins']}/{m['pairs']} wins, median "
                     f"{m['parent_median']:.4g} -> {m['change_median']:.4g}{unit}, "
                     f"parent IQR {m['parent_iqr']:.2g}")
    failed = {side: sum(r[side]["failed"] for r in runs) for side in ("parent", "change")}
    wrong = sum(not r[side]["correct"] for r in runs for side in ("parent", "change"))
    return (f"{workload} ({len(runs)} pairs, seeds 1-{len(runs)}): " + "; ".join(parts)
            + f"; failed {failed['parent']} / {failed['change']}, incorrect runs {wrong}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--pairs", type=int, default=3, help="seeds 1..k, one pair each")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default every workload of BENCHMARK.json")
    parser.add_argument("--out", type=Path, help="write the runs as JSON here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with parent_worktree(args.parent) as (parent_sha, parent_tree):
        record = {
            "parent": {"rev": args.parent, "sha": parent_sha},
            "change": {"sha": _git("rev-parse", "HEAD"),
                       "dirty": bool(_git("status", "--porcelain",
                                          "--untracked-files=no"))},
            "python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "cpu_count": os.cpu_count(),
            "src_code_lines": {"parent": src_code_lines(parent_tree),
                               "change": src_code_lines(ROOT)},
            "seconds": BENCHMARK["run_seconds"],
            "seeds": list(range(1, args.pairs + 1)),
            "workloads": {},
        }
        lines = record["src_code_lines"]
        print(f"src code lines: {lines['parent']} -> {lines['change']}", flush=True)
        for workload in args.workload or WORKLOADS:
            runs = []
            for seed in record["seeds"]:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    tree = parent_tree if side == "parent" else ROOT
                    run[side] = run_once(tree, workload, seed)
                runs.append(run)
            summary = summarise(runs)
            record["workloads"][workload] = {"runs": runs, "summary": summary}
            print(paste_line(workload, runs, summary), flush=True)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
