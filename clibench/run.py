#!/usr/bin/env python3
"""Probe-normalised benchmark of the four rumin-sphere CLI paths.

Run from the root of a source checkout:

    python3 clibench/run.py --workload direct_sums --seed 1 --seconds 10 --trace 0

Each solve is one request through ``rumin_sphere.cli.main(argv)`` in this
process, with stdout captured and checked (see checks.py).  A run repeats
whole rounds of the workload's seeded request list until ``--seconds`` have
passed.  Every solve and every set-up step is timed between two probes of a
fixed reference loop (probe.py) and reported in probe-normalised seconds.

``--trace 0`` prints the end-to-end metrics: set-up time (import plus a cold
pass, measured in fresh interpreters), the median warm solve time and solves
per second.  ``--trace 1`` runs the same rounds again with every layer
wrapped (tracer.py) and prints per-layer self times and counts per round,
plus the tracing overhead.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import hashlib
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# Only the stdlib and these two stdlib-only modules at top level: the set-up
# child runs this file and must not have loaded anything the package import
# would otherwise pay for.  checks, tracer, numpy and scipy load lazily.
import probe
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "docs" / "output_record.schema.json"

# Set-up is repeated at least SETUP_LEAST times, and cheap set-ups more often
# (up to SETUP_MOST) until SETUP_SECONDS have gone on it.
SETUP_LEAST, SETUP_MOST, SETUP_SECONDS = 3, 9, 3.0

# The checks in verify.run_all; listed here, not discovered, because the
# per-layer metric names are fixed in BENCHMARK.json.
VERIFY_CHECKS = (
    "check_weyl_vs_gt", "check_special_dimension", "check_dimension_polynomial",
    "check_eigenvalue_reductions", "check_norm_route", "check_case_v_mixed",
    "check_norm_ratios", "check_weight_determined",
    "check_block_multiplicity_one", "check_c_coefficients", "check_sigma",
    "check_vanishing_correction", "check_cancellation", "check_mirror",
    "check_kernel_uniqueness", "check_zeta_constants", "check_hurwitz_shift",
    "check_torsion_values", "check_reduced_continuation", "check_direct_route",
)


def _fail(message: str) -> None:
    print(f"clibench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_cli():
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("rumin_sphere.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        _fail(f"imported {cli.__file__}, not the package under {SRC}")
    return cli


# -- set-up ---------------------------------------------------------------------

def setup_child(workload: str) -> None:
    """Fresh interpreter: time the package import and one cold pass."""
    probe.probe()  # first call pays for its own code objects
    cli, import_t = probe.timed(_import_cli)
    steps = [import_t]
    for argv in workloads.COLD[workload]:
        res, t = probe.timed(lambda: probe.call_cli(cli, argv))
        if res.code != 0:
            _fail(f"cold request {' '.join(argv)} exited {res.code}: {res.stderr}")
        steps.append(t)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"raw_s": sum(t.raw_s for t in steps),
                      "norm_s": sum(t.norm_s for t in steps),
                      "rss_mb": rss_mb}))


def measure_setup(workload: str, least: int, most: int, seconds: float) -> list[dict]:
    """Set-up in fresh interpreters: ``least`` times, then more while the
    children have taken less than ``seconds`` in all, up to ``most``."""
    out = []
    start = perf_counter()
    while len(out) < least or (len(out) < most and perf_counter() - start < seconds):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            _fail(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


# -- solving ----------------------------------------------------------------------

class Run:
    """Solves requests and checks their outputs; counts attempts and failures."""

    def __init__(self, cli, checker) -> None:
        self.cli = cli
        self.checker = checker
        self.digests: dict[tuple, str] = {}
        self.problems: list[str] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def solve(self, argv):
        """One timed solve; returns (timing, stdout bytes) or None if it failed."""
        gc.collect()
        self.attempted += 1
        try:
            res, t = probe.timed(lambda: probe.call_cli(self.cli, argv))
        except Exception as exc:  # a traceback from the package is a failed solve
            self.failed += 1
            self.errors.append(f"{' '.join(argv)}: {type(exc).__name__}: {exc}")
            return None
        if res.code != 0:
            self.failed += 1
            self.errors.append(f"{' '.join(argv)}: exit {res.code}: {res.stderr.strip()}")
            return None
        out = res.stdout.encode()
        digest = hashlib.sha256(out).hexdigest()
        if argv not in self.digests:
            # The first output of each request is checked in full; later
            # ones must repeat it byte for byte.
            self.digests[argv] = digest
            try:
                problems = self.checker.check(argv, res.stdout)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                problems = [f"record malformed: {exc!r}"]
            self.problems += [f"{' '.join(argv)}: {p}" for p in problems]
        elif self.digests[argv] != digest:
            self.problems.append(f"{' '.join(argv)}: output differs between solves")
        return t, len(out)

    def mirror_problems(self) -> list[str]:
        """spectrum --degree k and 2n+1-k must print byte-identical output."""
        problems = []
        for argv, digest in self.digests.items():
            if argv[0] != "spectrum":
                continue
            n, k = int(argv[argv.index("--n") + 1]), int(argv[argv.index("--degree") + 1])
            mirror = list(argv)
            mirror[argv.index("--degree") + 1] = str(2 * n + 1 - k)
            other = self.digests.get(tuple(mirror))
            if other is not None and other != digest:
                problems.append(f"{' '.join(argv)}: differs from its mirror degree")
        return problems


def run_rounds(run: Run, requests, seconds: float):
    """Whole rounds until ``seconds`` have passed; returns timings and rounds."""
    timings, nbytes, rounds = [], 0, 0
    start = perf_counter()
    while rounds == 0 or perf_counter() - start < seconds:
        for argv in requests:
            out = run.solve(argv)
            if out is not None:
                timings.append(out[0])
                nbytes += out[1]
        rounds += 1
    return timings, nbytes, rounds


def run_traced(run: Run, requests, rounds: int):
    import tracer as tracing

    tracer = tracing.Tracer()
    total = tracing.SpanSummary()
    timings = []
    tracer.install()
    try:
        for _ in range(rounds):
            for argv in requests:
                out = run.solve(argv)
                spans = tracer.take(scale=out[0].factor if out else 1.0)
                if out is not None:
                    timings.append(out[0])
                    total.add(spans)
    finally:
        tracer.uninstall()
    return timings, total


# -- metrics ------------------------------------------------------------------------

def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def hd_median(xs: list[float]) -> float:
    """Harrell-Davis estimate of the median.

    A round mixes requests of very different cost, so the sample median can
    sit on a gap between two requests' clusters and jump across it with
    noise; the Harrell-Davis estimator weights every order statistic by a
    Beta((n+1)/2, (n+1)/2) kernel and moves smoothly instead.
    """
    import numpy as np
    from scipy.special import betainc

    n = len(xs)
    a = (n + 1) / 2
    weights = np.diff(betainc(a, a, np.arange(n + 1) / n))
    return float(np.dot(weights, sorted(xs)))


def end_to_end(setups, timings) -> dict:
    norm = [t.norm_s for t in timings]
    return {
        "setup_s": _metric(statistics.median(s["norm_s"] for s in setups), "s"),
        "solve_p50_s": _metric(hd_median(norm), "s"),
        "solves_per_s": _metric(len(norm) / sum(norm), "1/s"),
    }


def per_layer(total, rounds, nbytes, overhead_s, rss_mb) -> dict:
    def per_round(x):
        return x / rounds

    m = {}
    for layer in ("cli", "verify", "torsion", "spectrum", "weights", "zeta", "kernels"):
        m[f"{layer}.self_s"] = _metric(per_round(total.layer_self_s[layer]), "s")
    m["cli.emit_s"] = _metric(per_round(total.self_s["cli.emit"]), "s")
    m["cli.output_bytes"] = _metric(per_round(nbytes), "bytes")
    m["cli.peak_rss_mb"] = _metric(rss_mb, "MB")
    for check in VERIFY_CHECKS:
        # Self time is the check's own loop; total time includes the oracle
        # and spectrum work it calls, which is where a check's cost sits.
        m[f"verify.{check}.self_s"] = _metric(per_round(total.self_s[f"verify.{check}"]), "s")
        m[f"verify.{check}.total_s"] = _metric(per_round(total.total_s[f"verify.{check}"]), "s")
    m["spectrum.labels"] = _metric(per_round(total.calls["spectrum.eigenvalue_formula"]), "count")
    m["weights.gt_patterns"] = _metric(per_round(total.counts["weights.gt_patterns"]), "count")
    m["zeta.calls"] = _metric(per_round(total.layer_entries["zeta"]), "count")
    m["kernels.calls"] = _metric(per_round(total.layer_entries["kernels"]), "count")
    m["kernels.terms"] = _metric(per_round(total.counts["kernels.terms"]), "count")
    m["trace.overhead_s"] = _metric(per_round(overhead_s), "s")
    return m


def _percentile_line(norm: list[float]) -> str:
    # The highest percentile reported is one with at least ten samples beyond it.
    if len(norm) >= 100:
        p90 = statistics.quantiles(norm, n=10)[-1]
        return f"p90 {p90:.4f} s over {len(norm)} solves"
    return f"no p90: {len(norm)} solves (< 100)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", choices=workloads.WORKLOADS,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "rumin_sphere" / "__init__.py").is_file() or not SCHEMA.is_file():
        _fail(f"no rumin_sphere source tree under {ROOT}; run from a checkout")
    if args.setup_child:
        setup_child(args.setup_child)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    from checks import Checker

    # Set-up children import from cached bytecode, as an installed package
    # does, whether or not this environment lets the interpreter write it.
    compileall.compile_dir(str(SRC / "rumin_sphere"), quiet=1)
    cli = _import_cli()
    requests = workloads.build(args.workload, args.seed)
    checker = Checker(ROOT, zeta_s=random.Random(f"checks:{args.seed}").uniform(0.5, 3.0))
    run = Run(cli, checker)
    if args.trace:
        setups = measure_setup(args.workload, 1, 1, 0.0)
    else:
        setups = measure_setup(args.workload, SETUP_LEAST, SETUP_MOST, SETUP_SECONDS)
    for cold in workloads.COLD[args.workload]:
        if probe.call_cli(cli, cold).code != 0:
            _fail(f"cold request {' '.join(cold)} failed")

    timings, nbytes, rounds = run_rounds(run, requests, args.seconds)
    if not timings:
        _fail("every solve failed: " + "; ".join(run.errors[:3]))
    norm = [t.norm_s for t in timings]
    raw = [t.raw_s for t in timings]
    if args.trace:
        traced, total = run_traced(run, requests, rounds)
        overhead = sum(t.norm_s for t in traced) - sum(norm)
        metrics = per_layer(total, rounds, nbytes, overhead, setups[0]["rss_mb"])
    else:
        metrics = end_to_end(setups, timings)
    run.problems += run.mirror_problems()

    for line in run.problems[:20] + run.errors[:20]:
        print(f"# {line}")
    print(f"# {args.workload} seed {args.seed}: {rounds} rounds, {len(norm)} solves, "
          f"{run.failed} failed; solve p50 {hd_median(norm):.4f} s normalised, "
          f"{hd_median(raw):.4f} s raw; {_percentile_line(norm)}; set-up "
          f"{statistics.median(s['norm_s'] for s in setups):.4f} s normalised, "
          f"{statistics.median(s['raw_s'] for s in setups):.4f} s raw")
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
