"""Command-line front end.

Subcommands: ``spectrum`` (eigenvalue/multiplicity tables), ``kappa``
(torsion function evaluations), ``torsion`` (full report) and ``verify``
(exact-identity suites).  Output is a single deterministic JSON record, or
CSV for spectrum tables.

Exit codes: 0 ok; 1 verification failure; 2 usage error, including a
non-finite ``--s`` and a non-integer ``RUMIN_PRECISION_BITS``; 3 out-of-range
input: a ``spectrum`` degree outside 0..2n+1, ``torsion --n`` above
``torsion.MAX_TORSION_N`` (279), where T = (4 pi)^{n+1} overflows a double,
a ``kappa`` that cannot be evaluated within the double range (an
overflow, or a non-finite value or bound; rejected up front when s > 1/2
and (n+1) 2^{2s+1} overflows a double, since |kappa(s)| exceeds that
there), or a zeta argument whose guard bits alone exceed the working range
of ``zeta.MAX_PRECISION_BITS`` (65536) bits (``zeta.WorkBudgetError``,
raised before any work: ``kappa --s=-1e6`` exits at once); 4 pole or
divergent parameter range.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from fractions import Fraction
from math import factorial, isfinite, log2, pi
from typing import Optional

from . import spectrum, torsion, verify
from .zeta import PoleError, PrecisionError, WorkBudgetError

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_RANGE = 3
EXIT_POLE = 4

_LOG2_DOUBLE_MAX = log2(sys.float_info.max)


def _default_precision() -> int:
    env = os.environ.get("RUMIN_PRECISION_BITS")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            print(f"RUMIN_PRECISION_BITS must be an integer, got {env!r}",
                  file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
    return 128


def _precision_failure(exc: PrecisionError) -> int:
    # A --prec outside the working range is a usage error; an s whose guard
    # bits alone exceed it (WorkBudgetError) is an out-of-range input.
    print(str(exc), file=sys.stderr)
    return EXIT_RANGE if isinstance(exc, WorkBudgetError) else EXIT_USAGE


def _record(command: str, parameters: dict, payload, checks: list[dict]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "payload": payload,
        "checks": checks,
    }


def _check(name: str, passed: bool, residual: Optional[float]) -> dict:
    return {"name": name, "passed": bool(passed), "residual": residual}


def _emit(record: dict, stream) -> None:
    stream.write(json.dumps(record, indent=2, sort_keys=True))
    stream.write("\n")


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _spectrum_rows(n: int, degree: int, max_level: int) -> list[dict]:
    """Rows sorted by eigenvalue; each row lists its contributing blocks."""
    blocks: dict[Fraction, list] = {}
    for label, mu, dim, spaces in spectrum.degree_labels(n, degree, max_level):
        key = (label.case.value, label.i, label.j, label.q, label.p)
        blocks.setdefault(mu, []).extend((*key, s, t, dim) for s, t in spaces)
    rows = []
    for mu in sorted(blocks):
        # (case, i, j, q, p, s, t) names one block, so the dimension never
        # takes part in the order.
        contributing = sorted(blocks[mu])
        rows.append(
            {
                "eigenvalue": _frac_str(mu),
                "eigenvalue_float": float(mu),
                "multiplicity": sum(b[-1] for b in contributing),
                "blocks": [
                    {"case": case, "q": q, "j": j, "i": i, "p": p,
                     "s": s, "t": t, "dimension": dim}
                    for case, i, j, q, p, s, t, dim in contributing
                ],
            }
        )
    return rows


def cmd_spectrum(args: argparse.Namespace) -> int:
    n, degree, max_level = args.n, args.degree, args.max
    if n < 1:
        print(f"--n must be >= 1, got {n}", file=sys.stderr)
        return EXIT_USAGE
    if max_level < 1:
        print(f"--max must be >= 1, got {max_level}", file=sys.stderr)
        return EXIT_USAGE
    if not 0 <= degree <= 2 * n + 1:
        print(
            f"degree {degree} out of range 0..{2 * n + 1} for n={n}",
            file=sys.stderr,
        )
        return EXIT_RANGE
    canonical = min(degree, 2 * n + 1 - degree)
    rows = _spectrum_rows(n, canonical, max_level)

    if args.format == "csv":
        sys.stdout.write("eigenvalue_num,eigenvalue_den,eigenvalue_float,multiplicity\n")
        for row in rows:
            num, den = row["eigenvalue"].split("/")
            sys.stdout.write(
                f"{num},{den},{row['eigenvalue_float']!r},{row['multiplicity']}\n"
            )
        return EXIT_OK

    record = _record(
        "spectrum",
        {"n": n, "degree": canonical, "max": max_level, "format": "json"},
        {"rows": rows},
        [],
    )
    _emit(record, sys.stdout)
    return EXIT_OK


def cmd_kappa(args: argparse.Namespace) -> int:
    n, s, mode, prec = args.n, args.s, args.mode, args.prec
    if n < 1:
        print(f"--n must be >= 1, got {n}", file=sys.stderr)
        return EXIT_USAGE
    if not isfinite(s):
        print(f"--s must be finite, got {s}", file=sys.stderr)
        return EXIT_USAGE
    out_of_range = (f"kappa(s) at n={n}, s={s} cannot be evaluated within "
                    "the double range")
    # For s > 1/2, zeta(2s) > 1, so |kappa(s)| > (n+1) 2^(2s+1).
    if s > 0.5 and log2(n + 1) + 2 * s + 1 > _LOG2_DOUBLE_MAX:
        print(out_of_range, file=sys.stderr)
        return EXIT_RANGE
    params = {"n": n, "s": s, "mode": mode, "prec": prec}
    checks: list[dict] = []
    try:
        if mode == "closed":
            est = torsion.kappa_closed_estimate(n, s, prec)
            payload = {"value": est.value, "error_bound": est.bound}
        elif mode == "direct":
            if args.max is None:
                print("--max is required for --mode direct", file=sys.stderr)
                return EXIT_USAGE
            params["max"] = args.max
            est = torsion.kappa_direct(n, s, args.max)
            closed = torsion.kappa_closed(n, s, prec)
            residual = abs(est.value - closed)
            payload = {
                "value": est.value,
                "tail_bound": est.bound,
                "closed_form": closed,
                "residual_vs_closed": residual,
            }
            checks.append(
                _check(
                    "direct_within_tail_of_closed",
                    residual <= est.bound + 1e-8,
                    residual,
                )
            )
        else:  # reduced
            if args.max is not None:
                params["max"] = args.max
                est = torsion.kappa_reduced(n, s, N=args.max)
                tolerance = est.bound + 1e-8
                closed = torsion.kappa_closed(n, s, prec)
            else:
                # Both routes read the one zeta(2s) evaluation.
                est, closed_est = torsion._continued_and_closed(n, s, prec)
                tolerance = est.bound + 1e-12
                closed = closed_est.value
            residual = abs(est.value - closed)
            payload = {
                "value": est.value,
                "error_bound": est.bound,
                "closed_form": closed,
                "residual_vs_closed": residual,
            }
            checks.append(
                _check("reduced_matches_closed", residual <= tolerance, residual)
            )
    except (PoleError, torsion.DivergenceError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_POLE
    except PrecisionError as exc:
        return _precision_failure(exc)
    except OverflowError:
        print(out_of_range, file=sys.stderr)
        return EXIT_RANGE
    if not all(isfinite(v) for v in payload.values()):
        print(out_of_range, file=sys.stderr)
        return EXIT_RANGE

    _emit(_record("kappa", params, payload, checks), sys.stdout)
    return EXIT_OK


def cmd_torsion(args: argparse.Namespace) -> int:
    n, prec = args.n, args.prec
    if n < 1:
        print(f"--n must be >= 1, got {n}", file=sys.stderr)
        return EXIT_USAGE
    if n > torsion.MAX_TORSION_N:
        print(
            f"--n {n} out of range 1..{torsion.MAX_TORSION_N}: the torsion "
            "(4 pi)^(n+1) overflows a double",
            file=sys.stderr,
        )
        return EXIT_RANGE
    include_kernel = args.zeta_convention == "kernel-included"
    try:
        report = torsion.torsion_report(n, precision=prec, include_kernel=include_kernel)
    except PrecisionError as exc:
        return _precision_failure(exc)
    payload = dataclasses.asdict(report)
    expected_kappa0 = 0.0 if include_kernel else float(n + 1)
    checks = [
        _check(
            "kappa_at_0_matches_convention",
            abs(report.kappa_at_0 - expected_kappa0) < 1e-12,
            abs(report.kappa_at_0 - expected_kappa0),
        ),
        _check(
            "torsion_is_4pi_power",
            abs(report.T / (4 * pi) ** (n + 1) - 1) < 1e-10,
            abs(report.T / (4 * pi) ** (n + 1) - 1),
        ),
        _check(
            "ray_singer_ratio_is_n_factorial",
            abs(report.ratio / factorial(n) - 1) < 1e-10,
            abs(report.ratio / factorial(n) - 1),
        ),
    ]
    _emit(_record("torsion", {"n": n, "prec": prec,
                              "zeta_convention": args.zeta_convention},
                  payload, checks), sys.stdout)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    n, bound, prec = args.n, args.max, args.prec
    if n < 1 or bound < 1:
        print("--n and --max must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        results = verify.run_all(n, bound, prec)
    except PrecisionError as exc:
        return _precision_failure(exc)
    checks = [_check(r.name, r.passed, r.residual) for r in results]
    all_passed = all(r.passed for r in results)
    record = _record(
        "verify",
        {"n": n, "max": bound, "prec": prec},
        {"passed": all_passed, "total": len(results),
         "failed": sum(1 for r in results if not r.passed)},
        checks,
    )
    _emit(record, sys.stdout)
    return EXIT_OK if all_passed else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rumin-sphere",
        description=(
            "Exact Rumin-Laplacian spectra on CR spheres and the contact "
            "analytic torsion."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    prec_default = _default_precision()

    p_spec = sub.add_parser("spectrum", help="eigenvalue/multiplicity table")
    p_spec.add_argument("--n", type=int, required=True)
    p_spec.add_argument("--degree", type=int, required=True)
    p_spec.add_argument("--max", type=int, required=True,
                        help="truncation level for the free parameters p, q")
    p_spec.add_argument("--format", choices=("json", "csv"), default="json")
    p_spec.set_defaults(func=cmd_spectrum)

    p_kappa = sub.add_parser("kappa", help="evaluate the torsion function")
    p_kappa.add_argument("--n", type=int, required=True)
    p_kappa.add_argument("--s", type=float, required=True)
    p_kappa.add_argument("--mode", choices=("closed", "direct", "reduced"),
                         default="closed")
    p_kappa.add_argument("--max", type=int, default=None,
                         help="truncation level (direct mode; optional for reduced)")
    p_kappa.add_argument("--prec", type=int, default=prec_default)
    p_kappa.set_defaults(func=cmd_kappa)

    p_tor = sub.add_parser("torsion", help="full torsion report")
    p_tor.add_argument("--n", type=int, required=True)
    p_tor.add_argument("--prec", type=int, default=prec_default)
    p_tor.add_argument("--zeta-convention",
                       choices=("kernel-included", "kernel-excluded"),
                       default="kernel-included")
    p_tor.set_defaults(func=cmd_torsion)

    p_ver = sub.add_parser("verify", help="run the exact-identity suites")
    p_ver.add_argument("--n", type=int, required=True)
    p_ver.add_argument("--max", type=int, default=20)
    p_ver.add_argument("--prec", type=int, default=prec_default)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
