"""Command-line front end.

Subcommands: ``spectrum`` (eigenvalue/multiplicity tables), ``kappa``
(torsion function evaluations), ``torsion`` (full report) and ``verify``
(exact-identity suites).  Output is a single deterministic JSON record, or
CSV for spectrum tables.

Exit codes (the README lists the cases): 0 ok; 1 a check of the record
failed (``kappa``, ``torsion`` and ``verify`` write the record first); 2
usage error, including a non-finite ``--s``, a non-integer
``RUMIN_PRECISION_BITS`` and a ``--prec`` the zeta engine cannot reach; 3
out-of-range input: a ``spectrum`` degree outside 0..2n+1, ``torsion --n``
above ``torsion.MAX_TORSION_N`` (170, where the ratio T / T_RS = n!
leaves the double range), a ``kappa`` that cannot be evaluated within the
double range (rejected up front where a bound on |kappa| already leaves
it), or a zeta argument whose guard bits alone exceed
``zeta.MAX_PRECISION_BITS`` (``WorkBudgetError``);
4 pole or divergent parameter range.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from fractions import Fraction
from math import inf, isfinite, lgamma, log, log2, pi, sin
from typing import Optional

from . import spectrum, torsion, verify
from .zeta import DEFAULT_PRECISION_BITS, PoleError, PrecisionError, WorkBudgetError

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_RANGE = 3
EXIT_POLE = 4

_LOG2_DOUBLE_MAX = log2(sys.float_info.max)
_LN_DOUBLE_MAX = log(sys.float_info.max)


def _default_precision() -> int:
    env = os.environ.get("RUMIN_PRECISION_BITS")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            print(f"RUMIN_PRECISION_BITS must be an integer, got {env!r}",
                  file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
    return DEFAULT_PRECISION_BITS


def _log_kappa_lower_bound(n: int, s: float) -> float:
    """A lower bound on log|kappa(s)| for s < 0, in doubles; -inf where it
    gives none (s >= 0, or s a negative integer, where kappa = -(n+1)).

    By the functional equation, 2^{2s+1} zeta(2s) = 2^{4s+1} pi^{2s-1}
    sin(pi s) Gamma(1-2s) zeta(1-2s), and zeta(1-2s) >= 1 for s < 0.  The
    sine is taken at s - round(s), which is exact in doubles, so it keeps
    its accuracy at large |s|.  The bound drops the 1 of 1 + 2^{2s+1}
    zeta(2s), which shifts the logarithm by about exp(-bound) only.
    """
    if not s < 0:
        return -inf
    sine = abs(sin(pi * (s - round(s))))
    if sine == 0:
        return -inf
    return (log(n + 1) + (4 * s + 1) * log(2) + (2 * s - 1) * log(pi)
            + log(sine) + lgamma(1 - 2 * s))


def _emit(command: str, parameters: dict, payload,
          checks: list[verify.CheckResult]) -> int:
    """Write the record to stdout; exit 1 if any of its checks fails."""
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "payload": payload,
        "checks": [{"name": c.name, "passed": c.passed,
                    "residual": float(c.residual)} for c in checks],
    }
    sys.stdout.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if all(c.passed for c in checks) else EXIT_VERIFY_FAIL


# One block of a spectrum row as ``json.dumps(indent=2, sort_keys=True)``
# writes it, filled with (case, dimension, i, j, p, q, s, t).
_BLOCK_JSON = (
    '          {\n'
    '            "case": "%s",\n'
    '            "dimension": %d,\n'
    '            "i": %d,\n'
    '            "j": %d,\n'
    '            "p": %d,\n'
    '            "q": %d,\n'
    '            "s": %d,\n'
    '            "t": %d\n'
    '          }'
)


def _write_spectrum_json(n: int, degree: int, max_level: int, stream) -> None:
    """Write the spectrum record exactly as ``_emit`` would write it.

    The record has fixed keys, so the text of ``json.dumps(record,
    indent=2, sort_keys=True)`` is written out directly: keys in sorted
    order, strings without escapes, ints and float ``repr``s as json writes
    them.  Rows are sorted by eigenvalue, and the blocks of a row by (case,
    i, j, q, p, s, t), which names one block, so the dimension never takes
    part in the order.
    """
    blocks: dict[int, list] = {}
    for case, i, j, q, p, key, dim, spaces in spectrum.degree_labels(
            n, degree, max_level):
        row = blocks.get(key)
        if row is None:
            row = blocks[key] = []
        for s, t in spaces:
            row.append((case.value, i, j, q, p, s, t, dim))
    denominator = spectrum.eigenvalue_denominator(n)
    rows = []
    for key in sorted(blocks):
        mu = Fraction(key, denominator)
        row = sorted(blocks[key])
        text = ",\n".join([_BLOCK_JSON % (case, dim, i, j, p, q, s, t)
                            for case, i, j, q, p, s, t, dim in row])
        rows.append(
            '      {\n'
            '        "blocks": [\n'
            f'{text}\n'
            '        ],\n'
            f'        "eigenvalue": "{mu.numerator}/{mu.denominator}",\n'
            f'        "eigenvalue_float": {float(mu)!r},\n'
            f'        "multiplicity": {sum(b[-1] for b in row)}\n'
            '      }'
        )
    body = "[\n" + ",\n".join(rows) + "\n    ]" if rows else "[]"
    stream.write(
        '{\n'
        '  "checks": [],\n'
        '  "command": "spectrum",\n'
        '  "parameters": {\n'
        f'    "degree": {degree},\n'
        '    "format": "json",\n'
        f'    "max": {max_level},\n'
        f'    "n": {n}\n'
        '  },\n'
        '  "payload": {\n'
        f'    "rows": {body}\n'
        '  },\n'
        f'  "schema_version": "{SCHEMA_VERSION}"\n'
        '}\n'
    )


def cmd_spectrum(args: argparse.Namespace) -> int:
    n, degree, max_level = args.n, args.degree, args.max
    if not 0 <= degree <= 2 * n + 1:
        print(
            f"degree {degree} out of range 0..{2 * n + 1} for n={n}",
            file=sys.stderr,
        )
        return EXIT_RANGE
    canonical = min(degree, 2 * n + 1 - degree)

    if args.format == "csv":
        # The aggregation of spectrum_slice, whose entries are in increasing
        # eigenvalue order; no block lists.
        entries = spectrum.spectrum_slice(n, canonical, max_level).entries
        sys.stdout.write(
            "eigenvalue_num,eigenvalue_den,eigenvalue_float,multiplicity\n"
            + "".join([f"{mu.numerator},{mu.denominator},{float(mu)!r},{mult}\n"
                       for mu, mult in entries.items()])
        )
        return EXIT_OK

    _write_spectrum_json(n, canonical, max_level, sys.stdout)
    return EXIT_OK


def cmd_kappa(args: argparse.Namespace) -> int:
    n, s, mode, prec = args.n, args.s, args.mode, args.prec
    if not isfinite(s):
        print(f"--s must be finite, got {s}", file=sys.stderr)
        return EXIT_USAGE
    out_of_range = (f"kappa(s) at n={n}, s={s} cannot be evaluated within "
                    "the double range")
    # For s > 1/2, zeta(2s) > 1, so |kappa(s)| > (n+1) 2^(2s+1).  For s < 0
    # the modes that evaluate zeta(2s) pay for it with |s| (guard bits and
    # prefix length), so a kappa beyond the double range is rejected first;
    # the margin of 1 covers the rounding of the bound.
    if (s > 0.5 and log2(n + 1) + 2 * s + 1 > _LOG2_DOUBLE_MAX) or (
            (mode == "closed" or (mode == "reduced" and args.max is None))
            and _log_kappa_lower_bound(n, s) > _LN_DOUBLE_MAX + 1):
        print(out_of_range, file=sys.stderr)
        return EXIT_RANGE
    if mode == "direct" and args.max is None:
        print("--max is required for --mode direct", file=sys.stderr)
        return EXIT_USAGE
    params = {"n": n, "s": s, "mode": mode, "prec": prec}
    checks = []
    try:
        if mode == "closed":
            est = torsion.kappa_closed(n, s, prec)
            payload = {"value": est.value, "error_bound": est.bound}
        else:
            if args.max is None:
                # The continued reduced route; both routes read the one
                # zeta(2s) evaluation.
                est, closed = torsion.kappa_continued(n, s, prec)
            else:
                params["max"] = args.max
                route = torsion.kappa_direct if mode == "direct" else torsion.kappa_reduced
                est = route(n, s, args.max)
                closed = torsion.kappa_closed(n, s, prec)
            checks.append(verify.route_check(
                "direct_within_tail_of_closed" if mode == "direct"
                else "reduced_matches_closed", est, closed))
            payload = {
                "value": est.value,
                "tail_bound" if mode == "direct" else "error_bound": est.bound,
                "closed_form": closed.value,
                "residual_vs_closed": checks[0].residual,
            }
    except (PoleError, torsion.DivergenceError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_POLE
    except OverflowError:
        print(out_of_range, file=sys.stderr)
        return EXIT_RANGE
    if not all(isfinite(v) for v in payload.values()):
        print(out_of_range, file=sys.stderr)
        return EXIT_RANGE
    return _emit("kappa", params, payload, checks)


def cmd_torsion(args: argparse.Namespace) -> int:
    n, prec = args.n, args.prec
    if n > torsion.MAX_TORSION_N:
        print(
            f"--n {n} out of range 1..{torsion.MAX_TORSION_N}: the torsion "
            "(4 pi)^(n+1) or the ratio n! overflows a double",
            file=sys.stderr,
        )
        return EXIT_RANGE
    include_kernel = args.zeta_convention == "kernel-included"
    report, checks = verify.torsion_checks(n, prec, include_kernel)
    return _emit("torsion", {"n": n, "prec": prec,
                             "zeta_convention": args.zeta_convention},
                 dataclasses.asdict(report), checks)


def cmd_verify(args: argparse.Namespace) -> int:
    n, bound, prec = args.n, args.max, args.prec
    results = verify.run_all(n, bound, prec)
    failed = sum(1 for r in results if not r.passed)
    return _emit("verify", {"n": n, "max": bound, "prec": prec},
                 {"passed": not failed, "total": len(results), "failed": failed},
                 results)


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
    for flag in ("n", "max"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            print(f"--{flag} must be >= 1, got {value}", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except PrecisionError as exc:
        # A --prec outside the working range is a usage error; an s whose
        # guard bits alone exceed it (WorkBudgetError) is an out-of-range input.
        print(str(exc), file=sys.stderr)
        return EXIT_RANGE if isinstance(exc, WorkBudgetError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
