"""Command-line front end.

Subcommands: ``spectrum`` (eigenvalue/multiplicity tables), ``kappa``
(torsion function evaluations), ``torsion`` (full report) and ``verify``
(exact-identity suites).  Output is a single deterministic JSON record, or
CSV for spectrum tables.

A command parses and checks its arguments and builds its record.  The
library raises where it cannot compute, and ``main`` alone maps the
exception to an exit code and one stderr line.  One parser, built on the
first call, serves every ``main`` call of a process, and ``main`` picks the
command function by ``args.command`` when it runs it.  Exit codes (the README
lists the cases): 0 ok; 1 a check of the record failed (the record is
written first); 2 usage error, or ``PrecisionError``; 3 a ``spectrum``
degree outside 0..2n+1, or ``OverflowError`` (a result outside the double
range); 4 ``PoleError`` or ``DivergenceError``.

At import this module loads only ``spectrum``, ``weights`` and ``limits``,
which import nothing beyond the standard library: the parser's ``--prec``
range and the exception types of the exit table come from ``limits``, so a
``spectrum`` process never loads mpmath.  ``cmd_kappa`` imports ``torsion``
and ``verify``, and ``cmd_torsion`` and ``cmd_verify`` import ``verify``,
on their first call; those bring in ``zeta``, the kernels and mpmath.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from functools import lru_cache
from math import gcd, isfinite
from typing import Optional

from . import spectrum
from .limits import (DEFAULT_PRECISION_BITS, MAX_PRECISION_BITS, DivergenceError,
                     PoleError, PrecisionError, _check_precision)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_RANGE = 3
EXIT_POLE = 4


def _record(command: str, parameters: dict, payload, checks: list) -> str:
    """The text of a record: the one writer of its envelope.  A record
    holding a NaN or an infinity raises ``OverflowError``."""
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "payload": payload,
        "checks": [{"name": c.name, "passed": c.passed,
                    "residual": float(c.residual)} for c in checks],
    }
    try:
        return json.dumps(record, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise OverflowError("the record holds a value that is not a finite "
                            "double") from None


def _emit(command: str, parameters: dict, payload, checks: list) -> int:
    """Write the record to stdout; exit 1 if any of its ``verify.CheckResult``
    checks fails.  A record that ``_record`` refuses writes no byte."""
    sys.stdout.write(_record(command, parameters, payload, checks) + "\n")
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


# Holds the place of the rows in the envelope of a spectrum record; its JSON
# text occurs nowhere else in the envelope.
_ROWS = "@rows@"


def _write_spectrum_json(n: int, degree: int, max_level: int, stream) -> None:
    """Write the spectrum record exactly as ``_emit`` would write it.

    The envelope is ``_record``'s, with ``_ROWS`` in place of the rows.  The
    rows have fixed keys, so their text is written out directly from a
    template, as ``json.dumps(indent=2, sort_keys=True)`` writes it inside
    the record: keys in sorted order, strings without escapes, ints and
    float ``repr``s as json writes them.  The blocks are the rows of the
    families of ``degree_families``, one per bidegree.  Rows are sorted by
    eigenvalue, and the blocks of a row by (case, i, j, q, p, s, t), which
    names one block, so the dimension never takes part in the order.  A
    row's eigenvalue key / L is reduced by one ``gcd``, and its float is the
    int division key / L, which is correctly rounded, as
    ``float(Fraction(key, L))`` is.
    """
    blocks: dict[int, list] = {}
    for family, spaces in spectrum.degree_families(n, degree):
        case, i, j = family.case.value, family.i, family.j
        for q, p, key, dim in family.rows(max_level):
            row = blocks.get(key)
            if row is None:
                row = blocks[key] = []
            for s, t in spaces:
                row.append((case, i, j, q, p, s, t, dim))
    denominator = spectrum.eigenvalue_denominator(n)
    rows = []
    for key in sorted(blocks):
        g = gcd(key, denominator)
        row = sorted(blocks[key])
        text = ",\n".join([_BLOCK_JSON % (case, dim, i, j, p, q, s, t)
                            for case, i, j, q, p, s, t, dim in row])
        rows.append(
            '      {\n'
            '        "blocks": [\n'
            f'{text}\n'
            '        ],\n'
            f'        "eigenvalue": "{key // g}/{denominator // g}",\n'
            f'        "eigenvalue_float": {key / denominator!r},\n'
            f'        "multiplicity": {sum(b[-1] for b in row)}\n'
            '      }'
        )
    body = "[\n" + ",\n".join(rows) + "\n    ]" if rows else "[]"
    params = {"degree": degree, "format": "json", "max": max_level, "n": n}
    head, tail = _record("spectrum", params, {"rows": _ROWS}, []).split(json.dumps(_ROWS))
    stream.write(f"{head}{body}{tail}\n")


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
        # One row per eigenvalue key / L, in increasing order, reduced and
        # rounded as in _write_spectrum_json; no block lists.
        denominator = spectrum.eigenvalue_denominator(n)
        counts = spectrum.degree_multiplicities(n, canonical, max_level)
        rows = []
        for key, mult in counts.items():
            g = gcd(key, denominator)
            rows.append(f"{key // g},{denominator // g},{key / denominator!r},{mult}\n")
        sys.stdout.write(
            "eigenvalue_num,eigenvalue_den,eigenvalue_float,multiplicity\n"
            + "".join(rows))
        return EXIT_OK

    _write_spectrum_json(n, canonical, max_level, sys.stdout)
    return EXIT_OK


def cmd_kappa(args: argparse.Namespace) -> int:
    from . import torsion, verify

    n, s, mode, prec = args.n, args.s, args.mode, args.prec
    if not isfinite(s):
        print(f"--s must be finite, got {s}", file=sys.stderr)
        return EXIT_USAGE
    if mode == "direct" and args.max is None:
        print("--max is required for --mode direct", file=sys.stderr)
        return EXIT_USAGE
    if mode == "closed" and args.max is not None:
        print("--max does not apply to --mode closed", file=sys.stderr)
        return EXIT_USAGE
    params = {"n": n, "s": s, "mode": mode, "prec": prec}
    if mode == "closed":
        est = torsion.kappa_closed(n, s, prec)
        return _emit("kappa", params, {"value": est.value, "error_bound": est.bound}, [])
    if args.max is None:
        # The continued reduced route; both routes read the one zeta(2s)
        # evaluation.
        est, closed = torsion.kappa_continued(n, s, prec)
    else:
        params["max"] = args.max
        route = torsion.kappa_direct if mode == "direct" else torsion.kappa_reduced
        est = route(n, s, args.max)
        closed = torsion.kappa_closed(n, s, prec)
    check = verify.route_check(
        "direct_within_tail_of_closed" if mode == "direct"
        else "reduced_matches_closed", est, closed)
    return _emit("kappa", params, {
        "value": est.value,
        "tail_bound" if mode == "direct" else "error_bound": est.bound,
        "closed_form": closed.value,
        "residual_vs_closed": check.residual,
    }, [check])


def cmd_torsion(args: argparse.Namespace) -> int:
    from . import verify

    n, prec = args.n, args.prec
    include_kernel = args.zeta_convention == "kernel-included"
    report, checks = verify.torsion_checks(n, prec, include_kernel)
    return _emit("torsion", {"n": n, "prec": prec,
                             "zeta_convention": args.zeta_convention},
                 dataclasses.asdict(report), checks)


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    n, bound, prec = args.n, args.max, args.prec
    results = verify.run_all(n, bound, prec)
    failed = sum(1 for r in results if not r.passed)
    return _emit("verify", {"n": n, "max": bound, "prec": prec},
                 {"passed": not failed, "total": len(results), "failed": failed},
                 results)


_PREC = dict(type=int, default=DEFAULT_PRECISION_BITS,
             help=f"working precision in bits, 8..{MAX_PRECISION_BITS} "
                  f"(default {DEFAULT_PRECISION_BITS})")


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # One parser serves every request of the process: parsing reads it and
    # writes each request's values into a fresh namespace.
    parser = argparse.ArgumentParser(
        prog="rumin-sphere",
        description=(
            "Exact Rumin-Laplacian spectra on CR spheres and the contact "
            "analytic torsion."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="eigenvalue/multiplicity table")
    p_spec.add_argument("--n", type=int, required=True)
    p_spec.add_argument("--degree", type=int, required=True)
    p_spec.add_argument("--max", type=int, required=True,
                        help="truncation level for the free parameters p, q")
    p_spec.add_argument("--format", choices=("json", "csv"), default="json")

    p_kappa = sub.add_parser("kappa", help="evaluate the torsion function")
    p_kappa.add_argument("--n", type=int, required=True)
    p_kappa.add_argument("--s", type=float, required=True)
    p_kappa.add_argument("--mode", choices=("closed", "direct", "reduced"),
                         default="closed")
    p_kappa.add_argument("--max", type=int, default=None,
                         help="truncation level (direct mode; optional for reduced)")
    p_kappa.add_argument("--prec", **_PREC)

    p_tor = sub.add_parser("torsion", help="full torsion report")
    p_tor.add_argument("--n", type=int, required=True)
    p_tor.add_argument("--prec", **_PREC)
    p_tor.add_argument("--zeta-convention",
                       choices=("kernel-included", "kernel-excluded"),
                       default="kernel-included")

    p_ver = sub.add_parser("verify", help="run the exact-identity suites")
    p_ver.add_argument("--n", type=int, required=True)
    p_ver.add_argument("--max", type=int, default=20)
    p_ver.add_argument("--prec", **_PREC)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    for flag in ("n", "max"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            print(f"--{flag} must be >= 1, got {value}", file=sys.stderr)
            return EXIT_USAGE
    try:
        if getattr(args, "prec", None) is not None:
            _check_precision(args.prec)  # before any work
        # Looked up at call time, so a rebound ``cmd_*`` name takes effect
        # although the parser is shared.
        command = {"spectrum": cmd_spectrum, "kappa": cmd_kappa,
                   "torsion": cmd_torsion, "verify": cmd_verify}[args.command]
        return command(args)
    except (PoleError, DivergenceError) as exc:
        code, reason = EXIT_POLE, exc
    except OverflowError as exc:
        code, reason = EXIT_RANGE, f"outside the double range: {exc}"
    except PrecisionError as exc:
        code, reason = EXIT_USAGE, exc
    print(f"{args.command}: {reason}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
