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
degree outside 0..2n+1, ``OverflowError`` (a result outside the double
range) or ``EnumerationBudgetError`` (a Gelfand-Tsetlin count over its work
budget); 4 ``PoleError`` or ``DivergenceError``.

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
from .weights import EnumerationBudgetError

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
# writes it, filled with (case, dimension, i, j, p, q, s, t).  Every field
# is a ``%s``, so ``_family_template`` can fill the case, i, j, s and t and
# leave ``%d`` for the dimension, p and q.
_BLOCK_JSON = (
    '          {\n'
    '            "case": "%s",\n'
    '            "dimension": %s,\n'
    '            "i": %s,\n'
    '            "j": %s,\n'
    '            "p": %s,\n'
    '            "q": %s,\n'
    '            "s": %s,\n'
    '            "t": %s\n'
    '          }'
)


# Holds the place of the rows in the envelope of a spectrum record; its JSON
# text occurs nowhere else in the envelope.
_ROWS = "@rows@"


def _family_template(family, spaces) -> tuple[str, int]:
    # The blocks of one label of the family, in (s, t) order, with ``%d``
    # for its (dimension, p, q) once per block, and the number of blocks.
    case, i, j = family.case.value, family.i, family.j
    return ",\n".join([_BLOCK_JSON % (case, "%d", i, j, "%d", "%d", s, t)
                       for s, t in sorted(spaces)]), len(spaces)


def _eigenvalue_fields(key: int, denominator: int) -> tuple[int, int, str]:
    """The fields of a row's eigenvalue key / L as both spectrum formats
    write them: numerator and denominator reduced by one ``gcd``, and the
    ``repr`` of the float key / L, an int division, which is correctly
    rounded, as ``float(Fraction(key, L))`` is."""
    g = gcd(key, denominator)
    return key // g, denominator // g, repr(key / denominator)


def _write_spectrum_json(n: int, degree: int, max_level: int, stream) -> None:
    """Write the spectrum record exactly as ``_emit`` would write it, one
    row at a time.

    The envelope is ``_record``'s, with ``_ROWS`` in place of the rows.  The
    rows have fixed keys, so their text is written out directly from
    templates, as ``json.dumps(indent=2, sort_keys=True)`` writes it inside
    the record: keys in sorted order, strings without escapes, ints and
    float ``repr``s as json writes them.  The blocks are the rows of the
    families of ``degree_families``, one per bidegree.  Each family fills
    its case, i, j and bidegrees into one template of all its blocks once,
    and one ``%`` writes a label's blocks from its (dimension, p, q).

    Rows are sorted by eigenvalue.  The labels of a row are grouped under
    its key as (rank, q, p, dimension), rank the family's place in (case
    name, i, j) order, so sorting a group gives the blocks in (case, i, j,
    q, p, s, t) order, which names one block: the dimension never takes
    part in the order.  The multiplicity is the sum over the group of the
    blocks per label times the dimension.  Every row is read and the
    envelope built before the first write, so a request refused by the row
    generator (``ArithmeticError``) or by ``_record`` (``OverflowError``)
    writes no byte; then each row is written as soon as it is formatted,
    and no string of the whole output is built.
    """
    families = list(spectrum.degree_families(n, degree))
    by_name = sorted(families, key=lambda fs: (fs[0].case.value, fs[0].i, fs[0].j))
    templates = [_family_template(family, spaces) for family, spaces in by_name]
    groups: dict[int, list] = {}
    for family, spaces in families:
        rank = by_name.index((family, spaces))
        for q, p, key, dim in family.rows(max_level):
            group = groups.get(key)
            if group is None:
                group = groups[key] = []
            group.append((rank, q, p, dim))
    params = {"degree": degree, "format": "json", "max": max_level, "n": n}
    head, tail = _record("spectrum", params, {"rows": _ROWS}, []).split(json.dumps(_ROWS))
    if not groups:
        stream.write(f"{head}[]{tail}\n")
        return
    denominator = spectrum.eigenvalue_denominator(n)
    stream.write(f"{head}[\n")
    separator = ""
    for key in sorted(groups):
        labels = groups[key]
        labels.sort()
        texts = []
        multiplicity = 0
        for rank, q, p, dim in labels:
            template, blocks = templates[rank]
            texts.append(template % ((dim, p, q) * blocks))
            multiplicity += blocks * dim
        num, den, flt = _eigenvalue_fields(key, denominator)
        text = ",\n".join(texts)
        stream.write(
            f'{separator}      {{\n'
            '        "blocks": [\n'
            f'{text}\n'
            '        ],\n'
            f'        "eigenvalue": "{num}/{den}",\n'
            f'        "eigenvalue_float": {flt},\n'
            f'        "multiplicity": {multiplicity}\n'
            '      }'
        )
        separator = ",\n"
    stream.write(f"\n    ]{tail}\n")


def cmd_spectrum(args: argparse.Namespace) -> int:
    n, degree, max_level = args.n, args.degree, args.max
    if not 0 <= degree <= 2 * n + 1:
        print(
            f"degree {degree} out of range 0..{2 * n + 1} for n={n}",
            file=sys.stderr,
        )
        return EXIT_RANGE
    # The mirror rule, and its one home: degree k > n carries the blocks of
    # degree 2n+1-k, so both read min(k, 2n+1-k).
    canonical = min(degree, 2 * n + 1 - degree)

    if args.format == "csv":
        # One row per eigenvalue key / L, in increasing order, with the
        # eigenvalue fields of the JSON rows; no block lists.
        denominator = spectrum.eigenvalue_denominator(n)
        counts = spectrum.degree_multiplicities(n, canonical, max_level)
        rows = []
        for key, mult in counts.items():
            num, den, flt = _eigenvalue_fields(key, denominator)
            rows.append(f"{num},{den},{flt},{mult}\n")
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
    except EnumerationBudgetError as exc:
        code, reason = EXIT_RANGE, f"over the work budget: {exc}"
    except PrecisionError as exc:
        code, reason = EXIT_USAGE, exc
    print(f"{args.command}: {reason}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
