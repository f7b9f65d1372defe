"""Correctness checks of every record, made apart from the package.

Nothing here imports ``rumin_sphere``.  References come from mpmath (zeta,
pi, log at the requested precision), from the paper's label table and
one-parameter dimension formula re-implemented below, and from numpy for the
magnitudes that set rounding allowances.  Every allowance is derived from
float rounding or from the error bound the record itself reports; none is a
fixed slack.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import jsonschema
import mpmath
import numpy as np

U = 2.0**-53  # unit roundoff of IEEE double


def _within(difference, allowed) -> bool:
    """|difference| <= allowed, and False when either is NaN."""
    return abs(difference) <= allowed


def _opts(argv) -> dict[str, str]:
    return {argv[k][2:]: argv[k + 1] for k in range(1, len(argv) - 1, 2)}


def _weights(n: int) -> list[int]:
    # w_k = (-1)^{k+1} (n+1-k): the degree weights of kappa.
    return [(-1) ** (k + 1) * (n + 1 - k) for k in range(n + 1)]


def _special_dim(n: int, i: int, p: int) -> int:
    # One-parameter dimension p/(p+i) C(n,i) C(p+n,n) from the paper.
    num, rem = divmod(p * math.comb(n, i) * math.comb(p + n, n), p + i)
    if rem:
        raise ArithmeticError(f"non-integral one-parameter dimension ({n}, {i}, {p})")
    return num


def _weyl_dim(weight: tuple[int, ...]) -> int:
    num = den = 1
    for a in range(len(weight)):
        for b in range(a + 1, len(weight)):
            num *= weight[a] - weight[b] + b - a
            den *= b - a
    dim, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"non-integral Weyl product for {weight}")
    return dim


# -- the label table (paper, section on the irreducible decomposition) -----

def _families(n: int):
    """(case, i, j, fixed q, fixed p, bidegrees) for every label family."""
    fams = [("I", 0, 0, 0, 0, ((0, 0),))]
    for i in range(n):
        for j in range(n - i):
            if i + j <= n - 2:
                fams.append(("II", i, j, None, None,
                             ((i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1))))
            else:
                fams.append(("V", i, j, None, None,
                             ((i, j), (i + 1, j), (i, j + 1))))
    for i in range(n):
        fams.append(("III", i, 0, 0, None, ((i, 0), (i + 1, 0))))
    for j in range(n):
        fams.append(("IV", 0, j, None, 0, ((0, j), (0, j + 1))))
    fams.append(("VI", n - 1, 0, -1, None, ((n, 0),)))
    fams.append(("VII", 0, n - 1, None, -1, ((0, n),)))
    return fams


def _eigenvalue(n, q, j, i, p) -> tuple[int, int]:
    num = (p + i) * (q + n - i) + (q + j) * (p + n - j)
    num, den = num * num, 4 * (n - i - j) ** 2
    g = math.gcd(num, den)
    return num // g, den // g


def reference_blocks(n: int, degree: int, N: int) -> dict:
    """{(case, q, j, i, p, s, t): (eigenvalue, dimension)} on one degree."""
    blocks = {}
    for case, i, j, q_fixed, p_fixed, spaces in _families(n):
        here = [(s, t) for s, t in spaces if s + t == degree]
        if not here:
            continue
        ps = (p_fixed,) if p_fixed is not None else range(1, N + 1)
        qs = (q_fixed,) if q_fixed is not None else range(1, N + 1)
        for p in ps:
            for q in qs:
                weight = (q,) + (1,) * j + (0,) * (n - 1 - i - j) + (-1,) * i + (-p,)
                value = (_eigenvalue(n, q, j, i, p), _weyl_dim(weight))
                for s, t in here:
                    blocks[(case, q, j, i, p, s, t)] = value
    return blocks


@lru_cache(maxsize=None)
def reference_rows(n: int, degree: int, N: int) -> dict[tuple[int, int], int]:
    rows: dict[tuple[int, int], int] = {}
    for mu, dim in reference_blocks(n, degree, N).values():
        rows[mu] = rows.get(mu, 0) + dim
    return rows


# -- kappa references --------------------------------------------------------

def kappa_closed_mp(n: int, s: float, prec: int):
    """-(n+1)(1 + 2^{2s+1} zeta(2s)) in mpmath at ``prec`` + 32 bits."""
    with mpmath.workprec(prec + 32):
        ms = mpmath.mpf(s)
        return -(n + 1) * (1 + mpmath.mpf(2) ** (2 * ms + 1) * mpmath.zeta(2 * ms))


def reduced_truncated_mp(n: int, s: float, N: int):
    """kappa_1 + 2 sum_i (-1)^{i+1} sum_{p<=N} dim_i(p) ((p+i)/2)^{-2s}."""
    with mpmath.workprec(96):
        ms = mpmath.mpf(s)
        total = mpmath.mpf(-(n + 1))
        for i in range(n + 1):
            acc = mpmath.fsum(_special_dim(n, i, p) * (mpmath.mpf(p + i) / 2) ** (-2 * ms)
                              for p in range(1, N + 1))
            total += 2 * (-1) ** (i + 1) * acc
        return total


def _pair_family_abs(n: int, i: int, j: int, N: int, s: float) -> float:
    # sum_{p,q<=N} dim * eigenvalue^{-s} over one two-parameter family, numpy.
    q = np.arange(1, N + 1, dtype=np.float64)[:, None]
    p = np.arange(1, N + 1, dtype=np.float64)[None, :]
    weight = [q] + [1.0] * j + [0.0] * (n - 1 - i - j) + [-1.0] * i + [-p]
    dim = np.ones((N, N))
    for a in range(n + 1):
        for b in range(a + 1, n + 1):
            dim = dim * ((weight[a] - weight[b] + (b - a)) / (b - a))
    amp = ((p + i) * (q + n - i) + (q + j) * (p + n - j)) / (2.0 * (n - i - j))
    return float(np.sum(dim * amp ** (-2.0 * s)))


def direct_abs_sum(n: int, s: float, N: int) -> float:
    """sum |w_k| * (every positive term the direct route adds into degree k)."""
    w = [abs(x) for x in _weights(n)]
    total = float(w[0])  # the kernel of Delta^0
    for case, i, j, _, _, spaces in _families(n):
        factor = sum(w[a + b] for a, b in spaces)
        if case in ("II", "V"):
            total += factor * _pair_family_abs(n, i, j, N, s)
        elif case != "I":
            axis = {"III": i, "IV": j}.get(case, n)
            total += factor * math.fsum(
                _special_dim(n, axis, p) * ((p + axis) / 2) ** (-2 * s)
                for p in range(1, N + 1))
    return total


def direct_rounding_allowance(n: int, s: float, N: int) -> float:
    """Forward error bound of the direct route's double-precision sum.

    Each term carries at most delta relative error (the O(n^2) products of
    the factored dimension, the eigenvalue and one pow, whose argument error
    is amplified by 2s); sequential summation of at most N^2 terms per family,
    then the per-degree and weighted combination, adds gamma_m (Higham,
    Accuracy and Stability of Numerical Algorithms, eq. 4.4) with
    m = N^2 + families + n + 3.
    """
    families = len(_families(n))
    delta = (n * n + 4 * n + 12 * s + 16) * U
    m = N * N + families + n + 3
    gamma = m * U / (1 - m * U)
    return (delta + gamma) * (1 + delta) * direct_abs_sum(n, s, N)


# -- the checker --------------------------------------------------------------

class Checker:
    """Checks records; ``check`` returns a list of problems (empty: correct)."""

    def __init__(self, root: Path, zeta_s: float) -> None:
        schema = json.loads((root / "docs" / "output_record.schema.json").read_text())
        self.validator = jsonschema.Draft7Validator(schema)
        self.zeta_s = zeta_s  # exponent of the spectral zeta cross-check

    def check(self, argv, stdout: str) -> list[str]:
        opts = _opts(argv)
        if argv[0] == "spectrum" and opts.get("format") == "csv":
            return self._spectrum_csv(opts, stdout)
        try:
            record = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"stdout is not one JSON record: {exc}"]
        problems = [f"schema: {e.message}" for e in self.validator.iter_errors(record)]
        problems += [f"check {c['name']} failed (residual {c['residual']})"
                     for c in record.get("checks", []) if not c.get("passed")]
        if problems:
            return problems
        if argv[0] == "spectrum":
            return self._spectrum_json(opts, record)
        if argv[0] == "torsion":
            return self._torsion(opts, record)
        if argv[0] == "verify":
            return self._verify(record)
        mode = opts.get("mode", "closed")
        if mode == "direct":
            return self._kappa_direct(opts, record)
        return self._kappa_zeta(opts, record, mode)

    # -- kappa ---------------------------------------------------------------

    def _kappa_direct(self, opts, record) -> list[str]:
        n, s, N = int(opts["n"]), float(opts["s"]), int(opts["max"])
        prec = record["parameters"]["prec"]
        pay = record["payload"]
        problems = []
        closed = kappa_closed_mp(n, s, prec)
        if not _within(pay["closed_form"] - closed, math.ulp(float(closed))):
            problems.append(f"closed_form {pay['closed_form']!r} != mpmath {closed}")
        allowance = direct_rounding_allowance(n, s, N)
        if not _within(pay["value"] - closed, pay["tail_bound"] + allowance):
            problems.append(f"direct value {pay['value']!r} beyond tail bound "
                            f"{pay['tail_bound']!r} of mpmath {closed}")
        reduced = reduced_truncated_mp(n, s, N)
        if not _within(pay["value"] - reduced, allowance):
            problems.append(f"direct value {pay['value']!r} differs from the "
                            f"truncated reduced sum {reduced} by more than "
                            f"the rounding allowance {allowance:.3g}")
        if pay["residual_vs_closed"] != abs(pay["value"] - pay["closed_form"]):
            problems.append("residual_vs_closed is not |value - closed_form|")
        return problems

    def _kappa_zeta(self, opts, record, mode) -> list[str]:
        n, s, prec = int(opts["n"]), float(opts["s"]), int(opts["prec"])
        pay = record["payload"]
        ref = kappa_closed_mp(n, s, prec)
        bound = pay["error_bound"]
        fields = ["value"] + (["closed_form"] if mode == "reduced" else [])
        problems = [
            f"{mode} {field} {pay[field]!r} off mpmath {ref} by more than "
            f"error_bound {bound!r} plus one ulp"
            for field in fields
            if not _within(pay[field] - ref, bound + math.ulp(pay[field]))
        ]
        if mode == "reduced" and \
                pay["residual_vs_closed"] != abs(pay["value"] - pay["closed_form"]):
            problems.append("residual_vs_closed is not |value - closed_form|")
        return problems

    def _torsion(self, opts, record) -> list[str]:
        n, prec = int(opts["n"]), int(opts["prec"])
        pay = record["payload"]
        included = opts.get("zeta-convention", "kernel-included") == "kernel-included"
        problems = []
        with mpmath.workprec(prec + 32):
            four_pi = 4 * mpmath.pi
            expect = {
                "kappa_at_0": 0 if included else n + 1,
                "kappa_prime_at_0": 2 * (n + 1) * mpmath.log(four_pi),
                "T": four_pi ** (n + 1),
                "T_ray_singer": four_pi ** (n + 1) / math.factorial(n),
                "ratio": math.factorial(n),
            }
        # The mp values are good to ~2^-prec; the emitted doubles add their
        # own rounding.  exp(kappa'/2) amplifies the argument's rounding by
        # |kappa'/2|; (4 pi)^{n+1} amplifies the rounding of pi by n+1.
        half = float(expect["kappa_prime_at_0"]) / 2
        mp_err = (n + 1) * 2.0 ** (8 - prec)
        rel = {
            "T": (abs(half) + 4) * 2 * U,
            "T_ray_singer": (n + 6) * 2 * U,
        }
        rel["ratio"] = rel["T"] + rel["T_ray_singer"] + 2 * U
        for key, ref in expect.items():
            got = pay[key]
            if key in rel:
                allowed = rel[key] * abs(float(ref))
            else:
                allowed = math.ulp(float(ref)) + mp_err
            if not _within(got - ref, allowed):
                problems.append(f"torsion {key} {got!r} != {ref} (allowed {allowed:.3g})")
        if pay["zeta_convention"] != opts.get("zeta-convention", "kernel-included"):
            problems.append("zeta_convention does not echo the request")
        residuals = pay["route_residuals"]
        if len(residuals) != 3 or not all(
                math.isfinite(v) and v >= 0 for v in residuals.values()):
            problems.append(f"route_residuals malformed: {residuals}")
        return problems

    # -- verify --------------------------------------------------------------

    def _verify(self, record) -> list[str]:
        pay, checks = record["payload"], record["checks"]
        names = [c["name"] for c in checks]
        problems = []
        if not (pay["passed"] and pay["failed"] == 0 and pay["total"] == len(checks)):
            problems.append(f"verify payload {pay} disagrees with its checks")
        if len(set(names)) != len(names) or not checks:
            problems.append("verify check names missing or repeated")
        return problems

    # -- spectrum ------------------------------------------------------------

    def _spectrum_common(self, n, degree, N, rows) -> list[str]:
        """rows: [(num, den, float, multiplicity)] as emitted, in order."""
        problems = []
        canonical = min(degree, 2 * n + 1 - degree)
        ref = reference_rows(n, canonical, N)
        got = {(num, den): mult for num, den, _, mult in rows}
        if got != ref:
            missing = len(set(ref) - set(got))
            extra = len(set(got) - set(ref))
            wrong = sum(1 for mu in set(ref) & set(got) if ref[mu] != got[mu])
            problems.append(f"spectrum rows differ from the label table: {missing} "
                            f"eigenvalues missing, {extra} extra, {wrong} with "
                            f"another multiplicity")
        keys = [Fraction(num, den) for num, den, _, _ in rows]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            problems.append("rows not strictly increasing in eigenvalue")
        for num, den, flt, _ in rows:
            if flt != float(Fraction(num, den)) or math.gcd(num, den) != 1:
                problems.append(f"row {num}/{den}: float {flt!r} or fraction wrong")
                break
        zero_mult = got.get((0, 1), 0)
        expected_zero = 1 if degree in (0, 2 * n + 1) else 0
        if zero_mult != expected_zero:
            problems.append(f"zero eigenvalue multiplicity {zero_mult} in degree "
                            f"{degree}, expected {expected_zero}")
        problems += self._spectral_zeta(rows, ref)
        return problems

    def _spectral_zeta(self, rows, ref) -> list[str]:
        # sum mult * mu^{-s} from the emitted floats, against the same sum over
        # the independently enumerated exact eigenvalues.  Each emitted term
        # carries (|s| + 3) rounding errors; fsum adds none of consequence.
        s = self.zeta_s
        got = math.fsum(mult * flt ** -s for _, _, flt, mult in rows if flt > 0)
        with mpmath.workprec(96):
            want = mpmath.fsum(mult * (mpmath.mpf(num) / den) ** -s
                               for (num, den), mult in ref.items() if num > 0)
        allowed = (abs(s) + 4) * U * abs(float(want))
        if not _within(got - want, allowed):
            return [f"spectral zeta at s={s}: {got!r} != {want} (allowed {allowed:.3g})"]
        return []

    def _spectrum_json(self, opts, record) -> list[str]:
        n, degree, N = int(opts["n"]), int(opts["degree"]), int(opts["max"])
        canonical = min(degree, 2 * n + 1 - degree)
        params = record["parameters"]
        problems = []
        if params != {"n": n, "degree": canonical, "max": N, "format": "json"}:
            problems.append(f"parameters {params} do not echo the request")
        rows, blocks = [], {}
        for row in record["payload"]["rows"]:
            num, den = (int(x) for x in row["eigenvalue"].split("/"))
            rows.append((num, den, row["eigenvalue_float"], row["multiplicity"]))
            if row["multiplicity"] != sum(b["dimension"] for b in row["blocks"]):
                problems.append(f"row {row['eigenvalue']}: multiplicity is not "
                                f"the sum of its blocks")
            for b in row["blocks"]:
                key = (b["case"], b["q"], b["j"], b["i"], b["p"], b["s"], b["t"])
                blocks[key] = ((num, den), b["dimension"])
        if blocks != reference_blocks(n, canonical, N):
            problems.append("block list differs from the label table")
        return problems + self._spectrum_common(n, degree, N, rows)

    def _spectrum_csv(self, opts, stdout: str) -> list[str]:
        n, degree, N = int(opts["n"]), int(opts["degree"]), int(opts["max"])
        lines = stdout.splitlines()
        if not lines or lines[0] != "eigenvalue_num,eigenvalue_den,eigenvalue_float,multiplicity":
            return ["CSV header missing or wrong"]
        rows = []
        for line in lines[1:]:
            num, den, flt, mult = line.split(",")
            rows.append((int(num), int(den), float(flt), int(mult)))
        return self._spectrum_common(n, degree, N, rows)
