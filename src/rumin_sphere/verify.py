"""Verification suites: one check type, and one function per claim.

A check is (name, residual, bound) and passes iff residual <= bound (a NaN
residual fails).  Exact checks count violations against bound 0.  Numeric
bounds come from the routes' error terms, with no added slack: two routes
to one kappa agree when |a - b| <= err(a) + err(b), err being a route's
bound plus the rounding of its double (``route_check``, also for the routes
of the torsion report); the torsion claims count the rounding of kappa(0),
kappa'(0) and pi (``torsion_checks``); the zeta identities compare in mpmath.
A check at several points reports its largest residual against the bound
that gives the largest residual/bound ratio, so it passes iff every point
does.  ``verify``, ``kappa`` and ``torsion`` build their checks here, and
exit 1 if one fails.  The coefficient identities read the one dimension
polynomial, ``weights.dimension_coefficients``; ``sigma``'s product form is
their independent second route, as ``_eigenvalue_from_weight`` is for the
eigenvalues: ``run_all`` computes the c_l once, and the sigma check compares
sigma(k) with sum_l c_l k^l as well as with (n+1)! k.

Every check that loops over labels runs their free parameters over
1..bound, the ``--max`` of the record; no check lowers it.  ``run_all``
walks ``spectrum.all_families`` once and reads each family's rows (q, p,
key, dimension) from ``BlockFamily.rows``, the generator of every
``spectrum`` record, so the label checks certify the keys and dimensions
that ``spectrum`` prints, each against a second route: the Gelfand-Tsetlin
count of the weight, the special dimension and its polynomial on the Case
III and VI rows, the reductions, the norm routes and the weight.  No check
walks label parameters outside the generator or takes a Weyl product.  The
checks of the one-parameter families read each family's axis c from
``BlockFamily.axis`` and its low and high bidegrees from its ``spaces``, and
take the free parameter x from the row: the special dimension is
``special_dimension(n, c, x)``, the eigenvalue ((x+c)/2)^2, and no check
maps a case to an axis.
Each row gets its weight once, from ``BlockFamily.weight``: the checks
read n, i, j and the case from the family they receive, and q and p from
the row, and call the integer-pair homes of the norm routes in ``spectrum``
with (family, q, p), so no row builds a ``Fraction``.  Each label check
adds up its violations over the families.
Only one family's rows are held at a time, the kernel check's (dimension,
bidegrees) pairs of the rows of key 0 apart, and the GT memo is shared by
every label of the request.  The GT check counts each run of a family's
rows with one p, whose weights differ only in their first entry, by one
call for the run's top row under ``GT_BUDGET`` times the run's length; that
call stores the count of every row of the run, so the others are memo hits.
Exact values are compared by cross products of
integers, which need no reduced pair.  There is no mirror check: the package
defines degrees above the middle by the mirror rule (``cli.cmd_spectrum``
folds k to min(k, 2n+1-k)), so a comparison of degree k with degree 2n+1-k
would compare one computation with itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import comb, factorial, inf, pi, prod, ulp
from operator import itemgetter
from typing import Optional, Sequence

import mpmath
from mpmath import mpf

from . import limits, spectrum, torsion, zeta
from .torsion import KappaEstimate, TorsionReport, rounding_gamma
from .spectrum import BlockFamily, Case
from .weights import (GT_BUDGET, HighestWeight, dimension_coefficients,
                      gt_pattern_count, special_dimension)


@dataclass(frozen=True)
class CheckResult:
    """One check.  The zeta identities keep ``residual`` and ``bound`` as
    mpmath numbers, so they are decided at the working precision even where
    a double would underflow to 0; the record rounds the residual to a
    double only when it is written."""

    name: str
    residual: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.bound

    @property
    def ratio(self) -> float:
        """residual / bound, at most 1 iff the check passes; inf for a NaN
        residual or a nonzero residual against bound 0."""
        if self.residual == 0:
            return 0.0
        return self.residual / self.bound if self.bound > 0 and self.residual >= 0 else inf


def _exact(name: str, violations: int) -> CheckResult:
    return CheckResult(name, float(violations), 0.0)


def _worst(name: str, parts: list[CheckResult]) -> CheckResult:
    # The largest residual (NaN counts as largest), against the bound that
    # gives it the largest ratio of the parts (the smallest bound if every
    # residual is 0): it passes iff every part does.
    ratio = max(c.ratio for c in parts)
    residual = max((c.residual for c in parts), key=lambda r: r if r == r else inf)
    return CheckResult(name, residual,
                       residual / ratio if ratio else min(c.bound for c in parts))


# One row per label of a family: q and p, the weight from
# ``BlockFamily.weight`` and, from ``BlockFamily.rows``, the eigenvalue as
# the pair (key, L) and the dimension.  The case, n, i and j are the
# family's; each check that needs them reads them from the family.
_Row = tuple[int, int, HighestWeight, tuple[int, int], int]


def _of(family: BlockFamily, rows: list[_Row], *cases: Case) -> list[_Row]:
    return rows if family.case in cases else []


def _total(parts: tuple[CheckResult, ...]) -> CheckResult:
    # One exact check summed over the families: its violations add up.
    return _exact(parts[0].name, sum(int(c.residual) for c in parts))


def check_weyl_vs_gt(rows: list[_Row], memo: dict) -> CheckResult:
    # ``memo`` is the GT memo, one dict for every call of a request.  The
    # rows come p-major with q ascending, so a run of rows of one p has the
    # weights (q, m, -p) that differ in their first entry only, and its last
    # row has the largest q.  Counting that row first stores the count of
    # every row of the run on the way down, so the others are memo hits; it
    # does their work too, so its budget is ``GT_BUDGET`` per row of the run.
    bad = 0
    for _, run in groupby(rows, itemgetter(1)):
        *rest, (_, _, w, _, dim) = run
        bad += dim != gt_pattern_count(w, GT_BUDGET * (len(rest) + 1), memo)
        bad += sum(1 for _, _, w, _, dim in rest if dim != gt_pattern_count(w, memo=memo))
    return _exact("weyl_dimension_vs_gt_patterns", bad)


def _free(family: BlockFamily, rows: list[_Row]) -> list[tuple[int, _Row]]:
    # Each row of a one-parameter family with its free parameter x: p where
    # q is fixed, q where p is.  Other families have no axis and no rows here.
    if family.axis is None:
        return []
    k = 0 if family.q_fixed is None else 1
    return [(row[k], row) for row in rows]


def check_special_dimension(family: BlockFamily, rows: list[_Row]) -> CheckResult:
    # The Case III and VI rows have the special weights (0^{n-c}, (-1)^c, -x),
    # x the free parameter p and c the axis.
    c = family.axis
    bad = sum(1 for x, (*_, dim) in _free(family, _of(family, rows, Case.III, Case.VI))
              if special_dimension(family.n, c, x) != dim)
    return _exact("special_dimension_vs_weyl", bad)


def _horner(coefficients: Sequence[int | Fraction], x: int) -> int | Fraction:
    value = 0  # sum_l coefficients[l] x^l
    for c in reversed(coefficients):
        value = value * x + c
    return value


def check_dimension_polynomial(family: BlockFamily, rows: list[_Row]) -> CheckResult:
    n, c, bad = family.n, family.axis, 0
    special = _free(family, _of(family, rows, Case.III, Case.VI))
    coefficients = dimension_coefficients(n, c) if special else ()
    for x, _ in special:
        if _horner(coefficients, x + c) != special_dimension(n, c, x):
            bad += 1
    return _exact("dimension_polynomial_vs_special", bad)


def _equals(x: tuple[int, int], num: int, den: int) -> bool:
    # x == num / den for x a pair (numerator, denominator), decided by one
    # cross product of integers, so neither side need be reduced; a zero
    # denominator on either side is a violation, as a division by it would be.
    return den != 0 != x[1] and x[0] * den == num * x[1]


def check_eigenvalue_reductions(family: BlockFamily, rows: list[_Row]) -> CheckResult:
    # The eigenvalue reduces to 0 on Case I and to ((x+c)/2)^2 on the
    # one-parameter families, x the free parameter and c the axis.
    reduced = [(0, row) for row in _of(family, rows, Case.I)] + [
        (x + family.axis, row) for x, row in _free(family, rows)]
    bad = sum(1 for x, (_, _, _, mu, _) in reduced if not _equals(mu, x * x, 4))
    return _exact("universal_eigenvalue_reductions", bad)


def check_norm_route(family: BlockFamily, rows: list[_Row]) -> CheckResult:
    bad = 0
    for q, p, _, mu, _ in _of(family, rows, Case.II, Case.V):
        if not _equals(mu, *spectrum.norm_route_pair(family, q, p)):
            bad += 1
    return _exact("norm_route_eigenvalue_equivalence", bad)


def check_case_v_mixed(family: BlockFamily, rows: list[_Row]) -> CheckResult:
    bad = 0
    for q, p, _, mu, _ in _of(family, rows, Case.V):
        if not _equals(mu, *spectrum.case_v_mixed_pair(family, q, p)):
            bad += 1
        if not _equals(mu, *spectrum.case_v_identity_pair(family, q, p)):
            bad += 1
    return _exact("case_v_mixed_route_equivalence", bad)


def _ratio_route(c: int, d: int, up: tuple[int, int], down: tuple[int, int]
                 ) -> tuple[int, int]:
    # c/d * up/down for pairs up and down, as an integer pair (numerator,
    # denominator).
    return c * up[0] * down[1], d * up[1] * down[0]


def check_norm_ratios(family: BlockFamily, rows: list[_Row]) -> CheckResult:
    # A^2 from the operator-norm table must equal the L^2-norm ratio route
    # (p+i)^2/(n-i-j) * |psi^{(i+1,j)}|^2 / |psi^{(i,j)}|^2 wherever the
    # tabulated norms apply (j > 0); same for B^2 with i > 0.  On a Case III
    # or IV label, x its free parameter and c its axis, the route
    # (x+c)^2/(n-c) * |psi^{high}|^2 / |psi^{low}|^2, with low and high the
    # family's bidegrees, must give (x+c)/2, whose square is the eigenvalue.
    # Each comparison is one cross product, and each label's norms come from
    # one ``squared_norm_pairs`` table.
    n, i, j, c = family.n, family.i, family.j, family.axis
    d = n - i - j
    bad = 0
    for q, p, _, _, _ in _of(family, rows, Case.II, Case.V):
        a2, b2 = spectrum.operator_norm_pairs(family, q, p)
        norms = spectrum.squared_norm_pairs(family, q, p)
        base = norms[i, j]
        if j > 0:
            up = norms[i + 1, j]
            if not _equals(a2, *_ratio_route((p + i) ** 2, d, up, base)):
                bad += 1
        if i > 0:
            side = norms[i, j + 1]
            if not _equals(b2, *_ratio_route((q + j) ** 2, d, side, base)):
                bad += 1
            if j > 0 and d >= 2:
                corner = norms[i + 1, j + 1]
                route = _ratio_route((p + i) ** 2, d - 1, corner, side)
                if not _equals(a2, *route):
                    bad += 1
    for x, (q, p, _, mu, _) in _free(family, _of(family, rows, Case.III, Case.IV)):
        low, high = family.spaces
        norms = spectrum.squared_norm_pairs(family, q, p)
        num, den = _ratio_route((x + c) ** 2, n - c, norms[high], norms[low])
        if not _equals((x + c, 2), num, den):
            bad += 1
        if not _equals(mu, num * num, den * den):
            bad += 1
    return _exact("operator_norms_vs_l2_ratios", bad)


def _eigenvalue_from_weight(entries: tuple[int, ...]) -> tuple[int, int]:
    # The eigenvalue read off the highest weight lam of length m = n+1 alone,
    # as an integer pair: (C2 - (lam_1 + lam_m) |lam|)^2 over 4 d^2, with the
    # Casimir value C2 = sum_a lam_a (lam_a + n + 2 - 2a), |lam| = sum_a lam_a
    # and d one more than the number of zeros among lam_2..lam_n
    # (d = n - i - j).
    n = len(entries) - 1
    c2 = sum(a * (a + n + 2 - 2 * k) for k, a in enumerate(entries, 1))
    num = c2 - (entries[0] + entries[-1]) * sum(entries)
    d = 1 + entries[1:-1].count(0)
    return num * num, 4 * d * d


def check_weight_determined(family: BlockFamily, rows: list[_Row]) -> CheckResult:
    bad = 0
    for _, _, w, mu, _ in rows:
        if not _equals(mu, *_eigenvalue_from_weight(w.entries)):
            bad += 1
    return _exact("eigenvalue_determined_by_weight", bad)


def c_coefficients(n: int) -> tuple[int, ...]:
    """The coefficients (c_1, ..., c_{n+1}) of the reduced torsion sum.

    c_l = sum_i (-1)^i C(n, i) e_{n+1-l}(n-i, ..., -i): n! times the
    alternating sum over i of coefficient l-1 of ``dimension_coefficients(n, i)``
    (the even rows less the odd).  Analytically c_1 = (n+1)! and every other
    c_l vanishes; the double sum is computed literally so that ``verify``
    checks the identity instead of assuming it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    columns = zip(*(dimension_coefficients(n, i) for i in range(n + 1)))
    return tuple(int(factorial(n) * (sum(c[::2]) - sum(c[1::2]))) for c in columns)


def sigma(n: int, k: int) -> int:
    """sigma(k) = sum_l c_l k^l = sum_i (-1)^i C(n, i) prod_{t=0}^{n} (k+n-i-t),
    as e_{n+1} of the shifts n-i-t is 0 (one is 0); must equal (n+1)! k."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    return sum((-1) ** i * comb(n, i) * prod(range(k - i, k + n - i + 1))
               for i in range(n + 1))


def check_c_coefficients(n: int, cs: tuple[int, ...]) -> CheckResult:
    # ``cs`` is ``c_coefficients(n)``.
    bad = int(cs[0] != factorial(n + 1))
    bad += sum(1 for c in cs[1:] if c != 0)
    return _exact("c_coefficients_identity", bad)


def check_sigma(n: int, cs: tuple[int, ...]) -> CheckResult:
    # sigma(k) from its product form must be (n+1)! k and the polynomial
    # sum_l c_l k^l of ``cs`` = ``c_coefficients(n)``, at each k = 0..10.
    bad = 0
    for k in range(11):
        value = sigma(n, k)
        bad += (value != factorial(n + 1) * k) + (value != _horner((0, *cs), k))
    return _exact("sigma_linearity", bad)


def check_vanishing_correction(n: int) -> CheckResult:
    """The reduced route's correction sums are powers of k = 1..i times the
    value at x = k of the integer row n! ``dimension_coefficients(n, i)``;
    the residual counts the i whose row is not integral or does not vanish."""
    scale = factorial(n)
    bad = 0
    for i in range(n + 1):
        row = [scale * c for c in dimension_coefficients(n, i)]
        ints = [c.numerator for c in row if c.denominator == 1]
        if len(ints) < len(row) or any(_horner(ints, x) for x in range(1, i + 1)):
            bad += 1
    return _exact("vanishing_correction_identity", bad)


def check_cancellation(n: int) -> CheckResult:
    """Every two-parameter label drops out of the kappa sum.

    Every label of a Case II/V family populates the family's bidegrees
    ``spaces``, and all its blocks share its eigenvalue and dimension, so
    the label's contribution is that common term times the sum of the
    degree weights over ``spaces``.  That sum must vanish as an exact
    integer for each family (w_k + 2 w_{k+1} + w_{k+2} for Case II,
    w_{n-1} + 2 w_n for Case V): one sum per family covers all its labels,
    and the residual counts the families whose sum does not vanish.
    """
    ws = torsion.degree_weights(n)
    bad = sum(1 for fam in spectrum.all_families(n)
              if fam.case in (Case.II, Case.V)
              and sum(ws[bs + bt] for bs, bt in fam.spaces) != 0)
    return _exact("case_ii_v_cancellation", bad)


def check_kernel_uniqueness(n: int, kernel: list[tuple]) -> CheckResult:
    # The multiplicity of 0 in each degree k <= n: 1 at k = 0, none above;
    # degree 2n+1-k mirrors k, so it is not compared again.  ``kernel``
    # holds the pair (dimension, the family's bidegrees) of every row of
    # ``BlockFamily.rows`` with key 0, and of no other row.
    zero = [0] * (n + 1)
    for dim, spaces in kernel:
        for s, t in spaces:
            zero[s + t] += dim
    bad = int(zero[0] != 1) + sum(1 for mult in zero[1:] if mult != 0)
    return _exact("zero_eigenvalue_only_in_top_and_bottom", bad)


def check_zeta_constants(precision: Optional[int] = None) -> CheckResult:
    prec = limits._check_precision(precision)
    z0, dz0 = zeta.hurwitz_zeta_and_deriv(0, 1, prec)
    values = (z0, dz0, zeta.riemann_zeta(2, prec), zeta.riemann_zeta(4, prec))
    with mpmath.workprec(prec + 32):
        refs = (mpf(-0.5), -mpmath.log(2 * mpmath.pi) / 2,
                mpmath.pi**2 / 6, mpmath.pi**4 / 90)
        # Each reference is within 8 roundings at this precision, counting
        # pi's rounding amplified by the power.
        parts = [CheckResult("", abs(z.value - ref),
                             z.error_bound + 8 * abs(ref) * mpf(2) ** -(prec + 32))
                 for z, ref in zip(values, refs)]
    return _worst("zeta_special_values", parts)


# The (s, a) points of the shift check: s in [-4, 6], away from the pole at
# s = 1, and a in 1..8.
_SHIFT_POINTS = (
    (2.316603086593645, 8), (-0.7018816756245272, 1), (-2.5210552287310772, 3),
    (5.166234298038262, 8), (5.743094529887236, 7), (3.676596458220951, 4),
    (5.12433830831476, 5), (-3.4770607843699595, 4), (1.766911276572423, 8),
    (-0.9179481783504859, 4),
)


def check_hurwitz_shift(precision: Optional[int] = None) -> CheckResult:
    prec = limits._check_precision(precision)
    parts = []
    for s, a in _SHIFT_POINTS:
        left = zeta.hurwitz_zeta(s, a, prec)
        right = zeta.hurwitz_zeta(s, a + 1, prec)
        with mpmath.workprec(prec + 32):
            power = mpf(a) ** -mpf(s)
            shift = power + right.value
            res = abs(left.value - shift)
            # The power within 2 roundings, the sum and the difference 1 each.
            bound = left.error_bound + right.error_bound + (
                2 * abs(power) + abs(shift) + res) * mpf(2) ** -(prec + 32)
        parts.append(CheckResult("", res, bound))
    return _worst("hurwitz_shift_identity", parts)


def torsion_checks(
    n: int, precision: Optional[int] = None, include_kernel: bool = True
) -> tuple[TorsionReport, list[CheckResult]]:
    """The torsion report and its claims: kappa(0) matches the convention,
    T = (4 pi)^{n+1}, T / T_RS = n!, and each route of ``route_residuals``
    agrees with the closed form, named by its key.  An error e in kappa'(0)
    moves T = exp(kappa'(0)/2) by the relative amount e/2, and (4 pi)^{n+1}
    amplifies the rounding of pi by n+1; exp and pow add two units each,
    every division and int conversion one, and second-order terms one."""
    report, kappa0, kappa_prime0, routes = torsion.torsion_estimates(
        n, precision, include_kernel)
    expected = 0.0 if include_kernel else float(n + 1)
    from_exp = (kappa_prime0.bound + kappa_prime0.rounding) / 2
    return report, [
        CheckResult("kappa_at_0_matches_convention",
                    abs(report.kappa_at_0 - expected),
                    kappa0.bound + kappa0.rounding + ulp(report.kappa_at_0) / 2),
        CheckResult("torsion_is_4pi_power", abs(report.T / (4 * pi) ** (n + 1) - 1),
                    from_exp + rounding_gamma(n + 7)),
        CheckResult("ray_singer_ratio_is_n_factorial",
                    abs(report.ratio / factorial(n) - 1),
                    from_exp + rounding_gamma(n + 11)),
        *(route_check(name, *pair) for name, pair in routes.items()),
    ]


def route_check(name: str, a: KappaEstimate, b: KappaEstimate) -> CheckResult:
    """Two routes to one kappa agree: |a - b| <= err(a) + err(b), where err
    is a route's bound plus the rounding of its double."""
    return CheckResult(name, abs(a.value - b.value),
                       a.bound + a.rounding + b.bound + b.rounding)


def check_torsion_values(n: int, precision: Optional[int] = None) -> CheckResult:
    return _worst("torsion_closed_values", torsion_checks(n, precision)[1])


def check_reduced_continuation(n: int, precision: Optional[int] = None) -> CheckResult:
    return _worst("reduced_continuation_vs_closed", [
        route_check("", *torsion.kappa_continued(n, s, precision))
        for s in (-2.0, -0.5, 0.0, 0.3, 2.0, 4.0)
    ])


def run_all(n: int, bound: int = 20, precision: Optional[int] = None) -> list[CheckResult]:
    """Every verification suite at the given label-parameter bound.  The
    torsion check runs first, so an n whose torsion leaves the double range,
    or a precision the zeta engine cannot reach, is refused before any label
    check runs.  The label checks then run family by family on the rows of
    ``BlockFamily.rows``, one call per family (see the module docstring);
    the kernel check, which needs every family, reads the (dimension,
    bidegrees) pairs of the generator's rows of key 0 kept from that walk.
    Each row is (q, p, weight, (key, L), dimension), its weight from
    ``BlockFamily.weight``; no label and no ``Fraction`` is built for it."""
    torsion_values = check_torsion_values(n, precision)
    cs = c_coefficients(n)
    den = spectrum.eigenvalue_denominator(n)
    memo: dict = {}
    per_family = []
    kernel = []
    for family in spectrum.all_families(n):
        generated = list(family.rows(bound))
        rows = [(q, p, family.weight(q, p), (key, den), dim)
                for q, p, key, dim in generated]
        per_family.append([
            check_weyl_vs_gt(rows, memo),
            *(check(family, rows) for check in (
                check_special_dimension, check_dimension_polynomial,
                check_eigenvalue_reductions, check_norm_route, check_case_v_mixed,
                check_norm_ratios, check_weight_determined))])
        kernel += [(dim, family.spaces) for _, _, key, dim in generated if not key]
    return [
        *map(_total, zip(*per_family)),
        check_c_coefficients(n, cs), check_sigma(n, cs),
        *(check(n) for check in (check_vanishing_correction, check_cancellation)),
        check_kernel_uniqueness(n, kernel),
        check_zeta_constants(precision),
        check_hurwitz_shift(precision),
        torsion_values, check_reduced_continuation(n, precision),
    ]
