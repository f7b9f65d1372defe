"""Verification suites: one check type, and one function per claim.

A check is (name, residual, bound) and passes iff residual <= bound (a NaN
residual fails).  Exact checks count violations against bound 0.  Numeric
bounds come from the routes' error terms, with no added slack: two routes
to one kappa agree when |a - b| <= err(a) + err(b), err being a route's
bound plus the rounding of its double (``route_check``); the torsion claims
count the rounding of kappa(0), kappa'(0) and pi (``torsion_checks``); the
zeta identities compare in mpmath.  A check at several points reports its
largest residual against the bound that gives the largest residual/bound
ratio, so it passes iff every point does.  ``verify``, ``kappa`` and
``torsion`` build their checks here, and exit 1 if one fails.

Every check that loops over labels runs their free parameters over
1..bound, the ``--max`` of the record; no check lowers it.  There is no
mirror check: the package defines degrees above the middle by the mirror
rule (``spectrum_slice`` folds k to min(k, 2n+1-k)), so a comparison of
degree k with degree 2n+1-k would compare one computation with itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, inf, pi, ulp
from typing import Iterator, Optional

import mpmath
from mpmath import mpf

from . import spectrum, torsion, zeta
from .torsion import KappaEstimate, TorsionReport, rounding_gamma
from .weights import (
    Case,
    HighestWeight,
    RuminLabel,
    gt_pattern_count,
    label_to_weight,
    special_dimension,
    weyl_dimension,
)


@dataclass(frozen=True)
class CheckResult:
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


def _labels(n: int, bound: int, *cases: Case) -> Iterator[RuminLabel]:
    """Labels of the families of ``cases`` (of every family if none are
    given), free parameters running 1..bound."""
    for fam in spectrum.all_families(n):
        if not cases or fam.case in cases:
            yield from fam.labels(bound, bound)


# Work units one label may take in ``gt_pattern_count`` (one per memo entry
# made and per child row summed).  With the memo shared across the check, the
# costliest label took 304, 466, 628 and 790 units at n = 6, 8, 10 and 12
# with bound 20, and 422 at n = 4 with bound 60, so the budget only stops a
# runaway count.
GT_BUDGET = 10**6


def check_weyl_vs_gt(n: int, bound: int) -> CheckResult:
    memo: dict = {}
    bad = 0
    for label in _labels(n, bound):
        w = label_to_weight(label)
        if weyl_dimension(w) != gt_pattern_count(w, budget=GT_BUDGET, memo=memo):
            bad += 1
    return _exact("weyl_dimension_vs_gt_patterns", bad)


def check_special_dimension(n: int, bound: int) -> CheckResult:
    bad = 0
    for i in range(n + 1):
        for p in range(1, bound + 1):
            w = HighestWeight((0,) * (n - i) + (-1,) * i + (-p,))
            if special_dimension(n, i, p) != weyl_dimension(w):
                bad += 1
    return _exact("special_dimension_vs_weyl", bad)


def check_dimension_polynomial(n: int, bound: int) -> CheckResult:
    bad = 0
    for i in range(n + 1):
        poly = zeta.DimensionPolynomial.build(n, i)
        for p in range(1, bound + 1):
            if poly.evaluate(p) != special_dimension(n, i, p):
                bad += 1
    return _exact("dimension_polynomial_vs_special", bad)


def check_eigenvalue_reductions(n: int, bound: int) -> CheckResult:
    bad = 0
    for label in _labels(n, bound, Case.I, Case.III, Case.IV, Case.VI, Case.VII):
        mu = spectrum.eigenvalue_formula(label)
        q, j, i, p = label.q, label.j, label.i, label.p
        if label.case is Case.III and mu != Fraction((p + i) ** 2, 4):
            bad += 1
        elif label.case is Case.IV and mu != Fraction((q + j) ** 2, 4):
            bad += 1
        elif label.case is Case.VI and mu != Fraction((p + n) ** 2, 4):
            bad += 1
        elif label.case is Case.VII and mu != Fraction((q + n) ** 2, 4):
            bad += 1
        elif label.case is Case.I and mu != 0:
            bad += 1
    return _exact("universal_eigenvalue_reductions", bad)


def check_norm_route(n: int, bound: int) -> CheckResult:
    bad = 0
    for label in _labels(n, bound, Case.II, Case.V):
        if spectrum.norm_route_eigenvalue(label) != spectrum.eigenvalue_formula(label):
            bad += 1
    return _exact("norm_route_eigenvalue_equivalence", bad)


def check_case_v_mixed(n: int, bound: int) -> CheckResult:
    bad = 0
    for label in _labels(n, bound, Case.V):
        mu = spectrum.eigenvalue_formula(label)
        if spectrum.case_v_mixed_eigenvalue(label) != mu:
            bad += 1
        if spectrum.case_v_identity_value(label) != mu:
            bad += 1
    return _exact("case_v_mixed_route_equivalence", bad)


def check_norm_ratios(n: int, bound: int) -> CheckResult:
    # A^2 from the operator-norm table must equal the L^2-norm ratio route
    # (p+i)^2/(n-i-j) * |psi^{(i+1,j)}|^2 / |psi^{(i,j)}|^2 wherever the
    # tabulated norms apply (j > 0); same for B^2 with i > 0.
    bad = 0
    for label in _labels(n, bound, Case.II, Case.V):
        i, j, p, q = label.i, label.j, label.p, label.q
        d = label.n - i - j
        a2, b2 = spectrum.operator_norm_squares(label)
        base = spectrum.squared_norm(label, i, j)
        if j > 0:
            up = spectrum.squared_norm(label, i + 1, j)
            if a2 != Fraction((p + i) ** 2, d) * up / base:
                bad += 1
        if i > 0:
            up = spectrum.squared_norm(label, i, j + 1)
            if b2 != Fraction((q + j) ** 2, d) * up / base:
                bad += 1
        if i > 0 and j > 0 and i + j <= label.n - 2:
            corner = spectrum.squared_norm(label, i + 1, j + 1)
            side = spectrum.squared_norm(label, i, j + 1)
            if a2 != Fraction((p + i) ** 2, d - 1) * corner / side:
                bad += 1
    return _exact("operator_norms_vs_l2_ratios", bad)


def _eigenvalue_from_weight(entries: tuple[int, ...]) -> Fraction:
    # The eigenvalue read off the highest weight lam of length m = n+1 alone:
    # (C2 - (lam_1 + lam_m) |lam|)^2 / (4 d^2), with the Casimir value
    # C2 = sum_a lam_a (lam_a + n + 2 - 2a), |lam| = sum_a lam_a and d one more
    # than the number of zeros among lam_2..lam_n (d = n - i - j).
    n = len(entries) - 1
    c2 = sum(a * (a + n + 2 - 2 * k) for k, a in enumerate(entries, 1))
    num = c2 - (entries[0] + entries[-1]) * sum(entries)
    d = 1 + entries[1:-1].count(0)
    return Fraction(num * num, 4 * d * d)


def check_weight_determined(n: int, bound: int) -> CheckResult:
    bad = 0
    for label in _labels(n, bound):
        w = label_to_weight(label).entries
        if _eigenvalue_from_weight(w) != spectrum.eigenvalue_formula(label):
            bad += 1
    return _exact("eigenvalue_determined_by_weight", bad)


def check_block_multiplicity_one(n: int, bound: int) -> CheckResult:
    bad = 0
    for s in range(n + 1):
        for t in range(n + 1 - s):
            labels = []
            for fam in spectrum.decompose(n, s, t):
                labels.extend(fam.labels(bound, bound))
            if len(labels) != len(set(labels)):
                bad += 1
    return _exact("block_multiplicity_one", bad)


def check_c_coefficients(n: int) -> CheckResult:
    cs = zeta.c_coefficients(n)
    bad = int(cs[0] != factorial(n + 1))
    bad += sum(1 for c in cs[1:] if c != 0)
    return _exact("c_coefficients_identity", bad)


def check_sigma(n: int) -> CheckResult:
    bad = sum(1 for k in range(11) if zeta.sigma(n, k) != factorial(n + 1) * k)
    return _exact("sigma_linearity", bad)


def check_vanishing_correction(n: int) -> CheckResult:
    bad = sum(1 for i in range(n + 1) if not zeta.vanishing_correction_check(n, i))
    return _exact("vanishing_correction_identity", bad)


def check_cancellation(n: int) -> CheckResult:
    ok = torsion.cancellation_check(n)
    return _exact("case_ii_v_cancellation", 0 if ok else 1)


def check_kernel_uniqueness(n: int, bound: int) -> CheckResult:
    # Degree k and 2n+1-k share one canonical slice, so each of the n+1
    # slices is built once.
    zero = [spectrum.spectrum_slice(n, k, bound).multiplicity_of(Fraction(0))
            for k in range(n + 1)]
    bad = 0
    for k in range(2 * n + 2):
        expected = 1 if k in (0, 2 * n + 1) else 0
        if zero[min(k, 2 * n + 1 - k)] != expected:
            bad += 1
    return _exact("zero_eigenvalue_only_in_top_and_bottom", bad)


def check_zeta_constants(precision: Optional[int] = None) -> CheckResult:
    prec = zeta._check_precision(precision)
    z0, dz0 = zeta.hurwitz_zeta_and_deriv(0, 1, prec)
    values = (z0, dz0, zeta.riemann_zeta(2, prec), zeta.riemann_zeta(4, prec))
    with mpmath.workprec(prec + 32):
        refs = (mpf(-0.5), -mpmath.log(2 * mpmath.pi) / 2,
                mpmath.pi**2 / 6, mpmath.pi**4 / 90)
        # Each reference is within 8 roundings at this precision, counting
        # pi's rounding amplified by the power.
        parts = [CheckResult("", float(abs(z.value - ref)), torsion._float_up(
                     z.error_bound + 8 * abs(ref) * mpf(2) ** -(prec + 32)))
                 for z, ref in zip(values, refs)]
    return _worst("zeta_special_values", parts)


def check_hurwitz_shift(precision: Optional[int] = None) -> CheckResult:
    prec = zeta._check_precision(precision)
    rng = random.Random(20240)
    parts = []
    for _ in range(10):
        s = rng.uniform(-4.0, 6.0)
        if abs(s - 1.0) < 0.05:
            s += 0.2
        a = rng.uniform(0.1, 8.0)
        left = zeta.hurwitz_zeta(s, a, prec)
        right = zeta.hurwitz_zeta(s, Fraction(a) + 1, prec)
        with mpmath.workprec(prec + 32):
            power = mpf(a) ** -mpf(s)
            shift = power + right.value
            res = abs(left.value - shift)
            # The power within 2 roundings, the sum and the difference 1 each.
            bound = left.error_bound + right.error_bound + (
                2 * abs(power) + abs(shift) + res) * mpf(2) ** -(prec + 32)
        parts.append(CheckResult("", float(res), torsion._float_up(bound)))
    return _worst("hurwitz_shift_identity", parts)


def torsion_checks(
    n: int, precision: Optional[int] = None, include_kernel: bool = True
) -> tuple[TorsionReport, list[CheckResult]]:
    """The torsion report and its claims: kappa(0) matches the convention,
    T = (4 pi)^{n+1} and T / T_RS = n!.  An error e in kappa'(0) moves
    T = exp(kappa'(0)/2) by the relative amount e/2, and (4 pi)^{n+1}
    amplifies the rounding of pi by n+1; exp and pow add two units each,
    every division and int conversion one, and second-order terms one."""
    report, kappa0, kappa_prime0 = torsion.torsion_estimates(
        n, precision=precision, include_kernel=include_kernel)
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
        route_check("", *torsion._continued_and_closed(n, s, precision))
        for s in (-2.0, -0.5, 0.0, 0.3, 2.0, 4.0)
    ])


def check_direct_route(n: int, precision: Optional[int] = None) -> CheckResult:
    s = (n + 3) / 2
    return route_check("direct_route_within_tail_bound",
                       torsion.kappa_direct(n, s, 100),
                       torsion.kappa_closed_estimate(n, s, precision))


def run_all(n: int, bound: int = 20, precision: Optional[int] = None) -> list[CheckResult]:
    """Every verification suite at the given label-parameter bound."""
    return [
        *(check(n, bound) for check in (
            check_weyl_vs_gt, check_special_dimension, check_dimension_polynomial,
            check_eigenvalue_reductions, check_norm_route, check_case_v_mixed,
            check_norm_ratios, check_weight_determined, check_block_multiplicity_one)),
        *(check(n) for check in (
            check_c_coefficients, check_sigma, check_vanishing_correction,
            check_cancellation)),
        check_kernel_uniqueness(n, bound),
        check_zeta_constants(precision),
        check_hurwitz_shift(precision),
        *(check(n, precision) for check in (
            check_torsion_values, check_reduced_continuation, check_direct_route)),
    ]
