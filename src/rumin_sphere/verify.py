"""Exact-identity verification suites.

Each check returns (name, passed, residual).  Exact integer/rational checks
report the number of violations as the residual; floating-point checks
report the worst absolute residual seen.  The CLI ``verify`` subcommand runs
all of them and fails (exit 1) if any check fails.

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
from math import factorial, log, pi
from typing import Callable, Iterator, Optional

from . import spectrum, torsion, zeta
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
    passed: bool
    residual: float


def _exact(name: str, violations: int) -> CheckResult:
    return CheckResult(name=name, passed=violations == 0, residual=float(violations))


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
    worst = 0.0
    ok = True
    cases = [
        (zeta.riemann_zeta(0, precision), -0.5),
        (zeta.riemann_zeta_deriv(0, precision), -log(2 * pi) / 2),
        (zeta.riemann_zeta(2, precision), pi**2 / 6),
        (zeta.riemann_zeta(4, precision), pi**4 / 90),
    ]
    for zv, expected in cases:
        res = abs(float(zv.value) - expected)
        worst = max(worst, res)
        if res > max(1e-12, float(zv.error_bound) + 1e-15):
            ok = False
    return CheckResult("zeta_special_values", ok, worst)


def check_hurwitz_shift(precision: Optional[int] = None) -> CheckResult:
    import mpmath

    rng = random.Random(20240)
    worst = 0.0
    ok = True
    for _ in range(10):
        s = rng.uniform(-4.0, 6.0)
        if abs(s - 1.0) < 0.05:
            s += 0.2
        a = rng.uniform(0.1, 8.0)
        left = zeta.hurwitz_zeta(s, a, precision)
        right = zeta.hurwitz_zeta(s, Fraction(a) + 1, precision)
        with mpmath.workprec(256):
            shift = mpmath.mpf(a) ** -mpmath.mpf(s) + right.value
            res = abs(float(left.value - shift))
        worst = max(worst, res)
        allowed = float(left.error_bound + right.error_bound) + 1e-12
        if res > allowed:
            ok = False
    return CheckResult("hurwitz_shift_identity", ok, worst)


def check_torsion_values(n: int, precision: Optional[int] = None) -> CheckResult:
    report = torsion.torsion_report(n, precision=precision)
    res = max(
        abs(report.kappa_at_0),
        abs(report.T / (4 * pi) ** (n + 1) - 1),
        abs(report.ratio / factorial(n) - 1),
    )
    return CheckResult("torsion_closed_values", res < 1e-10, res)


def check_reduced_continuation(n: int, precision: Optional[int] = None) -> CheckResult:
    worst = 0.0
    for s in (-2.0, -0.5, 0.0, 0.3, 2.0, 4.0):
        red = torsion.kappa_reduced(n, s, precision=precision).value
        clo = torsion.kappa_closed(n, s, precision)
        worst = max(worst, abs(red - clo))
    return CheckResult("reduced_continuation_vs_closed", worst < 1e-12, worst)


def check_direct_route(n: int, precision: Optional[int] = None) -> CheckResult:
    s = (n + 3) / 2
    N = 100
    est = torsion.kappa_direct(n, s, N)
    res = abs(est.value - torsion.kappa_closed(n, s, precision))
    return CheckResult(
        "direct_route_within_tail_bound", res < est.bound + 1e-8, res
    )


def run_all(n: int, bound: int = 20, precision: Optional[int] = None) -> list[CheckResult]:
    """Every verification suite at the given label-parameter bound."""
    checks: list[Callable[[], CheckResult]] = [
        lambda: check_weyl_vs_gt(n, bound),
        lambda: check_special_dimension(n, bound),
        lambda: check_dimension_polynomial(n, bound),
        lambda: check_eigenvalue_reductions(n, bound),
        lambda: check_norm_route(n, bound),
        lambda: check_case_v_mixed(n, bound),
        lambda: check_norm_ratios(n, bound),
        lambda: check_weight_determined(n, bound),
        lambda: check_block_multiplicity_one(n, bound),
        lambda: check_c_coefficients(n),
        lambda: check_sigma(n),
        lambda: check_vanishing_correction(n),
        lambda: check_cancellation(n),
        lambda: check_kernel_uniqueness(n, bound),
        lambda: check_zeta_constants(precision),
        lambda: check_hurwitz_shift(precision),
        lambda: check_torsion_values(n, precision),
        lambda: check_reduced_continuation(n, precision),
        lambda: check_direct_route(n, precision),
    ]
    return [c() for c in checks]
