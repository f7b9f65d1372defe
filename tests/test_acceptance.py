"""Acceptance criteria.

One test per criterion, each asserting its stated tolerance and runtime
budget and printing a PASS line (run with ``pytest -s`` to see them live).
"""

import contextlib
import io
import json
import random
import time
from fractions import Fraction
from math import exp, factorial, log, pi

import mpmath

from oracles import weyl_dimension
from rumin_sphere import cli
from rumin_sphere import (
    Case,
    HighestWeight,
    c_coefficients,
    degree_weights,
    gt_pattern_count,
    hurwitz_zeta,
    hurwitz_zeta_and_deriv,
    kappa_closed,
    kappa_direct,
    riemann_zeta,
    sigma,
    special_dimension,
    torsion_estimates,
)
from rumin_sphere.spectrum import (all_families, case_v_mixed_pair, eigenvalue_numerator,
                                   norm_route_pair)
from rumin_sphere.torsion import rounding_gamma
from rumin_sphere import verify
from rumin_sphere.verify import route_check, run_all


class Timer:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.2f}s exceeded the {self.limit}s budget"
            )


def report(num, name, timer):
    print(f"criterion {num:2d} ({name}): PASS [{timer.elapsed:.2f}s]")


def exp_of_half(est):
    """exp(kappa'(0)/2) from the estimate, and its relative error bound:
    half the estimate's error, 2 units for exp and one for second-order
    terms."""
    return exp(est.value / 2), (est.bound + est.rounding) / 2 + rounding_gamma(3)


def test_criterion_01_kappa_vanishes_at_origin():
    with Timer(1.0) as t:
        for n in range(1, 7):
            est = kappa_closed(n, 0)
            assert abs(est.value) <= est.bound + est.rounding
    report(1, "kappa(0) = 0 for n = 1..6", t)


def test_criterion_02_torsion_is_power_of_4pi():
    with Timer(1.0) as t:
        for n in range(1, 7):
            torsion, rel = exp_of_half(torsion_estimates(n)[2])
            with mpmath.workprec(160):
                assert abs(torsion / (4 * mpmath.pi) ** (n + 1) - 1) <= rel
    report(2, "T = (4 pi)^(n+1) for n = 1..6", t)


def test_criterion_03_ray_singer_ratio():
    with Timer(1.0) as t:
        for n in range(1, 7):
            torsion, rel = exp_of_half(torsion_estimates(n)[2])
            t_dr = (4 * pi) ** (n + 1) / factorial(n)
            # t_dr in doubles: pi's rounding amplified n+1 times, the pow
            # (2), n! and the division (1 each); then the ratio (1) and one
            # for second-order terms.
            rel += rounding_gamma(n + 7)
            with mpmath.workprec(160):
                assert abs(mpmath.mpf(torsion / t_dr) - factorial(n)) <= rel * factorial(n)
    report(3, "T / T_dR = n! for n = 1..6", t)


def test_criterion_04_direct_sum_matches_closed_form():
    with Timer(60.0) as t:
        for n, s in [(1, 2.0), (1, 3.0), (2, 3.0)]:
            closed = kappa_closed(n, s)
            residuals = []
            for N in (50, 100, 200, 400):
                est = kappa_direct(n, s, N)
                residuals.append(abs(est.value - closed.value))
            check = route_check("", kappa_direct(n, s, 400), closed)
            assert check.passed, (n, s, check)
            assert all(a > b for a, b in zip(residuals, residuals[1:])), (
                n, s, residuals,
            )
    report(4, "direct sum vs closed form, monotone in N", t)


def test_criterion_05_case_ii_v_cancellation():
    with Timer(10.0) as t:
        for n in range(1, 5):
            assert verify.check_cancellation(n).passed
            # The same identity, spelled out on the degree weights.
            ws = degree_weights(n)
            for fam in all_families(n):
                if fam.case not in (Case.II, Case.V):
                    continue
                assert len(list(fam.rows(20))) == 400
                assert sum(ws[s + t] for s, t in fam.spaces) == 0
    report(5, "Case II/V cancellation, p,q <= 20, n <= 4", t)


def test_criterion_06_coefficient_identities():
    with Timer(5.0) as t:
        for n in range(1, 9):
            cs = c_coefficients(n)
            assert cs[0] == factorial(n + 1)
            assert all(c == 0 for c in cs[1:])
            for k in range(11):
                assert sigma(n, k) == factorial(n + 1) * k
        for n in range(1, 7):
            assert verify.check_vanishing_correction(n).passed
    report(6, "c_l, sigma, vanishing-correction identities", t)


def test_criterion_07_eigenvalue_route_equivalence():
    with Timer(30.0) as t:
        for n in range(1, 5):
            for fam in all_families(n):
                if fam.case not in (Case.II, Case.V):
                    continue
                d = fam.n - fam.i - fam.j
                for q, p, _, _ in fam.rows(50):
                    a = eigenvalue_numerator(n, q, fam.j, fam.i, p)
                    mu = Fraction(a * a, 4 * d * d)
                    assert Fraction(*norm_route_pair(fam, q, p)) == mu
                    if fam.case is Case.V:
                        assert Fraction(*case_v_mixed_pair(fam, q, p)) == mu
    report(7, "norm and mixed routes == formula, p,q <= 50, n <= 4", t)


def test_criterion_08_dimension_oracle():
    with Timer(60.0) as t:
        for n in range(1, 4):
            for fam in all_families(n):
                for q, p, _, dim in fam.rows(4):
                    w = fam.weight(q, p)
                    assert weyl_dimension(w) == gt_pattern_count(w) == dim
        for n in range(1, 5):
            for i in range(n + 1):
                for p in range(1, 31):
                    expanded = HighestWeight((0,) * (n - i) + (-1,) * i + (-p,))
                    assert special_dimension(n, i, p) == weyl_dimension(expanded)
    report(8, "Weyl dimension vs GT oracle and closed form", t)


def test_criterion_09_special_functions():
    with Timer(5.0) as t:
        z0 = riemann_zeta(0, 128)
        assert abs(float(z0.value) + 0.5) < 1e-12
        assert abs(float(z0.value) + 0.5) <= float(z0.error_bound) + 1e-15
        zd0 = hurwitz_zeta_and_deriv(0, 1, 128)[1]
        assert abs(float(zd0.value) + log(2 * pi) / 2) < 1e-12
        z2 = riemann_zeta(2, 128)
        assert abs(float(z2.value) - pi**2 / 6) < 1e-12
        z4 = riemann_zeta(4, 128)
        assert abs(float(z4.value) - pi**4 / 90) < 1e-12
        import mpmath

        rng = random.Random(90210)
        for _ in range(10):
            s = rng.uniform(-4.0, 6.0)
            if abs(s - 1.0) < 0.05:
                s += 0.2
            a = rng.randint(1, 8)
            left = hurwitz_zeta(s, a, 128)
            right = hurwitz_zeta(s, a + 1, 128)
            with mpmath.workprec(256):
                # The power within 2 roundings, the sum and the difference 1 each.
                power = mpmath.mpf(a) ** -mpmath.mpf(s)
                shift = power + right.value
                residual = abs(left.value - shift)
                rounding = (2 * abs(power) + abs(shift) + residual) * mpmath.mpf(2) ** -256
                assert residual <= left.error_bound + right.error_bound + rounding
                for z, b in ((left, a), (right, a + 1)):
                    assert abs(z.value - mpmath.zeta(mpmath.mpf(s), b)) <= z.error_bound
            assert residual < 1e-12
    report(9, "zeta special values and shift identity at 128 bits", t)


def _spectrum(n, k, N, form):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["spectrum", "--n", str(n), "--degree", str(k),
                         "--max", str(N), "--format", form])
    assert code == 0
    return out.getvalue()


def test_criterion_10_mirror_and_kernel_structure():
    # Through the CLI: degree k and its mirror 2n+1-k give the same record,
    # byte for byte, as JSON (whose /parameters/degree holds the lower of
    # the two) and as CSV, and eigenvalue 0 appears only at k = 0 and
    # k = 2n+1, with multiplicity 1.
    with Timer(10.0) as t:
        for n in range(1, 4):
            for N in (1, 5, 20):
                for k in range(2 * n + 2):
                    mirror = 2 * n + 1 - k
                    text = _spectrum(n, k, N, "json")
                    assert text == _spectrum(n, mirror, N, "json"), (n, k, N)
                    record = json.loads(text)
                    assert record["parameters"]["degree"] == min(k, mirror)
                    csv = _spectrum(n, k, N, "csv")
                    assert csv == _spectrum(n, mirror, N, "csv"), (n, k, N)
                    zero = 1 if k in (0, 2 * n + 1) else 0
                    rows = record["payload"]["rows"]
                    assert [r["multiplicity"] for r in rows
                            if r["eigenvalue"] == "0/1"] == [1] * zero
                    assert [line for line in csv.splitlines()
                            if line.startswith("0,")] == ["0,1,0.0,1"] * zero
    report(10, "mirror rule and kernel uniqueness through the CLI, n <= 3, N <= 20", t)


def test_criterion_11_verify_every_label_up_to_the_bound():
    with Timer(5.0) as t:
        results = run_all(6, 10)
    assert len(results) == 17
    assert [r.name for r in results if not r.passed] == []
    report(11, "every verify check at n = 6, labels up to 10", t)


def test_criterion_12_spectrum_at_max_100():
    import contextlib
    import hashlib
    import io

    from rumin_sphere import cli

    out = io.StringIO()
    with Timer(1.5) as t, contextlib.redirect_stdout(out):
        code = cli.main(["spectrum", "--n", "3", "--degree", "2", "--max", "100"])
    assert code == 0
    text = out.getvalue().encode()
    assert len(text) == 18006210
    assert hashlib.sha256(text).hexdigest() == (
        "29a46da4e7c08c7a466e3cb3faeab2cdf5866fa8d9519a4083638fd86e1ad25b")
    report(12, "spectrum --n 3 --degree 2 --max 100, 18 MB of JSON", t)
