"""Acceptance criteria.

One test per criterion, each asserting its stated tolerance and runtime
budget and printing a PASS line (run with ``pytest -s`` to see them live).
"""

import random
import time
from fractions import Fraction
from math import factorial, log, pi

from rumin_sphere import (
    Case,
    cancellation_check,
    c_coefficients,
    case_v_mixed_eigenvalue,
    degree_weights,
    eigenvalue_formula,
    gt_pattern_count,
    hurwitz_zeta,
    kappa_closed,
    kappa_closed_deriv,
    kappa_direct,
    label_to_weight,
    norm_route_eigenvalue,
    riemann_zeta,
    riemann_zeta_deriv,
    sigma,
    special_dimension,
    spectrum_slice,
    vanishing_correction_check,
    weyl_dimension,
)
from rumin_sphere.spectrum import all_families, block_bidegrees
from rumin_sphere.verify import run_all


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


def test_criterion_01_kappa_vanishes_at_origin():
    with Timer(1.0) as t:
        for n in range(1, 7):
            assert abs(kappa_closed(n, 0)) < 1e-12
    report(1, "kappa(0) = 0 for n = 1..6", t)


def test_criterion_02_torsion_is_power_of_4pi():
    from math import exp

    with Timer(1.0) as t:
        for n in range(1, 7):
            torsion = exp(kappa_closed_deriv(n, 0) / 2)
            assert abs(torsion / (4 * pi) ** (n + 1) - 1) < 1e-10
    report(2, "T = (4 pi)^(n+1) for n = 1..6", t)


def test_criterion_03_ray_singer_ratio():
    from math import exp

    with Timer(1.0) as t:
        for n in range(1, 7):
            torsion = exp(kappa_closed_deriv(n, 0) / 2)
            t_dr = (4 * pi) ** (n + 1) / factorial(n)
            assert abs(torsion / t_dr - factorial(n)) < 1e-10
            assert abs(torsion / t_dr / factorial(n) - 1) < 1e-10
    report(3, "T / T_dR = n! for n = 1..6", t)


def test_criterion_04_direct_sum_matches_closed_form():
    with Timer(60.0) as t:
        for n, s in [(1, 2.0), (1, 3.0), (2, 3.0)]:
            closed = kappa_closed(n, s)
            residuals = []
            for N in (50, 100, 200, 400):
                est = kappa_direct(n, s, N)
                residuals.append(abs(est.value - closed))
            est400 = kappa_direct(n, s, 400)
            assert abs(est400.value - closed) < est400.bound + 1e-8
            assert all(a > b for a, b in zip(residuals, residuals[1:])), (
                n, s, residuals,
            )
    report(4, "direct sum vs closed form, monotone in N", t)


def test_criterion_05_case_ii_v_cancellation():
    with Timer(10.0) as t:
        for n in range(1, 5):
            assert cancellation_check(n)
            # The same identity, spelled out on the degree weights.
            ws = {dw.k: dw.w for dw in degree_weights(n)}
            for fam in all_families(n):
                if fam.case not in (Case.II, Case.V):
                    continue
                for label in fam.labels(20, 20):
                    assert sum(ws[s + t] for s, t in block_bidegrees(label)) == 0
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
            for i in range(n + 1):
                assert vanishing_correction_check(n, i)
    report(6, "c_l, sigma, vanishing-correction identities", t)


def test_criterion_07_eigenvalue_route_equivalence():
    with Timer(30.0) as t:
        for n in range(1, 5):
            for fam in all_families(n):
                if fam.case not in (Case.II, Case.V):
                    continue
                for label in fam.labels(50, 50):
                    mu = eigenvalue_formula(label)
                    assert norm_route_eigenvalue(label) == mu
                    if label.case is Case.V:
                        assert case_v_mixed_eigenvalue(label) == mu
    report(7, "norm and mixed routes == formula, p,q <= 50, n <= 4", t)


def test_criterion_08_dimension_oracle():
    with Timer(60.0) as t:
        for n in range(1, 4):
            for fam in all_families(n):
                for label in fam.labels(4, 4):
                    w = label_to_weight(label)
                    assert weyl_dimension(w) == gt_pattern_count(w)
        for n in range(1, 5):
            for i in range(n + 1):
                for p in range(1, 31):
                    expanded = (0,) * (n - i) + (-1,) * i + (-p,)
                    assert special_dimension(n, i, p) == weyl_dimension(expanded)
    report(8, "Weyl dimension vs GT oracle and closed form", t)


def test_criterion_09_special_functions():
    with Timer(5.0) as t:
        z0 = riemann_zeta(0, 128)
        assert abs(float(z0.value) + 0.5) < 1e-12
        assert abs(float(z0.value) + 0.5) <= float(z0.error_bound) + 1e-15
        zd0 = riemann_zeta_deriv(0, 128)
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
            a = rng.uniform(0.1, 8.0)
            left = hurwitz_zeta(s, a, 128)
            right = hurwitz_zeta(s, Fraction(a) + 1, 128)
            with mpmath.workprec(256):
                shift = mpmath.mpf(a) ** -mpmath.mpf(s) + right.value
                residual = abs(float(left.value - shift))
            assert residual <= float(left.error_bound + right.error_bound) + 1e-15
            assert residual < 1e-12
    report(9, "zeta special values and shift identity at 128 bits", t)


def test_criterion_10_mirror_and_kernel_structure():
    with Timer(10.0) as t:
        for n in range(1, 4):
            for N in (1, 5, 20):
                for k in range(2 * n + 2):
                    mirror = spectrum_slice(n, 2 * n + 1 - k, N)
                    sl = spectrum_slice(n, k, N)
                    assert sl == mirror
                    zero_mult = sl.multiplicity_of(Fraction(0))
                    assert zero_mult == (1 if k in (0, 2 * n + 1) else 0)
    report(10, "mirror rule and kernel uniqueness, n <= 3, N <= 20", t)


def test_criterion_11_verify_every_label_up_to_the_bound():
    with Timer(5.0) as t:
        results = run_all(6, 10)
    assert len(results) == 19
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
