"""Euler-Maclaurin zeta engine and the symmetric-polynomial identities."""

from fractions import Fraction
from math import comb, factorial, log, pi

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumin_sphere import (
    DimensionPolynomial,
    PoleError,
    PrecisionError,
    WorkBudgetError,
    bernoulli_number,
    c_coefficients,
    elementary_symmetric,
    hurwitz_zeta,
    hurwitz_zeta_and_deriv,
    hurwitz_zeta_deriv,
    riemann_zeta,
    riemann_zeta_deriv,
    sigma,
    special_dimension,
    vanishing_correction_check,
)


def mp_zeta(s, a=1, derivative=0, prec=200):
    with mpmath.workprec(prec):
        return mpmath.zeta(mpmath.mpf(s), a, derivative)


def test_bernoulli_numbers():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(12) == Fraction(-691, 2730)
    assert all(bernoulli_number(2 * r + 1) == 0 for r in range(1, 10))


def test_bernoulli_numbers_match_mpmath_up_to_600():
    for m in range(0, 601, 2):
        assert bernoulli_number(m) == Fraction(*mpmath.bernfrac(m)), m


def test_bernoulli_numbers_match_the_binomial_recurrence():
    # The textbook recurrence sum_{t<=k} C(k+1, t) B_t = 0, over every
    # index, odd ones included.
    old = [Fraction(1)]
    for k in range(1, 41):
        old.append(-sum(comb(k + 1, t) * old[t] for t in range(k)) / (k + 1))
    assert [bernoulli_number(m) for m in range(41)] == old
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(3) == bernoulli_number(39) == 0
    with pytest.raises(ValueError):
        bernoulli_number(-1)


def test_zeta_two_is_pi_squared_over_six():
    z = riemann_zeta(2)
    assert abs(float(z.value) - pi**2 / 6) <= max(1e-15, float(z.error_bound))
    assert float(z.error_bound) < 1e-30


def test_zeta_four():
    z = riemann_zeta(4)
    assert abs(float(z.value) - pi**4 / 90) <= max(1e-15, float(z.error_bound))


def test_zeta_at_zero_and_minus_one():
    assert abs(float(riemann_zeta(0).value) + 0.5) < 1e-30
    assert abs(float(riemann_zeta(-1).value) + 1.0 / 12) < 1e-30


def test_zeta_deriv_at_zero():
    zd = riemann_zeta_deriv(0)
    assert abs(float(zd.value) + log(2 * pi) / 2) < 1e-15
    assert float(zd.error_bound) < 1e-30


def test_hurwitz_at_zero_is_half_minus_a():
    for a in (0.25, 1.0, 3.5, 7.0):
        z = hurwitz_zeta(0, a)
        assert abs(float(z.value) - (0.5 - a)) <= float(z.error_bound) + 1e-30


@pytest.mark.parametrize("s", [-3.0, -1.0, 0.5, 2.0, 3.0, 6.0])
def test_hurwitz_at_one_matches_riemann(s):
    h = hurwitz_zeta(s, 1)
    r = riemann_zeta(s)
    assert abs(float(h.value) - float(r.value)) < 1e-35


@pytest.mark.parametrize(
    "s, a",
    [(2.0, 0.5), (-1.5, 2.25), (3.0, 10.0), (-4.5, 0.3), (0.5, 1.0), (7.5, 0.1)],
)
def test_error_bound_holds_against_reference(s, a):
    z = hurwitz_zeta(s, a)
    ref = mp_zeta(s, a)
    assert abs(float(z.value - ref)) <= float(z.error_bound)


@pytest.mark.parametrize("s", [-2.5, -1.0, 0.0, 0.5, 2.0, 5.0])
def test_deriv_error_bound_holds_against_reference(s):
    z = riemann_zeta_deriv(s)
    ref = mp_zeta(s, 1, derivative=1)
    assert abs(float(z.value - ref)) <= float(z.error_bound)


@settings(max_examples=40, deadline=None)
@given(
    s=st.floats(min_value=-4, max_value=6).filter(lambda x: abs(x - 1) > 0.05),
    a=st.floats(min_value=0.1, max_value=9.0),
)
def test_hurwitz_shift_identity(s, a):
    left = hurwitz_zeta(s, a)
    right = hurwitz_zeta(s, Fraction(a) + 1)
    with mpmath.workprec(200):
        # The a^{-s} term must be evaluated at working precision too;
        # a double-precision pow would dominate the residual.
        residual = abs(left.value - (mpmath.mpf(a) ** -mpmath.mpf(s) + right.value))
    assert float(residual) <= float(left.error_bound + right.error_bound) + 1e-15


def test_doubling_precision_shrinks_difference():
    for s, a in [(2.0, 1.0), (-1.5, 0.7), (3.25, 4.0)]:
        low = hurwitz_zeta(s, a, precision=64)
        high = hurwitz_zeta(s, a, precision=128)
        assert abs(float(low.value - high.value)) <= float(low.error_bound)
        assert float(high.error_bound) < float(low.error_bound)


def test_value_and_derivative_from_one_pass():
    for s, a in [(0, 1), (-1.5, 0.7), (3.25, 4.0)]:
        z, dz = hurwitz_zeta_and_deriv(s, a)
        assert abs(float(z.value - mp_zeta(s, a))) <= float(z.error_bound)
        assert abs(float(dz.value - mp_zeta(s, a, 1))) <= float(dz.error_bound)
        assert dz == hurwitz_zeta_deriv(s, a)


def test_trivial_zeros_are_exact():
    # zeta(-2000) used to fail to converge after 3.4 s.
    for s in (-2, -4.0, Fraction(-60), -2000):
        z = riemann_zeta(s)
        assert z.value == 0 and z.error_bound == 0, s
    # Only at a = 1, and the derivative still sums: zeta'(-2) = -zeta(3)/(4 pi^2).
    assert hurwitz_zeta(-2, 0.5).error_bound > 0
    dz = riemann_zeta_deriv(-2)
    assert abs(float(dz.value - mp_zeta(-2, 1, 1))) <= float(dz.error_bound)
    assert dz.value != 0


def test_guard_bits_beyond_the_working_range_are_refused():
    # s = -2e6 needs about 4e7 guard bits; the refusal comes before any work.
    with pytest.raises(WorkBudgetError, match="guard bits"):
        riemann_zeta(-2e6)
    with pytest.raises(WorkBudgetError):
        hurwitz_zeta_deriv(-2e6, 0.5)


def test_pole_and_precision_errors():
    with pytest.raises(PoleError):
        riemann_zeta(1)
    with pytest.raises(PoleError):
        hurwitz_zeta_deriv(1, 2.0)
    with pytest.raises(PrecisionError):
        riemann_zeta(2, precision=1 << 20)
    with pytest.raises(ValueError):
        hurwitz_zeta(2, -1.0)


def test_elementary_symmetric_basics():
    assert elementary_symmetric([], 0) == 1
    assert elementary_symmetric([5, 7, 11], 0) == 1
    assert elementary_symmetric([1, 0, -1], 2) == -1
    with pytest.raises(ValueError):
        elementary_symmetric([1, 2], 3)


def test_elementary_symmetric_arithmetic_series():
    for n in range(1, 8):
        for i in range(n + 1):
            vals = [n - i - m for m in range(n + 1)]
            assert elementary_symmetric(vals, 1) == sum(vals)
            assert 2 * sum(vals) == (n + 1) * (n - 2 * i)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=6))
def test_elementary_symmetric_against_polynomial_expansion(vals):
    # prod (x + v) has coefficient e_l on x^{len-l}: expand brute force.
    coeffs = [1]  # coeffs[d] multiplies x^d
    for v in vals:
        new = [0] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            new[d + 1] += c
            new[d] += v * c
        coeffs = new
    for l in range(len(vals) + 1):
        assert elementary_symmetric(vals, l) == coeffs[len(vals) - l]


def test_c_coefficients_small_cases():
    assert c_coefficients(1) == (2, 0)
    assert c_coefficients(2) == (6, 0, 0)


def test_c_coefficients_identity_up_to_eight():
    for n in range(1, 9):
        cs = c_coefficients(n)
        assert cs[0] == factorial(n + 1)
        assert all(c == 0 for c in cs[1:])


def test_sigma_examples():
    assert sigma(3, 5) == 120
    for n in range(1, 6):
        for k in range(11):
            assert sigma(n, k) == factorial(n + 1) * k


def test_vanishing_correction():
    assert vanishing_correction_check(2, 1)
    assert vanishing_correction_check(3, 2)
    assert vanishing_correction_check(1, 0)  # vacuous
    for n in range(1, 7):
        for i in range(n + 1):
            assert vanishing_correction_check(n, i)


def test_dimension_polynomial_matches_special_dimension():
    for n in range(1, 5):
        for i in range(n + 1):
            poly = DimensionPolynomial.build(n, i)
            assert len(poly.coefficients) == n + 1
            for p in range(1, 31):
                assert poly.evaluate(p) == special_dimension(n, i, p)


def test_dimension_polynomial_leading_coefficient():
    # Leading term is C(n,i)/n! * (p+i)^n.
    for n in range(1, 5):
        for i in range(n + 1):
            poly = DimensionPolynomial.build(n, i)
            assert poly.coefficients[-1] == Fraction(comb(n, i), factorial(n))


def test_vanishing_correction_detects_a_broken_identity(monkeypatch):
    # The exact check is the whole check: with the shift values moved by
    # one, (n-i+1, ..., 1-i), the identity fails.
    from rumin_sphere import zeta

    monkeypatch.setattr(zeta, "_shift_values",
                        lambda n, i: [n - i - m + 1 for m in range(n + 1)])
    assert not vanishing_correction_check(3, 2)
    assert vanishing_correction_check(3, 0)  # vacuous: no k to check
