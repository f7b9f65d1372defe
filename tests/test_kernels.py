"""Kernel correctness against exact enumeration and a 200-bit oracle."""

import math

import mpmath
import pytest

from rumin_sphere import kernels, torsion
from rumin_sphere.spectrum import eigenvalue_formula
from rumin_sphere.weights import (
    RuminLabel,
    label_to_weight,
    special_dimension,
    weyl_dimension,
)

UNIT_ROUNDOFF = 2.0**-53

# Rounding steps charged to one term of pair_family_sum beyond the two
# recursive summations (N - 1 steps each, over q within a row and over the
# rows), each at most one unit roundoff u: the F(q) or F(q)(q+n) quotient
# (1), its power (2: libm pow is within one ulp, i.e. 2u), their product
# (1), the p * and + combining a row (2), the self-dual doubling plus
# diagonal (1), the G(p) quotient and product (2), and the scale
# m * D^{2s} (m 1, pow 2, product 1) times the sum (1).  That is 14,
# rounded up to 16.
PER_TERM_ROUNDINGS = 16


def gamma(k):
    """Higham's gamma_k = k u / (1 - k u): the relative error bound of k
    rounding steps on positive data (Accuracy and Stability of Numerical
    Algorithms, sec. 3.1 and 4.2)."""
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


def pair_sum_error_bound(N, s, divided=False):
    """Relative error bound gamma_{2N+c} of pair_family_sum.

    On the large-s path the bases are rounded quotients A/D, and the power
    amplifies that one rounding by the exponent 2s.
    """
    k = 2 * N + PER_TERM_ROUNDINGS
    if divided:
        k += math.ceil(2 * s)
    return gamma(k)


def exact_pair_sum(n, i, j, N, s):
    """Brute-force oracle: generic Weyl dimensions and exact eigenvalues."""
    total = 0.0
    for p in range(1, N + 1):
        for q in range(1, N + 1):
            label = RuminLabel(n, q, j, i, p)
            dim = weyl_dimension(label_to_weight(label))
            total += dim * float(eigenvalue_formula(label)) ** (-s)
    return total


def oracle_pair_sum(n, i, j, N, s):
    """The same sum at 200 bits, from the exact eigenvalue Fractions."""
    with mpmath.workprec(200):
        total = mpmath.mpf(0)
        minus_s = -mpmath.mpf(s)
        for p in range(1, N + 1):
            for q in range(1, N + 1):
                label = RuminLabel(n, q, j, i, p)
                dim = weyl_dimension(label_to_weight(label))
                mu = eigenvalue_formula(label)
                total += dim * (mpmath.mpf(mu.numerator) / mu.denominator) ** minus_s
        return total


def exact_axis_sum(n, i, N, s):
    total = 0.0
    for p in range(1, N + 1):
        total += special_dimension(n, i, p) * ((p + i) / 2.0) ** (-2 * s)
    return total


def relative_error(value, reference):
    with mpmath.workprec(200):
        return float(abs(mpmath.mpf(value) - reference) / reference)


@pytest.mark.parametrize(
    "n, i, j, N, s",
    [(1, 0, 0, 30, 2.0), (2, 0, 0, 20, 3.0), (2, 1, 0, 20, 3.0),
     (3, 0, 2, 12, 4.0), (4, 1, 1, 8, 5.5)],
)
def test_pair_sum_matches_exact_enumeration(n, i, j, N, s):
    fast = kernels.pair_family_sum(n, i, j, N, s)
    slow = exact_pair_sum(n, i, j, N, s)
    assert fast == pytest.approx(slow, rel=1e-12)


@pytest.mark.parametrize(
    "n, i, j, N, s",
    [
        (1, 0, 0, 60, 1.3),  # self-dual
        (3, 1, 1, 40, 2.6),
        (4, 0, 0, 40, 2.55),
        (2, 1, 0, 40, 2.1),  # not self-dual
        (3, 0, 2, 40, 2.45),
        (4, 1, 2, 40, 3.3),
    ],
)
def test_pair_sum_within_rounding_bound_of_oracle(n, i, j, N, s):
    bound = pair_sum_error_bound(N, s)
    assert bound <= 1e-12
    value = kernels.pair_family_sum(n, i, j, N, s)
    assert relative_error(value, oracle_pair_sum(n, i, j, N, s)) <= bound


@pytest.mark.parametrize(
    "n, i, j, N, s", [(1, 0, 0, 40, 300.0), (2, 1, 0, 40, 200.25)]
)
def test_pair_sum_large_s_within_bound_of_oracle(n, i, j, N, s):
    # 2s log2 A exceeds the double range here, so the kernel divides the
    # bases by D before the power instead of factoring D^{2s} out.
    bound = pair_sum_error_bound(N, s, divided=True)
    assert bound <= 1e-12
    value = kernels.pair_family_sum(n, i, j, N, s)
    assert value > 0.0
    assert relative_error(value, oracle_pair_sum(n, i, j, N, s)) <= bound


@pytest.mark.parametrize(
    "n, i, j, N, s", [(2, 1, 0, 40, 2.1), (3, 0, 2, 50, 2.45), (5, 1, 3, 40, 3.7)]
)
def test_pair_sum_duality(n, i, j, N, s):
    # Labels (q, j, i, p) and (p, i, j, q) are dual: same dimension and
    # eigenvalue.  Each side is within the bound of the exact sum.
    a = kernels.pair_family_sum(n, i, j, N, s)
    b = kernels.pair_family_sum(n, j, i, N, s)
    assert abs(a - b) <= 2 * pair_sum_error_bound(N, s) * a


def test_pair_sum_beyond_n17():
    # The removed compiled kernel stored the middle weight in int[16] and
    # refused n >= 18.
    n, N, s = 18, 10, 10.0
    for i, j in [(4, 9), (5, 5)]:
        value = kernels.pair_family_sum(n, i, j, N, s)
        bound = pair_sum_error_bound(N, s)
        assert relative_error(value, oracle_pair_sum(n, i, j, N, s)) <= bound


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_degree_zetas_direct_calls_each_kernel_once(monkeypatch, n):
    pair_calls = []
    axis_calls = []
    pair, axis = kernels.pair_family_sum, kernels.axis_family_sum

    def count_pair(n_, i, j, N, s):
        pair_calls.append((i, j))
        return pair(n_, i, j, N, s)

    def count_axis(n_, i, N, s):
        axis_calls.append(i)
        return axis(n_, i, N, s)

    monkeypatch.setattr(kernels, "pair_family_sum", count_pair)
    monkeypatch.setattr(kernels, "axis_family_sum", count_axis)
    torsion.degree_zetas_direct(n, (n + 2) / 2, 6)
    unordered = {frozenset(c) for c in pair_calls}
    assert len(pair_calls) == len(unordered)
    assert unordered == {
        frozenset((i, j)) for i in range(n) for j in range(n - i)
    }
    assert sorted(axis_calls) == list(range(n + 1))


@pytest.mark.parametrize(
    "n, i, N, s", [(1, 0, 50, 2.0), (2, 1, 40, 3.0), (3, 3, 30, 4.0), (4, 2, 20, 5.0)]
)
def test_axis_sum_matches_exact_enumeration(n, i, N, s):
    fast = kernels.axis_family_sum(n, i, N, s)
    slow = exact_axis_sum(n, i, N, s)
    assert fast == pytest.approx(slow, rel=1e-12)


def test_pair_sum_rejects_bad_ranges():
    for i, j in [(1, 1), (-1, 0), (0, -1), (2, 0)]:
        with pytest.raises(ValueError):
            kernels.pair_family_sum(2, i, j, 10, 3.0)
    for i in (-1, 3):
        with pytest.raises(ValueError):
            kernels.axis_family_sum(2, i, 10, 3.0)


def test_pair_sum_small_value_sanity():
    # Single cell (N=1) at n=1: dim V(1,-1) = 3, eigenvalue 4.
    val = kernels.pair_family_sum(1, 0, 0, 1, 2.0)
    assert val == pytest.approx(3 * 4.0**-2, rel=1e-15)
    assert kernels.pair_family_sum(1, 0, 0, 0, 2.0) == 0.0


def test_axis_sum_small_value_sanity():
    # n=1, i=0, p=1: dim V(0,-1) = 2, eigenvalue (1/2)^2.
    val = kernels.axis_family_sum(1, 0, 1, 3.0)
    assert val == pytest.approx(2 * (0.5) ** -6, rel=1e-15)
