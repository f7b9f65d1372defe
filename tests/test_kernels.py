"""Kernel correctness against exact enumeration and a 200-bit oracle."""

import hashlib
import math
import time
import tracemalloc
from fractions import Fraction

import mpmath
import pytest

from oracles import holders, weyl_dimension
from rumin_sphere import _kernels_py, torsion
from rumin_sphere.spectrum import eigenvalue_numerator
from rumin_sphere.weights import HighestWeight, middle_dimension, special_dimension

UNIT_ROUNDOFF = 2.0**-53

def gamma(k):
    """Higham's gamma_k = k u / (1 - k u): the relative error bound of k
    rounding steps on positive data (Accuracy and Stability of Numerical
    Algorithms, sec. 3.1 and 4.2)."""
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


def pair_sum(n, i, j, N, s):
    """The family {i, j}'s entry of ``pair_sums_of_k``."""
    return _kernels_py.pair_sums_of_k(n, n - i - j, N, s)[min(i, j)]


def pair_sum_error_bound(N):
    """Relative error bound gamma_m of a kernel sum, m = N + 13 from
    ``_kernels_py.term_roundings``.  It leaves out the absolute term
    ``UNDERFLOW_ERROR``, so it is stricter than the kernels' contract; every
    sum that it checks is far above 2^-1022."""
    return gamma(_kernels_py.term_roundings(N))


def oracle_pair_sum(n, i, j, N, s):
    """The same sum at 200 bits, from the exact eigenvalue Fractions."""
    [fam] = holders(n, 1, j, i, 1)
    with mpmath.workprec(200):
        total = mpmath.mpf(0)
        minus_s = -mpmath.mpf(s)
        for p in range(1, N + 1):
            for q in range(1, N + 1):
                dim = weyl_dimension(fam.weight(q, p))
                mu = Fraction(eigenvalue_numerator(n, q, j, i, p) ** 2, 4 * (n - i - j) ** 2)
                total += dim * (mpmath.mpf(mu.numerator) / mu.denominator) ** minus_s
        return total


def oracle_axis_sum(n, i, N, s):
    """The axis sum at 200 bits, from exact dimensions and eigenvalues."""
    with mpmath.workprec(200):
        minus_2s = -2 * mpmath.mpf(s)
        return mpmath.fsum(special_dimension(n, i, p) * (mpmath.mpf(p + i) / 2) ** minus_2s
                           for p in range(1, N + 1))


def relative_error(value, reference):
    with mpmath.workprec(200):
        return float(abs(mpmath.mpf(value) - reference) / reference)


@pytest.mark.parametrize(
    "n, i, j, N, s",
    [(1, 0, 0, 30, 2.0), (2, 0, 0, 20, 3.0), (2, 1, 0, 20, 3.0),
     (3, 0, 2, 12, 4.0), (4, 1, 1, 8, 5.5)],
)
def test_pair_sum_matches_exact_enumeration(n, i, j, N, s):
    fast = pair_sum(n, i, j, N, s)
    assert relative_error(fast, oracle_pair_sum(n, i, j, N, s)) <= pair_sum_error_bound(N)


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
    bound = pair_sum_error_bound(N)
    assert bound <= 1e-12
    value = pair_sum(n, i, j, N, s)
    assert relative_error(value, oracle_pair_sum(n, i, j, N, s)) <= bound


@pytest.mark.parametrize(
    "n, i, j, N, s", [(1, 0, 0, 40, 300.0), (2, 1, 0, 40, 200.25)]
)
def test_pair_sum_large_s_within_bound_of_oracle(n, i, j, N, s):
    # 2s log2 A exceeds the double range here, so the kernel scales the
    # bases by 2^-e, e > 0, before the power; the bound does not grow with s.
    bound = pair_sum_error_bound(N)
    assert bound <= 1e-12
    value = pair_sum(n, i, j, N, s)
    assert value > 0.0
    assert relative_error(value, oracle_pair_sum(n, i, j, N, s)) <= bound


@pytest.mark.parametrize(
    "n, i, j, N, s", [(2, 1, 0, 40, 2.1), (3, 0, 2, 50, 2.45), (5, 1, 3, 40, 3.7)]
)
def test_pair_sum_duality(n, i, j, N, s):
    # Labels (q, j, i, p) and (p, i, j, q) are dual: same dimension and
    # eigenvalue.  The kernel gives both orientations one sum, which is
    # within the bound of each orientation's exact sum.
    value = pair_sum(n, i, j, N, s)
    assert pair_sum(n, j, i, N, s) == value
    for a, b in [(i, j), (j, i)]:
        assert relative_error(value, oracle_pair_sum(n, a, b, N, s)) <= pair_sum_error_bound(N)


def test_pair_sum_beyond_n17():
    # The removed compiled kernel stored the middle weight in int[16] and
    # refused n >= 18.
    n, N, s = 18, 10, 10.0
    for i, j in [(4, 9), (5, 5)]:
        value = pair_sum(n, i, j, N, s)
        bound = pair_sum_error_bound(N)
        assert relative_error(value, oracle_pair_sum(n, i, j, N, s)) <= bound


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_degree_zetas_direct_calls_each_kernel_once(monkeypatch, n):
    # One pair_sums_of_k call per k = 1..n serves every pair family; no
    # pair sum is made per family, and each axis sum is made once.
    k_calls = []
    axis_calls = []
    per_k, axis = _kernels_py.pair_sums_of_k, _kernels_py.axis_family_sum

    def count_k(n_, k, N, s):
        k_calls.append(k)
        return per_k(n_, k, N, s)

    def count_axis(n_, i, N, s):
        axis_calls.append(i)
        return axis(n_, i, N, s)

    monkeypatch.setattr(_kernels_py, "pair_sums_of_k", count_k)
    monkeypatch.setattr(_kernels_py, "axis_family_sum", count_axis)
    torsion.degree_zetas_direct(n, (n + 2) / 2, 6)
    assert sorted(k_calls) == list(range(1, n + 1))
    assert sorted(axis_calls) == list(range(n + 1))


def check_sums_of_k(n, k, N, s):
    """Every unordered family {i, n-k-i} of ``pair_sums_of_k``, in both
    orientations, against the 200-bit oracle."""
    h = n - k
    sums = _kernels_py.pair_sums_of_k(n, k, N, s)
    assert len(sums) == h // 2 + 1
    bound = pair_sum_error_bound(N)
    assert bound <= 1e-12
    for i, value in enumerate(sums):
        assert value > 0.0
        assert relative_error(value, oracle_pair_sum(n, i, h - i, N, s)) <= bound
        if i != h - i:
            assert relative_error(value, oracle_pair_sum(n, h - i, i, N, s)) <= bound


@pytest.mark.parametrize(
    "n, k, s",
    [(4, 1, 2.65), (4, 2, 2.65), (4, 3, 3.1), (4, 4, 2.65),
     (5, 1, 3.2), (5, 2, 3.2), (5, 3, 3.45), (5, 4, 3.2), (5, 5, 3.2)],
)
def test_pair_sums_of_k_within_rounding_bound_of_oracle(n, k, s):
    # Every family of n = 4 and 5.  At k = n the only family is the
    # self-dual {0, 0}.
    check_sums_of_k(n, k, 40, s)


@pytest.mark.parametrize("n", [1, 3, 4])
def test_pair_sums_of_k_single_cell(n):
    for k in range(1, n + 1):
        check_sums_of_k(n, k, 1, (n + 2) / 2)


@pytest.mark.parametrize("n, k, N, s", [(3, 1, 40, 60.0), (4, 2, 30, 150.75)])
def test_pair_sums_of_k_large_s_within_bound_of_oracle(n, k, N, s):
    # Unscaled, the smallest power of the triangle would fall below
    # 2^-1020, so one scale 2^-e, e > 0, for the whole k moves every
    # family's bases before the power.
    R = N + n - k
    assert 2 * s * math.log2(2 * R * (R + k)) > -_kernels_py._BOTTOM
    check_sums_of_k(n, k, N, s)


def test_pair_sums_of_k_memory_stays_bounded():
    # The triangle is built one row at a time: a stored triangle of Python
    # floats at n = 8, N = 400 would take about 2.6 MB.
    _kernels_py.pair_sums_of_k(8, 1, 2, 5.0)
    tracemalloc.start()
    try:
        _kernels_py.pair_sums_of_k(8, 1, 400, 5.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "n, i, N, s",
    [(1, 0, 50, 2.0), (2, 1, 40, 3.0), (3, 3, 30, 4.0), (4, 2, 20, 5.0),
     (40, 0, 80, 21.5), (40, 20, 80, 21.5), (40, 40, 80, 21.5)],
)
def test_axis_sum_matches_exact_enumeration(n, i, N, s):
    # n = 40 is torsion --n 40's reference point s = (n+3)/2, N = 80, where
    # the dimensions exceed 2^53.
    fast = _kernels_py.axis_family_sum(n, i, N, s)
    bound = gamma(_kernels_py.term_roundings(N))
    assert relative_error(fast, oracle_axis_sum(n, i, N, s)) <= bound


def test_axis_terms_use_the_exact_dimension():
    # At p = 1 and s = 0 the power is 1, so the sum is the dimension rounded
    # once: a rebuilt float product of the binomial would round it again.
    for n in range(1, 171):
        for i in range(n + 1):
            assert _kernels_py.axis_family_sum(n, i, 1, 0.0) == float(special_dimension(n, i, 1)), (n, i)


def test_pair_sum_rejects_bad_ranges():
    for i, j in [(1, 1), (-1, 0), (0, -1), (2, 0)]:
        with pytest.raises(ValueError):
            pair_sum(2, i, j, 10, 3.0)
    for i in (-1, 3):
        with pytest.raises(ValueError):
            _kernels_py.axis_family_sum(2, i, 10, 3.0)
    for k in (0, 3):
        with pytest.raises(ValueError):
            _kernels_py.pair_sums_of_k(2, k, 10, 3.0)


def test_pair_sum_small_value_sanity():
    # Single cell (N=1) at n=1: dim V(1,-1) = 3, eigenvalue 4.
    val = pair_sum(1, 0, 0, 1, 2.0)
    assert val == pytest.approx(3 * 4.0**-2, rel=1e-15)
    assert pair_sum(1, 0, 0, 0, 2.0) == 0.0


def test_axis_sum_small_value_sanity():
    # n=1, i=0, p=1: dim V(0,-1) = 2, eigenvalue (1/2)^2.
    val = _kernels_py.axis_family_sum(1, 0, 1, 3.0)
    assert val == pytest.approx(2 * (0.5) ** -6, rel=1e-15)


def test_pair_sums_of_k_set_up_is_fast_at_large_n():
    # At n = 80 set-up dominated: the O(n^2) product for each family's
    # middle factor took 5.1 s over the 80 calls.
    start = time.perf_counter()
    for k in range(1, 81):
        _kernels_py.pair_sums_of_k(80, k, 1, 41.5)
    assert time.perf_counter() - start < 1.5


def weyl(entries):
    """The Weyl dimension of the nonincreasing tuple ``entries``, 1 for the
    empty tuple (the middle weight of n = 1)."""
    return weyl_dimension(HighestWeight(entries)) if entries else 1


def check_dimension_rows(n, k, N, families):
    """Rows F_i and G_i of ``pair_sums_of_k``, against the quotient of Weyl
    dimensions that they stand for: entry q - 1 of the row of the middle
    weight ``mid`` is weyl((q, *mid)) / weyl(mid)."""
    h = n - k
    F, G = _kernels_py._dimension_rows(n, k, N)
    assert len(F) == len(G) == h // 2 + 1
    for i in families:
        for row, (a, c) in ((F[i], (h - i, i)), (G[i], (i, h - i))):
            mid = (1,) * a + (0,) * (k - 1) + (-1,) * c
            dim = weyl(mid)
            assert len(row) == N
            for q, value in enumerate(row, 1):
                assert value == float(Fraction(weyl((q, *mid)), dim)), (a, k - 1, c, q)


def test_dimension_rows_are_the_weyl_quotient():
    # Every middle weight (1^a, 0^b, (-1)^c) with a+b+c <= 16, in both
    # orientations, for q <= 40: each entry is the correctly rounded exact
    # quotient, so it does not depend on how the row is built.
    for n in range(1, 18):
        for k in range(1, n + 1):
            check_dimension_rows(n, k, 40, range((n - k) // 2 + 1))


@pytest.mark.parametrize("k, families", [(1, (0, 7, 20)), (13, (0, 14)), (41, (0,))])
def test_dimension_rows_at_40_middle_entries(k, families):
    check_dimension_rows(41, k, 40, families)


def test_dimension_rows_are_fast_at_large_n():
    # Every row of the 170 calls of ``torsion --n 170``: with n-1 list
    # products per row they took 31 s, with the shared product 0.34 s.
    start = time.perf_counter()
    for k in range(1, 171):
        _kernels_py._dimension_rows(170, k, 80)
    assert time.perf_counter() - start < 3.0


def exact_pair_sums(n, k, N, s, families):
    """The families' sums of ``pair_sums_of_k`` at 300 bits, from the exact
    factored dimension M F(q) G(p) (p'+q'+k) / n (F and G are checked
    against the Weyl dimension above, and M = ``middle_dimension`` in
    ``test_weights``) and the exact base A / D."""
    h = n - k
    P = [n * (n + 1)]  # P(q) / (n-1)!
    for q in range(1, N):
        P.append(P[-1] * (q + n + 1) // q)
    with mpmath.workprec(300):
        minus_2s = -2 * mpmath.mpf(s)
        sums = []
        for i in families:
            j = h - i
            M = Fraction(middle_dimension(h - i, k - 1, i), n)
            total = mpmath.mpf(0)
            for p in range(1, N + 1):
                G = M * Fraction(P[p - 1], (p + i) * (p + i + k))
                for q in range(1, N + 1):
                    dim = G * Fraction(P[q - 1] * (p + q + n), (q + j) * (q + j + k))
                    A = 2 * (p + i) * (q + j) + k * (p + i + q + j)
                    total += (mpmath.mpf(dim.numerator) / dim.denominator
                              * (mpmath.mpf(A) / (2 * k)) ** minus_2s)
            sums.append(total)
        return sums


def exact_axis_sum(n, i, N, s):
    with mpmath.workprec(300):
        minus_2s = -2 * mpmath.mpf(s)
        return mpmath.fsum(special_dimension(n, i, p) * (mpmath.mpf(p + i) / 2) ** minus_2s
                           for p in range(1, N + 1))


def within_contract(value, exact, N):
    """|value - exact| <= gamma_m exact + UNDERFLOW_ERROR, m = N + 13."""
    with mpmath.workprec(300):
        error = abs(mpmath.mpf(value) - exact)
        return error <= gamma(_kernels_py.term_roundings(N)) * exact + _kernels_py.UNDERFLOW_ERROR


def test_kernel_sums_hold_their_bound_into_the_subnormal_range():
    # Every k and family of n = 1..5, a few of n = 40 and 170, and every
    # axis sum of torsion --n 170 (N = 80, s = 86.5), where 117 of the 171
    # unscaled sums fell outside gamma_{N+13} and i = 170 returned 0.0 for
    # 9.2e-297.  At s = 340 most sums lie below 2^-1074.
    start = time.perf_counter()
    failures = []
    points = [(n, N, s, range(1, n + 1)) for n in range(1, 6) for N in (1, 20)
              for s in ((n + 2) / 2, 150.75, 340.0)]
    points += [(n, N, s, (1, n // 2, n)) for n in (40, 170) for N in (1, 20)
               for s in ((n + 2) / 2, 340.0)]
    for n, N, s, ks in points:
        for k in ks:
            sums = _kernels_py.pair_sums_of_k(n, k, N, s)
            families = sorted({0, len(sums) - 1}) if n > 5 else range(len(sums))
            for i, exact in zip(families, exact_pair_sums(n, k, N, s, families)):
                if not within_contract(sums[i], exact, N):
                    failures.append(("pair", n, k, i, N, s))
        for i in range(n + 1) if n <= 5 else ():
            if not within_contract(_kernels_py.axis_family_sum(n, i, N, s),
                                   exact_axis_sum(n, i, N, s), N):
                failures.append(("axis", n, i, N, s))
    for i in range(171):
        if not within_contract(_kernels_py.axis_family_sum(170, i, 80, 86.5),
                               exact_axis_sum(170, i, 80, 86.5), 80):
            failures.append(("axis", 170, i, 80, 86.5))
    assert failures == []
    assert time.perf_counter() - start < 3.0


@pytest.mark.parametrize("n, N, s, digest", [
    (1, 150, 1.75, "8162e0404f550e2b"), (1, 400, 1.75, "6eac87384c262257"),
    (2, 150, 2.25, "cbc9806ab2909aa6"), (2, 400, 2.25, "3c86ad453b139e13"),
    (3, 150, 2.75, "df605bc8c6483224"), (3, 400, 2.75, "f1005a071b4d989b"),
    (4, 150, 3.25, "2c43d42c3a35f425"), (4, 400, 3.25, "ce80bf29c3b9f9f6"),
    (6, 80, 4.5, "a339b4dfc5e5fdda"),
])
def test_kernel_bits_where_no_power_is_scaled(n, N, s, digest):
    # direct_sums-style requests, s = (n+1)/2 + 0.75, and a torsion
    # reference grid.  No record sees a pair sum (the families cancel in
    # kappa), so these digests of every pair and axis sum's float.hex pin
    # their bits where the scale exponent is 0.
    sums = [v for k in range(1, n + 1) for v in _kernels_py.pair_sums_of_k(n, k, N, s)]
    sums += [_kernels_py.axis_family_sum(n, i, N, s) for i in range(n + 1)]
    text = " ".join(map(float.hex, sums))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def recorded_scales(monkeypatch):
    """The exponents e that ``_scale_exponent`` returns, one per kernel
    call, in call order."""
    scales = []
    choose = _kernels_py._scale_exponent

    def record(*args):
        scales.append(choose(*args))
        return scales[-1]

    monkeypatch.setattr(_kernels_py, "_scale_exponent", record)
    return scales


@pytest.mark.parametrize("n, N, s, digest", [
    (1, 20, 150.75, "ba952097864bf15b"), (3, 20, 150.75, "bf86a65319c77ee3"),
    (5, 40, 150.75, "0dc1ea0aaafb9173"), (2, 20, 340.0, "54133678e1d1afb5"),
])
def test_kernel_bits_where_every_pair_power_is_scaled(monkeypatch, n, N, s, digest):
    # Every pair call here scales its bases by 2^-e, e = 2..6, and the axis
    # calls by e = 0..2: these digests of every pair and axis sum's
    # float.hex pin the bits of the scaled power path.
    scales = recorded_scales(monkeypatch)
    sums = [v for k in range(1, n + 1) for v in _kernels_py.pair_sums_of_k(n, k, N, s)]
    assert len(scales) == n and min(scales) > 0
    sums += [_kernels_py.axis_family_sum(n, i, N, s) for i in range(n + 1)]
    assert max(scales[n:]) > 0
    text = " ".join(map(float.hex, sums))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_kernel_bits_at_the_torsion_n40_grid(monkeypatch):
    # torsion --n 40's reference grid (N = 80, s = 21.5), with no scale:
    # the pair sums of k = 1, 20 and 40, and every axis sum, whose
    # dimensions exceed 2^53.
    n, N, s = 40, 80, 21.5
    scales = recorded_scales(monkeypatch)
    pairs = [v for k in (1, 20, 40) for v in _kernels_py.pair_sums_of_k(n, k, N, s)]
    axes = [_kernels_py.axis_family_sum(n, i, N, s) for i in range(n + 1)]
    assert set(scales) == {0}
    assert max(special_dimension(n, i, N) for i in range(n + 1)) > 2**53
    for sums, digest in ((pairs, "6d873f31c9d6fcad"), (axes, "5d786c9de022e9c0")):
        text = " ".join(map(float.hex, sums))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_pair_sums_of_k_refuses_a_base_above_2_53_before_any_work(monkeypatch):
    # The largest base 2R(R+k), R = N + n - k, is an exact double up to
    # 2^53, and so is every partial sum of a row's bases.  At n = k = 1 it
    # is 2N(N+1): N = 2^26 - 1 passes and reaches the rows, N = 2^26 is
    # refused before them.
    class Reached(Exception):
        pass

    def rows(n, k, N):
        raise Reached

    monkeypatch.setattr(_kernels_py, "_dimension_rows", rows)
    with pytest.raises(Reached):
        _kernels_py.pair_sums_of_k(1, 1, 2**26 - 1, 3.0)
    with pytest.raises(OverflowError, match="2\\^53"):
        _kernels_py.pair_sums_of_k(1, 1, 2**26, 3.0)
