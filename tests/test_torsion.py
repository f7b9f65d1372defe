"""The three kappa routes and the torsion report."""

import time
from fractions import Fraction
from math import exp, factorial, isfinite

import mpmath
import pytest

from rumin_sphere import cli, torsion
from rumin_sphere import (
    DEFAULT_PRECISION_BITS,
    DivergenceError,
    KappaEstimate,
    PoleError,
    degree_weights,
    hurwitz_zeta_and_deriv,
    kappa_closed,
    kappa_continued,
    kappa_direct,
    kappa_reduced,
    tail_bound,
    torsion_estimates,
)
from rumin_sphere.spectrum import degree_multiplicities, eigenvalue_denominator
from rumin_sphere.torsion import rounding_gamma
from rumin_sphere.verify import route_check


def reference(f):
    """f() evaluated in mpmath at 160 bits."""
    with mpmath.workprec(160):
        return f()


def within(value, ref, bound):
    """|value - ref| <= bound, decided at 160 bits."""
    with mpmath.workprec(160):
        return abs(mpmath.mpf(value) - ref) <= bound


def kappa_prime(n, s, prec=DEFAULT_PRECISION_BITS):
    """kappa'(s) of the closed form over one zeta(2s)/zeta'(2s) pass, the
    function ``torsion_estimates`` applies at s = 0."""
    return torsion._closed_deriv_from(n, s, *hurwitz_zeta_and_deriv(2 * s, 1, prec), prec)


def test_degree_weights_alternate_and_are_linear():
    for n in range(1, 7):
        ws = degree_weights(n)
        assert ws == tuple((-1) ** (k + 1) * (n + 1 - k) for k in range(n + 1))
        assert all(type(w) is int for w in ws)
        assert all(ws[k] * ws[k + 1] < 0 for k in range(n))


def test_kappa_closed_vanishes_at_origin():
    for n in range(1, 7):
        est = kappa_closed(n, 0)
        assert abs(est.value) <= est.bound + est.rounding


def test_kappa_closed_example_value():
    est = kappa_closed(1, 2)
    expected = reference(lambda: -2 * (1 + 32 * mpmath.pi**4 / 90))
    assert within(est.value, expected, est.bound + est.rounding)


def test_kappa_closed_pole():
    with pytest.raises(PoleError):
        kappa_closed(2, 0.5)
    with pytest.raises(PoleError):
        kappa_prime(2, 0.5)
    with pytest.raises(PoleError):
        kappa_continued(2, 0.5)


def test_kappa_prime_at_zero():
    for n in range(1, 7):
        est = torsion_estimates(n)[2]
        expected = reference(lambda: 2 * (n + 1) * mpmath.log(4 * mpmath.pi))
        assert within(est.value, expected, est.bound + est.rounding)


def test_kappa_direct_requires_convergence():
    with pytest.raises(DivergenceError):
        kappa_direct(1, 1.0, 10)
    with pytest.raises(DivergenceError):
        kappa_direct(2, 1.5, 10)
    with pytest.raises(DivergenceError):
        kappa_reduced(1, 1.0, N=10)


def test_kappa_direct_containment_at_tiny_truncation():
    est = kappa_direct(1, 3, 1)
    closed = kappa_closed(1, 3).value
    assert closed - est.bound < est.value < closed + est.bound


def test_kappa_direct_converges_to_closed():
    for n in (1, 2):
        for s in (2.0, 3.0):
            check = route_check("", kappa_direct(n, s, 200), kappa_closed(n, s))
            assert check.passed, (n, s, check)


def test_kappa_direct_matches_exact_slice_aggregation():
    # Independent exact route: aggregate spectrum slices with Fractions,
    # then apply the weights.  The kernel-based route must agree closely.
    n, s, N = 2, 3.0, 25
    value = 0.0
    for k, w in enumerate(degree_weights(n)):
        zk = 1.0 if k == 0 else 0.0
        canonical = min(k, 2 * n + 1 - k)
        for key, mult in degree_multiplicities(n, canonical, N).items():
            if key != 0:
                zk += mult * float(Fraction(key, eigenvalue_denominator(n))) ** (-s)
        value += w * zk
    est = kappa_direct(n, s, N)
    assert abs(est.value - value) < 1e-10 * max(1.0, abs(value))


@pytest.mark.parametrize("precision", [128, 2048])
def test_kernel_convention_is_one_shift_of_the_report(precision):
    # The routes compute the kernel-included kappa; excluding the kernel
    # moves kappa(0) by exactly n+1 and nothing else in the report.
    for n in range(1, 7):
        included, kappa0, kappa_prime0, routes = torsion_estimates(n, precision)
        excluded, kappa0_x, kappa_prime0_x, routes_x = torsion_estimates(
            n, precision, include_kernel=False)
        assert (included.zeta_convention, excluded.zeta_convention) == (
            "kernel-included", "kernel-excluded")
        assert excluded.route_residuals == included.route_residuals
        assert excluded.kappa_prime_at_0 == included.kappa_prime_at_0
        assert excluded.kappa_at_0 == included.kappa_at_0 + (n + 1)
        assert (kappa0_x, kappa_prime0_x, routes_x) == (kappa0, kappa_prime0, routes)


def test_every_kappa_route_returns_an_estimate():
    n, s = 2, 2.25
    continued = kappa_continued(n, s)
    assert len(continued) == 2
    for est in (kappa_closed(n, s), kappa_direct(n, s, 10), kappa_reduced(n, s, 10),
                *continued):
        assert type(est) is KappaEstimate
        assert all(type(x) is float for x in (est.value, est.bound, est.rounding))
    assert continued[1] == kappa_closed(n, s)


def test_tail_bound_monotone():
    bounds = [tail_bound(1, 2.0, N) for N in (50, 100, 200, 400)]
    assert bounds == sorted(bounds, reverse=True)
    with pytest.raises(DivergenceError):
        tail_bound(3, 1.0, 50)


def test_tail_bound_is_the_monomial_bound_rounded_up():
    for n, s, N in [(1, 2.0, 50), (3, 5.0, 100), (6, 4.75, 80), (2, 40.5, 7)]:
        with mpmath.workprec(200):
            exact = (mpmath.mpf(2) ** (2 * s + 1) * (2 * (n + 1)) ** n
                     / factorial(n) * mpmath.mpf(N) ** (n + 1 - 2 * s)
                     / (2 * s - n - 1))
        bound = tail_bound(n, s, N)
        assert exact <= bound <= exact * (1 + 1e-11), (n, s, N)


def test_tail_bound_is_finite_and_positive_past_the_double_range():
    # 2^{2s+1} overflows a double and N^{n+1-2s} underflows; the bound
    # itself underflows, and is reported as the smallest positive double.
    for args in [(60, 400, 10), (1, 510.9, 10)]:
        bound = tail_bound(*args)
        assert isfinite(bound) and bound > 0, args


@pytest.mark.parametrize("prec", [8, 12, 20, 30])
def test_closed_form_bounds_hold_at_low_precision(prec):
    # The power 2^{2s+k} took s rounded to the working precision, an error
    # amplified by |2s+k| ln 2: at 8 bits and s = 185 the closed form was
    # off by 3.5 times its bound, and 473 of 3000 random truncated kappa
    # records at 8..128 bits failed their check against it.
    for n, s in [(3, 185.1315143064076), (1, 505.9738048075705),
                 (2, 16.911161953542198), (5, 37.13477370145483), (2, -15.6)]:
        with mpmath.workprec(400):
            ms = mpmath.mpf(s)
            scale = -(n + 1) * 2 ** (2 * ms + 1)
            kappa = -(n + 1) + scale * mpmath.zeta(2 * ms)
            deriv = 2 * scale * (mpmath.log(2) * mpmath.zeta(2 * ms)
                                 + mpmath.zeta(2 * ms, derivative=1))
        for est, ref in [(kappa_closed(n, s, prec), kappa),
                         (kappa_continued(n, s, prec)[0], kappa),
                         (kappa_prime(n, s, prec), deriv)]:
            assert abs(est.value - ref) <= est.bound + est.rounding, (n, s)


def test_tail_bound_beyond_the_double_range_is_a_named_overflow():
    # The monomial bound at n = 400, s = 300, N = 5 is about e^765; its
    # exp ended in the bare "math range error".
    with pytest.raises(OverflowError, match="tail bound at n=400, s=300.0, N=5"):
        tail_bound(400, 300.0, 5)
    assert isfinite(tail_bound(400, 300.0, 7))


@pytest.mark.parametrize("route", [kappa_direct, kappa_reduced])
def test_truncated_routes_refuse_divergence_then_range_then_tail(route):
    # At s = 1e308 and 9e307 the tail bound's logarithms are inf and -inf,
    # so it ended in "ValueError: -inf + inf in fsum"; the range comes first.
    for s in (1e308, 9e307):
        with pytest.raises(OverflowError, match=r"kappa\(s\) at n=1"):
            route(1, s, 10)
    # A divergent sum is refused before the range (kappa leaves it here).
    with pytest.raises(DivergenceError):
        route(1, -1e308, 10)
    # kappa(300) at n = 400 is about -1.7e183, but the tail bound at N = 5
    # is not a double.
    with pytest.raises(OverflowError, match="tail bound"):
        route(400, 300.0, 5)


@pytest.mark.parametrize("route", [kappa_direct, kappa_reduced, tail_bound])
def test_truncated_routes_refuse_a_truncation_below_one(route, monkeypatch):
    # log(N) of the tail bound ended in "math domain error" at N = 0.  The
    # truncation is refused first: before the convergence check, and before
    # any kernel sum.
    def no_sum(*args):
        raise AssertionError("a kernel sum ran")

    monkeypatch.setattr(torsion._kernels_py, "axis_family_sum", no_sum)
    monkeypatch.setattr(torsion._kernels_py, "pair_sums_of_k", no_sum)
    for N in (0, -3):
        for s in (3.0, 0.25):
            with pytest.raises(ValueError, match="^truncation must be >= 1$"):
                route(1, s, N)


def test_kappa_reduced_truncated_matches_direct():
    # Identical axis sums and one truncation: the exact truncated values
    # are equal (the two-parameter families cancel at every N), so the two
    # doubles differ by at most their roundings.
    for n, s, N in [(1, 2.0, 150), (2, 3.0, 100)]:
        direct = kappa_direct(n, s, N)
        reduced = kappa_reduced(n, s, N)
        assert abs(direct.value - reduced.value) <= direct.rounding + reduced.rounding


def test_kappa_reduced_continuation_matches_closed():
    for n in range(1, 6):
        for s in (-2.0, -0.5, 0.0, 0.25, 0.3, 2.0, 4.0):
            check = route_check("", *kappa_continued(n, s))
            assert check.passed, (n, s, check)


def test_kappa_reduced_kappa1_term():
    # At s = -1 the zeta factor hits the trivial zero zeta(-2) = 0, leaving
    # exactly the constant kappa_1 = -(n+1).
    for n in range(1, 5):
        est = kappa_continued(n, -1.0)[0]
        assert abs(est.value + (n + 1)) <= est.bound + est.rounding


def test_torsion_report_makes_one_pass_per_zeta_argument(em_passes):
    # zeta(0) and zeta'(0) from one derivative pass; zeta(2 s_ref) once.
    for n in (1, 3):
        em_passes.clear()
        torsion_estimates(n, precision=128)
        assert len(em_passes) == 2
        assert sorted(em_passes) == [(0, True), (n + 3, False)]


def test_closed_and_continued_kappa_make_one_pass_each(em_passes):
    kappa_closed(2, 0.75, 128)
    assert em_passes == [(1.5, False)]
    em_passes.clear()
    kappa_continued(3, -1.25, 128)
    assert em_passes == [(-2.5, False)]


def test_reduced_kappa_command_makes_one_pass(em_passes, capsys):
    assert cli.main(["kappa", "--n", "3", "--s=-1.25", "--mode", "reduced"]) == 0
    assert len(em_passes) == 1


def torsion_bounds(n, kappa0, kappa_prime0):
    """The derived bounds of the torsion report, as in
    ``verify.torsion_checks``: kappa(0)'s own error; for T, half the error
    of kappa'(0) (T = exp(kappa'(0)/2)) plus 2 units for exp and one for
    second-order terms; for the ratio, also the pi rounding amplified by
    (4 pi)^{n+1} and the pow, n!, division and conversion steps."""
    from_exp = (kappa_prime0.bound + kappa_prime0.rounding) / 2
    return (kappa0.bound + kappa0.rounding, from_exp + rounding_gamma(3),
            from_exp + rounding_gamma(n + 11))


def test_torsion_report_n1():
    rep, kappa0, kappa_prime0, _ = torsion_estimates(1)
    at_0, t_rel, ratio_rel = torsion_bounds(1, kappa0, kappa_prime0)
    assert abs(rep.kappa_at_0) <= at_0
    T = reference(lambda: 16 * mpmath.pi**2)
    assert within(rep.T, T, t_rel * T)
    assert within(rep.ratio, 1, ratio_rel)
    assert rep.zeta_convention == "kernel-included"
    assert all(v < 1e-3 for v in rep.route_residuals.values())


def test_torsion_report_n3():
    rep, kappa0, kappa_prime0, _ = torsion_estimates(3)
    _, t_rel, ratio_rel = torsion_bounds(3, kappa0, kappa_prime0)
    T = reference(lambda: (4 * mpmath.pi) ** 4)
    assert within(rep.T, T, t_rel * T)
    assert within(rep.ratio, 6, 6 * ratio_rel)
    # (4 pi)^4 / 3! in doubles: pi's rounding times 4, the pow (2) and the
    # division (1), and one for second-order terms.
    assert within(rep.T_ray_singer, T / 6, rounding_gamma(8) * T / 6)


def test_torsion_report_kernel_excluded():
    rep, kappa0, kappa_prime0, _ = torsion_estimates(2, include_kernel=False)
    at_0, t_rel, _ = torsion_bounds(2, kappa0, kappa_prime0)
    assert rep.zeta_convention == "kernel-excluded"
    # Excluding the kernel shifts kappa by +(n+1) but leaves T unchanged;
    # the shift adds one rounding of the sum.
    assert abs(rep.kappa_at_0 - 3.0) <= at_0 + rounding_gamma(1) * 3.0
    T = reference(lambda: (4 * mpmath.pi) ** 3)
    assert within(rep.T, T, t_rel * T)
    assert all(v < 1e-3 for v in rep.route_residuals.values())


def test_exp_relation_between_t_and_kappa_prime():
    for n in range(1, 7):
        rep, kappa0, kappa_prime0, _ = torsion_estimates(n)
        assert rep.T == exp(rep.kappa_prime_at_0 / 2)
        _, _, ratio_rel = torsion_bounds(n, kappa0, kappa_prime0)
        assert within(rep.ratio, factorial(n), factorial(n) * ratio_rel)


def test_kappa_routes_refuse_an_s_outside_the_double_range_at_once(em_passes):
    # zeta(-1000.6) would take seconds to evaluate, only to overflow; the
    # refusal comes before any Euler-Maclaurin pass.
    for route in (kappa_closed, kappa_continued):
        for s in (-500.3, -170.3, 600):
            start = time.perf_counter()
            with pytest.raises(OverflowError, match=r"kappa\(s\) at n=1, .* overflows a double"):
                route(1, s)
            assert time.perf_counter() - start < 0.1
    assert em_passes == []
    for route in (kappa_direct, kappa_reduced):
        with pytest.raises(OverflowError, match="overflows a double"):
            route(1, 600, 10)
        # A divergent truncated sum is refused first.
        with pytest.raises(DivergenceError):
            route(1, -500.3, 10)


def test_kappa_routes_refuse_n_below_one_and_a_non_finite_s_at_once(em_passes):
    # kappa_closed(0, 3.0) returned -131.2, kappa_continued(0, 3.0) and
    # tail_bound(0, 3.0, 10) returned values, kappa_closed(-3, 3.0) raised
    # "math domain error", and a NaN s failed inside the zeta engine.  The
    # one range check refuses them before any work.
    calls = [(kappa_closed, ()), (kappa_continued, ()), (kappa_direct, (10,)),
             (kappa_reduced, (10,)), (tail_bound, (10,))]
    for route, rest in calls:
        for n in (0, -3):
            with pytest.raises(ValueError, match="n must be >= 1"):
                route(n, 3.0, *rest)
        for s in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="s must be finite"):
                route(1, s, *rest)
    assert em_passes == []
    # A negative integer s whose 2s is not a double gives the trivial zero
    # of zeta(2s), read off s with no pass: kappa(s) = -(n+1), bound 0, as
    # at s = -1e300.  The range check refused it with ``OverflowError``.
    for n in (1, 4):
        for s in (-8.98846567431158e307, -1.7976931348623157e308, -1e300):
            closed = kappa_closed(n, s)
            continued, paired = kappa_continued(n, s)
            for est in (closed, continued, paired):
                assert (est.value, est.bound) == (-(n + 1), 0.0), (n, s)
    assert em_passes == []


def test_kappa_routes_refuse_an_overflowing_value_the_range_check_lets_through():
    # The lower bound on log|kappa| passes s = -158.4392 at n = 1, where
    # kappa_closed returned value=inf; 13 of 2000 points in [-177.4, -150]
    # did.  The conversion to doubles refuses it.
    for route in (kappa_closed, kappa_continued):
        with pytest.raises(OverflowError, match="estimate overflows a double"):
            route(1, -158.4392)


def test_range_check_refuses_where_the_lower_bound_reaches_2_to_the_1024(em_passes):
    # At n = 1, s = 511, |kappa| > (n+1) 2^{2s+1} = 2^1024 exactly.  A
    # threshold of log2(float max), which rounds to 1024.0, let it through:
    # the closed form ran its zeta(1022) pass before refusing, the direct
    # route returned nan and the reduced route -inf.
    for route in (kappa_closed, kappa_continued):
        with pytest.raises(OverflowError, match=r"kappa\(s\) at n=1, s=511 overflows a double"):
            route(1, 511)
    assert em_passes == []
    with pytest.raises(OverflowError, match=r"kappa\(s\) at n=1, s=511 overflows a double"):
        tail_bound(1, 511, 1)
    # Just inside the bound, the closed form is finite.
    assert isfinite(kappa_closed(1, 510.99).value)


def test_truncated_routes_refuse_a_non_finite_estimate():
    # Inside the range, kappa(1, 510.9) = -1.565e308 is finite, but the
    # direct route's w_0 zeta_0 overflows on the way: it returned -inf with
    # rounding inf.  It is refused like a zeta route's overflow; the reduced
    # route sums no such product and returns the finite value.
    with pytest.raises(OverflowError, match="the kappa estimate overflows a double"):
        kappa_direct(1, 510.9, 3)
    reduced = kappa_reduced(1, 510.9, 3)
    closed = kappa_closed(1, 510.9)
    assert all(map(isfinite, (reduced.value, reduced.bound, reduced.rounding)))
    assert abs(reduced.value - closed.value) <= (
        reduced.bound + reduced.rounding + closed.bound + closed.rounding)


def test_continued_route_at_large_n_builds_no_factorial():
    # c_1 / n! = n+1: building (n+1)! and n! only to divide them took 75 s
    # at n = 10^6.
    n, s = 10**6, 3.0
    start = time.perf_counter()
    continued, closed = kappa_continued(n, s)
    assert time.perf_counter() - start < 1.0
    assert route_check("", continued, closed).passed
    kappa = reference(lambda: -(n + 1) * (1 + 2**7 * mpmath.zeta(6)))
    assert within(continued.value, kappa, continued.bound + continued.rounding)


def test_torsion_report_refuses_n_beyond_the_double_range():
    start = time.perf_counter()
    with pytest.raises(OverflowError, match=r"1\.\.170"):
        torsion_estimates(171)
    assert time.perf_counter() - start < 0.1
    assert torsion.MAX_TORSION_N == 170


def test_log_kappa_lower_bound_is_tight():
    for n, s in [(1, -140.3), (1, -150.3), (3, -145.7), (2, -3.25)]:
        with mpmath.workprec(200):
            ms = mpmath.mpf(s)
            kappa = -(n + 1) * (1 + 2 ** (2 * ms + 1) * mpmath.zeta(2 * ms))
            true = float(mpmath.log(abs(kappa)))
        bound = torsion._log_kappa_lower_bound(n, s)
        if s < -100:
            assert abs(bound - true) <= 1e-11 * true, (n, s)
        else:
            assert bound <= true
    assert torsion._log_kappa_lower_bound(1, -160.0) == float("-inf")
    assert torsion._log_kappa_lower_bound(1, 0.25) == float("-inf")
