"""The three kappa routes, the exact cancellation identity, and the torsion report."""

import dataclasses
from fractions import Fraction
from math import factorial, isfinite, log, pi

import mpmath
import pytest

from rumin_sphere import cli, spectrum, torsion
from rumin_sphere import (
    DivergenceError,
    PoleError,
    cancellation_check,
    degree_weights,
    degree_zetas_direct,
    kappa_closed,
    kappa_closed_deriv,
    kappa_direct,
    kappa_reduced,
    spectrum_slice,
    tail_bound,
    torsion_report,
)


def test_degree_weights_alternate_and_are_linear():
    for n in range(1, 7):
        ws = degree_weights(n)
        assert [dw.k for dw in ws] == list(range(n + 1))
        for dw in ws:
            assert dw.w == (-1) ** (dw.k + 1) * (n + 1 - dw.k)
        assert all(ws[k].w * ws[k + 1].w < 0 for k in range(n))


def test_kappa_closed_vanishes_at_origin():
    for n in range(1, 7):
        assert abs(kappa_closed(n, 0)) < 1e-12


def test_kappa_closed_example_value():
    expected = -2 * (1 + 32 * pi**4 / 90)
    assert abs(kappa_closed(1, 2) - expected) < 1e-12


def test_kappa_closed_pole():
    with pytest.raises(PoleError):
        kappa_closed(2, 0.5)
    with pytest.raises(PoleError):
        kappa_reduced(2, 0.5)


def test_kappa_prime_at_zero():
    for n in range(1, 7):
        expected = 2 * (n + 1) * log(4 * pi)
        assert abs(kappa_closed_deriv(n, 0) - expected) < 1e-12


def test_kappa_direct_requires_convergence():
    with pytest.raises(DivergenceError):
        kappa_direct(1, 1.0, 10)
    with pytest.raises(DivergenceError):
        kappa_direct(2, 1.5, 10)
    with pytest.raises(DivergenceError):
        kappa_reduced(1, 1.0, N=10)


def test_kappa_direct_containment_at_tiny_truncation():
    est = kappa_direct(1, 3, 1)
    closed = kappa_closed(1, 3)
    assert closed - est.bound < est.value < closed + est.bound


def test_kappa_direct_converges_to_closed():
    for n in (1, 2):
        for s in (2.0, 3.0):
            closed = kappa_closed(n, s)
            est = kappa_direct(n, s, 200)
            assert abs(est.value - closed) < est.bound + 1e-8


def test_kappa_direct_matches_exact_slice_aggregation():
    # Independent exact route: aggregate spectrum slices with Fractions,
    # then apply the weights.  The kernel-based route must agree closely.
    n, s, N = 2, 3.0, 25
    value = 0.0
    for dw in degree_weights(n):
        zk = 1.0 if dw.k == 0 else 0.0
        for mu, mult in spectrum_slice(n, dw.k, N).entries.items():
            if mu != 0:
                zk += mult * float(mu) ** (-s)
        value += dw.w * zk
    est = kappa_direct(n, s, N)
    assert abs(est.value - value) < 1e-10 * max(1.0, abs(value))


def test_degree_zetas_direct_kernel_flag():
    with_k = degree_zetas_direct(1, 2.0, 30)
    without_k = degree_zetas_direct(1, 2.0, 30, include_kernel=False)
    assert with_k[0] == pytest.approx(without_k[0] + 1.0, abs=1e-14)
    assert with_k[1] == without_k[1]


def test_kappa_conventions_differ_by_shift():
    included = kappa_direct(2, 3.0, 50).value
    excluded = kappa_direct(2, 3.0, 50, include_kernel=False).value
    assert included + 3.0 == pytest.approx(excluded, abs=1e-12)


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


def test_kappa_reduced_truncated_matches_direct():
    # Identical axis sums; the two routes differ only by the float-level
    # cancellation of the two-parameter families.
    for n, s, N in [(1, 2.0, 150), (2, 3.0, 100)]:
        direct = kappa_direct(n, s, N)
        reduced = kappa_reduced(n, s, N=N)
        assert abs(direct.value - reduced.value) < 1e-9
        assert abs(direct.value - reduced.value) < direct.bound + reduced.bound


def test_kappa_reduced_continuation_matches_closed():
    for n in range(1, 6):
        for s in (-2.0, -0.5, 0.0, 0.25, 0.3, 2.0, 4.0):
            red = kappa_reduced(n, s).value
            clo = kappa_closed(n, s)
            assert abs(red - clo) < 1e-12, (n, s)


def test_kappa_reduced_kappa1_term():
    # At s = -1 the zeta factor hits the trivial zero zeta(-2) = 0, leaving
    # exactly the constant kappa_1 = -(n+1).
    for n in range(1, 5):
        val = kappa_reduced(n, -1.0).value
        assert val == pytest.approx(-(n + 1), abs=1e-12)


def test_cancellation_check():
    for n in range(1, 5):
        assert cancellation_check(n)
    # n=2 Case II: w_0 + 2 w_1 + w_2 = -3 + 4 - 1 = 0
    ws = [dw.w for dw in degree_weights(2)]
    assert ws[0] + 2 * ws[1] + ws[2] == 0
    # n=1 Case V: w_0 + 2 w_1 = -2 + 2 = 0
    ws = [dw.w for dw in degree_weights(1)]
    assert ws[0] + 2 * ws[1] == 0


def test_cancellation_check_fails_on_a_non_cancelling_family(monkeypatch):
    families = spectrum.all_families(3)
    broken = tuple(
        dataclasses.replace(fam, spaces=fam.spaces[:-1])
        if fam.case is spectrum.Case.II else fam
        for fam in families
    )
    monkeypatch.setattr(torsion, "all_families", lambda n: broken)
    assert not cancellation_check(3)


def test_torsion_report_makes_one_pass_per_zeta_argument(em_passes):
    # zeta(0) and zeta'(0) from one derivative pass; zeta(2 s_ref) once.
    for n in (1, 3):
        em_passes.clear()
        torsion_report(n, precision=128)
        assert len(em_passes) == 2
        assert sorted(em_passes) == [(0, True), (n + 3, False)]


def test_kappa_closed_deriv_makes_one_pass(em_passes):
    kappa_closed_deriv(2, 0.75, 128)
    assert len(em_passes) == 1


def test_reduced_kappa_command_makes_one_pass(em_passes, capsys):
    assert cli.main(["kappa", "--n", "3", "--s=-1.25", "--mode", "reduced"]) == 0
    assert len(em_passes) == 1


def test_torsion_report_n1():
    rep = torsion_report(1)
    assert rep.kappa_at_0 == pytest.approx(0.0, abs=1e-12)
    assert rep.T == pytest.approx(16 * pi**2, rel=1e-12)
    assert rep.ratio == pytest.approx(1.0, rel=1e-12)
    assert rep.zeta_convention == "kernel-included"
    assert all(v < 1e-3 for v in rep.route_residuals.values())


def test_torsion_report_n3():
    rep = torsion_report(3)
    assert rep.T == pytest.approx((4 * pi) ** 4, rel=1e-12)
    assert rep.ratio == pytest.approx(6.0, rel=1e-10)
    assert rep.T_ray_singer == pytest.approx((4 * pi) ** 4 / 6, rel=1e-12)


def test_torsion_report_kernel_excluded():
    rep = torsion_report(2, include_kernel=False)
    assert rep.zeta_convention == "kernel-excluded"
    # Excluding the kernel shifts kappa by +(n+1) but leaves T unchanged.
    assert rep.kappa_at_0 == pytest.approx(3.0, abs=1e-12)
    assert rep.T == pytest.approx((4 * pi) ** 3, rel=1e-12)
    assert all(v < 1e-3 for v in rep.route_residuals.values())


def test_exp_relation_between_t_and_kappa_prime():
    from math import exp

    for n in range(1, 7):
        rep = torsion_report(n)
        assert rep.T == pytest.approx(exp(rep.kappa_prime_at_0 / 2), rel=1e-15)
        assert rep.ratio == pytest.approx(factorial(n), rel=1e-10)
