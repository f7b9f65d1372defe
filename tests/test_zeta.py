"""Euler-Maclaurin zeta engine.  The tests of the dimension polynomial's
identities have moved to the modules that hold them: the symmetric rows and
the polynomial itself to ``test_weights``, and ``sigma``, ``c_coefficients``
and the vanishing correction to ``test_verify``."""

import hashlib
import random
import sys
import threading
import time
from fractions import Fraction
from math import comb, factorial, log, pi, ulp

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumin_sphere import limits, zeta
from rumin_sphere import (
    PoleError,
    PrecisionError,
    hurwitz_zeta,
    hurwitz_zeta_and_deriv,
    riemann_zeta,
)


def mp_zeta(s, a=1, derivative=0, prec=200):
    with mpmath.workprec(prec):
        return mpmath.zeta(mpmath.mpf(s), a, derivative)


def bernoulli(m):
    # B_m for even m, from the Euler-Maclaurin coefficient B_m / m!.
    return zeta._bernoulli_coefficient(m // 2) * factorial(m)


def test_bernoulli_numbers():
    assert bernoulli(0) == 1
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert zeta._bernoulli_coefficient(1) == Fraction(1, 12)


def test_bernoulli_numbers_match_mpmath_up_to_600():
    for m in range(0, 601, 2):
        assert bernoulli(m) == Fraction(*mpmath.bernfrac(m)), m


def test_bernoulli_numbers_match_the_binomial_recurrence():
    # The textbook recurrence sum_{t<=k} C(k+1, t) B_t = 0, over every
    # index; the odd ones past B_1 vanish, and the table holds the even ones.
    old = [Fraction(1)]
    for k in range(1, 41):
        old.append(-sum(comb(k + 1, t) * old[t] for t in range(k)) / (k + 1))
    assert old[1] == Fraction(-1, 2) and not any(old[3::2])
    assert [bernoulli(m) for m in range(0, 41, 2)] == old[::2]


def test_bernoulli_table_stops_at_the_last_usable_order(monkeypatch):
    # A pass reads at most _MAX_ORDER = 700 orders, so the first order past
    # 512 builds B_0..B_1400, not B_0..B_2048.  From an empty table, and on
    # a pass's way up through the powers of two.
    for steps in ((513,), (257, 513, zeta._MAX_ORDER)):
        monkeypatch.setattr(zeta, "_BERNOULLI_COEFFS", [Fraction(1)])
        for r in steps:
            zeta._bernoulli_coefficient(r)
        assert len(zeta._BERNOULLI_COEFFS) == zeta._MAX_ORDER + 1 == 701
    assert bernoulli(1400) == Fraction(*mpmath.bernfrac(1400))
    monkeypatch.setattr(zeta, "_BERNOULLI_COEFFS", [Fraction(1)])
    zeta._bernoulli_coefficient(257)
    assert len(zeta._BERNOULLI_COEFFS) == 513


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
    zd = hurwitz_zeta_and_deriv(0, 1)[1]
    assert abs(float(zd.value) + log(2 * pi) / 2) < 1e-15
    assert float(zd.error_bound) < 1e-30


def test_hurwitz_at_zero_is_half_minus_a():
    for a in (1, 2, 7, 101):
        for prec in (128, 1024):
            z = hurwitz_zeta(0, a, prec)
            with mpmath.workprec(prec + 64):
                assert abs(z.value - (mpmath.mpf(0.5) - a)) <= z.error_bound, (a, prec)


@pytest.mark.parametrize("s", [-3.0, -1.0, 0.5, 2.0, 3.0, 6.0])
def test_hurwitz_at_one_matches_riemann(s):
    h = hurwitz_zeta(s, 1)
    r = riemann_zeta(s)
    assert abs(float(h.value) - float(r.value)) < 1e-35


@pytest.mark.parametrize(
    "s, a",
    [(2.0, 2), (-1.5, 3), (3.0, 10), (-4.5, 7), (0.5, 1), (7.5, 101)],
)
def test_error_bound_holds_against_reference(s, a):
    z = hurwitz_zeta(s, a)
    with mpmath.workprec(256):
        assert abs(z.value - mp_zeta(s, a, prec=256)) <= z.error_bound


@pytest.mark.parametrize("s", [-2.5, -1.0, 0.0, 0.5, 2.0, 5.0])
def test_deriv_error_bound_holds_against_reference(s):
    z = hurwitz_zeta_and_deriv(s, 1)[1]
    ref = mp_zeta(s, 1, derivative=1)
    assert abs(float(z.value - ref)) <= float(z.error_bound)


def _contract_points():
    # A seeded grid over integer a in 1..101.  zeta(-20.5) at 128 bits
    # stopped at a relative bound of 2^-28.4 while the target was taken from
    # the uncorrected prefix sum.
    rng = random.Random(20261018)
    points = [(-20.5, 1, 128)]
    for i in range(24):
        a = 1 if i % 4 == 0 else rng.randint(2, 101)
        points.append((rng.uniform(-120, 40), a, (53, 128, 256)[i % 3]))
    return points


def test_every_pass_reaches_its_precision_and_holds_its_bound():
    # Each bound is at most 2^-prec (1 + |value|) for the value it
    # certifies, and holds.
    for s, a, prec in _contract_points():
        z = hurwitz_zeta(s, a, prec)
        z2, dz = hurwitz_zeta_and_deriv(s, a, prec)
        for got, derivative in ((z, 0), (z2, 0), (dz, 1)):
            with mpmath.workprec(prec + 64):
                target = mpmath.mpf(2) ** -prec * (1 + abs(got.value))
                assert got.error_bound <= target, (s, a, prec, derivative)
                # The bound may be far below the target (large s), so the
                # reference runs 64 bits beyond the accuracy it claims.
                bits = prec + 64 + int(mpmath.log(target / got.error_bound, 2))
            with mpmath.workprec(bits):
                want = mpmath.zeta(mpmath.mpf(s), a, derivative)
                assert abs(got.value - want) <= got.error_bound, \
                    (s, a, prec, derivative)


def _holds_against_mpmath(got, s, a, prec, derivative):
    # The reference runs at least 80 bits beyond the working precision, and
    # 80 beyond the bound where the bound is far below its target (a series
    # that ends exactly at a negative integer s).
    with mpmath.workprec(prec + 80):
        target = mpmath.mpf(2) ** -prec * (1 + abs(got.value))
        assert got.error_bound <= target, (s, a, prec, derivative)
        bits = prec + 80 + max(0, int(mpmath.log(target / got.error_bound, 2)))
    with mpmath.workprec(bits):
        want = mpmath.zeta(mpmath.mpf(s), a, derivative)
        return abs(got.value - want) <= got.error_bound


@pytest.mark.parametrize("prec", [64, 128, 512, 2048])
def test_sieved_prefix_holds_its_bounds(prec):
    # Integer and non-integer s of both signs up to |s| = 40, through the
    # value pass and the value-and-derivative pass at a = 1.
    points = (-40, -39, -20.5, -7.3, -3, -0.5, 0, 0.3, 2, 2.5, 7, 13.7, 39.5, 40)
    if prec == 2048:
        points = (-39, -20.5, 0, 2.5, 40)
    for s in points:
        z = riemann_zeta(s, prec)
        z2, dz = hurwitz_zeta_and_deriv(s, 1, prec)
        if z.error_bound:  # not a trivial zero
            assert _holds_against_mpmath(z, s, 1, prec, 0), (s, prec)
        assert _holds_against_mpmath(z2, s, 1, prec, 0), (s, prec)
        assert _holds_against_mpmath(dz, s, 1, prec, 1), (s, prec)


@pytest.mark.parametrize("prec", [1024, 2048])
def test_integer_a_passes_hold_their_bounds(prec):
    # Each pass at a > 1 sums the window a..a+K-1 of a sieve over [1, a+K).
    # mpmath's reference takes most of the time, so 2048 bits takes fewer s.
    points = (-7.3, -3, -0.5, 0, 2.5, 7) if prec < 2048 else (-3, 2.5, 7)
    for a in (1, 2, 7, 101):
        for s in points:
            z = hurwitz_zeta(s, a, prec)
            z2, dz = hurwitz_zeta_and_deriv(s, a, prec)
            if z.error_bound:  # not a trivial zero
                assert _holds_against_mpmath(z, s, a, prec, 0), (s, a, prec)
            assert _holds_against_mpmath(z2, s, a, prec, 0), (s, a, prec)
            assert _holds_against_mpmath(dz, s, a, prec, 1), (s, a, prec)


def test_non_integer_or_nonpositive_a_is_refused(em_passes):
    for a in (0.5, 0, -1, 2.0, Fraction(3, 2)):
        for call in (hurwitz_zeta, hurwitz_zeta_and_deriv):
            with pytest.raises(ValueError, match="integer a >= 1"):
                call(2, a)
    assert em_passes == []


def test_a_non_finite_s_is_refused_before_any_work(em_passes):
    # A NaN or an infinite s failed inside the engine with "cannot convert
    # float NaN/infinity to integer".
    for s in (float("nan"), float("inf"), float("-inf")):
        for call in (hurwitz_zeta, hurwitz_zeta_and_deriv):
            with pytest.raises(ValueError, match="s must be finite"):
                call(s, 2)
        with pytest.raises(ValueError, match="s must be finite"):
            zeta.riemann_zeta(s)
    assert em_passes == []


def test_a_beyond_the_sieve_limit_is_refused_before_any_work(em_passes):
    # The sieve covers [1, a+K), so a large a would cost time and memory.
    for a in (zeta.MAX_HURWITZ_A + 1, 10**6):
        for call in (hurwitz_zeta, hurwitz_zeta_and_deriv):
            start = time.perf_counter()
            with pytest.raises(ValueError, match=f"at most {zeta.MAX_HURWITZ_A}"):
                call(2.5, a)
            assert time.perf_counter() - start < 0.1, a
    assert em_passes == []


@pytest.mark.parametrize("prec", [64, 256, 1024])
def test_sieved_prefix_matches_the_general_path(prec):
    # zeta(s) = 1 + zeta(s, 2) and zeta'(s) = zeta'(s, 2): the windows of
    # two sieves, one starting at 1 and one at 2.
    for s in (-17.5, -4, -1.25, 0, 0.5, 3, 6.75, 25):
        z, dz = hurwitz_zeta_and_deriv(s, 1, prec)
        h, dh = hurwitz_zeta_and_deriv(s, 2, prec)
        with mpmath.workprec(4 * prec):
            assert abs(z.value - 1 - h.value) <= z.error_bound + h.error_bound, s
            assert abs(dz.value - dh.value) <= dz.error_bound + dh.error_bound, s
        if s != 0:
            hv = hurwitz_zeta(s, 2, prec)
            with mpmath.workprec(4 * prec):
                assert abs(z.value - 1 - hv.value) <= z.error_bound + hv.error_bound, s


def _primes_up_to(m):
    return [p for p in range(2, m + 1) if all(p % q for q in range(2, int(p**0.5) + 1))]


@pytest.mark.parametrize("s, want_derivative", [
    (2.37, False), (-1.37, False), (0.3, True), (4, False), (0, True)])
def test_a_sieved_pass_takes_one_log_and_exp_per_prime(monkeypatch, s, want_derivative):
    # A 2048-bit pass sums K = 724 prefix terms; only the 128 primes up to
    # K + 1 take transcendentals (a term-by-term pass took 724 powers, and
    # 724 logs for the derivative), and integer s takes no exp at all.  The
    # sieve calls the libmp functions that ``zeta`` binds, so those are
    # counted: ``mpf_exp`` for a non-integer s, ``mpf_pow_int`` for an
    # integer s.  A power to a non-integer exponent is an exp (and a log)
    # inside mpmath, so it counts as one.  The prime logs come from the
    # fixed-point chain, even with the table empty, so mpmath's log is
    # called once.
    monkeypatch.setattr(zeta, "_PRIME_LOGS", {})
    calls = {"log": 0, "exp": 0, "pow_int": 0}

    def count(owner, name, kind):
        def counted(*args, _f=getattr(owner, name), **kwargs):
            calls[kind] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    count(mpmath, "log", "log")
    count(mpmath, "exp", "exp")
    count(zeta, "mpf_exp", "exp")
    count(zeta, "mpf_pow_int", "pow_int")
    mpf_type = type(mpmath.mpf(1))
    power = mpf_type.__pow__

    def counted_power(base, exponent):
        calls["exp"] += exponent != int(exponent)
        return power(base, exponent)

    monkeypatch.setattr(mpf_type, "__pow__", counted_power)
    prec = 2048
    zeta._euler_maclaurin(s, 1, prec, want_derivative)
    primes = len(_primes_up_to(int(0.35 * prec) + 9))
    assert primes == 128
    integer = s == int(s)
    # The remainder terms take log(K + 1) and (K + 1)^-s.
    assert calls["log"] == 1
    assert calls["exp"] <= (0 if integer else primes + 1)
    assert calls["pow_int"] <= (primes if integer else 0)
    # The counters see the sieve: one transcendental per prime.
    assert calls["pow_int" if integer else "exp"] >= primes


# A fixed grid of Euler-Maclaurin passes, (s, a, derivative) per precision:
# integer and non-integer s of both signs, a trivial zero (-4 and -20 at
# a = 1), s just above -2r (-19.999, -6 + 2^-40, -9.9999, -7.999), and a in
# 1, 2, 7, 101.  The digests pin every bit of (value, bound, deriv, dbound).
# They were taken from the engine that tested the bound at every order and
# converted every coefficient and prime log afresh in each pass, so the
# exponent screen and the per-precision tables must leave each bit as it was.
_PINNED_PASSES = {
    8: (((2.5, 1, False), (-3, 1, True), (-4, 1, False), (0.3, 7, True),
         (-19.999, 2, False), (40, 101, True), (-6 + 2**-40, 1, False)),
        "88fbb78da941b8912f239bbbe59370017fed85e578fdb687ed2ea97bb4465651"),
    53: (((0, 1, True), (-1, 1, False), (-7.3, 101, True), (3, 2, False),
          (-5.99999, 1, True), (13.7, 7, False), (Fraction(-7, 3), 1, True)),
         "ee3bac31dbaf4353ab6e1540cd54a7060e3fc0848da909a63a48d91af0449761"),
    128: (((0.5, 1, True), (-2, 1, True), (-11.5, 7, False), (6, 101, True),
           (-0.999, 2, False), (-39.9, 1, True), (2, 1, False)),
          "8ab0d1f0a833d6190d5e317bb200c68ffb68f6da6419172ff540517c42c741c2"),
    256: (((-3.25, 2, True), (1.5, 101, False), (0, 7, False), (-20, 1, False),
           (7, 1, True), (-9.9999, 1, False)),
          "e408c3d41d88943c014a31f0d06565fd8075ff3944b788f809e456f653a50355"),
    1024: (((0, 1, True), (-1.7, 1, False), (2.35, 2, True), (-4, 101, False),
            (13, 7, True), (-7.999, 1, True)),
           "674fda22f93fbdf8ee655ea227c13ac4b17955706fbcf96569de87adc9b9a111"),
    2048: (((0, 1, True), (4.7, 1, False), (-0.6, 1, False), (-3, 2, True),
            (2.5, 7, False), (-2.3, 101, True)),
           "8842bd0687911703f33390ffc94315c5302bcfa41f04461838ee3a9dcf6bf0b2"),
}


@pytest.mark.parametrize("prec", sorted(_PINNED_PASSES), ids=lambda p: f"prec{p}")
def test_euler_maclaurin_passes_are_pinned(prec):
    passes, digest = _PINNED_PASSES[prec]
    h = hashlib.sha256()
    for s, a, want_derivative in passes:
        out = zeta._euler_maclaurin(s, a, prec, want_derivative)
        h.update(repr([None if v is None else tuple(int(t) for t in v._mpf_)
                       for v in out]).encode())
    assert h.hexdigest() == digest


def _workload_passes(monkeypatch, run):
    # The (s, a, prec, derivative) and the output bits of every pass that
    # ``run`` makes through the engine, in order.
    passes = []
    original = zeta._euler_maclaurin

    def recorded(s, a, prec, want_derivative):
        out = original(s, a, prec, want_derivative)
        passes.append((s, a, prec, want_derivative,
                       [None if v is None else tuple(int(t) for t in v._mpf_)
                        for v in out]))
        return out

    with monkeypatch.context() as m:
        m.setattr(zeta, "_euler_maclaurin", recorded)
        run()
    return passes


def test_the_workloads_own_passes_are_pinned(monkeypatch):
    # The 20 value passes of the Hurwitz shift check at 128 bits (each shift
    # point at a and a + 1) and the zeta(2s) passes of ``kappa --mode
    # closed`` at 2048 bits, one s of each sign.  Taken from the engine that
    # ran its loops on mpf objects, so the raw libmp loops leave every bit.
    from rumin_sphere import torsion, verify

    shift = _workload_passes(monkeypatch, lambda: verify.check_hurwitz_shift(128))
    closed = _workload_passes(monkeypatch, lambda: (
        torsion.kappa_closed(1, 2.3, 2048), torsion.kappa_closed(1, -1.3, 2048)))
    assert [p[:4] for p in shift] == [
        (s, b, 128, False) for s, a in verify._SHIFT_POINTS for b in (a, a + 1)]
    assert [p[:4] for p in closed] == [(4.6, 1, 2048, False), (-2.6, 1, 2048, False)]
    for passes, digest in (
            (shift, "a379721ca340dcf4ead3c91bddad3f70ae07bc3e26c83ced98c8d3abe49b88ca"),
            (closed, "19480ee4a274e1544296c3adac1082dcd60506f1514b46270cb42385e19e4f5e")):
        assert hashlib.sha256(b"".join(repr(p).encode() for p in passes)).hexdigest() == digest


_SCREEN_POINTS = (0, -1, -3, Fraction(-7, 3), 0.5, 13.7)


@pytest.mark.parametrize("prec", [8, 53, 128, 1024])
def test_the_exponent_screen_changes_no_bit(monkeypatch, prec):
    # A screened order is one whose exact test fails, so with the screen
    # ruling out no order every pass returns the same bits.
    grid = [(s, a, want_derivative) for s in _SCREEN_POINTS
            for a in (1, 2, 7, 101) for want_derivative in (False, True)]

    def mpf_tuples():
        return [tuple(None if v is None else v._mpf_
                      for v in zeta._euler_maclaurin(s, a, prec, d))
                for s, a, d in grid]

    screened = mpf_tuples()
    monkeypatch.setattr(zeta, "_cannot_stop", lambda rf, v, head, prec: False)
    assert mpf_tuples() == screened


@pytest.mark.parametrize("s, prec", [(0, 128), (0, 2048), (-3, 1024)])
def test_the_zeta_prime_pass_tests_its_bound_at_few_orders(monkeypatch, s, prec):
    # At s = 0, and at every order of s = -3 where the bound is valid, the
    # value's rising factorial rf_v is 0, so only rf_d can screen an order.  The screen's head falls with
    # every order, so it names the order of each call; an order is tested
    # where no call rules it out.  Unscreened, the passes test their bound
    # at 13, 210 and 105 orders.
    ruled_out = {}
    real = zeta._cannot_stop

    def counted(rf, v, head, prec):
        out = real(rf, v, head, prec)
        ruled_out[head] = ruled_out.get(head, False) or out
        return out

    monkeypatch.setattr(zeta, "_cannot_stop", counted)
    hurwitz_zeta_and_deriv(s, 1, prec)
    assert len(ruled_out) >= 13
    assert sum(not out for out in ruled_out.values()) <= 2

@pytest.mark.parametrize("prec", [64, 256, 1024])
def test_per_precision_tables_hold_the_direct_conversions(monkeypatch, prec):
    # Each table entry is the value a pass would compute afresh at its
    # working precision: B_{2r}/(2r)! as mpf(num) / den, and log p for each
    # prime of the sieve over [1, a+K).
    monkeypatch.setattr(zeta, "_BERNOULLI_MPFS", {})
    monkeypatch.setattr(zeta, "_PRIME_LOGS", {})
    zeta._euler_maclaurin(2.5, 7, prec, True)
    wp = prec + 48
    row = zeta._BERNOULLI_MPFS[wp]
    logs = zeta._PRIME_LOGS[wp]
    K = int(0.35 * prec) + 8
    assert 0 < len(row) <= 700
    assert sorted(logs) == _primes_up_to(K + 6)
    with mpmath.workprec(wp):
        for r, got in enumerate(row, start=1):
            coef = zeta._bernoulli_coefficient(r)
            assert got == mpmath.mpf(coef.numerator) / coef.denominator, r
        for p, got in logs.items():
            assert got == mpmath.log(p), p


def _pinned_grid_end():
    # The largest a + K of the pinned passes, K as _euler_maclaurin takes it.
    return max(a + max(int(abs(s)) + 12, int(0.35 * prec) + 8, 16)
               for prec, (passes, _) in _PINNED_PASSES.items()
               for s, a, _ in passes)


@pytest.mark.parametrize("prec", sorted(_PINNED_PASSES), ids=lambda p: f"prec{p}")
def test_the_log_chain_rounds_like_mpmath(prec):
    # Every prime below the largest a + K of the pinned grid, at the pinned
    # working precision: the fixed-point chain's entry has the bits of
    # mpmath.log(p).
    end = _pinned_grid_end()
    assert end == 825
    spf = zeta._smallest_prime_factors(end - 1)
    primes = _primes_up_to(end - 1)
    logs = {}
    with mpmath.workprec(prec + 48):
        zeta._fill_prime_logs(logs, primes, spf)
        assert sorted(logs) == primes
        for p in primes:
            assert logs[p] == mpmath.log(p), p


def test_the_log_chain_holds_one_unit_at_the_ceiling_pass():
    # zeta(-326 + 2^-44) at 5227 bits sieves [1, 1838) at 8810 bits; the
    # chain builds each sampled prime's factors of p - 1 on the way.
    prec = limits.MAX_PRECISION_BITS
    s = -326 + 2**-44
    K = int(0.35 * prec) + 8
    wp = prec + 48 + int(-s * log(K + 1, 2))
    assert (K + 1, wp) == (1838, 8810)
    spf = zeta._smallest_prime_factors(K)
    sample = [2, 3, 5] + [p for p in range(K, 1, -1) if spf[p] == p][:3]
    assert sample[3:] == [1831, 1823, 1811]
    logs = {}
    with mpmath.workprec(wp):
        zeta._fill_prime_logs(logs, sample, spf)
    assert sorted(logs) == sorted(sample)
    for p in sample:
        with mpmath.workprec(wp + 64):
            unit = mpmath.ldexp(1, mpmath.mag(logs[p]) - wp)
            assert abs(logs[p] - mpmath.log(p)) <= unit, p


def test_a_second_pass_at_one_precision_takes_only_the_remainder_log(monkeypatch):
    zeta._euler_maclaurin(0.3, 1, 2048, True)
    calls = []
    log = mpmath.log

    def counted(x, *args, **kwargs):
        calls.append(x)
        return log(x, *args, **kwargs)

    monkeypatch.setattr(mpmath, "log", counted)
    zeta._euler_maclaurin(2.7, 1, 2048, True)
    K = int(0.35 * 2048) + 8
    assert calls == [K + 1]


def test_concurrent_passes_build_one_ordered_coefficient_list(monkeypatch):
    # mpmath's precision is process-global: it is set to the working
    # precision first, so no thread leaving ``workprec`` changes it under
    # another, and the threaded passes must equal the serial ones.  The
    # threads also fill the prime-log table, whose chain must not change
    # that precision either.
    monkeypatch.setattr(zeta, "_BERNOULLI_MPFS", {})
    monkeypatch.setattr(zeta, "_PRIME_LOGS", {})
    prec = 1111
    wp = prec + 48
    points = ((0.5, True), (2.25, False), (7, True), (30.5, False))
    results = [None] * len(points)
    start = threading.Barrier(len(points))

    def run(i, s, want_derivative):
        start.wait(timeout=60)
        results[i] = zeta._euler_maclaurin(s, 1, prec, want_derivative)

    saved = mpmath.mp.prec, sys.getswitchinterval()
    mpmath.mp.prec = wp
    sys.setswitchinterval(1e-5)  # switch threads often, inside the appends too
    try:
        threads = [threading.Thread(target=run, args=(i, *point))
                   for i, point in enumerate(points)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        mpmath.mp.prec = saved[0]
        sys.setswitchinterval(saved[1])
    assert list(zeta._BERNOULLI_MPFS) == [wp]
    row = zeta._BERNOULLI_MPFS[wp]
    with mpmath.workprec(wp):
        want = [mpmath.mpf(c.numerator) / c.denominator
                for c in map(zeta._bernoulli_coefficient, range(1, len(row) + 1))]
    assert row == want
    for got, (s, want_derivative) in zip(results, points):
        assert got == zeta._euler_maclaurin(s, 1, prec, want_derivative), s


def test_a_pass_at_the_precision_ceiling_converges():
    # The binding argument: 2s for s within an ulp of -163, the lowest s the
    # kappa range check lets through; 5228 bits would need more than the
    # 700 Bernoulli orders.
    from rumin_sphere import torsion

    s = -163 + ulp(163.0)
    torsion._check_kappa_range(1, s)
    for k in (164, 170):
        for t in (-k + ulp(float(k)), -k - ulp(float(k))):
            with pytest.raises(OverflowError):
                torsion._check_kappa_range(1, t)
    prec = limits.MAX_PRECISION_BITS
    z = riemann_zeta(2 * s, prec)
    with mpmath.workprec(prec):
        assert 0 < z.error_bound <= mpmath.mpf(2) ** -prec * (1 + abs(z.value))
    with pytest.raises(PrecisionError, match="outside the working range"):
        riemann_zeta(2 * s, prec + 1)


@settings(max_examples=40, deadline=None)
@given(
    s=st.floats(min_value=-4, max_value=6).filter(lambda x: abs(x - 1) > 0.05),
    a=st.integers(min_value=1, max_value=101),
)
def test_hurwitz_shift_identity(s, a):
    left = hurwitz_zeta(s, a)
    right = hurwitz_zeta(s, a + 1)
    with mpmath.workprec(200):
        # The a^{-s} term is evaluated at working precision too, within 2
        # roundings; the sum and the difference add one each.
        power = mpmath.mpf(a) ** -mpmath.mpf(s)
        shift = power + right.value
        residual = abs(left.value - shift)
        rounding = (2 * abs(power) + abs(shift) + residual) * mpmath.mpf(2) ** -200
        assert residual <= left.error_bound + right.error_bound + rounding


def test_doubling_precision_shrinks_difference():
    for s, a in [(2.0, 1), (-1.5, 2), (3.25, 4), (-6.5, 101)]:
        low = hurwitz_zeta(s, a, precision=64)
        high = hurwitz_zeta(s, a, precision=128)
        with mpmath.workprec(256):
            assert abs(low.value - high.value) <= low.error_bound + high.error_bound
        assert high.error_bound < low.error_bound


def test_value_and_derivative_from_one_pass(em_passes):
    for s, a in [(0, 1), (-1.5, 2), (3.25, 4), (-0.5, 101)]:
        em_passes.clear()
        z, dz = hurwitz_zeta_and_deriv(s, a)
        assert em_passes == [(s, True)]
        with mpmath.workprec(256):
            assert abs(z.value - mp_zeta(s, a, prec=256)) <= z.error_bound
            assert abs(dz.value - mp_zeta(s, a, 1, prec=256)) <= dz.error_bound


def test_trivial_zeros_are_exact():
    # zeta(-2000) used to fail to converge after 3.4 s.
    for s in (-2, -4.0, Fraction(-60), -2000):
        z = riemann_zeta(s)
        assert z.value == 0 and z.error_bound == 0, s
    # Only at a = 1: zeta(-2, 2) = zeta(-2) - 1 sums to -1.  The derivative
    # still sums at a = 1: zeta'(-2) = -zeta(3)/(4 pi^2).
    z = hurwitz_zeta(-2, 2)
    assert z.error_bound > 0 and abs(z.value + 1) <= z.error_bound
    dz = hurwitz_zeta_and_deriv(-2, 1)[1]
    assert abs(float(dz.value - mp_zeta(-2, 1, 1))) <= float(dz.error_bound)
    assert dz.value != 0


def test_guard_bits_beyond_the_working_range_are_refused():
    # s = -2e6 needs about 4e7 guard bits; the refusal comes before any work.
    start = time.perf_counter()
    with pytest.raises(PrecisionError, match="guard bits"):
        riemann_zeta(-2e6 + 0.5)
    with pytest.raises(PrecisionError, match="guard bits"):
        hurwitz_zeta_and_deriv(-2e6, 2)
    # zeta'(-2m) is not zero, so the derivative pass is refused too.
    with pytest.raises(PrecisionError, match="guard bits"):
        hurwitz_zeta_and_deriv(-2e6, 1)
    # The trivial zero itself is exact, whatever the budget.
    for s in (-2e6, -6000):
        z = riemann_zeta(s)
        assert z.value == 0 and z.error_bound == 0, s
    assert time.perf_counter() - start < 1.0


def test_pole_and_precision_errors():
    with pytest.raises(PoleError):
        riemann_zeta(1)
    with pytest.raises(PoleError):
        hurwitz_zeta_and_deriv(1, 2)
    with pytest.raises(PrecisionError):
        riemann_zeta(2, precision=1 << 20)
    with pytest.raises(ValueError):
        hurwitz_zeta(2, -1.0)
