"""Riemann and Hurwitz zeta via Euler-Maclaurin summation, with rigorous
remainder bounds and analytic s-derivatives: the zeta engine and nothing
else (the dimension polynomial lives in ``weights``).

The arbitrary-precision arithmetic is mpmath's; the summation scheme, the
error bounds and the term-wise differentiation are implemented here.  The
hot loops, the sieved prefix and the Bernoulli loop, call mpmath.libmp's
functions on raw (sign, man, exp, bc) tuples: the same functions, working
precision and rounding that the ``mpf`` operators call, without their
wrappers, so every bit is that of the ``mpf`` arithmetic.  ``mpf`` objects
remain at a pass's edges: its set-up, the remainder bounds at the orders
the screen below lets through, and the returned ``ZetaValue``s.

The correction coefficients B_{2r}/(2r)! come from the tangent numbers by
Brent and Harvey's integer recurrence (arXiv:1108.0286), in O(R^2) integer
operations, and are kept in one process-wide table that fills on the first
zeta call and grows by doubling; nothing is computed at import.

Two more tables are kept per working precision (prec + 48 guard bits, so
the two passes of a ``torsion`` request share them): the coefficients
rounded to that precision, at most 700 of them, and log p for the primes
below the largest a + K the passes there have sieved.  A coefficient entry
has the bits a pass would compute afresh, so that table changes no result.
The logs a pass lacks come from one integer fixed-point chain, log 2 from
``mpmath.ln2`` and log p = log(p-1) + 2 atanh(1/(2p-1)) for odd p, at 64
bits beyond the working precision and rounded once to it: each entry is
within (1 + 2^-38) u of log p, an excess the slack of the rounding model
absorbs, and in every tested case it has the bits of ``mpmath.log(p)``.
A cold process thereby skips mpmath's per-precision log cache, which
costs 8 square roots per entry.  The
tables hold one list of each per working precision used; passes at s < 0
carry their own guard bits, so they get tables of their own.  A 2048-bit
``torsion`` request leaves 210 coefficients and 128 logs, about 150 kB;
the largest pair, 700 coefficients and 282 logs at the 8810 bits of
zeta(-326 + 2^-44) at 5227 bits, takes about 1.3 MB.

Two entry points evaluate zeta at real s and integer a >= 1:
``hurwitz_zeta`` (``riemann_zeta`` is its a = 1 case) gives the value, and
``hurwitz_zeta_and_deriv`` gives the value and the s-derivative from one
pass, with a bound for each, so a caller needs one pass per distinct zeta
argument.  Any other a, an a above ``MAX_HURWITZ_A``, and a NaN or infinite
s raise ``ValueError`` before any work.  A pass adds Bernoulli
corrections until each remainder bound is at most 2^-(prec+6) (1 + |v|), v
the value it certifies as returned; one that has not stopped after 700
orders raises ``PrecisionError``, so no pass stops short of its target.  So
does, before any work, a precision above ``limits.MAX_PRECISION_BITS``,
where some argument the CLI can pass would not stop, and an argument whose growing
prefix terms (s < 0) need more than ``MAX_GUARD_BITS`` guard bits.

The prefix sum is sieved: k^{-s} is completely multiplicative for every
integer k, so the powers of a..a+K-1 come from a smallest-prime-factor sieve
of [1, a+K).  Only the primes take a log, from the table above, and an
exp (for integer s an integer power), every composite is the product of
two earlier powers, and the derivative's log k is a sum of prime logs; the
one ``mpmath.log`` call of a pass is the remainder's log(a+K).  This is the
power sum of Arb's ``acb_dirichlet_powsum_sieved``; the bounds follow
Johansson's rigorous Euler-Maclaurin scheme for the Hurwitz zeta function
(arXiv:1309.2877).  Every zeta call behind ``kappa`` and ``torsion`` has
a = 1.  At 2048 bits that is 128 primes instead of 724 terms.

The Bernoulli loop computes its remainder bounds only at the orders where
the exponents of their factors leave both the value's and the
derivative's bound a chance to meet the target; at every other order the
exact test would fail, so this screen changes no bit.  The rising
factorial of the value's bound is 0 at s = 0, so the zeta(0)/zeta'(0)
pass behind every ``torsion`` record is screened by the derivative's
bound alone, and computes it at 1 or 2 of its 13 (128 bits) to 210 (2048
bits) orders.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, isfinite, isqrt, log2
from typing import Optional, Sequence, Union

import mpmath
from mpmath import mpf, workprec
from mpmath.libmp import (fone, from_int, fzero, mpf_abs, mpf_add, mpf_exp,
                          mpf_gt, mpf_mul, mpf_neg, mpf_pow_int, mpf_sub,
                          mpf_sum, round_nearest)

from .limits import PoleError, PrecisionError, _check_precision

Real = Union[int, float, Fraction]

# The most Bernoulli orders a pass adds; one that has not stopped by then
# raises ``PrecisionError``, and the coefficient table never grows past it.
_MAX_ORDER = 700
# The most guard bits a pass may add for its growing prefix terms (s < 0);
# no CLI input comes near it.
MAX_GUARD_BITS = 1 << 16
# The largest Hurwitz parameter a pass accepts.  The sieve covers [1, a+K),
# so a pass's time and memory grow with a; no caller passes more than
# a = 101.
MAX_HURWITZ_A = 10**4


@dataclass(frozen=True)
class ZetaValue:
    """A zeta evaluation together with a rigorous error bound.

    ``error_bound`` dominates |value - true value|: it is the Euler-Maclaurin
    remainder bound plus a rounding-slack term.
    """

    value: mpmath.mpf
    error_bound: mpmath.mpf


# B_{2r}/(2r)! at index r: the Euler-Maclaurin correction coefficients.  The
# one process-wide cache; it holds only B_0 until a zeta call needs more.
_BERNOULLI_COEFFS: list[Fraction] = [Fraction(1)]
_BERNOULLI_LOCK = threading.Lock()
# The same coefficients rounded to each working precision a pass has used,
# orders 1, 2, ... at index 0, 1, ...: one list per precision, as long as the
# longest pass at it (at most _MAX_ORDER orders).
_BERNOULLI_MPFS: dict[int, list[mpf]] = {}
# log p for the primes the sieved prefixes have met, per working precision.
_PRIME_LOGS: dict[int, dict[int, mpf]] = {}
# Guard bits of the fixed-point chain that fills _PRIME_LOGS; the error
# budget is derived in _fill_prime_logs.
_LOG_GUARD_BITS = 64


def _tangent_numbers(R: int) -> list[int]:
    """Tangent numbers [T_1, ..., T_R] by Brent and Harvey's in-place integer
    recurrence (Fast computation of Bernoulli, Tangent and Secant numbers,
    arXiv:1108.0286, Algorithm TangentNumbers): O(R^2) integer operations."""
    T = [0, 1] + [0] * (R - 1)
    for k in range(2, R + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, R + 1):
        for j in range(k, R + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return T[1:]


def _bernoulli_coefficient(r: int) -> Fraction:
    """B_{2r}/(2r)!, exactly.  The table grows to the next power of two
    above r, at most ``_MAX_ORDER`` orders, so it doubles as a pass's orders
    rise and stops at the last order a pass can use."""
    if r >= len(_BERNOULLI_COEFFS):
        with _BERNOULLI_LOCK:
            have = len(_BERNOULLI_COEFFS) - 1
            if r > have:
                R = max(r, min(1 << r.bit_length(), _MAX_ORDER))
                # B_{2r} = (-1)^{r-1} 2r T_r / (4^r (4^r - 1)).
                _BERNOULLI_COEFFS.extend(
                    Fraction((-1) ** (k - 1) * 2 * k * t,
                             4**k * (4**k - 1) * factorial(2 * k))
                    for k, t in enumerate(_tangent_numbers(R)[have:], start=have + 1)
                )
    return _BERNOULLI_COEFFS[r]


def _bernoulli_mpf(r: int) -> mpf:
    """B_{2r}/(2r)! for r >= 1, rounded to the working precision, converted
    once per precision.  The list grows under the table's lock, so
    concurrent passes cannot interleave their appends."""
    row = _BERNOULLI_MPFS.setdefault(mpmath.mp.prec, [])
    if r > len(row):
        _bernoulli_coefficient(r)
        with _BERNOULLI_LOCK:
            row.extend(mpf(c.numerator) / c.denominator
                       for c in _BERNOULLI_COEFFS[len(row) + 1:r + 1])
    return row[r - 1]


def _cannot_stop(rf: tuple, v: tuple, head: int, prec: int) -> bool:
    """True if a remainder bound with the term env |rf| x^{-s-2r} / denom
    must exceed its target eps (1 + |v|), from the exponents alone: head is
    the order's mag(env) + mag(xp) - mag(x) - 4 - bitlen(int(s) + 2r + 2).
    rf and v are raw libmp values (sign, man, exp, bc), and mag is read off
    them as exp + bc, so 2^(mag-1) <= |v| < 2^mag (0 for v = 0).  A zero rf
    never rules an order out, since its term is then 0."""
    return rf != fzero and head + rf[2] + rf[3] > max(v[2] + v[3], 0) - (prec + 5)


def _smallest_prime_factors(K: int) -> list[int]:
    """spf[k] for 0 <= k <= K: the smallest prime factor of k >= 2, so a
    prime is its own; spf[0] = 0 and spf[1] = 1."""
    spf = list(range(K + 1))
    for p in range(2, isqrt(K) + 1):
        if spf[p] == p:
            for m in range(p * p, K + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def _atanh_inv(d: int, one: int) -> int:
    """atanh(1/d) in fixed point with unit ``one``, for an integer d >= 5:
    the series sum_j d^-(2j+1) / (2j+1) by floor divisions, the power
    carried from term to term.  Each power is within 25/24 units below its
    exact value, each term within 2 units, and the terms left out sum to
    less than one, so the result is 0 to 2T + 1 units below
    atanh(1/d) one, T the number of terms, T <= log2(one) / (2 log2 d) + 1.
    """
    d2 = d * d
    power = total = one // d
    k = 3
    while power:
        power //= d2
        total += power // k
        k += 2
    return total


def _fill_prime_logs(logs: dict[int, mpf], primes: Sequence[int],
                     spf: list[int]) -> None:
    """Store log p in ``logs`` for each prime p of ``primes``, rounded once
    to the working precision wp from one integer fixed-point chain with
    unit 2^-W, W = wp + G and G = ``_LOG_GUARD_BITS``.

    log 2 is ``mpmath.ln2`` at W bits, within 1 unit.  An odd prime p takes
    log p = log(p-1) + 2 atanh(1/(2p-1)), log(p-1) the sum of the chain's
    logs of its prime factors, read off ``spf``; a factor missing from the
    chain is built the same way first.  Unfolded, log p is a sum of at
    most log2(p) logs of 2 and at most log2(p) atanh series: p - 1 is even,
    so the series count S(p) = 1 + sum over the odd prime factors q of
    p - 1, with multiplicity, of S(q) stays below log2(p) by induction.
    Each series has d = 2p - 1 >= 5, so T <= W / 4.6 + 1 terms and an error
    below 2 (2T + 1) <= W units once W >= 54.  So the chain's log p is
    within W log2(p) + log2(p) units, 2^-W (W + 1) log2(p), of log p.  The
    rounding to wp bits adds half an ulp, and log p >= log 2 > 1/2 has an
    ulp of at least 2^-wp; so the entry is within (1/2 + e) ulp of log p,
    e = (W + 1) log2(p) 2^-G.  An ulp is at most 2 u log p, u = 2^-wp, so
    the entry is within (1 + 2e) u of its size: 2e u past the 1 u that the
    rounding model of ``_euler_maclaurin`` charges a log (a correctly
    rounded log is within 1 u).  That model's slack absorbs the excess:
    - a derivative log sums m <= log2(a+K-1) prime logs with m - 1
      roundings, so it is within (m + 2e) u of its size, and the model
      charges log2(a+K) u, more than m by at least 1/((a+K) ln 2);
    - a power with m prime factors, at non-integer s, is within
      (2|s| log k + 3m - 1 + 2e|s| log k) u of its size, and rho charges
      2|s| L + 3 log2(a+K) + 2, at least 3 more than the first three
      parts, while |s| < K.
    With G = 64, every pass has W below 2^17 (prec + guard + G at most
    5227 + 48 + 2^16 + 64), so e < 2^-39 for every p below 2^20, and both
    margins hold with room to spare while a + K is below 2^20.  At 2048
    bits the chain's error is under 2^-40 ulp, so a table entry rounds to
    the same bits as ``mpmath.log(p)`` unless log p lies that close to a
    rounding boundary.
    """
    W = mpmath.mp.prec + _LOG_GUARD_BITS
    one = 1 << W
    # ln2 at W bits without changing mpmath's process-wide precision, which
    # concurrent passes at the working precision read; the shift is exact.
    fixed = {2: int(mpmath.ldexp(mpmath.ln2(prec=W), W))}

    def fixed_log(p: int) -> int:
        if p not in fixed:
            m, acc = p - 1, 0
            while m > 1:
                q = spf[m]
                acc += fixed_log(q)
                m //= q
            fixed[p] = acc + 2 * _atanh_inv(2 * p - 1, one)
        return fixed[p]

    for p in primes:
        # Passes that miss together store equal values: the chain is
        # deterministic at a fixed precision.
        logs[p] = mpf((fixed_log(p), -W))


def _sieved_prefix(s: Real, ms: tuple, a: int, K: int, want_derivative: bool,
                   wp: int):
    """The prefix terms k^{-s} and, if requested, log(k) k^{-s}, k = a..a+K-1,
    as raw libmp values at the working precision wp; ms is s there, raw.

    k^{-s} is completely multiplicative, so only a prime p needs a
    transcendental: log p and one ``mpf_exp(-s log p)``, or for integer s one
    ``mpf_pow_int`` (and log p only for the derivative).  A composite
    k = p m, p its smallest prime factor, is pw[p] pw[m], and its logarithm
    log p + log m (the method of Arb's ``acb_dirichlet_powsum_sieved``).
    The prime logs come from the per-precision table; the primes it lacks
    are filled in one batch by ``_fill_prime_logs``, a fixed-point chain
    with no ``mpmath.log`` call.  The sieve runs over [1, a+K), so a pass
    costs O(a + K) list entries.

    Every product, sum, exp and power is the libmp call that the ``mpf``
    operator (or ``mpmath.exp``) makes under ``workprec(wp)``, with the same
    precision and rounding, on the raw (sign, man, exp, bc) tuples; so each
    term has the bits of the ``mpf`` arithmetic, without its wrappers.
    """
    s_int = int(s) if s == int(s) else None
    need_logs = s_int is None or want_derivative
    end = a + K
    spf = _smallest_prime_factors(end - 1)
    pw = [fone] * end
    lg = [fzero] * end
    if need_logs:
        logs = _PRIME_LOGS.setdefault(wp, {})
        missing = [k for k in range(2, end) if spf[k] == k and k not in logs]
        if missing:
            _fill_prime_logs(logs, missing, spf)
    mul, rnd = mpf_mul, round_nearest
    neg_ms = mpf_neg(ms, wp, rnd)
    for k in range(2, end):
        p = spf[k]
        if p == k:
            if need_logs:
                lg[k] = logs[k]._mpf_
            if s_int is None:
                pw[k] = mpf_exp(mul(neg_ms, lg[k], wp, rnd), wp, rnd)
            else:
                pw[k] = mpf_pow_int(from_int(k), -s_int, wp, rnd)
        else:
            m = k // p
            pw[k] = mul(pw[p], pw[m], wp, rnd)
            if want_derivative:
                lg[k] = mpf_add(lg[p], lg[m], wp, rnd)
    terms = pw[a:]
    dterms = ([mul(l, t, wp, rnd) for l, t in zip(lg[a:], terms)]
              if want_derivative else None)
    return terms, dterms


def _euler_maclaurin(s: Real, a: int, prec: int, want_derivative: bool):
    """Shared Euler-Maclaurin core.

    Returns (value, value_bound, deriv, deriv_bound); the derivative slots
    are None unless requested.  Runs at an elevated working precision, with
    the truncation bound taken from the integral form of the remainder
    (|periodic Bernoulli| <= 2 zeta(2R+1) (2R+1)! / (2pi)^{2R+1}) and a
    slack term covering accumulated rounding.  The Bernoulli loop has one
    stopping rule, each bound at most eps (1 + |v|) for the v it certifies,
    and one other exit: ``PrecisionError`` after ``_MAX_ORDER`` orders.  A
    trivial zero returns before the guard-bit budget is checked.

    The prefix terms come from ``_sieved_prefix`` and are summed by
    ``mpf_sum`` with one rounding, as ``mpmath.fsum`` sums them.  The
    Bernoulli loop's body runs on raw libmp tuples: each product, sum,
    absolute value and comparison is the ``mpf_mul``, ``mpf_add``,
    ``mpf_sub``, ``mpf_abs`` or ``mpf_gt`` that the ``mpf`` operator calls,
    at the working precision prec + guard and rounding to nearest, so it
    has the ``mpf`` arithmetic's bits.  An order's bounds are computed on
    ``mpf`` objects, at the orders the screen lets through.

    An order is tested only where both bounds might pass.  With
    mag(v) = exp + bc of v's mantissa, so 2^(mag-1) <= |v| < 2^mag, and
    head = mag(env) + mag(xp) - mag(x) - 4 - bitlen(int(s) + 2r + 2), xp
    before its step to the next order, ``_cannot_stop`` skips the order
    when rf_v != 0 and head + mag(rf_v) > max(mag(value), 0) - (prec + 5),
    or, in a derivative pass, when rf_d != 0 and
    head + mag(rf_d) > max(mag(deriv), 0) - (prec + 5).  This screen is
    sound:
    - bound = env |rf_v| x^{-s-2r} / denom, and dbound >= env |rf_d|
      x^{-s-2r} / denom, the part of dbound without |rf_v|;
    - the three lower mags give 2^-3, x^{-s-2r} = xp / x and 1/x >
      2^-mag(x), the roundings of either bound take less than a factor 2,
      and 0 < denom < int(s) + 2r + 2, so head + mag(rf) is a lower bound
      on log2 of the computed bound;
    - 1 + |v| < 2^(max(mag(v), 0) + 1), so max(mag(v), 0) - (prec + 5)
      is an upper bound on log2 of the computed target eps (1 + |v|);
    - so a skipped order is one whose exact test fails, and the stopping
      order and every returned bit are those of a test at every order.
    A zero rf never screens: its bound term is then exactly 0.  At s = 0,
    -1 and -3 the rising factorial rf_v is 0 at every order with s + 2r > 0,
    so a derivative pass there, the zeta'(0) pass of every ``torsion``
    record among them, is screened by rf_d alone.  x^{-s-2r} is taken only
    at the tested orders; env is chained at every order, so the stopping
    order's env has all its bits.

    Rounding slack, in units u = 2^-(prec+guard) of the working precision,
    with L = log(a+K), which bounds log k for every k of the sieve, and S
    the prefix sum (every term is positive, so S also bounds the sum of
    their magnitudes):
    - a prime power exp(-s log p) is within (2|s| log p + 2) u of its size
      (the log, the product and the exp; an integer power within 2 u), and
      a composite k < a+K adds one product rounding per prime factor, at
      most log2(a+K) of them; so every term is within
      rho = 2|s| L + 3 log2(a+K) + 2 u of its size;
    - a derivative log is a sum of at most log2(a+K) logs, each within 1 u
      of its size, and is multiplied once more, so a derivative term, at
      most L times its power, is within (rho + log2(a+K) + 1) u of its size;
    - mpf_sum rounds once, and drops only terms 2 (prec+guard) bits below the
      sum, so the prefix sums are within (rho + 2) u S and
      (rho + log2(a+K) + 3) u L S;
    - the integral, boundary and Bernoulli terms and their sums carry
      (8r + 64) u (1 + m) between them, m the largest magnitude among them,
      the running sums and the result: each order adds a few roundings, and
      the Bernoulli terms shrink geometrically up to the stopping order.
    With the 48 guard bits these stay far below 2^-(prec+6).
    """
    if a == 1 and s < 0 and s % 2 == 0 and not want_derivative:
        # A trivial zero, zeta(-2m) = 0 exactly: no terms to sum.
        return mpf(0), mpf(0), None, None
    s_f = float(s)
    K = max(int(abs(s_f)) + 12, int(0.35 * prec) + 8, 16)

    # Extra mantissa bits so rounding stays far below the truncation target:
    # large summands appear when s < 0 (growing powers).
    extra = -s_f * log2(K + a) if s_f < 0 else 0.0
    if extra > MAX_GUARD_BITS:
        raise PrecisionError(
            f"zeta(s, a) at s={s}, a={a} needs {extra:.3g} guard bits, more "
            f"than the {MAX_GUARD_BITS}-bit budget"
        )
    guard = 48 + int(extra)

    wp = prec + guard
    mul, add, rnd = mpf_mul, mpf_add, round_nearest
    with workprec(wp):
        make = mpmath.mp.make_mpf
        ms = mpf(s.numerator) / s.denominator if isinstance(s, Fraction) else mpf(s)
        eps = mpf(2) ** (-(prec + 6))

        terms, dterms = _sieved_prefix(s, ms._mpf_, a, K, want_derivative, wp)
        value = prefix = make(mpf_sum(terms, wp, rnd))
        deriv = make(mpf_neg(mpf_sum(dterms, wp, rnd), wp, rnd)) if want_derivative else None

        x = mpf(K + a)
        L = logx = mpmath.log(x)
        xs = x ** (-ms)
        integral = x * xs / (ms - 1)          # x^{1-s} / (s-1)
        value += integral + xs / 2
        magmax = max(prefix, abs(integral), abs(value))
        if want_derivative:
            dmag = L * prefix
            dint = x * xs * (-logx / (ms - 1) - 1 / (ms - 1) ** 2)
            deriv += dint
            deriv -= logx * xs / 2
            dmag = max(dmag, abs(dint), abs(deriv))

        # Bernoulli correction terms: B_{2r}/(2r)! (s)_{2r-1} x^{-s-2r+1}.
        # Order r's remainder bound needs (s)_{2r+1} and x^{-s-2r}, the
        # factors of term r+1, so one chain serves both.  The loop runs on
        # raw libmp values; mpf objects appear only at the tested orders.
        # env = 2.5 / (2pi)^{2r+1}, chained by (2pi)^-2 per order.  2.5 is
        # 4 % above 2 zeta(3) = 2.404..., far more than the at most
        # _MAX_ORDER chain roundings of 2^-(prec+guard) each can take away.
        env = (mpf(5) / 2 / (2 * mpmath.pi) ** 3)._mpf_
        inv_two_pi_2 = (1 / (2 * mpmath.pi) ** 2)._mpf_
        xp = (xs / x)._mpf_      # x^{-s-2r+1}, starting at r = 1
        inv_x2 = (1 / (x * x))._mpf_
        ms_r, logx_r = ms._mpf_, logx._mpf_
        rf_v = ms_r              # rising factorial (s)_{2r-1}
        rf_d = fone              # its derivative in s
        value, magmax = value._mpf_, magmax._mpf_
        if want_derivative:
            deriv, dmag = deriv._mpf_, dmag._mpf_
        # The screen's parts that do not change with the order.
        lower_mag = -(x._mpf_[2] + x._mpf_[3]) - 4
        s_trunc = int(s_f)
        for r in range(1, _MAX_ORDER + 1):
            mcoef = _bernoulli_mpf(r)._mpf_
            term = mul(mul(mcoef, rf_v, wp, rnd), xp, wp, rnd)
            value = add(value, term, wp, rnd)
            # magmax = max(magmax, |term|, |value|), as Python's max picks.
            for m in (mpf_abs(term, wp, rnd), mpf_abs(value, wp, rnd)):
                if mpf_gt(m, magmax):
                    magmax = m
            if want_derivative:
                dterm = mul(mul(mcoef, mpf_sub(rf_d, mul(rf_v, logx_r, wp, rnd),
                                               wp, rnd), wp, rnd), xp, wp, rnd)
                deriv = add(deriv, dterm, wp, rnd)
                for m in (mpf_abs(dterm, wp, rnd), mpf_abs(deriv, wp, rnd)):
                    if mpf_gt(m, dmag):
                        dmag = m
            for t in (2 * r - 1, 2 * r):
                f = add(ms_r, from_int(t), wp, rnd)
                if want_derivative:
                    rf_d = add(mul(rf_d, f, wp, rnd), rf_v, wp, rnd)
                rf_v = mul(rf_v, f, wp, rnd)

            # Remainder bound for the truncation order R = r, valid once
            # s + 2R > 0.  The one stopping rule: each bound is at most
            # eps (1 + |v|), v the value it certifies as returned.  The
            # screen skips the orders where either bound must fail.
            head = (env[2] + env[3] + xp[2] + xp[3] + lower_mag
                    - (s_trunc + 2 * r + 2).bit_length())
            if s_f + 2 * r > 0 and not (
                _cannot_stop(rf_v, value, head, prec)
                or want_derivative and _cannot_stop(rf_d, deriv, head, prec)
            ):
                x_tail = make(xp) / x                # x^{-s-2r}
                denom = ms + 2 * r
                abs_rf_v = abs(make(rf_v))
                bound = make(env) * abs_rf_v * x_tail / denom
                done = bound <= eps * (1 + abs(make(value)))
                if want_derivative:
                    dbound = make(env) * (
                        abs(make(rf_d)) * x_tail / denom
                        + abs_rf_v * (logx / denom + 1 / denom**2) * x_tail
                    )
                    done = done and dbound <= eps * (1 + abs(make(deriv)))
                if done:
                    break
            xp = mul(xp, inv_x2, wp, rnd)
            env = mul(env, inv_two_pi_2, wp, rnd)
        else:
            raise PrecisionError(
                f"Euler-Maclaurin failed to converge for s={s}, a={a} "
                f"at {prec} bits"
            )

        value, magmax = make(value), make(magmax)
        u = mpf(2) ** (-(prec + guard))
        log2_x = log2(K + a)
        rho = 2 * abs(ms) * L + 3 * log2_x + 2
        tail = 8 * r + 64
        value_bound = bound + u * ((rho + 2) * prefix + tail * (1 + magmax))
        deriv_bound = None
        if want_derivative:
            deriv, dmag = make(deriv), make(dmag)
            deriv_bound = dbound + u * ((rho + log2_x + 3) * L * prefix
                                        + tail * (1 + dmag))
        return value, value_bound, deriv, deriv_bound


def _check_argument(s: Real, a: int) -> None:
    # Of the ``Real`` types only a float can be a NaN or an infinity.
    if isinstance(s, float) and not isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    if s == 1:
        raise PoleError("zeta(s, a) has a pole at s = 1")
    if not (isinstance(a, int) and 1 <= a <= MAX_HURWITZ_A):
        raise ValueError(f"Hurwitz parameter must be an integer a >= 1 and at "
                         f"most {MAX_HURWITZ_A}, got a={a!r}")


def hurwitz_zeta(s: Real, a: int, precision: Optional[int] = None) -> ZetaValue:
    """Hurwitz zeta(s, a) for finite real s != 1 and integer 1 <= a <=
    ``MAX_HURWITZ_A``, analytically continued; any other a, and a NaN or
    infinite s, raises ``ValueError``.

    Euler-Maclaurin: prefix sum to a precision-driven cutoff, integral and
    boundary terms, then Bernoulli corrections until the rigorous remainder
    bound is at most 2^-(prec+6) (1 + |value|), for the value as returned;
    a pass that does not get there within 700 orders raises
    ``PrecisionError``.  The returned ``error_bound`` is that remainder bound
    plus a rounding-slack term.  At a = 1 and a negative even integer s the
    value is the trivial zero 0, with bound 0, at every such s.
    """
    prec = _check_precision(precision)
    _check_argument(s, a)
    value, bound, _, _ = _euler_maclaurin(s, a, prec, want_derivative=False)
    return ZetaValue(value=value, error_bound=bound)


def hurwitz_zeta_and_deriv(
    s: Real, a: int, precision: Optional[int] = None
) -> tuple[ZetaValue, ZetaValue]:
    """zeta(s, a) and d/ds zeta(s, a), both from one Euler-Maclaurin pass;
    the derivative is the term-wise differentiated sum (no finite
    differences).  zeta'(s) is ``hurwitz_zeta_and_deriv(s, 1)[1]``.

    The pass runs until both remainder bounds reach the precision target, so
    the value is at least as accurate as ``hurwitz_zeta``'s.
    """
    prec = _check_precision(precision)
    _check_argument(s, a)
    value, bound, deriv, dbound = _euler_maclaurin(s, a, prec, want_derivative=True)
    return (ZetaValue(value=value, error_bound=bound),
            ZetaValue(value=deriv, error_bound=dbound))


def riemann_zeta(s: Real, precision: Optional[int] = None) -> ZetaValue:
    """Riemann zeta(s) = zeta(s, 1) for real s != 1."""
    return hurwitz_zeta(s, 1, precision)

