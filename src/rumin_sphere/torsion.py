"""Contact analytic torsion of the rescaled Rumin complex on S^{2n+1}.

The torsion function kappa(s) is assembled three ways and the routes are
compared:

* direct: the defining alternating sum of per-degree spectral zetas,
  truncated at level N, with a rigorous tail bound (``kappa_direct``);
* reduced: the one-parameter dimension sums that survive the exact
  cancellation of the two-parameter families, either truncated
  (``kappa_reduced``) or analytically continued through the coefficient
  identities (``kappa_continued``, which also returns the closed form from
  the same zeta(2s));
* closed: -(n+1) (1 + 2^{2s+1} zeta(2s)) (``kappa_closed``).

Every route returns a ``KappaEstimate`` of the kernel-included kappa, the one
whose degree-0 zeta counts dim Ker Delta^0 = 1.  Only ``torsion_estimates``
reads the convention: excluding the kernel shifts kappa by n+1 and leaves
kappa' alone.  kappa'(0) = 2 (n+1) log(4 pi), which ``torsion_estimates``
takes from its one zeta(0)/zeta'(0) pass, gives the torsion
T = (4 pi)^{n+1}, which is n! times the Ray-Singer torsion of the round
sphere with the matching metric.

Each refusal has one place.  ``kappa_closed`` and ``kappa_continued`` open
with ``_check_kappa_range`` (``ValueError`` for an n below 1 or a non-finite
s, and ``OverflowError`` before any work where kappa(s), as far as it is
known, leaves the double range) and ``_check_kappa_pole`` (s = 1/2).  Both
read zeta(2s) through ``_zeta_of_2s``, which takes the trivial zero of a
negative integer s from s itself: kappa(s) = -(n+1) at every one, however
large.
``tail_bound`` is the one guard of the truncated routes, which open with it:
it refuses a truncation below 1, a divergent sum (``DivergenceError``), the
kappa range, then a bound that leaves the double range.  ``_finite`` refuses
a non-finite value, bound or rounding, both for ``_estimate``, the one
conversion of a zeta(2s) route to doubles, and for the truncated routes'
sums of doubles.
``torsion_estimates`` refuses n below 1 and above ``MAX_TORSION_N``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import (exp, factorial, fsum, inf, isfinite, ldexp, lgamma, log, log2, nextafter, pi,
                  sin, ulp)
from typing import Optional

import mpmath
from mpmath import mpf, workprec

from . import _kernels_py
from .spectrum import Case, all_families
from .limits import DivergenceError, PoleError, _check_precision
from .zeta import ZetaValue, hurwitz_zeta_and_deriv, riemann_zeta

# Largest n whose report is made of finite doubles: the torsion
# T = (4 pi)^{n+1} (up to n = 279) and the ratio T / T_RS = n! (up to
# n = 170, which binds).
MAX_TORSION_N = min(
    int(log(sys.float_info.max) / log(4 * pi)) - 1,
    next(n for n in count(1) if factorial(n + 1) > sys.float_info.max),
)

_LN_DOUBLE_MAX = log(sys.float_info.max)

# The truncation of the direct and truncated reduced routes in the torsion
# report's ``route_residuals``; the reference point is s = (n+3)/2, where
# the defining sum converges.
N_REF = 80


def degree_weights(n: int) -> tuple[int, ...]:
    """The weights w_k = (-1)^{k+1} (n+1-k) of the degree-k zetas, indexed
    by k = 0..n."""
    return tuple((-1) ** (k + 1) * (n + 1 - k) for k in range(n + 1))


def rounding_gamma(m: float) -> float:
    """Higham's gamma_m = m u / (1 - m u), u = 2^-53: the relative error
    bound of m rounding steps on positive data (Accuracy and Stability of
    Numerical Algorithms, sec. 3.1 and 4.2)."""
    return m * 2.0**-53 / (1 - m * 2.0**-53)


@dataclass(frozen=True)
class KappaEstimate:
    """A kappa evaluation: a rigorous bound on its truncation (or mpmath)
    error, and a bound on the rounding of the double ``value``.  Their sum
    dominates |value - kappa(s)|."""

    value: float
    bound: float
    rounding: float


def _check_kappa_pole(s: float) -> None:
    if s == 0.5:
        raise PoleError("kappa(s) has a pole at s = 1/2 (zeta(2s) pole)")


def _check_truncation(N: int) -> None:
    if N < 1:
        raise ValueError("truncation must be >= 1")


def _check_convergence(n: int, s: float) -> None:
    if 2 * s <= n + 1:
        raise DivergenceError(f"need 2s > n+1 for convergence; got s={s}, n={n}")


def _log_kappa_lower_bound(n: int, s: float) -> float:
    """A lower bound on log|kappa(s)| for s < 0, in doubles; -inf where it
    gives none (s >= 0, or s a negative integer, where kappa = -(n+1)).

    By the functional equation, 2^{2s+1} zeta(2s) = 2^{4s+1} pi^{2s-1}
    sin(pi s) Gamma(1-2s) zeta(1-2s), and zeta(1-2s) >= 1 for s < 0.  The
    sine is taken at s - round(s), which is exact in doubles, so it keeps
    its accuracy at large |s|.  The bound drops the 1 of 1 + 2^{2s+1}
    zeta(2s), which shifts the logarithm by about exp(-bound) only.
    """
    if not s < 0:
        return -inf
    sine = abs(sin(pi * (s - round(s))))
    if sine == 0:
        return -inf
    return (log(n + 1) + (4 * s + 1) * log(2) + (2 * s - 1) * log(pi)
            + log(sine) + lgamma(1 - 2 * s))


def _check_kappa_range(n: int, s: float) -> None:
    # Refuse, before any work, an n below 1 and a non-finite s
    # (``ValueError``), then an s whose kappa(s) leaves the double range:
    # for s > 1/2, zeta(2s) > 1, so |kappa(s)| > (n+1) 2^{2s+1}, which
    # overflows once it reaches 2^max_exp = 2^1024 (2s+1 is exact, and so is
    # log2(n+1) where n+1 is a power of two); for s < 0, the bound above,
    # with a margin of 1 for its rounding.  Evaluating zeta(2s) at such an s
    # would cost guard bits and prefix terms in |s|.  A negative integer s,
    # however large, passes: kappa(s) = -(n+1) there (``_zeta_of_2s``).
    if n < 1:
        raise ValueError("n must be >= 1")
    if not isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    if (s > 0.5 and 2 * s + 1 >= sys.float_info.max_exp - log2(n + 1)) or (
            _log_kappa_lower_bound(n, s) > _LN_DOUBLE_MAX + 1):
        raise OverflowError(f"kappa(s) at n={n}, s={s} overflows a double")


def _check_torsion_range(n: int) -> None:
    if n > MAX_TORSION_N:
        raise OverflowError(
            f"n={n} out of range 1..{MAX_TORSION_N}: the torsion "
            "(4 pi)^(n+1) or the ratio n! overflows a double"
        )


def _two_power(s: float, k: int) -> mpf:
    # 2^{2s+k} as an exact power of two times 2^{fraction}: the rounding of s
    # itself would be amplified by |2s+k| ln 2 (at 8 bits and s = 185, to 28
    # roundings, where ``_estimate`` allows 8).
    whole, fraction = divmod(2 * Fraction(s) + k, 1)
    return mpmath.ldexp(mpf(2) ** (mpf(fraction.numerator) / fraction.denominator), whole)


def _closed_from(n: int, s: float, z: ZetaValue, prec: int) -> KappaEstimate:
    # The closed form from z = zeta(2s).
    with workprec(prec + 16):
        scale = _two_power(s, 1)
        value = -(n + 1) * (1 + scale * z.value)
        bound = (n + 1) * scale * z.error_bound
        size = (n + 1) * (1 + abs(scale * z.value))
    return _estimate(value, bound, size, prec)


def _estimate(value: mpf, bound: mpf, size: mpf, prec: int) -> KappaEstimate:
    # The double nearest ``value``.  Its rounding is half an ulp plus the at
    # most 8 roundings at prec + 16 bits of the form that gave ``value``, each
    # at most 2^-(prec+16) of ``size``, the largest magnitude among its terms.
    # Near s = -159, ``_check_kappa_range`` passes some kappa that overflow.
    v = float(value)
    return _finite(KappaEstimate(value=v, bound=_float_up(bound),
                                 rounding=ulp(v) / 2 + ldexp(float(size), -(prec + 13))))


def _finite(est: KappaEstimate) -> KappaEstimate:
    # Every route's estimate passes here: inside the range that
    # ``_check_kappa_range`` lets through, a value, a product or a rounding
    # bound can still overflow.
    if not all(map(isfinite, (est.value, est.bound, est.rounding))):
        raise OverflowError("the kappa estimate overflows a double")
    return est


def _float_up(x: mpf) -> float:
    # The nearest double to x, moved up one step if it lies below x, so a
    # bound never shrinks in the conversion and a positive one stays above
    # 0 (float(x) alone underflows to 0.0 past about 1070 bits).
    b = float(x)
    if mpf(b) < x:
        b = nextafter(b, inf)
    return b


def _closed_deriv_from(
    n: int, s: float, z: ZetaValue, dz: ZetaValue, prec: int
) -> KappaEstimate:
    # The s-derivative of the closed form from z = zeta(2s), dz = zeta'(2s).
    with workprec(prec + 16):
        scale = _two_power(s, 2)
        log2 = mpmath.log(2)
        value = -(n + 1) * scale * (log2 * z.value + dz.value)
        bound = (n + 1) * scale * (log2 * z.error_bound + dz.error_bound)
        size = (n + 1) * scale * (log2 * abs(z.value) + abs(dz.value))
    return _estimate(value, bound, size, prec)


def _zeta_of_2s(s: float, prec: int) -> ZetaValue:
    # zeta(2s), with the trivial zero zeta(2s) = 0 of a negative integer s
    # read off s itself: no 2s is formed, which is not a double below
    # -8.98846567431158e307, and no Euler-Maclaurin pass runs.
    if s < 0 and s % 1 == 0:
        return ZetaValue(value=mpf(0), error_bound=mpf(0))
    return riemann_zeta(2 * s, prec)


def kappa_closed(n: int, s: float, precision: Optional[int] = None) -> KappaEstimate:
    """Closed form -(n+1)(1 + 2^{2s+1} zeta(2s)); pole at s = 1/2."""
    _check_kappa_range(n, s)
    prec = _check_precision(precision)
    _check_kappa_pole(s)
    return _closed_from(n, s, _zeta_of_2s(s, prec), prec)


def tail_bound(n: int, s: float, N: int) -> float:
    """Rigorous bound on the p, q > N truncation error of the kappa sum.

    The two-parameter families cancel exactly in the alternating combination
    (see ``verify.check_cancellation``), so the discarded tail consists of
    the four one-parameter families.  Their dimensions are bounded by
    C(n,i) (n+1)^n p^n / n! and the eigenvalue factor by 2^{2s} p^{-2s},
    which integrates to the monomial bound

        2^{2s+1} (2(n+1))^n / n! * N^{n+1-2s} / (2s-n-1).

    It is evaluated as a sum of logarithms, so that no factor leaves the
    double range on its own.  Each logarithmic term is off by a few units in
    the last place of its own size and the exponential by one more, so the
    result is rounded up by the relative margin 16 u (1 + sum |terms|),
    u = 2^-53.  A bound above the largest double raises ``OverflowError``; one
    below the smallest subnormal double is reported as that double, never 0.
    Before the bound come the other refusals of the truncated routes.
    """
    _check_truncation(N)
    _check_convergence(n, s)
    _check_kappa_range(n, s)
    terms = (
        (2 * s + 1) * log(2.0),
        n * log(2 * (n + 1)),
        -lgamma(n + 1),
        (n + 1 - 2 * s) * log(N),
        -log(2 * s - n - 1),
    )
    margin = 16 * 2.0**-53 * (1 + sum(abs(t) for t in terms))
    total = fsum(terms)
    if total > _LN_DOUBLE_MAX or (bound := exp(total) * (1 + margin)) == inf:
        raise OverflowError(f"the tail bound at n={n}, s={s}, N={N} overflows a double")
    return max(bound, ulp(0.0))


def degree_zetas_direct(n: int, s: float, N: int) -> list[float]:
    """Truncated per-degree spectral zetas [zeta(Delta^0)(s), ..., zeta(Delta^n)(s)],
    the degree-0 one counting dim Ker Delta^0 = 1.

    Each distinct kernel sum is computed once and added to every degree its
    families populate; the family order is the canonical one from
    ``all_families``.  One ``pair_sums_of_k`` call per k = n-i-j gives every
    pair sum of that k: the sums of (i, j) and (j, i) are equal (dual labels
    share dimension and eigenvalue).  Each one-parameter family reads the
    axis sum of its ``BlockFamily.axis``: Cases III and IV repeat the axis
    sums of 0..n-1, and VI and VII share the axis sum of n.  The truncated
    sums exist at every s; ``tail_bound`` refuses the s where they do not
    converge.
    """
    _check_truncation(N)
    zk = [1.0] + [0.0] * n  # dim Ker Delta^0 = 1; all other kernels vanish
    pair_sums: dict[tuple[int, int], float] = {}
    for k in range(1, n + 1):
        for i, value in enumerate(_kernels_py.pair_sums_of_k(n, k, N, float(s))):
            pair_sums[i, n - k - i] = value
    axis_sums = [_kernels_py.axis_family_sum(n, i, N, float(s)) for i in range(n + 1)]
    for fam in all_families(n):
        if fam.case is Case.I:
            continue
        if fam.axis is None:
            value = pair_sums[min(fam.i, fam.j), max(fam.i, fam.j)]
        else:
            value = axis_sums[fam.axis]
        for bs, bt in fam.spaces:
            zk[bs + bt] += value
    return zk


def kappa_direct(n: int, s: float, N: int) -> KappaEstimate:
    """kappa(s) by direct evaluation of the defining sum, truncated at N.

    Valid for 2s > n+1.  The alternating weights are applied to the
    per-degree zetas, so the exactly-cancelling families are summed and
    cancelled numerically; the returned bound covers the discarded tail of
    the combination.
    """
    bound = tail_bound(n, s, N)
    zk = degree_zetas_direct(n, s, N)
    ws = degree_weights(n)
    value = 0.0
    for w, z in zip(ws, zk):
        value += w * z
    # Every kernel term is positive, so the value is within gamma_m of
    # sum_k |w_k| zeta_k (Higham sec. 4.2).  m counts the kernels' roundings
    # per term, one addition per bidegree a family sum populates, the weight
    # products and n+1 additions, and one step for this bound's own rounding.
    # Each family sum adds its absolute error to every bidegree it
    # populates, where |w_k| weighs it, and each weight product at most
    # half of it.
    families = all_families(n)
    m = (_kernels_py.term_roundings(N) + n + 2
         + sum(len(fam.spaces) for fam in families))
    abs_sum = sum(abs(w) * z for w, z in zip(ws, zk))
    weight = sum(abs(ws[bs + bt]) for fam in families for bs, bt in fam.spaces) + n + 1
    return _finite(KappaEstimate(
        value=value, bound=bound,
        rounding=rounding_gamma(m) * abs_sum + weight * _kernels_py.UNDERFLOW_ERROR))


def kappa_reduced(n: int, s: float, N: int) -> KappaEstimate:
    """kappa(s) through the truncated reduced route kappa_1 + 2 kappa_2:
    kappa_1 = -(n+1), and kappa_2 the sum over the one-parameter families,
    truncated at N (needs 2s > n+1)."""
    bound = tail_bound(n, s, N)
    value = -(n + 1.0)
    abs_sum = abs(value)
    for i in range(n + 1):
        axis = _kernels_py.axis_family_sum(n, i, N, float(s))
        value += 2.0 * (-1.0) ** (i + 1) * axis
        abs_sum += 2.0 * axis
    # As in ``kappa_direct``, with n+1 additions to combine the sums, each
    # sum's absolute error doubled by its weight 2.
    m = _kernels_py.term_roundings(N) + n + 2
    return _finite(KappaEstimate(
        value=value, bound=bound,
        rounding=rounding_gamma(m) * abs_sum + 2 * (n + 1) * _kernels_py.UNDERFLOW_ERROR))


def kappa_continued(
    n: int, s: float, precision: Optional[int] = None
) -> tuple[KappaEstimate, KappaEstimate]:
    """kappa(s) through the continued reduced route, and the closed form at
    s, both from one evaluation of zeta(2s).

    kappa_2 is continued through the coefficient identities:
    kappa_2(s) = -(2^{2s}/n!) sum_l c_l zeta(2s-l+1), where every c_l except
    c_1 = (n+1)! vanishes exactly, so kappa_2(s) = -(n+1) 2^{2s} zeta(2s).
    So this route is the closed form regrouped from the same zeta(2s): its
    checks against the closed form certify ``_two_power`` and the rounding
    of the groupings, and ``c_coefficients_identity`` the identity itself.
    """
    _check_kappa_range(n, s)
    prec = _check_precision(precision)
    _check_kappa_pole(s)
    z = _zeta_of_2s(s, prec)
    return _continued_from(n, s, z, prec), _closed_from(n, s, z, prec)


def _continued_from(n: int, s: float, z: ZetaValue, prec: int) -> KappaEstimate:
    # c_1 / n! = n+1 (``verify.check_c_coefficients``).
    kappa1 = -(n + 1.0)
    with workprec(prec + 16):
        total = (n + 1) * z.value
        err = (n + 1) * z.error_bound
        scale = _two_power(s, 0)
        value = kappa1 - 2 * scale * total
        bound = 2 * scale * err
        size = abs(kappa1) + 2 * scale * abs(total)
    return _estimate(value, bound, size, prec)


@dataclass(frozen=True)
class TorsionReport:
    """kappa(0), kappa'(0), the torsion, and the Ray-Singer comparison."""

    n: int
    kappa_at_0: float
    kappa_prime_at_0: float
    T: float
    T_ray_singer: float
    ratio: float
    route_residuals: dict[str, float]
    zeta_convention: str


def torsion_estimates(
    n: int, precision: Optional[int] = None, include_kernel: bool = True
) -> tuple[TorsionReport, KappaEstimate, KappaEstimate, dict]:
    """Full torsion summary for S^{2n+1}, with the closed-form estimates of
    the kernel-included kappa(0) and kappa'(0) it reports, and the pair
    (route, closed form) behind each key of ``route_residuals``.

    ``route_residuals`` records how far the direct and reduced routes land
    from the closed form at s = (n+3)/2, N = ``N_REF``, where the defining
    sum converges.  They compare kernel-included routes, so they do not
    depend on the convention; excluding the kernel drops its 1 from the
    degree-0 zeta, whose weight is -(n+1), so ``kappa_at_0`` grows by n+1
    and kappa'(0) is unchanged.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_torsion_range(n)
    prec = _check_precision(precision)

    # One Euler-Maclaurin pass per zeta argument: zeta(0) and zeta'(0) come
    # from one derivative pass, and zeta(2 s_ref) serves both the closed form
    # and the continued reduced route at s_ref.
    z0, dz0 = hurwitz_zeta_and_deriv(0, 1, prec)
    kappa0 = _closed_from(n, 0, z0, prec)
    kappa_prime0 = _closed_deriv_from(n, 0, z0, dz0, prec)
    torsion = exp(kappa_prime0.value / 2)
    t_dr = (4 * pi) ** (n + 1) / factorial(n)

    s_ref = (n + 3) / 2
    continued, closed = kappa_continued(n, s_ref, prec)
    routes = {
        f"direct_vs_closed@(s={s_ref}, N={N_REF})": kappa_direct(n, s_ref, N_REF),
        f"reduced_truncated_vs_closed@(s={s_ref}, N={N_REF})":
            kappa_reduced(n, s_ref, N_REF),
        f"reduced_continuation_vs_closed@(s={s_ref})": continued,
    }
    return TorsionReport(
        n=n,
        kappa_at_0=kappa0.value + (0.0 if include_kernel else float(n + 1)),
        kappa_prime_at_0=kappa_prime0.value,
        T=torsion,
        T_ray_singer=t_dr,
        ratio=torsion / t_dr,
        route_residuals={name: abs(est.value - closed.value)
                         for name, est in routes.items()},
        zeta_convention="kernel-included" if include_kernel else "kernel-excluded",
    ), kappa0, kappa_prime0, {name: (est, closed) for name, est in routes.items()}
