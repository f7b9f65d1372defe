"""Contact analytic torsion of the rescaled Rumin complex on S^{2n+1}.

The torsion function kappa(s) is assembled three ways and the routes are
compared:

* direct: the defining alternating sum of per-degree spectral zetas,
  truncated at level N, with a rigorous tail bound;
* reduced: the one-parameter dimension sums that survive the exact
  cancellation of the two-parameter families, truncated or analytically
  continued through the coefficient identities;
* closed: -(n+1) (1 + 2^{2s+1} zeta(2s)).

kappa'(0) = 2 (n+1) log(4 pi) gives the torsion T = (4 pi)^{n+1}, which is
n! times the Ray-Singer torsion of the round sphere with the matching
metric.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import exp, factorial, fsum, inf, ldexp, lgamma, log, nextafter, pi, ulp
from typing import Optional

import mpmath
from mpmath import mpf, workprec

from . import kernels
from .spectrum import all_families
from .weights import Case
from .zeta import (
    PoleError,
    ZetaValue,
    _check_precision,
    _to_mpf,
    c_coefficients,
    hurwitz_zeta_and_deriv,
    riemann_zeta,
)

# Largest n whose torsion T = (4 pi)^{n+1} is a finite double.
MAX_TORSION_N = int(log(sys.float_info.max) / log(4 * pi)) - 1

KERNEL_INCLUDED = "kernel-included"
KERNEL_EXCLUDED = "kernel-excluded"


class DivergenceError(ValueError):
    """Direct summation requested where the defining series diverges."""


@dataclass(frozen=True)
class DegreeWeight:
    """Weight w_k = (-1)^{k+1} (n+1-k) multiplying the degree-k zeta."""

    k: int
    w: int


def degree_weights(n: int) -> tuple[DegreeWeight, ...]:
    return tuple(
        DegreeWeight(k=k, w=(-1) ** (k + 1) * (n + 1 - k)) for k in range(n + 1)
    )


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


def kappa_closed(n: int, s: float, precision: Optional[int] = None) -> float:
    """Closed form -(n+1)(1 + 2^{2s+1} zeta(2s)); pole at s = 1/2."""
    return kappa_closed_estimate(n, s, precision).value


def _check_kappa_pole(s: float) -> None:
    if 2 * s == 1:
        raise PoleError("kappa(s) has a pole at s = 1/2 (zeta(2s) pole)")


def _closed_from(n: int, s: float, z: ZetaValue, prec: int) -> KappaEstimate:
    # The closed form from z = zeta(2s).
    with workprec(prec + 16):
        scale = mpf(2) ** (2 * _to_mpf(s) + 1)
        value = -(n + 1) * (1 + scale * z.value)
        bound = (n + 1) * scale * z.error_bound
        size = (n + 1) * (1 + abs(scale * z.value))
    return _estimate(value, bound, size, prec)


def _estimate(value: mpf, bound: mpf, size: mpf, prec: int) -> KappaEstimate:
    # The double nearest ``value``.  Its rounding is half an ulp plus the at
    # most 8 roundings at prec + 16 bits of the form that gave ``value``, each
    # at most 2^-(prec+16) of ``size``, the largest magnitude among its terms.
    v = float(value)
    return KappaEstimate(value=v, bound=_float_up(bound),
                         rounding=ulp(v) / 2 + ldexp(float(size), -(prec + 13)))


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
        scale = mpf(2) ** (2 * _to_mpf(s) + 2)
        log2 = mpmath.log(2)
        value = -(n + 1) * scale * (log2 * z.value + dz.value)
        bound = (n + 1) * scale * (log2 * z.error_bound + dz.error_bound)
        size = (n + 1) * scale * (log2 * abs(z.value) + abs(dz.value))
    return _estimate(value, bound, size, prec)


def kappa_closed_estimate(
    n: int, s: float, precision: Optional[int] = None
) -> KappaEstimate:
    prec = _check_precision(precision)
    _check_kappa_pole(s)
    return _closed_from(n, s, riemann_zeta(2 * s, prec), prec)


def kappa_closed_deriv(n: int, s: float, precision: Optional[int] = None) -> float:
    """d/ds of the closed form: -(n+1) 2^{2s+2} (log(2) zeta(2s) + zeta'(2s))."""
    prec = _check_precision(precision)
    _check_kappa_pole(s)
    z, dz = hurwitz_zeta_and_deriv(2 * s, 1, prec)
    return _closed_deriv_from(n, s, z, dz, prec).value


def tail_bound(n: int, s: float, N: int) -> float:
    """Rigorous bound on the p, q > N truncation error of the kappa sum.

    The two-parameter families cancel exactly in the alternating combination
    (see ``cancellation_check``), so the discarded tail consists of the four
    one-parameter families.  Their dimensions are bounded by
    C(n,i) (n+1)^n p^n / n! and the eigenvalue factor by 2^{2s} p^{-2s},
    which integrates to the monomial bound

        2^{2s+1} (2(n+1))^n / n! * N^{n+1-2s} / (2s-n-1).

    It is evaluated as a sum of logarithms, so that no factor leaves the
    double range on its own.  Each logarithmic term is off by a few units in
    the last place of its own size and the exponential by one more, so the
    result is rounded up by the relative margin 16 u (1 + sum |terms|),
    u = 2^-53.  A bound below the smallest subnormal double is reported as
    that double, never as 0.
    """
    if 2 * s <= n + 1:
        raise DivergenceError(f"need 2s > n+1 for convergence; got s={s}, n={n}")
    terms = (
        (2 * s + 1) * log(2.0),
        n * log(2 * (n + 1)),
        -lgamma(n + 1),
        (n + 1 - 2 * s) * log(N),
        -log(2 * s - n - 1),
    )
    margin = 16 * 2.0**-53 * (1 + sum(abs(t) for t in terms))
    return max(exp(fsum(terms)) * (1 + margin), ulp(0.0))


def degree_zetas_direct(
    n: int,
    s: float,
    N: int,
    include_kernel: bool = True,
) -> list[float]:
    """Truncated per-degree spectral zetas [zeta(Delta^0)(s), ..., zeta(Delta^n)(s)].

    Each distinct kernel sum is computed once and added to every degree its
    families populate; the family order is the canonical one from
    ``all_families``.  The pair sums of (i, j) and (j, i) are equal (dual
    labels share dimension and eigenvalue), Cases III and IV repeat the axis
    sums of 0..n-1, and VI and VII share the i = n axis sum.
    """
    if 2 * s <= n + 1:
        raise DivergenceError(f"need 2s > n+1 for convergence; got s={s}, n={n}")
    if N < 1:
        raise ValueError("truncation must be >= 1")
    zk = [0.0] * (n + 1)
    if include_kernel:
        zk[0] += 1.0  # dim Ker Delta^0 = 1; all other kernels vanish
    sums: dict[tuple, float] = {}
    for fam in all_families(n):
        if fam.case is Case.I:
            continue
        if fam.case in (Case.II, Case.V):
            pair = (min(fam.i, fam.j), max(fam.i, fam.j))
            key: tuple = (kernels.pair_family_sum, *pair)
        else:
            axis = {Case.III: fam.i, Case.IV: fam.j}.get(fam.case, n)
            key = (kernels.axis_family_sum, axis)
        if key not in sums:
            kernel, *indices = key
            sums[key] = kernel(n, *indices, N, float(s))
        for bs, bt in fam.spaces:
            zk[bs + bt] += sums[key]
    return zk


def kappa_direct(
    n: int,
    s: float,
    N: int,
    include_kernel: bool = True,
) -> KappaEstimate:
    """kappa(s) by direct evaluation of the defining sum, truncated at N.

    Valid for 2s > n+1.  The alternating weights are applied to the
    per-degree zetas, so the exactly-cancelling families are summed and
    cancelled numerically; the returned bound covers the discarded tail of
    the combination.
    """
    zk = degree_zetas_direct(n, s, N, include_kernel)
    value = 0.0
    for dw in degree_weights(n):
        value += dw.w * zk[dw.k]
    # Every kernel term is positive, so the value is within gamma_m of
    # sum_k |w_k| zeta_k (Higham sec. 4.2).  m counts the kernels' roundings
    # per term, one addition per bidegree a family sum populates, the weight
    # products and n+1 additions, and one step for this bound's own rounding.
    m = (kernels.term_roundings(n, N, s) + n + 2
         + sum(len(fam.spaces) for fam in all_families(n)))
    abs_sum = sum(abs(dw.w) * zk[dw.k] for dw in degree_weights(n))
    return KappaEstimate(value=value, bound=tail_bound(n, s, N),
                         rounding=rounding_gamma(m) * abs_sum)


def kappa_reduced(
    n: int,
    s: float,
    N: Optional[int] = None,
    precision: Optional[int] = None,
    include_kernel: bool = True,
) -> KappaEstimate:
    """kappa(s) through the reduced route kappa_1 + 2 kappa_2.

    With ``N`` given, kappa_2 is the truncated sum over the one-parameter
    families (needs 2s > n+1).  Without ``N``, kappa_2 is continued through
    the coefficient identities: kappa_2(s) = -(2^{2s}/n!) sum_l c_l
    zeta(2s-l+1), where every c_l except c_1 = (n+1)! vanishes exactly.
    """
    if N is not None:
        bound = tail_bound(n, s, N)  # raises DivergenceError unless 2s > n+1
        value = -(n + 1.0) if include_kernel else 0.0
        abs_sum = abs(value)
        for i in range(n + 1):
            axis = kernels.axis_family_sum(n, i, N, float(s))
            value += 2.0 * (-1.0) ** (i + 1) * axis
            abs_sum += 2.0 * axis
        # As in ``kappa_direct``, with n+1 additions to combine the sums.
        m = kernels.term_roundings(n, N, s) + n + 2
        return KappaEstimate(value=value, bound=bound,
                             rounding=rounding_gamma(m) * abs_sum)

    prec = _check_precision(precision)
    _check_reduced_pole(s, 1)
    return _continued_from(n, s, riemann_zeta(2 * s, prec), prec, include_kernel)


def _continued_and_closed(
    n: int, s: float, precision: Optional[int]
) -> tuple[KappaEstimate, KappaEstimate]:
    """The continued reduced route and the closed form at s, from one
    evaluation of zeta(2s)."""
    prec = _check_precision(precision)
    _check_reduced_pole(s, 1)
    z = riemann_zeta(2 * s, prec)
    return _continued_from(n, s, z, prec, True), _closed_from(n, s, z, prec)


def _check_reduced_pole(s: float, l: int) -> None:
    if 2 * s - l + 1 == 1:
        raise PoleError(f"zeta pole at 2s - l + 1 = 1 (s={s}, l={l})")


def _continued_from(
    n: int, s: float, z: ZetaValue, prec: int, include_kernel: bool
) -> KappaEstimate:
    # The continued reduced route from z = zeta(2s), the zeta factor of c_1.
    # Every other c_l is computed, not assumed zero; a non-zero one (which
    # the identity rules out) is evaluated here.
    kappa1 = -(n + 1.0) if include_kernel else 0.0
    with workprec(prec + 16):
        total = mpf(0)
        err = mpf(0)
        for l, cl in enumerate(c_coefficients(n), start=1):
            if cl == 0:
                continue  # exact zero: never evaluated, so no spurious poles
            if l > 1:
                _check_reduced_pole(s, l)
                z = riemann_zeta(2 * s - l + 1, prec)
            total += cl * z.value
            err += abs(cl) * z.error_bound
        scale = mpf(2) ** (2 * _to_mpf(s)) / factorial(n)
        value = kappa1 - 2 * scale * total
        bound = 2 * scale * err
        size = abs(kappa1) + 2 * scale * abs(total)
    return _estimate(value, bound, size, prec)


def cancellation_check(n: int) -> bool:
    """Verify that every two-parameter label drops out of the kappa sum.

    Every label of a Case II/V family populates the family's bidegrees
    ``spaces``, and all its blocks share its eigenvalue and dimension, so
    the label's contribution is that common term times the sum of the
    degree weights over ``spaces``.  The check is that this sum vanishes as
    an exact integer for each family (w_k + 2 w_{k+1} + w_{k+2} for Case II,
    w_{n-1} + 2 w_n for Case V): one sum per family covers all its labels.
    """
    ws = {dw.k: dw.w for dw in degree_weights(n)}
    return all(
        sum(ws[bs + bt] for bs, bt in fam.spaces) == 0
        for fam in all_families(n)
        if fam.case in (Case.II, Case.V)
    )


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


def torsion_report(n: int, **options) -> TorsionReport:
    """Full torsion summary for S^{2n+1}: ``torsion_estimates``' report."""
    return torsion_estimates(n, **options)[0]


def torsion_estimates(
    n: int,
    s_ref: Optional[float] = None,
    N_ref: int = 80,
    precision: Optional[int] = None,
    include_kernel: bool = True,
) -> tuple[TorsionReport, KappaEstimate, KappaEstimate]:
    """Full torsion summary for S^{2n+1}, with the closed-form estimates of
    kappa(0) (before the convention's shift) and kappa'(0) it reports.

    ``route_residuals`` records how far the direct and reduced routes land
    from the closed form at a reference point (s_ref, N_ref) where the
    defining sum converges.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    prec = _check_precision(precision)
    convention = KERNEL_INCLUDED if include_kernel else KERNEL_EXCLUDED
    shift = 0.0 if include_kernel else float(n + 1)

    # One Euler-Maclaurin pass per zeta argument: zeta(0) and zeta'(0) come
    # from one derivative pass, and zeta(2 s_ref) serves both the closed form
    # and the continued reduced route at s_ref.
    z0, dz0 = hurwitz_zeta_and_deriv(0, 1, prec)
    kappa0 = _closed_from(n, 0, z0, prec)
    kappa_prime0 = _closed_deriv_from(n, 0, z0, dz0, prec)
    torsion = exp(kappa_prime0.value / 2)
    t_dr = (4 * pi) ** (n + 1) / factorial(n)

    if s_ref is None:
        s_ref = (n + 3) / 2
    _check_kappa_pole(s_ref)
    z_ref = riemann_zeta(2 * s_ref, prec)
    closed_ref = _closed_from(n, s_ref, z_ref, prec).value + shift
    direct_ref = kappa_direct(n, s_ref, N_ref, include_kernel)
    reduced_trunc = kappa_reduced(n, s_ref, N=N_ref, include_kernel=include_kernel)
    reduced_cont = _continued_from(n, s_ref, z_ref, prec, include_kernel)
    residuals = {
        f"direct_vs_closed@(s={s_ref}, N={N_ref})": abs(direct_ref.value - closed_ref),
        f"reduced_truncated_vs_closed@(s={s_ref}, N={N_ref})": abs(
            reduced_trunc.value - closed_ref
        ),
        f"reduced_continuation_vs_closed@(s={s_ref})": abs(
            reduced_cont.value - closed_ref
        ),
    }
    return TorsionReport(
        n=n,
        kappa_at_0=kappa0.value + shift,
        kappa_prime_at_0=kappa_prime0.value,
        T=torsion,
        T_ray_singer=t_dr,
        ratio=torsion / t_dr,
        route_residuals=residuals,
        zeta_convention=convention,
    ), kappa0, kappa_prime0
