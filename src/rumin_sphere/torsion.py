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
from math import exp, factorial, log, pi
from typing import Optional

import mpmath
from mpmath import mpf, workprec

from . import kernels
from .spectrum import all_families
from .weights import Case
from .zeta import (
    PoleError,
    _check_precision,
    _to_mpf,
    c_coefficients,
    riemann_zeta,
    riemann_zeta_deriv,
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


@dataclass(frozen=True)
class KappaEstimate:
    """A kappa evaluation plus a rigorous bound on its truncation error."""

    value: float
    bound: float


def kappa_closed(n: int, s: float, precision: Optional[int] = None) -> float:
    """Closed form -(n+1)(1 + 2^{2s+1} zeta(2s)); pole at s = 1/2."""
    return kappa_closed_estimate(n, s, precision).value


def kappa_closed_estimate(
    n: int, s: float, precision: Optional[int] = None
) -> KappaEstimate:
    prec = _check_precision(precision)
    if 2 * s == 1:
        raise PoleError("kappa(s) has a pole at s = 1/2 (zeta(2s) pole)")
    z = riemann_zeta(2 * s, prec)
    with workprec(prec + 16):
        scale = mpf(2) ** (2 * _to_mpf(s) + 1)
        value = -(n + 1) * (1 + scale * z.value)
        bound = (n + 1) * scale * z.error_bound
    return KappaEstimate(value=float(value), bound=float(bound))


def kappa_closed_deriv(n: int, s: float, precision: Optional[int] = None) -> float:
    """d/ds of the closed form: -(n+1) 2^{2s+2} (log(2) zeta(2s) + zeta'(2s))."""
    prec = _check_precision(precision)
    if 2 * s == 1:
        raise PoleError("kappa(s) has a pole at s = 1/2 (zeta(2s) pole)")
    z = riemann_zeta(2 * s, prec)
    dz = riemann_zeta_deriv(2 * s, prec)
    with workprec(prec + 16):
        scale = mpf(2) ** (2 * _to_mpf(s) + 2)
        value = -(n + 1) * scale * (mpmath.log(2) * z.value + dz.value)
    return float(value)


def tail_bound(n: int, s: float, N: int) -> float:
    """Rigorous bound on the p, q > N truncation error of the kappa sum.

    The two-parameter families cancel exactly in the alternating combination
    (see ``cancellation_check``), so the discarded tail consists of the four
    one-parameter families.  Their dimensions are bounded by
    C(n,i) (n+1)^n p^n / n! and the eigenvalue factor by 2^{2s} p^{-2s},
    which integrates to the monomial bound below.
    """
    if 2 * s <= n + 1:
        raise DivergenceError(f"need 2s > n+1 for convergence; got s={s}, n={n}")
    return (
        2.0 ** (2 * s + 1)
        * (2 * (n + 1)) ** n
        / factorial(n)
        * N ** (n + 1 - 2 * s)
        / (2 * s - n - 1)
    )


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
    return KappaEstimate(value=value, bound=tail_bound(n, s, N))


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
    kappa1 = -(n + 1.0)
    if not include_kernel:
        kappa1 = 0.0
    if N is not None:
        if 2 * s <= n + 1:
            raise DivergenceError(
                f"need 2s > n+1 for convergence; got s={s}, n={n}"
            )
        value = kappa1
        for i in range(n + 1):
            axis = kernels.axis_family_sum(n, i, N, float(s))
            value += 2.0 * (-1.0) ** (i + 1) * axis
        return KappaEstimate(value=value, bound=tail_bound(n, s, N))

    prec = _check_precision(precision)
    cs = c_coefficients(n)
    with workprec(prec + 16):
        total = mpf(0)
        err = mpf(0)
        for l, cl in enumerate(cs, start=1):
            if cl == 0:
                continue  # exact zero: never evaluated, so no spurious poles
            arg = 2 * s - l + 1
            if arg == 1:
                raise PoleError(f"zeta pole at 2s - l + 1 = 1 (s={s}, l={l})")
            z = riemann_zeta(arg, prec)
            total += cl * z.value
            err += abs(cl) * z.error_bound
        scale = mpf(2) ** (2 * _to_mpf(s)) / factorial(n)
        value = kappa1 - 2 * scale * total
        bound = 2 * scale * err
    return KappaEstimate(value=float(value), bound=float(bound))


def cancellation_check(n: int, p_max: int, q_max: int) -> bool:
    """Verify that every two-parameter label drops out of the kappa sum.

    For each Case II/V label with p <= p_max, q <= q_max, the sum of the
    degree weights over its block list must vanish as an exact integer
    (w_k + 2 w_{k+1} + w_{k+2} for Case II, w_{n-1} + 2 w_n for Case V).
    All blocks of one label share its eigenvalue and dimension, so this
    weight identity kills the label's entire contribution term by term.
    """
    if p_max < 1 or q_max < 1:
        raise ValueError("bounds must be >= 1")
    ws = {dw.k: dw.w for dw in degree_weights(n)}
    for fam in all_families(n):
        if fam.case not in (Case.II, Case.V):
            continue
        for label in fam.labels(p_max, q_max):
            total = sum(ws[bs + bt] for bs, bt in fam.spaces)
            if total != 0:
                return False
    return True


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


def torsion_report(
    n: int,
    s_ref: Optional[float] = None,
    N_ref: int = 80,
    precision: Optional[int] = None,
    include_kernel: bool = True,
) -> TorsionReport:
    """Full torsion summary for S^{2n+1}.

    ``route_residuals`` records how far the direct and reduced routes land
    from the closed form at a reference point (s_ref, N_ref) where the
    defining sum converges.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    prec = _check_precision(precision)
    convention = KERNEL_INCLUDED if include_kernel else KERNEL_EXCLUDED
    shift = 0.0 if include_kernel else float(n + 1)

    kappa0 = kappa_closed(n, 0, prec) + shift
    kappa_prime0 = kappa_closed_deriv(n, 0, prec)
    torsion = exp(kappa_prime0 / 2)
    t_dr = (4 * pi) ** (n + 1) / factorial(n)

    if s_ref is None:
        s_ref = (n + 3) / 2
    closed_ref = kappa_closed(n, s_ref, prec) + shift
    direct_ref = kappa_direct(n, s_ref, N_ref, include_kernel)
    reduced_trunc = kappa_reduced(n, s_ref, N=N_ref, include_kernel=include_kernel)
    reduced_cont = kappa_reduced(
        n, s_ref, precision=prec, include_kernel=include_kernel
    )
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
        kappa_at_0=kappa0,
        kappa_prime_at_0=kappa_prime0,
        T=torsion,
        T_ray_singer=t_dr,
        ratio=torsion / t_dr,
        route_residuals=residuals,
        zeta_convention=convention,
    )
