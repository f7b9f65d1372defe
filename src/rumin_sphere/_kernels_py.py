"""Truncated spectral-sum kernels for the direct torsion route.

Standard library only: importing numpy would cost every CLI process more
set-up time than the sums themselves take.  The speed comes from the closed
form of the eigenvalues instead.

For a two-parameter label (q, j, i, p) the eigenvalue is (A / D)^2 with

    A = (p+i)(q+n-i) + (q+j)(p+n-j),    D = 2(n-i-j),

so it enters the sum as (A / D)^(-2s).  A is an integer, and for fixed p it
grows by 2p+n+i-j per step in q, so the bases of one row are a ``range`` and
the row costs one C-level ``map`` of ``math.pow`` plus two dot products.
D^{2s} is factored out of the whole sum, so each power is taken of an exact
integer rather than of a rounded quotient.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import mul, truediv

# Largest binary exponent the factored form may reach: above it the powers of
# the integer bases, or D^{2s} times the mid-block factor, could leave the
# normal double range.
_EXACT_LOG2_LIMIT = 1000.0


def _weyl_row(mid: tuple[int, ...], N: int) -> list[int]:
    """Numerators prod_b (q - mid[b] + b+1) for q = 1..N.

    Divided by (n-1)!, each is the factor of a Weyl dimension that depends on
    the first weight entry q, given the n-1 middle entries ``mid``.
    """
    nums = [1] * N
    for b, m in enumerate(mid):
        nums = list(map(mul, nums, range(b + 2 - m, N + b + 2 - m)))
    return nums


def pair_family_sum(n: int, i: int, j: int, N: int, s: float) -> float:
    """sum_{p,q=1..N} dim(q,j,i,p) * eigenvalue(q,j,i,p)^(-s).

    The Weyl dimension factors as M * F(q) * G(p) * (p+q+n)/n because only
    the first and last weight entries depend on the free parameters, so row p
    contributes G(p) * (p <F, A^-2s> + <F (q+n), A^-2s>).  F, G and M/n are
    each one correctly rounded quotient of exact integers.

    When i = j the family is self-dual: G = F and A is symmetric in p and q,
    so only the triangle q >= p is summed, counting off-diagonal terms twice.
    pair_family_sum(n, i, j) equals pair_family_sum(n, j, i) in exact
    arithmetic (the labels are dual and share dimension and eigenvalue).

    All terms are positive, so the relative rounding error is at most
    gamma_{2N+c} for a constant c independent of N (recursive summation,
    Higham, Accuracy and Stability of Numerical Algorithms, sec. 4.2).  For
    s so large that the factored form would leave the double range, the
    bases are divided by D before the power, which adds up to 2s rounding
    units per term.
    """
    if i < 0 or j < 0 or i + j > n - 1:
        raise ValueError(f"(i={i}, j={j}) out of range for n={n}")
    if N < 1:
        return 0.0
    mid = (1,) * j + (0,) * (n - 1 - i - j) + (-1,) * i
    D = 2 * (n - i - j)
    t = -2.0 * s

    m_num = m_den = 1
    for a in range(n - 1):
        for b in range(a + 1, n - 1):
            m_num *= mid[a] - mid[b] + (b - a)
            m_den *= b - a
    m = m_num / (m_den * n)
    a_max = (N + i) * (N + n - i) + (N + j) * (N + n - j)
    div = 1 if math.log2(m) - t * math.log2(a_max) < _EXACT_LOG2_LIMIT else D
    scale = m * math.pow(D // div, -t)

    den = math.factorial(n - 1)
    nums = _weyl_row(mid, N)
    F = list(map(truediv, nums, repeat(den)))
    Fqn = list(map(truediv, map(mul, nums, range(n + 1, N + n + 1)), repeat(den)))

    def row(p: int, lo: int, hi: int) -> float:
        """sum_{q=lo..hi} F(q) (p+q+n) A(p,q)^(-2s), before the scale."""
        step = 2 * p + n + i - j
        a_lo = (p + i) * (lo + n - i) + (lo + j) * (p + n - j)
        bases = range(a_lo, a_lo + (hi + 1 - lo) * step, step)
        if div != 1:
            bases = map(truediv, bases, repeat(div))
        pw = list(map(math.pow, bases, repeat(t)))
        return p * sum(map(mul, F[lo - 1:hi], pw)) + sum(map(mul, Fqn[lo - 1:hi], pw))

    if i == j:
        # Self-dual: G = F and A(p, q) = A(q, p), so each term q > p also
        # stands for its mirror image q < p.
        return scale * sum(
            F[p - 1] * (2.0 * row(p, p + 1, N) + row(p, p, p)) for p in range(1, N + 1)
        )
    dual_mid = tuple(-x for x in reversed(mid))
    G = list(map(truediv, _weyl_row(dual_mid, N), repeat(den)))
    return scale * sum(G[p - 1] * row(p, 1, N) for p in range(1, N + 1))


def term_roundings(n: int, N: int, s: float) -> int:
    """Rounding steps m of one term of either family sum, which is thus
    within gamma_m of its exact value.  A pair term takes 2N + 16 (two
    recursive summations and 14 steps per term, rounded up), and up to 2s
    more on the divided-bases path; an axis term takes N + 2n + 6 (the sum,
    the binomial product, 4 for the dimension, 2 for the power and 1 for the
    product).  2N + 2n + ceil(2s) + 16 covers both."""
    return 2 * N + 2 * n + math.ceil(2 * s) + 16


def axis_family_sum(n: int, i: int, N: int, s: float) -> float:
    """sum_{p=1..N} dim V(0^{n-i}, -1^i, -p) * ((p+i)/2)^(-2s).

    Serves the one-parameter families: the holomorphic/antiholomorphic edge
    cases (i <= n-1) and, at i = n, the two top-degree families.
    """
    if not 0 <= i <= n:
        raise ValueError(f"i={i} out of range for n={n}")
    cni = float(math.comb(n, i))
    t = -2.0 * s
    acc = 0.0
    for p in range(1, N + 1):
        b = 1.0
        for u in range(1, n + 1):
            b *= (p + u) / u
        dim = cni * p / (p + i) * b
        acc += dim * ((p + i) * 0.5) ** t
    return acc
