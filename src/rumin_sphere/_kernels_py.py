"""Truncated spectral-sum kernels for the direct torsion route.

Standard library only, plus the U(m) dimensions of ``weights``: importing
numpy would cost every CLI process more set-up time than the sums themselves
take.  The speed comes from the closed form of the eigenvalues instead.

For a two-parameter label (q, j, i, p) the eigenvalue is (A / D)^2 with

    A = (p+i)(q+n-i) + (q+j)(p+n-j),    D = 2k,    k = n-i-j,

so it enters the sum as (A / D)^(-2s).  In the shifted coordinates
p' = p+i, q' = q+j the base is A = 2p'q' + k(p'+q'): symmetric, and fixed by
k alone.  The dimension's free factor p+q+n = p'+q'+k is too.  So one
triangle of weights (p'+q'+k) A^(-2s), q' >= p', serves every family with
i + j = n-k, and ``pair_sums_of_k`` builds it once per k.  A is an integer
and grows by 2p'+k per step in q', so a triangle row is one C-level ``map``
of ``math.pow`` over a ``range``; each family then reads its terms from the
row with one dot product per half.  D^{2s} is factored out of the whole
sum, so each power is taken of an exact integer rather than of a rounded
quotient.  The dimension rows share one product as well: every family's
row in q is P(q) = q (q+1) ... (q+n) over two of its factors.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import mul, truediv

from .weights import special_dimension

# Largest binary exponent the factored form may reach: above it the powers of
# the integer bases, or D^{2s} times the mid-block factor, could leave the
# normal double range.
_EXACT_LOG2_LIMIT = 1000.0


def _dimension_rows(n: int, k: int, N: int) -> tuple[list, list]:
    """The rows F and G of ``pair_sums_of_k``, q = 1..N, of its families
    i = 0..(n-k)//2: P(q) / ((q+a)(q+a+k)(n-1)!) at a = n-k-i and a = i.

    P(q) / (n-1)! = n (n+1) C(q+n, n+1) is an integer, built for every
    family at once by its step (q+n+1) / q."""
    h = n - k
    P = [n * (n + 1)]  # P(q) / (n-1)!, P(q) = q (q+1) ... (q+n)
    for q in range(1, N):
        P.append(P[-1] * (q + n + 1) // q)

    def row(a: int) -> list[float]:
        return [Pq / ((q + a) * (q + a + k)) for q, Pq in enumerate(P, 1)]

    F = [row(h - i) for i in range(h // 2 + 1)]
    return F, [F[i] if 2 * i == h else row(i) for i in range(h // 2 + 1)]


def _middle_factor(a: int, b: int, c: int) -> int:
    """The Weyl product of the middle weight (1^a, 0^b, (-1)^c), m = a+b+c
    entries: C(b+c, c) C(m, a) C(m+1, a) / C(a+b+1, a), an exact integer.

    Within a block of equal entries every factor is 1, and each pair of
    blocks telescopes: the 1s against the 0s give C(a+b, a), the 0s against
    the -1s C(b+c, c), and the 1s against the -1s (difference 2)
    (m+1)! m! b! (b+1)! / ((m+1-a)! (m-a)! (a+b)! (a+b+1)!).  The product is
    ``weights.weyl_product`` of the tuple, in O(m) steps instead of O(m^2)."""
    m = a + b + c
    return (math.comb(b + c, c) * math.comb(m, a) * math.comb(m + 1, a)
            // math.comb(a + b + 1, a))


def pair_sums_of_k(n: int, k: int, N: int, s: float) -> list[float]:
    """Entry i is sum_{p,q=1..N} dim(q,j,i,p) * eigenvalue(q,j,i,p)^(-s)
    for the family (i, j = n-k-i), i = 0..(n-k)//2: one sum per unordered
    family {i, j} with i + j = n-k.

    The Weyl dimension factors as M * F(q) * G(p) * (p'+q'+k)/n because only
    the first and last weight entries depend on the free parameters.  With
    the middle weight (1^a, 0^(k-1), (-1)^i), a = n-k-i, the row
    F(q) = (q)_a (q+a+1)_(k-1) (q+a+k+1)_i / (n-1)! runs over q..q+n but for
    q+a and q+a+k, so F(q) = P(q) / ((q+a)(q+a+k)(n-1)!) with
    P(q) = q (q+1) ... (q+n), one product for every family; G swaps a and i.
    F, G and M/n are each one correctly rounded quotient of exact integers.  Row
    r of the shared triangle, W_r[c] = (r+c+k) A(r, c)^(-2s) for c >= r,
    holds the terms with p' = r (the upper half, against F(c-j)) and those
    with q' = r, p' = c > r (the lower half, against G(c-i)).  When i = j
    the family is self-dual: G = F, so the triangle is summed once and each
    off-diagonal term counts twice.  The family (j, i) is the dual of
    (i, j): its labels share dimension and eigenvalue, so its sum is the
    same.

    All terms are positive, so the relative rounding error is at most
    gamma_m with m = N + 13: a recursive summation within each half, and
    ``math.fsum`` over the halves (Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 4.2; ``term_roundings`` counts the steps).
    For s so large that the factored form would leave the double range, the
    bases are divided by D before the power, which adds up to 2s rounding
    units per term.  That choice is made once for the whole triangle, from
    its largest base and the largest M/n of its families.  The bound needs
    every power to be at least 2^-1022: the factored form keeps them above
    2^-1000 / n, but divided bases can go subnormal.
    """
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    h = n - k
    families = range(h // 2 + 1)
    if N < 1:
        return [0.0] * len(families)
    D = 2 * k
    t = -2.0 * s
    m = [_middle_factor(h - i, k - 1, i) / n for i in families]
    F, G = _dimension_rows(n, k, N)

    R = N + h  # the largest shifted coordinate of any family
    a_max = 2 * R * (R + k)
    exact = math.log2(max(m)) - t * math.log2(a_max) < _EXACT_LOG2_LIMIT
    div = 1 if exact else D
    dims = list(map(float, range(2 * R + k + 1)))

    halves: list[list[float]] = [[] for _ in families]
    for r in range(1, R + 1):
        step = 2 * r + k
        a_lo = 2 * r * (r + k)
        bases = range(a_lo, a_lo + (R + 1 - r) * step, step)
        if div != 1:
            bases = map(truediv, bases, repeat(div))
        # W[c - r] = (r+c+k) A(r, c)^(-2s) for c = r..R.
        W = list(map(mul, dims[step:r + R + k + 1], map(math.pow, bases, repeat(t))))
        for i in families:
            j = h - i
            Fi, Gi, out = F[i], G[i], halves[i]
            if i == j:
                if i < r <= i + N:
                    f = Fi[r - i - 1]
                    off = sum(map(mul, Fi[r - i:], W[1:]))
                    out.append(f * (2.0 * off + f * W[0]))
                continue
            if i < r <= i + N:
                # p' = r, q' = c over max(r, j+1)..j+N.
                lo = max(r, j + 1)
                out.append(Gi[r - i - 1] * sum(map(mul, Fi[lo - j - 1:], W[lo - r:])))
            if j < r < i + N:
                # q' = r, p' = c over r+1..i+N.
                out.append(Fi[r - j - 1] * sum(map(mul, Gi[r - i:], W[1:])))
    return [mi * math.pow(D // div, -t) * math.fsum(out) for mi, out in zip(m, halves)]


def term_roundings(N: int, s: float) -> int:
    """Rounding steps m of one term of either family sum, which is thus
    within gamma_m of its exact value while every power is at least 2^-1022.

    A pair term of ``pair_sums_of_k`` takes at most N + 13: the F and G
    quotients (2), the power (2: libm pow is within one ulp, i.e. 2u), its
    product with the exact float p'+q'+k (1), the product in the dot (1),
    the recursive summation of a half row (N - 1), the self-dual diagonal
    addition (1; the doubling is exact), the row factor (1), ``math.fsum``
    over the halves (1: it is correctly rounded), and the scale: M/n (1),
    D^{2s} (2), their product (1) and its product with the sum (1).  The
    divided-bases path adds up to 2s more.  An axis term takes N + 3: the
    dimension's conversion to a double (1; exact below 2^53), the power (2),
    the product (1) and the sum (N - 1).  No record holds this bound; it
    decides a check's ``passed`` only through ``verify.route_check``."""
    return N + math.ceil(2 * s) + 13


def axis_family_sum(n: int, i: int, N: int, s: float) -> float:
    """sum_{p=1..N} dim V(0^{n-i}, -1^i, -p) * ((p+i)/2)^(-2s).

    Serves the one-parameter families: the holomorphic/antiholomorphic edge
    cases (i <= n-1) and, at i = n, the two top-degree families.  Each
    dimension is the exact integer ``weights.special_dimension``.  The terms
    are positive, so the sum is within gamma_{N+3} (``term_roundings``)
    while every power ((p+i)/2)^(-2s) is at least 2^-1022.
    """
    if not 0 <= i <= n:
        raise ValueError(f"i={i} out of range for n={n}")
    t = -2.0 * s
    acc = 0.0
    for p in range(1, N + 1):
        acc += special_dimension(n, i, p) * ((p + i) * 0.5) ** t
    return acc
