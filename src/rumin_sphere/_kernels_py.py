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
of ``math.pow`` over the exact doubles that ``itertools.accumulate`` adds
up step by step; each family then reads its terms from the row with one
dot product per half.  A family's dimension is
``weights.middle_dimension``, the factor that ``verify`` certifies in every
dimension of ``spectrum.BlockFamily.rows``, times rows in q and p that share
one product: P(q) = q (q+1) ... (q+n) over two of its factors.

Both kernels take each power of an exact value: the pair kernel of A 2^-e,
the axis kernel of (p+i)/2 2^-e, and one power of the exact D 2^-e or 2^e
undoes the scale at the end.  The axis kernel is one C-level dot of the
exact dimensions with those powers.  The exponent e (``_scale_exponent``)
is 0 wherever every power is a normal double unscaled, which holds at every
s the workloads ask for; above that it moves the powers back into the
normal range.  So both kernels have one power path and one rounding bound,
``term_roundings``.
"""

from __future__ import annotations

import math
from itertools import accumulate, repeat
from operator import mul

from .weights import middle_dimension, special_dimension

# The binary exponents that the scale keeps every power above and every
# partial sum below, a few binades inside the normal range for the rounding
# of the logarithms that choose it and of libm's pow.
_BOTTOM = -1020.0
_TOP = 1021.0

# The absolute part of the kernels' rounding bound (``term_roundings``).
UNDERFLOW_ERROR = 2.0**-1074


def _scale_exponent(t: float, lo: float, hi: float, d: float, m_min: float,
                    carried: float) -> int:
    """The exponent e of the exact scale 2^-e on a kernel's bases, from the
    power t = -2s, the log2 lo and hi of the smallest and largest base, the
    log2 d of the value whose power 2^{a(d-e)}, a = 2s, undoes the scale,
    the least factor m_min that multiplies that power, and carried, the
    log2 of a bound on the factors and the count of terms that a power is
    summed into.

    A power of a scaled base b is 2^{-a(log2 b - e)}, so e moves every power
    up by 2^{ae} and the final scale down by as much.  e is 0 where no power
    can fall below 2^_BOTTOM unscaled: t >= 0 (s <= 0) or a hi <= -_BOTTOM.
    That is the range where every power was a normal double before any
    scale, and it holds every s the workloads ask for.  Elsewhere e is the
    least that keeps the smallest power, at hi, above 2^_BOTTOM:
    e >= hi + _BOTTOM/a.  Two caps bound it:
    - the largest power, at lo, times its factors and count stays below
      2^_TOP: e <= lo + (_TOP - carried) / a;
    - the final scale, and its product with every factor of at least
      m_min, stays above 2^_BOTTOM: e <= d + (min(0, log2 m_min) - _BOTTOM) / a.
    e is never below 0.
    """
    if t >= 0 or hi * t >= _BOTTOM:
        return 0
    a = -t
    need = math.ceil(hi + _BOTTOM / a)
    cap = min(lo + (_TOP - carried) / a,
              d + (min(0.0, math.log2(m_min)) - _BOTTOM) / a)
    return max(0, min(need, math.floor(cap)))


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


def pair_sums_of_k(n: int, k: int, N: int, s: float) -> list[float]:
    """Entry i is sum_{p,q=1..N} dim(q,j,i,p) * eigenvalue(q,j,i,p)^(-s)
    for the family (i, j = n-k-i), i = 0..(n-k)//2: one sum per unordered
    family {i, j} with i + j = n-k.

    The Weyl dimension factors as M * F(q) * G(p) * (p'+q'+k)/n because only
    the first and last weight entries depend on the free parameters.  With
    the middle weight (1^a, 0^(k-1), (-1)^i), a = n-k-i, M is its dimension
    ``weights.middle_dimension(a, k-1, i)``, as in ``BlockFamily.rows``,
    and the row F(q) = (q)_a (q+a+1)_(k-1) (q+a+k+1)_i / (n-1)! runs over
    q..q+n but for q+a and q+a+k, so F(q) = P(q) / ((q+a)(q+a+k)(n-1)!) with
    P(q) = q (q+1) ... (q+n), one product for every family; G swaps a and i.
    F, G and M/n are each one correctly rounded quotient of exact integers.  Row
    r of the shared triangle, W_r[c] = (r+c+k) A(r, c)^(-2s) for c >= r,
    holds the terms with p' = r (the upper half, against F(c-j)) and those
    with q' = r, p' = c > r (the lower half, against G(c-i)).  When i = j
    the family is self-dual: G = F, so the triangle is summed once and each
    off-diagonal term counts twice.  The family (j, i) is the dual of
    (i, j): its labels share dimension and eigenvalue, so its sum is the
    same.

    Each power is of the exact double A 2^-e, and the scale
    (D 2^-e)^{2s} of the whole sum undoes both D and 2^-e.  A row's bases
    are the running sums of its step (2r+k) 2^-e from 2r(r+k) 2^-e: each is
    an integer of at most 2R(R+k) times 2^-e, so each sum is exact and
    ``math.pow`` gets A 2^-e itself.  Above 2^53 an integer need not be a
    double, so a call whose largest base 2R(R+k), R = N+n-k, exceeds 2^53
    raises ``OverflowError`` before any work.  e is chosen once for the
    triangle (``_scale_exponent``): from its smallest base 2(1+k), its
    largest 2R(R+k), the least M/n, and a bound on the dimension, F and G
    factors and the N^2 terms of a family.  All terms are positive, so the
    sum is within ``term_roundings``' bound: a recursive summation within
    each half, and ``math.fsum`` over the halves (Higham, Accuracy and
    Stability of Numerical Algorithms, sec. 4.2).
    """
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    h = n - k
    families = range(h // 2 + 1)
    if N < 1:
        return [0.0] * len(families)
    R = N + h  # the largest shifted coordinate of any family
    if 2 * R * (R + k) > 2**53:
        raise OverflowError(f"the pair kernel's largest base 2R(R+k) at n={n}, "
                            f"k={k}, N={N} exceeds 2^53: its bases would not "
                            "all be exact doubles")
    D = 2 * k
    t = -2.0 * s
    m = [middle_dimension(h - i, k - 1, i) / n for i in families]
    F, G = _dimension_rows(n, k, N)

    dims = list(map(float, range(2 * R + k + 1)))
    e = _scale_exponent(
        t, math.log2(2 * (1 + k)), math.log2(2 * R * (R + k)), math.log2(D), min(m),
        math.log2(N * N * dims[-1]) + math.log2(max(r[-1] for r in F))
        + math.log2(max(r[-1] for r in G)))
    unit = math.ldexp(1.0, -e)

    halves: list[list[float]] = [[] for _ in families]
    rows = [(i, h - i, F[i], G[i], halves[i]) for i in families]
    for r in range(1, R + 1):
        step = 2 * r + k
        # A(r, c) 2^-e for c = r..R, each partial sum exact.
        bases = accumulate(repeat(step * unit, R - r), initial=2 * r * (r + k) * unit)
        # W[c - r] = (r+c+k) (A(r, c) 2^-e)^(-2s) for c = r..R.
        W = list(map(mul, dims[step:r + R + k + 1], map(math.pow, bases, repeat(t))))
        for i, j, Fi, Gi, out in rows:
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
    scale = math.pow(math.ldexp(D, -e), -t)
    return [mi * scale * math.fsum(out) for mi, out in zip(m, halves)]


def term_roundings(N: int) -> int:
    """Rounding steps m of one term of either kernel: each kernel sum is
    within gamma_m S + ``UNDERFLOW_ERROR`` of its exact value S.

    A pair term of ``pair_sums_of_k`` takes at most N + 13: the F and G
    quotients (2), the power (2: libm pow is within one ulp, i.e. 2u), its
    product with the exact float p'+q'+k (1), the product in the dot (1),
    the recursive summation of a half row (N - 1), the self-dual diagonal
    addition (1; the doubling is exact), the row factor (1), ``math.fsum``
    over the halves (1: it is correctly rounded), and the scale: M/n (1),
    (D 2^-e)^{2s} (2), their product (1) and its product with the sum (1).
    An axis term takes N + 6: the dimension's conversion to a double (1;
    exact below 2^53), the power (2), the product (1), the sum (N - 1), and
    the scale (2^e)^{-2s} (2) and its product with the sum (1).  The bases
    and their scale 2^-e are exact, so no step depends on s.  A pair base
    is an integer of at most 2R(R+k), R = N+n-k, times 2^-e, exact up to
    2^53, and ``pair_sums_of_k`` refuses a larger 2R(R+k) with
    ``OverflowError``; an axis base (p+i)/2 2^-e is exact for p+i up to
    2^53.

    Those counts hold for normal doubles.  With gradual underflow every
    operation obeys fl(x op y) = (x op y)(1 + d) + h, |d| <= u and
    |h| <= 2^-1075 (Higham sec. 2.1).  Where the scale keeps every power at
    least 2^-1020 (``_scale_exponent``), every later value of the sum is a
    product by a factor of at least 1 (p'+q'+k, F, G or the dimension) or a
    sum of positive values, so it is normal too, and below 2^1021 by the
    first cap; M/n times the scale is normal by the second.  Only the last
    product can fall below 2^-1022, and it adds at most 2^-1075, within
    ``UNDERFLOW_ERROR``.  Where a cap binds instead, no e keeps every power
    normal.  A power below 2^-1020 is then off by at most 2^-1074 and each
    product after it by 2^-1075, and the factors that carry it total at most
    2^carried, so these terms add at most 2^(carried - 1072) times the
    sum's final factor (M/n times the scale, or the scale).  That is below
    2^-1075 where the factor is at most 2^(-carried - 3).  It is also below
    the second-order slack m(m+1) u^2 / 2 >= 2^-100 of gamma_m, relative to
    a sum whose largest power is at least 2^(carried - 972).  Every axis
    sum of the tests, and every pair sum up to n = 40, meets one of the two.
    At n = 170 some pair families meet neither (at ``torsion --n 170`` the
    worst falls 386 binades short): those rest on the 300-bit oracle grid
    of the tests alone.
    No record holds this bound; it decides a check's ``passed`` only
    through ``verify.route_check``."""
    return N + 13


def axis_family_sum(n: int, i: int, N: int, s: float) -> float:
    """sum_{p=1..N} dim V(0^{n-i}, -1^i, -p) * ((p+i)/2)^(-2s).

    Serves the one-parameter families: the holomorphic/antiholomorphic edge
    cases (i <= n-1) and, at i = n, the two top-degree families.  Each
    dimension is the exact integer ``weights.special_dimension``.  Each
    power is of the exact double (p+i)/2 2^-e, and (2^e)^(-2s) undoes the
    scale once at the end (``_scale_exponent``: the bases run from (1+i)/2
    to (N+i)/2, and the N terms carry at most the dimension at p = N).  The
    sum is one C-level dot: ``sum`` of the products of each dimension with
    its power, added left to right from 0.  The terms are positive, so the
    sum is within ``term_roundings``' bound.
    """
    if not 0 <= i <= n:
        raise ValueError(f"i={i} out of range for n={n}")
    if N < 1:
        return 0.0
    t = -2.0 * s
    e = _scale_exponent(t, math.log2((1 + i) / 2), math.log2((N + i) / 2), 0.0, 1.0,
                        math.log2(N * special_dimension(n, i, N)))
    half = math.ldexp(0.5, -e)
    acc = sum(map(mul, map(special_dimension, repeat(n), repeat(i), range(1, N + 1)),
                  map(math.pow, map(mul, range(1 + i, N + i + 1), repeat(half)), repeat(t))))
    return acc * math.pow(math.ldexp(1.0, e), t)
