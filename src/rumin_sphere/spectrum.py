"""Irreducible blocks of horizontal forms on the CR sphere S^{2n+1} and the
exact eigenvalues of the rescaled Rumin Laplacian on them.

The label table ``all_families`` is the one encoding of the seven case
ranges: a label (q, j, i, p) is a member of one of its families, which gives
its case and its bidegrees.  The keys and dimensions that ``spectrum`` and
``verify`` read come from ``BlockFamily.rows``, whose rows hold only what
varies within a family; readers loop the families.  A member's weight comes
from ``BlockFamily.weight``, and each norm formula has one home that takes
(family, q, p) and returns integer pairs (numerator, denominator):
``squared_norm_pairs``, ``operator_norm_pairs``, ``norm_route_pair``,
``case_v_mixed_pair`` and ``case_v_identity_pair``.  ``verify`` reads these.

Everything is exact: eigenvalues are integer keys over one denominator,
dimensions integers, and squared norms carry the rational coefficient of the
symbolic unit pi^{n+1}.  Floats only appear downstream, at zeta-evaluation
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import factorial, lcm, prod
from typing import Iterator, Optional, Sequence

from .weights import HighestWeight, middle_dimension


class Case(Enum):
    """The seven parameter families of the irreducible decomposition."""

    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"
    VI = "VI"
    VII = "VII"


def _middle_weight(n: int, j: int, i: int) -> tuple[int, ...]:
    # The weight between q and -p: (1^j, 0^{n-1-i-j}, (-1)^i).
    return (1,) * j + (0,) * (n - 1 - i - j) + (-1,) * i


def eigenvalue_numerator(n: int, q: int, j: int, i: int, p: int) -> int:
    """A = (p+i)(q+n-i) + (q+j)(p+n-j), the integer whose square over
    4 (n-i-j)^2 is the eigenvalue of the label (q, j, i, p)."""
    return (p + i) * (q + n - i) + (q + j) * (p + n - j)


def eigenvalue_denominator(n: int) -> int:
    """L = 4 lcm(1^2, ..., n^2): every eigenvalue on S^{2n+1} is an
    integer over L, the key A^2 L / (4 (n-i-j)^2) of ``BlockFamily.rows``."""
    return 4 * lcm(*range(1, n + 1)) ** 2


@dataclass(frozen=True)
class BlockFamily:
    """All labels sharing (case, i, j); free parameters range over p, q >= 1.

    ``q_fixed`` / ``p_fixed`` hold structural parameter values (0 or -1) and
    are None for free parameters.  ``spaces`` lists the bidegrees populated
    by every member label.
    """

    n: int
    case: Case
    i: int
    j: int
    q_fixed: Optional[int]
    p_fixed: Optional[int]
    spaces: tuple[tuple[int, int], ...]

    def parameters(self, bound: int) -> tuple[Sequence[int], Sequence[int]]:
        """The values p and q take: a fixed value, or 1..bound if free."""
        free = range(1, bound + 1)
        ps = (self.p_fixed,) if self.p_fixed is not None else free
        qs = (self.q_fixed,) if self.q_fixed is not None else free
        return ps, qs

    def weight(self, q: int, p: int) -> HighestWeight:
        """The highest weight of the member label at (q, p):
        (q, 1 repeated j times, 0 repeated n-1-i-j times, -1 repeated i
        times, -p); degenerate repetition counts give empty segments.  The
        one weight expansion: ``verify`` reads it."""
        return HighestWeight((q, *_middle_weight(self.n, self.j, self.i), -p))

    @property
    def axis(self) -> Optional[int]:
        """The axis c of a one-parameter family: i for Case III, j for Case
        IV, n for Cases VI and VII; None for Cases I, II and V.  The one map
        from a one-parameter family to its axis.

        The member with free parameter x (p where q is fixed, q where p is)
        has the dimension ``weights.special_dimension(n, c, x)`` and the
        eigenvalue ((x+c)/2)^2, so the family's sum in kappa is the axis sum
        of c.  Its bidegrees ``spaces`` are the low one and, on Cases III
        and IV, the high one."""
        return {Case.III: self.i, Case.IV: self.j,
                Case.VI: self.n, Case.VII: self.n}.get(self.case)

    def rows(self, bound: int) -> Iterator[tuple[int, int, int, int]]:
        """The row (q, p, key, dimension) of each member label, free
        parameters running 1..bound, p-major: the one row generator of the
        label set, read family by family by ``degree_multiplicities``,
        ``cli`` and ``verify.run_all``.  The case, i, j and the bidegrees
        are the family's own, so no row repeats them.

        The eigenvalue is key / ``eigenvalue_denominator(n)``.  The dimension
        is the Weyl dimension prod_{a<b} (w_a - w_b + b - a)/(b - a) of the
        weight w = (q, m, -p), m the middle weight (1^j, 0^{d-1}, (-1)^i),
        d = n-i-j, regrouped by pairs:
        ``weights.middle_dimension(j, d-1, i)`` times the q-row
        prod_b (q - m_b + b), the p-row prod_a (m_a + p + n - a) and
        (q + p + n), over (n-1)! n!, as the first-middle, middle-last and
        first-last pairs divide by (n-1)!, (n-1)! and n.  All but the p-rows
        are built once per family; a remainder or a result below 1 raises
        ``ArithmeticError``.
        """
        n, i, j = self.n, self.i, self.j
        d = n - i - j
        mult = eigenvalue_denominator(n) // (4 * d * d)
        divisor = factorial(n - 1) * factorial(n)
        middle = _middle_weight(n, j, i)
        const = middle_dimension(j, d - 1, i)
        q_shifts = [b - m for b, m in enumerate(middle, 1)]
        p_shifts = [m + n - a for a, m in enumerate(middle, 1)]
        ps, qs = self.parameters(bound)
        q_rows = [(q, const * _shifted_product(q, q_shifts)) for q in qs]
        for p in ps:
            p_row = _shifted_product(p, p_shifts)
            for q, q_row in q_rows:
                dim, rem = divmod(q_row * p_row * (q + p + n), divisor)
                if rem or dim <= 0:
                    raise ArithmeticError(
                        "Weyl product is not a positive integer: "
                        f"{(q, *middle, -p)}")
                a = eigenvalue_numerator(n, q, j, i, p)
                yield q, p, a * a * mult, dim


@lru_cache(maxsize=None)
def all_families(n: int) -> tuple[BlockFamily, ...]:
    """The complete, finite list of label families for S^{2n+1}.

    This is the one table of the label set, of its seven case ranges and of
    its bidegrees: every enumeration of labels or blocks in the package is
    built on it, and no two families share (i, j, q_fixed, p_fixed), so no
    label lies in two of them.  Order is
    canonical (I, then II/V by (i, j), then III, IV, VI, VII) so that every
    enumeration and summation downstream is deterministic.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    fams: list[BlockFamily] = [
        BlockFamily(n, Case.I, 0, 0, 0, 0, ((0, 0),))
    ]
    for i in range(n):
        for j in range(n - i):
            if i + j <= n - 2:
                spaces = ((i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1))
                fams.append(BlockFamily(n, Case.II, i, j, None, None, spaces))
            else:  # i + j == n - 1
                spaces = ((i, j), (i + 1, j), (i, j + 1))
                fams.append(BlockFamily(n, Case.V, i, j, None, None, spaces))
    for i in range(n):
        fams.append(BlockFamily(n, Case.III, i, 0, 0, None, ((i, 0), (i + 1, 0))))
    for j in range(n):
        fams.append(BlockFamily(n, Case.IV, 0, j, None, 0, ((0, j), (0, j + 1))))
    fams.append(BlockFamily(n, Case.VI, n - 1, 0, -1, None, ((n, 0),)))
    fams.append(BlockFamily(n, Case.VII, 0, n - 1, None, -1, ((0, n),)))
    return tuple(fams)


def degree_families(
    n: int, k: int
) -> Iterator[tuple[BlockFamily, tuple[tuple[int, int], ...]]]:
    """Each family with a bidegree (s, t), s + t = k, with those bidegrees,
    in canonical family order: the one filter of the families by degree.

    The blocks of degree k are the rows of each yielded family's
    ``BlockFamily.rows``, one per yielded bidegree.  Only degrees k <= n
    carry blocks; higher degrees are reached through the mirror rule.
    """
    return ((fam, spaces) for fam in all_families(n)
            if (spaces := tuple((s, t) for s, t in fam.spaces if s + t == k)))


def _shifted_product(x: int, shifts: Sequence[int]) -> int:
    # prod (x + c) over the shifts c: one q-row or p-row of the Weyl product.
    return prod([x + c for c in shifts])


def degree_multiplicities(n: int, k: int, N: int) -> dict[int, int]:
    """The truncated spectrum on degree k <= n as {key: multiplicity}, in
    increasing key order; the eigenvalue is key / ``eigenvalue_denominator(n)``.

    The one aggregation of the rows of ``degree_families``, one block per
    bidegree: it sums the blocks under their exact integer keys, so labels
    whose eigenvalues genuinely collide are merged correctly.  The CSV
    table reads it.
    """
    counts: dict[int, int] = {}
    for fam, spaces in degree_families(n, k):
        blocks = len(spaces)
        for _, _, key, dim in fam.rows(N):
            counts[key] = counts.get(key, 0) + blocks * dim
    return {key: counts[key] for key in sorted(counts)}


def operator_norm_pairs(family: BlockFamily, q: int, p: int
                        ) -> tuple[tuple[int, int], tuple[int, int]]:
    """(A^2, B^2) of the Case II/V label (q, p) of ``family`` as integer
    pairs (numerator, denominator): ((p+i)(q+n-i), (q+j)(p+n-j)), each over
    2(n-i-j).  The one home of the operator norms."""
    n, i, j = family.n, family.i, family.j
    d = 2 * (n - i - j)
    return ((p + i) * (q + n - i), d), ((q + j) * (p + n - j), d)


def norm_route_pair(family: BlockFamily, q: int, p: int) -> tuple[int, int]:
    """The eigenvalue of the Case II/V label (q, p) recomputed as
    (A^2 + B^2)^2 from the operator norms: with A^2 = a/d and B^2 = b/d,
    the pair ((a + b)^2, d^2)."""
    (a, d), (b, _) = operator_norm_pairs(family, q, p)
    return (a + b) ** 2, d * d


def case_v_mixed_pair(family: BlockFamily, q: int, p: int) -> tuple[int, int]:
    """The eigenvalue on the mixed middle-degree line of the Case V label
    (q, p), as an integer pair.

    With C = (p+i-j-q)/2, A' = C - 2A^2, B' = C + 2B^2, the value is
    ((A'B)^2 + (B'A)^2) / (A^2 + B^2); it must agree with the universal
    formula whenever i + j = n - 1.  With A^2 = a/d, B^2 = b/d and
    C = e/2 this is ((ed - 4a)^2 b + (ed + 4b)^2 a) / (4 d^2 (a + b)).
    """
    (a, d), (b, _) = operator_norm_pairs(family, q, p)
    ed = (p + family.i - family.j - q) * d
    return (ed - 4 * a) ** 2 * b + (ed + 4 * b) ** 2 * a, 4 * d * d * (a + b)


def case_v_identity_pair(family: BlockFamily, q: int, p: int) -> tuple[int, int]:
    """The closed form (q+j-i-p)^2/4 + (p+i)(q+n-i)(q+j)(p+n-j) of the
    mixed-route eigenvalue of the Case V label (q, p), as an integer pair:
    with A^2 = a/d and B^2 = b/d, (e^2 + 4ab, 4) for e = q+j-i-p."""
    (a, _), (b, _) = operator_norm_pairs(family, q, p)
    e = q + family.j - family.i - p
    return e * e + 4 * a * b, 4


def squared_norm_pairs(family: BlockFamily, q: int, p: int
                       ) -> dict[tuple[int, int], tuple[int, int]]:
    """Squared L^2 norms of the highest-weight vector of the label (q, p) of
    ``family`` by bidegree (s, t), as rational coefficients of pi^{n+1},
    each an integer pair (numerator, denominator), not reduced.

    Implements the tabulated norm formulas, each a multiple of one base
    constant built once per label, only for the case that needs it:
    C = 2^{n+1} (q-1)! (p-1)! / (q+p+n)! for Cases II and V, and
    D = 2^{n+1} (q-1)! / (q+n)! for Case IV, with p in place of q for its
    conjugate Case III.  Bidegrees outside their side conditions, and the
    Case I, VI and VII families, have no entry.  The one home of the norm
    table.
    """
    n, i, j, case = family.n, family.i, family.j, family.case
    two = 2 ** (n + 1)

    if case in (Case.II, Case.V):
        c = two * factorial(q - 1) * factorial(p - 1)
        f = factorial(q + p + n)
        norms = {(i, j): (c * (q + j) * (p + i), f << (i + j))}
        if j > 0:
            norms[i + 1, j] = (c * (q + j) * (q + n - i), f << (i + j + 1))
        if i > 0:
            norms[i, j + 1] = (c * (p + i) * (p + n - j), f << (i + j + 1))
        if i > 0 and j > 0 and i + j <= n - 2:
            norms[i + 1, j + 1] = (c * (q + n - i) * (p + n - j) * (n - 1 - i - j),
                                   (f * (n - i - j)) << (i + j + 2))
        return norms
    if case in (Case.III, Case.IV):
        # Case III is the conjugate of Case IV: x is the free parameter, y
        # the axis, and the norms sit at the family's low and high bidegrees.
        x, y = (q if family.q_fixed is None else p), family.axis
        low, high = family.spaces
        d, f = two * factorial(x - 1), factorial(x + n)
        return {low: (d * (x + y), f << y), high: (d * (n - y), f << (y + 1))}
    return {}
