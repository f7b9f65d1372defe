"""Highest-weight bookkeeping for the unitary group U(m).

The sphere S^{2n+1} carries a U(n+1) action, and every object this package
computes is indexed by a highest weight.  This module holds U(m) data only:
the weight type, the closed form of the Weyl dimension on the middle weights
(1^a, 0^b, (-1)^c) of the labels, a Gelfand-Tsetlin pattern counter, a
memoised sum over interlacing rows, that serves as an independent oracle for
the dimension formula, and the special dimensions, as integers and as the
dimension polynomial whose identities ``verify`` checks.  The label table
lives in ``spectrum``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, product, repeat
from math import comb, factorial, prod
from operator import index, lt
from typing import Optional, Sequence


class EnumerationBudgetError(RuntimeError):
    """The Gelfand-Tsetlin enumeration exceeded its work budget."""


@dataclass(frozen=True, order=True)
class HighestWeight:
    """Nonincreasing integer tuple labeling a U(m) irreducible.  Each entry
    is read by ``operator.index``, so an entry that is not an integer (a
    float or a string) raises ``TypeError`` instead of being truncated."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = tuple(map(index, self.entries))
        object.__setattr__(self, "entries", entries)
        if len(entries) < 1:
            raise ValueError("a highest weight needs at least one entry")
        if any(map(lt, entries, entries[1:])):
            raise ValueError(f"entries must be nonincreasing: {entries}")


def middle_dimension(a: int, b: int, c: int) -> int:
    """The Weyl dimension of the weight (1^a, 0^b, (-1)^c), m = a+b+c
    entries (1 for m = 0): C(b+c, c) C(m, a) C(m+1, a) / C(a+b+1, a), an
    exact integer, in O(m) steps instead of O(m^2).

    Within a block of equal entries every factor is 1, and each pair of
    blocks telescopes: the 1s against the 0s give C(a+b, a), the 0s against
    the -1s C(b+c, c), and the 1s against the -1s (difference 2)
    (m+1)! m! b! (b+1)! / ((m+1-a)! (m-a)! (a+b)! (a+b+1)!).  It is the
    one middle-weight factor of the label dimensions: the row generator
    ``spectrum.BlockFamily.rows`` and the pair kernel both scale by it.
    """
    m = a + b + c
    return comb(b + c, c) * comb(m, a) * comb(m + 1, a) // comb(a + b + 1, a)


# Work units per label for ``gt_pattern_count`` (one per row count or
# running sum stored and one per running sum a row count reads).  ``verify``
# counts each run of labels that differ only in their first entry with one
# call, from the run's top label, under this budget times the run's length.
# With the memo shared across a ``verify`` request, the costliest such call
# took 1,049 units at n = 4 with bound 20, 7,929 with bound 60 and 46,809
# with bound 150, and 2,015, 2,981, 3,947 and 4,913 at n = 6, 8, 10 and 12
# with bound 20, so the budget only stops a runaway count.
GT_BUDGET = 10**6


def gt_pattern_count(
    w: HighestWeight, budget: int = GT_BUDGET, memo: Optional[dict] = None
) -> int:
    """Count Gelfand-Tsetlin patterns with top row ``w``.

    A pattern is a stack of rows, each one entry shorter than the row above
    and interlacing it, so the count of a row is the sum of the counts of its
    interlacing child rows, and a row of length 1 counts 1.  The children of
    a row r are the tuples y with r[t] >= y[t] >= r[t+1].  These facts make
    the sum cheap without changing what is added:

    * translating every row of a pattern by one integer gives a pattern, so
      counts are memoised on the row shifted to end in 0;
    * the children of (x, tail) whose first entry is y <= x are, for each y,
      the children of (y, tail) with first entry y, so with T(y, tail) the
      sum of the counts of those, count(x, tail) = count(x-1, tail) +
      T(x, tail) for x > tail[0], and T(tail[0], tail) for x = tail[0].
      Rows that differ only in their first entry share every earlier sum;
    * the last entry of a child of a row ending in 0 runs over 0..z, with z
      the row's last entry but one, so with the running sum P(c, z) = the
      sum of count(c + (v,)) over v = 0..z, T(y, tail) is the sum of
      P((y,) + mid, z) over the middle entries mid of the children, and
      P(c, z) = P(c, z-1) + count(c + (z,)).  The running sums of c are
      memoised unshifted, as one list P(c, 0), P(c, 1), ... that grows as
      rows need a larger z, so one list serves every row that reaches c;
    * a child row of length 1 adds 1, and a child row (y, m) of length 2
      adds its y - m + 1 children of length 1, with no call and no row
      entry; a longer child row is looked up in the memo, and only a miss
      is counted by a call.  The top row itself always takes the memoised
      path.

    The method only adds counts of interlacing rows; it deliberately shares
    no algebra with the Weyl dimension formula and is the oracle the
    formula is tested against.

    ``memo`` maps shifted rows, which are tuples of integers, to counts, and
    the 1-tuples (c,), whose item is a tuple, to the lists of running sums,
    so no key of one kind equals a key of the other.  Pass one dict to
    several calls to share their work; a fresh one is used otherwise.
    ``budget`` (``GT_BUDGET`` by default) bounds the work of this call,
    counted as one unit for each row count or running sum it stores plus
    one for each running sum that a row count reads; the units are charged
    before the sums are made, and ``EnumerationBudgetError`` is raised once
    they exceed it.  On its way down, a call for the top row (x, tail)
    stores the count of every row (y, tail) with tail[0] <= y < x that the
    memo lacks, so rows that differ only in their first entry can be counted
    by one call for the largest, under the budget of all of them, and the
    rest are then memo hits of no work: ``verify`` counts them so.
    """
    return _gt_count(w.entries, budget, {} if memo is None else memo)[0]


def _gt_count(top: tuple[int, ...], budget: int, table: dict) -> tuple[int, int]:
    # ``gt_pattern_count`` of the row ``top`` through the memo ``table``,
    # with the work units it spent.
    if len(top) == 1:
        return 1, 0
    last = top[-1]
    key = tuple([a - last for a in top]) if last else top
    got = table.get(key)
    if got is not None:
        return got, 0
    work = 0

    def charge(units: int) -> None:
        nonlocal work
        work += units
        if work > budget:
            raise EnumerationBudgetError(
                f"more than {budget} work units for top row {top}"
            )

    def count(key: tuple[int, ...]) -> int:
        # The count of a row of length >= 2 that ends in 0 and is missing
        # from the memo.
        head, tail = key[0], key[1:]
        # The first entry from which prefix counts are still missing.  Each
        # step down to it is a memo entry charged below, so the walk stops
        # where it would exceed the budget left, and the charge trips there.
        x = head
        stop = max(tail[0], head - (budget - work))
        while x > stop and (x - 1,) + tail not in table:
            x -= 1
        # The middle entries of the child rows, whose running sums are read
        # once per first entry; a row of length 2 has the children (y,),
        # which count 1 and need no read.  Interlacing makes every child row
        # nonincreasing, so none needs a further check.
        spans = [range(b, a + 1) for a, b in zip(tail, tail[1:-1])]
        reads = prod(map(len, spans)) if len(tail) > 1 else 0
        charge((head - x + 1) * (1 + reads))
        # No row is (tail[0] - 1,) + tail, so the sum starts at 0 there.
        total = table.get((x - 1,) + tail, 0)
        if not reads:
            for y in range(x, head + 1):
                total += 1
                table[(y,) + tail] = total
            return total
        mids = list(product(*spans))
        z = tail[-2]
        for y in range(x, head + 1):
            for mid in mids:
                c = (y,) + mid
                sums = table.get((c,))
                if sums is None or len(sums) <= z:
                    sums = running(c, z)
                total += sums[z]
            table[(y,) + tail] = total
        return total

    def running(c: tuple[int, ...], z: int) -> list[int]:
        # The running sums P(c, 0), P(c, 1), ... of c, made up to P(c, z).
        # They are made in order, so the first missing one is at the length
        # of the list, and the charge for the rest comes before any sum.
        sums = table.setdefault((c,), [])
        v = len(sums)
        charge(z - v + 1)
        if len(c) == 1:  # the children (y, m), which count y - m + 1
            got = range(c[0] - v + 1, c[0] - z, -1)
        else:
            # The children c + (m,), shifted to end in 0.
            keys = list(zip(*[range(a - v, a - z - 1, -1) for a in c], repeat(0)))
            got = list(map(table.get, keys))
            if None in got:
                got = [count(k) if g is None else g for k, g in zip(keys, got)]
        sums += islice(accumulate(got, initial=sums[-1] if sums else 0), 1, None)
        return sums

    return count(key), work


def special_dimension(n: int, i: int, p: int) -> int:
    """dim V(0,...,0, -1,...,-1, -p) with n-i zeros and i entries -1.

    Closed form p/(p+i) * C(n, i) * C(p+n, n); always an exact integer.
    """
    if n < 1 or not 0 <= i <= n or p < 1:
        raise ValueError(f"need n >= 1, 0 <= i <= n, p >= 1; got ({n}, {i}, {p})")
    dim, rem = divmod(p * comb(n, i) * comb(p + n, n), p + i)
    if rem:
        raise ArithmeticError(f"non-integral special dimension at ({n}, {i}, {p})")
    return dim


def _symmetric_row(values: Sequence[int], l: int) -> list[int]:
    # [e_0, ..., e_l] of the values, from one pass.
    e = [1] + [0] * l
    for v in values:
        for t in range(l, 0, -1):
            e[t] = e[t] + v * e[t - 1]
    return e


def dimension_coefficients(n: int, i: int) -> tuple[Fraction, ...]:
    """dim V(0,...,0, -1,...,-1, -p) as a polynomial in x = p + i: the
    coefficient C(n, i)/n! * e_{n-l}(n-i, ..., -i) of x^l at index l, for
    l = 0..n.  It is C(n, i)/n! prod (x + v) over the nonzero shifts v, so
    it vanishes at x = 1..i."""
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={n}")
    pref = Fraction(comb(n, i), factorial(n))
    return tuple(pref * e for e in reversed(_symmetric_row(range(n - i, -i - 1, -1), n)))
