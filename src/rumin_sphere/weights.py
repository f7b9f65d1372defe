"""Highest-weight bookkeeping for the unitary group U(m).

The sphere S^{2n+1} carries a U(n+1) action, and every object this package
computes is indexed by a highest weight.  This module holds the weight and
label types, the Weyl dimension formula in exact arithmetic, and a
Gelfand-Tsetlin pattern counter, a memoised sum over interlacing rows, that
serves as an independent oracle for the dimension formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb
from typing import Iterator, Optional, Sequence, Union


class InvalidLabelError(ValueError):
    """A (q, j, i, p) tuple that lies in none of the admissible case ranges."""


class EnumerationBudgetError(RuntimeError):
    """The Gelfand-Tsetlin enumeration exceeded its work budget."""


class Case(Enum):
    """The seven parameter families of the irreducible decomposition."""

    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"
    VI = "VI"
    VII = "VII"


@dataclass(frozen=True, order=True)
class HighestWeight:
    """Nonincreasing integer tuple labeling a U(m) irreducible."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = tuple(int(a) for a in self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) < 1:
            raise ValueError("a highest weight needs at least one entry")
        if any(a < b for a, b in zip(entries, entries[1:])):
            raise ValueError(f"entries must be nonincreasing: {entries}")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)


WeightLike = Union[HighestWeight, Sequence[int]]


def _as_weight(w: WeightLike) -> HighestWeight:
    return w if isinstance(w, HighestWeight) else HighestWeight(tuple(w))


def _classify(n: int, q: int, j: int, i: int, p: int) -> Case:
    if n < 1:
        raise InvalidLabelError(f"sphere index n must be >= 1, got {n}")
    if min(i, j) < 0 or i + j > n - 1 or q < -1 or p < -1:
        raise InvalidLabelError(
            f"(q={q}, j={j}, i={i}, p={p}) violates the basic ranges for n={n}"
        )
    if q == 0 and p == 0:
        if i == 0 and j == 0:
            return Case.I
    elif q == 0 and p >= 1:
        if j == 0:
            return Case.III
    elif p == 0 and q >= 1:
        if i == 0:
            return Case.IV
    elif q == -1:
        if p >= 1 and j == 0 and i == n - 1:
            return Case.VI
    elif p == -1:
        if q >= 1 and i == 0 and j == n - 1:
            return Case.VII
    else:  # p >= 1 and q >= 1
        return Case.II if i + j <= n - 2 else Case.V
    raise InvalidLabelError(
        f"(q={q}, j={j}, i={i}, p={p}) lies in no case range for n={n}"
    )


@dataclass(frozen=True, order=True)
class RuminLabel:
    """Label (q, j, i, p) of one irreducible summand on S^{2n+1}.

    Construction validates the tuple against the seven case ranges; the
    matching case is available as ``label.case``.
    """

    n: int
    q: int
    j: int
    i: int
    p: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_case", _classify(self.n, self.q, self.j, self.i, self.p)
        )

    @property
    def case(self) -> Case:
        return self._case  # type: ignore[attr-defined]


def label_to_weight(label: RuminLabel) -> HighestWeight:
    """Expand a label into its length-(n+1) highest weight.

    The weight is (q, 1 repeated j times, 0 repeated n-1-i-j times,
    -1 repeated i times, -p); degenerate repetition counts give empty
    segments.
    """
    n, q, j, i, p = label.n, label.q, label.j, label.i, label.p
    return HighestWeight(
        (q,) + (1,) * j + (0,) * (n - 1 - i - j) + (-1,) * i + (-p,)
    )


def weyl_product(entries: Sequence[int]) -> int:
    """prod_{a<b} (w_a - w_b + b - a)/(b - a) for the integer tuple
    ``entries``, in exact integer arithmetic.

    The one Weyl product of the package: ``weyl_dimension`` and the label
    enumeration of ``spectrum.degree_labels`` both call it.  The
    numerator is divided by prod_{a<b} (b - a) with ``divmod``, and a
    remainder or a result below 1 raises ``ArithmeticError``.
    """
    m = len(entries)
    num = 1
    den = 1
    for a in range(m):
        for b in range(a + 1, m):
            num *= entries[a] - entries[b] + b - a
            den *= b - a
    dim, rem = divmod(num, den)
    if rem or dim <= 0:
        raise ArithmeticError(
            f"Weyl product is not a positive integer: {tuple(entries)}"
        )
    return dim


def weyl_dimension(w: WeightLike) -> int:
    """Dimension of the U(m) irreducible with highest weight ``w``: the
    exact-integer ``weyl_product`` of its entries."""
    return weyl_product(_as_weight(w).entries)


def _interlacing_rows(row: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    # All integer rows y of length len(row)-1 with row[t] >= y[t] >= row[t+1].
    # Interlacing forces y to be nonincreasing, so no extra check is needed.
    def build(prefix: list[int], t: int) -> Iterator[tuple[int, ...]]:
        if t == len(row) - 1:
            yield tuple(prefix)
            return
        for v in range(row[t + 1], row[t] + 1):
            prefix.append(v)
            yield from build(prefix, t + 1)
            prefix.pop()

    yield from build([], 0)


def gt_pattern_count(
    w: WeightLike, budget: int = 10**8, memo: Optional[dict] = None
) -> int:
    """Count Gelfand-Tsetlin patterns with top row ``w``.

    A pattern is a stack of rows, each one entry shorter than the row above
    and interlacing it, so the count of a row is the sum of the counts of its
    interlacing child rows, and a row of length 1 counts 1.  Two facts make
    the sum cheap without changing what is added:

    * translating every row of a pattern by one integer gives a pattern, so
      counts are memoised on the row shifted to end in 0;
    * the children of (x, tail) whose first entry is y <= x are, for each y,
      the children of (y, tail) with first entry y, so with T(y, tail) the
      sum of the counts of those, count(x, tail) = count(x-1, tail) +
      T(x, tail) for x > tail[0], and T(tail[0], tail) for x = tail[0].
      Rows that differ only in their first entry share every earlier sum.

    The method only adds counts of interlacing rows; it deliberately shares
    no algebra with ``weyl_dimension`` and is the oracle the formula is
    tested against.

    ``memo`` maps shifted rows to counts.  Pass one dict to several calls to
    share their work; a fresh one is used otherwise.  ``budget`` bounds the
    work of this call, counted as one unit for each memo entry it makes plus
    one for each child row it sums; the units are charged before the sums
    are made, and ``EnumerationBudgetError`` is raised once they exceed it.
    """
    top = _as_weight(w).entries
    table: dict = {} if memo is None else memo
    work = 0

    def count(row: tuple[int, ...]) -> int:
        nonlocal work
        if len(row) == 1:
            return 1
        key = tuple(a - row[-1] for a in row) if row[-1] else row
        got = table.get(key)
        if got is not None:
            return got
        head, tail = key[0], key[1:]
        # The first entry from which prefix counts are still missing.
        x = head
        while x > tail[0] and (x - 1,) + tail not in table:
            x -= 1
        children = 1
        for a, b in zip(tail, tail[1:]):
            children *= a - b + 1
        work += (head - x + 1) * (children + 1)
        if work > budget:
            raise EnumerationBudgetError(
                f"more than {budget} work units for top row {top}"
            )
        total = table[(x - 1,) + tail] if x > tail[0] else 0
        rows = list(_interlacing_rows(tail))
        for y in range(x, head + 1):
            for mu in rows:
                total += count((y,) + mu)
            table[(y,) + tail] = total
        return total

    return count(top)


def special_dimension(n: int, i: int, p: int) -> int:
    """dim V(0,...,0, -1,...,-1, -p) with n-i zeros and i entries -1.

    Closed form p/(p+i) * C(n, i) * C(p+n, n); always an exact integer.
    """
    if n < 1 or not 0 <= i <= n or p < 1:
        raise ValueError(f"need n >= 1, 0 <= i <= n, p >= 1; got ({n}, {i}, {p})")
    v = Fraction(p, p + i) * comb(n, i) * comb(p + n, n)
    if v.denominator != 1:
        raise ArithmeticError(f"non-integral special dimension at ({n}, {i}, {p})")
    return int(v)

