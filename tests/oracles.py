"""Test-only references: the O(m^2) Weyl product, against which the
package's factored dimensions are compared, and the families of the label
table that hold a label."""

from rumin_sphere.spectrum import all_families
from rumin_sphere.weights import HighestWeight


def weyl_dimension(w: HighestWeight) -> int:
    """Dimension of the U(m) irreducible with highest weight ``w``:
    prod_{a<b} (w_a - w_b + b - a)/(b - a), in exact integer arithmetic.
    The numerator is divided by prod_{a<b} (b - a) with ``divmod``, and a
    remainder or a result below 1 raises ``ArithmeticError``."""
    entries = w.entries
    m = len(entries)
    num = den = 1
    for a in range(m):
        for b in range(a + 1, m):
            num *= entries[a] - entries[b] + b - a
            den *= b - a
    dim, rem = divmod(num, den)
    if rem or dim <= 0:
        raise ArithmeticError(f"Weyl product is not a positive integer: {entries}")
    return dim


def holders(n, q, j, i, p):
    """The families of ``all_families(n)`` that hold the label (q, j, i, p):
    the family's i and j, and each of q and p its fixed value or, where
    free, at least 1."""
    return [fam for fam in all_families(n)
            if (fam.i, fam.j) == (i, j)
            and (q == fam.q_fixed if fam.q_fixed is not None else q >= 1)
            and (p == fam.p_fixed if fam.p_fixed is not None else p >= 1)]
