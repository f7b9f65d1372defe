"""Irreducible blocks of horizontal forms on the CR sphere S^{2n+1} and the
exact eigenvalues of the rescaled Rumin Laplacian on them.

Everything is exact: eigenvalues are ``Fraction``s, dimensions integers, and
squared norms carry the rational coefficient of the symbolic unit pi^{n+1}.
Floats only appear downstream, at zeta-evaluation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterator, Optional

from .weights import (
    Case,
    RuminLabel,
    label_to_weight,
    weyl_dimension,
)


class CaseRangeError(ValueError):
    """Operation applied to a label outside the case range it requires."""


def eigenvalue_formula(label: RuminLabel) -> Fraction:
    """Eigenvalue of the Rumin Laplacian on every block of ``label``.

    The single expression ((p+i)(q+n-i) + (q+j)(p+n-j))^2 / (4 (n-i-j)^2)
    covers all seven cases; it degenerates to (p+i)^2/4, (q+j)^2/4,
    (p+n)^2/4 and (q+n)^2/4 on the one-parameter families.
    """
    n, q, j, i, p = label.n, label.q, label.j, label.i, label.p
    num = (p + i) * (q + n - i) + (q + j) * (p + n - j)
    return Fraction(num * num, 4 * (n - i - j) ** 2)


def block_bidegrees(label: RuminLabel) -> tuple[tuple[int, int], ...]:
    """Bidegrees (s, t) at which the label has a nonzero block: the
    ``spaces`` of its family in ``all_families``."""
    key = (label.case, label.i, label.j)
    return next(f.spaces for f in all_families(label.n)
                if (f.case, f.i, f.j) == key)


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

    def labels(self, max_p: int, max_q: int) -> Iterator[RuminLabel]:
        """Member labels with free parameters truncated at the given bounds."""
        ps = (self.p_fixed,) if self.p_fixed is not None else range(1, max_p + 1)
        qs = (self.q_fixed,) if self.q_fixed is not None else range(1, max_q + 1)
        for p in ps:
            for q in qs:
                yield RuminLabel(self.n, q, self.j, self.i, p)


@lru_cache(maxsize=None)
def all_families(n: int) -> tuple[BlockFamily, ...]:
    """The complete, finite list of label families for S^{2n+1}.

    This is the one table of the label set and of its bidegrees: every
    enumeration of labels or blocks in the package is built on it.  Order is
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


def degree_labels(
    n: int, k: int, N: int
) -> Iterator[tuple[RuminLabel, Fraction, int, tuple[tuple[int, int], ...]]]:
    """Every label with a block in degree k, free parameters running 1..N.

    Yields (label, eigenvalue, Weyl dimension, bidegrees (s, t) of the
    label's blocks with s + t = k), in canonical family order.  The
    eigenvalue and the dimension are shared by all blocks of a label, so
    each is computed once per label.  Only degrees k <= n carry blocks;
    higher degrees are reached through the mirror rule.
    """
    for fam in all_families(n):
        spaces = tuple((s, t) for s, t in fam.spaces if s + t == k)
        if not spaces:
            continue
        for label in fam.labels(N, N):
            yield (label, eigenvalue_formula(label),
                   weyl_dimension(label_to_weight(label)), spaces)


def decompose(n: int, s: int, t: int) -> tuple[BlockFamily, ...]:
    """Families whose block list contains bidegree (s, t).

    Only bidegrees with s + t <= n are enumerated directly; higher degrees
    are reached through the mirror rule on degrees.
    """
    if s < 0 or t < 0:
        raise CaseRangeError(f"bidegree components must be nonnegative: ({s}, {t})")
    if s + t > n:
        raise CaseRangeError(
            f"s + t = {s + t} > n = {n}; use the mirror rule at degree level"
        )
    return tuple(f for f in all_families(n) if (s, t) in f.spaces)


@dataclass(frozen=True)
class SpectrumSlice:
    """Multiset {eigenvalue -> multiplicity} of the Laplacian on degree-k forms.

    Slices are canonicalized under the mirror rule: ``degree`` is always
    min(k, 2n+1-k), so mirrored requests compare equal.
    """

    n: int
    degree: int
    truncation: int
    entries: dict[Fraction, int]

    def rows(self) -> list[tuple[Fraction, int]]:
        return sorted(self.entries.items())

    def multiplicity_of(self, eigenvalue: Fraction) -> int:
        return self.entries.get(Fraction(eigenvalue), 0)


def spectrum_slice(n: int, k: int, N: int) -> SpectrumSlice:
    """Aggregate the truncated spectrum of the Rumin Laplacian on degree k.

    Free label parameters run over 1..N; structural parameters are never
    truncated.  Aggregation keys are exact rationals, so labels whose
    eigenvalues genuinely collide are merged correctly.
    """
    if not 0 <= k <= 2 * n + 1:
        raise ValueError(f"degree {k} outside 0..{2 * n + 1}")
    if N < 1:
        raise ValueError("truncation must be >= 1")
    kk = min(k, 2 * n + 1 - k)
    entries: dict[Fraction, int] = {}
    for _, mu, dim, spaces in degree_labels(n, kk, N):
        entries[mu] = entries.get(mu, 0) + len(spaces) * dim
    return SpectrumSlice(n=n, degree=kk, truncation=N, entries=entries)


def _require_case(label: RuminLabel, cases: tuple[Case, ...], what: str) -> None:
    if label.case not in cases:
        names = "/".join(c.value for c in cases)
        raise CaseRangeError(f"{what} needs a Case {names} label, got {label}")


def operator_norm_squares(label: RuminLabel) -> tuple[Fraction, Fraction]:
    """Squared operator norms of the two rescaled half-differentials on the
    bottom block of a Case II/V label.

    Returns (A^2, B^2) = ((p+i)(q+n-i), (q+j)(p+n-j)) / (2(n-i-j)).
    """
    _require_case(label, (Case.II, Case.V), "operator_norm_squares")
    n, q, j, i, p = label.n, label.q, label.j, label.i, label.p
    d = 2 * (n - i - j)
    return (
        Fraction((p + i) * (q + n - i), d),
        Fraction((q + j) * (p + n - j), d),
    )


def norm_route_eigenvalue(label: RuminLabel) -> Fraction:
    """Eigenvalue recomputed as (A^2 + B^2)^2 from the operator norms."""
    a2, b2 = operator_norm_squares(label)
    return (a2 + b2) ** 2


def case_v_mixed_eigenvalue(label: RuminLabel) -> Fraction:
    """Eigenvalue on the mixed middle-degree line of a Case V label.

    With C = (p+i-j-q)/2, A' = C - 2A^2, B' = C + 2B^2, the value is
    ((A'B)^2 + (B'A)^2) / (A^2 + B^2); it must agree with the universal
    formula whenever i + j = n - 1.
    """
    _require_case(label, (Case.V,), "case_v_mixed_eigenvalue")
    a2, b2 = operator_norm_squares(label)
    c = Fraction(label.p + label.i - label.j - label.q, 2)
    ap = c - 2 * a2
    bp = c + 2 * b2
    return (ap * ap * b2 + bp * bp * a2) / (a2 + b2)


def case_v_identity_value(label: RuminLabel) -> Fraction:
    """The closed form (q+j-i-p)^2/4 + (p+i)(q+n-i)(q+j)(p+n-j) of the
    mixed-route eigenvalue."""
    _require_case(label, (Case.V,), "case_v_identity_value")
    n, q, j, i, p = label.n, label.q, label.j, label.i, label.p
    return Fraction((q + j - i - p) ** 2, 4) + (p + i) * (q + n - i) * (q + j) * (p + n - j)


def lie_derivative_eigenvalue(label: RuminLabel) -> int:
    """The integer m with 2 L_T psi = sqrt(-1) m psi on the label's blocks."""
    return label.p + label.i - label.j - label.q


@dataclass(frozen=True)
class NormConstants:
    """Rational coefficients of pi^{n+1} in the two base norm constants.

    C = 2^{n+1} (q-1)! (p-1)! / (q+p+n)!  and  D = 2^{n+1} (q-1)! / (q+n)!.
    """

    C: Fraction
    D: Fraction


def norm_constants(n: int, q: int, p: int) -> NormConstants:
    if q < 1 or p < 1:
        raise CaseRangeError(f"norm constants need p, q >= 1; got q={q}, p={p}")
    two = 2 ** (n + 1)
    return NormConstants(
        C=Fraction(two * factorial(q - 1) * factorial(p - 1), factorial(q + p + n)),
        D=Fraction(two * factorial(q - 1), factorial(q + n)),
    )


def squared_norm(label: RuminLabel, s: int, t: int) -> Fraction:
    """Squared L^2 norm of the highest-weight vector of ``label`` at (s, t),
    as the rational coefficient of pi^{n+1}.

    Implements the tabulated norm formulas; combinations outside their side
    conditions raise ``CaseRangeError``.
    """
    n, q, j, i, p = label.n, label.q, label.j, label.i, label.p
    case = label.case

    if case in (Case.II, Case.V):
        c = norm_constants(n, q, p).C
        if (s, t) == (i, j):
            return c * (q + j) * (p + i) / 2 ** (i + j)
        if (s, t) == (i + 1, j) and j > 0:
            return c * (q + j) * (q + n - i) / 2 ** (i + j + 1)
        if (s, t) == (i, j + 1) and i > 0:
            return c * (p + i) * (p + n - j) / 2 ** (i + j + 1)
        if (s, t) == (i + 1, j + 1) and i > 0 and j > 0 and i + j <= n - 2:
            return (
                c
                * (q + n - i)
                * (p + n - j)
                * Fraction(n - 1 - i - j, n - i - j)
                / 2 ** (i + j + 2)
            )
    elif case is Case.IV:
        d = norm_constants(n, q, 1).D
        if (s, t) == (0, j):
            return d * (q + j) / 2**j
        if (s, t) == (0, j + 1):
            return d * (n - j) / 2 ** (j + 1)
    elif case is Case.III:
        # Conjugate of Case IV: the roles of (q, j) are played by (p, i).
        d = norm_constants(n, p, 1).D
        if (s, t) == (i, 0):
            return d * (p + i) / 2**i
        if (s, t) == (i + 1, 0):
            return d * (n - i) / 2 ** (i + 1)
    raise CaseRangeError(
        f"no tabulated norm for {label} at bidegree ({s}, {t})"
    )
