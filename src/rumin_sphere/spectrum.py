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
from math import factorial, lcm
from typing import Iterator, Optional, Sequence

from .weights import (
    Case,
    InvalidLabelError,
    RuminLabel,
    label_to_weight,
    weyl_product,
)


class CaseRangeError(ValueError):
    """Operation applied to a label outside the case range it requires."""


def eigenvalue_numerator(n: int, q: int, j: int, i: int, p: int) -> int:
    """A = (p+i)(q+n-i) + (q+j)(p+n-j), the integer whose square over
    4 (n-i-j)^2 is the eigenvalue of the label (q, j, i, p)."""
    return (p + i) * (q + n - i) + (q + j) * (p + n - j)


def eigenvalue_formula(label: RuminLabel) -> Fraction:
    """Eigenvalue of the Rumin Laplacian on every block of ``label``.

    The single expression A^2 / (4 (n-i-j)^2), with A from
    ``eigenvalue_numerator``, covers all seven cases; it degenerates to
    (p+i)^2/4, (q+j)^2/4, (p+n)^2/4 and (q+n)^2/4 on the one-parameter
    families.
    """
    n, q, j, i, p = label.n, label.q, label.j, label.i, label.p
    num = eigenvalue_numerator(n, q, j, i, p)
    return Fraction(num * num, 4 * (n - i - j) ** 2)


def eigenvalue_denominator(n: int) -> int:
    """L = 4 lcm(1^2, ..., n^2): every eigenvalue on S^{2n+1} is an
    integer over L, the key A^2 L / (4 (n-i-j)^2) of ``degree_labels``."""
    return 4 * lcm(*range(1, n + 1)) ** 2


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

    def parameters(self, max_p: int, max_q: int) -> tuple[Sequence[int], Sequence[int]]:
        """The values p and q take: a fixed value, or 1..bound if free."""
        ps = (self.p_fixed,) if self.p_fixed is not None else range(1, max_p + 1)
        qs = (self.q_fixed,) if self.q_fixed is not None else range(1, max_q + 1)
        return ps, qs

    def labels(self, max_p: int, max_q: int) -> Iterator[RuminLabel]:
        """Member labels with free parameters truncated at the given bounds."""
        ps, qs = self.parameters(max_p, max_q)
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


def _family_weight_middle(fam: BlockFamily) -> tuple[int, ...]:
    """Validate ``fam`` once and return the fixed middle entries
    (1^j, 0^{n-1-i-j}, -1^i) of its members' highest weights.

    The check builds one ``RuminLabel`` and its ``HighestWeight`` at the
    family's fixed values, or at p = q = 1 for a free parameter, and
    requires the label's case and (i, j) to be the family's.  That is
    exactly the check of every member: ``_classify`` depends on p and q
    only through sign tests that are constant over p, q >= 1, and the
    weight (q, 1^j, 0..., -1^i, -p) is nonincreasing for every p, q >= 1
    if and only if it is at p = q = 1.
    """
    q = 1 if fam.q_fixed is None else fam.q_fixed
    p = 1 if fam.p_fixed is None else fam.p_fixed
    label = RuminLabel(fam.n, q, fam.j, fam.i, p)
    if (label.case, label.i, label.j) != (fam.case, fam.i, fam.j):
        raise InvalidLabelError(
            f"family ({fam.case.value}, i={fam.i}, j={fam.j}) holds {label}, "
            f"a Case {label.case.value} label"
        )
    return label_to_weight(label).entries[1:-1]


def degree_labels(
    n: int, k: int, N: int
) -> Iterator[tuple[Case, int, int, int, int, int, int, tuple[tuple[int, int], ...]]]:
    """Every label with a block in degree k, free parameters running 1..N.

    Yields plain tuples (case, i, j, q, p, key, dimension, bidegrees (s, t)
    of the label's blocks with s + t = k), in canonical family order and,
    within a family, p-major.  The eigenvalue is key / L with L =
    ``eigenvalue_denominator(n)``, an exact integer key shared by every
    block of the label, as is the Weyl dimension.  Each family is
    validated once (``_family_weight_middle``); the dimension of every
    label is still checked to be a positive integer.  Only degrees k <= n
    carry blocks; higher degrees are reached through the mirror rule.
    """
    scale = eigenvalue_denominator(n) // 4
    for fam in all_families(n):
        spaces = tuple((s, t) for s, t in fam.spaces if s + t == k)
        if not spaces:
            continue
        middle = _family_weight_middle(fam)
        case, i, j = fam.case, fam.i, fam.j
        d = n - i - j
        mult = scale // (d * d)
        ps, qs = fam.parameters(N, N)
        for p in ps:
            for q in qs:
                a = eigenvalue_numerator(n, q, j, i, p)
                yield (case, i, j, q, p, a * a * mult,
                       weyl_product((q, *middle, -p)), spaces)


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
    min(k, 2n+1-k), so mirrored requests compare equal.  ``spectrum_slice``
    fills ``entries`` in increasing eigenvalue order.
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
    truncated.  Aggregation keys are the exact integer keys of
    ``degree_labels``, so labels whose eigenvalues genuinely collide are
    merged correctly; one ``Fraction`` is made per distinct eigenvalue, and
    the entries are in increasing eigenvalue order.
    """
    if not 0 <= k <= 2 * n + 1:
        raise ValueError(f"degree {k} outside 0..{2 * n + 1}")
    if N < 1:
        raise ValueError("truncation must be >= 1")
    kk = min(k, 2 * n + 1 - k)
    counts: dict[int, int] = {}
    for _, _, _, _, _, key, dim, spaces in degree_labels(n, kk, N):
        counts[key] = counts.get(key, 0) + len(spaces) * dim
    denominator = eigenvalue_denominator(n)
    entries = {Fraction(key, denominator): counts[key] for key in sorted(counts)}
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
