"""Block enumeration, exact eigenvalues, norm routes, spectrum slices."""

import dataclasses
from fractions import Fraction
from itertools import product

import pytest

from rumin_sphere import (
    Case,
    CaseRangeError,
    HighestWeight,
    InvalidLabelError,
    RuminLabel,
    all_families,
    case_v_identity_value,
    case_v_mixed_eigenvalue,
    eigenvalue_formula,
    gt_pattern_count,
    label_to_weight,
    norm_route_eigenvalue,
    operator_norm_squares,
    special_dimension,
    spectrum_slice,
    squared_norm,
    weyl_dimension,
)
from rumin_sphere import spectrum
from rumin_sphere.spectrum import (
    degree_families,
    eigenvalue_denominator,
)


def table_labels(n, bound):
    """Every label of the family table, free parameters running 1..bound."""
    return [lab for fam in all_families(n) for lab in fam.labels(bound)]


def decompose(n, s, t):
    """The families of the table whose block list holds bidegree (s, t)."""
    return [fam for fam in all_families(n) if (s, t) in fam.spaces]


def test_eigenvalue_examples():
    assert eigenvalue_formula(RuminLabel(1, 1, 0, 0, 1)) == 4
    assert eigenvalue_formula(RuminLabel(1, -1, 0, 0, 1)) == 1
    assert eigenvalue_formula(RuminLabel(1, 0, 0, 0, 0)) == 0


def test_eigenvalue_case_reductions():
    for n in range(1, 5):
        for label in table_labels(n, 50):
            mu = eigenvalue_formula(label)
            q, j, i, p = label.q, label.j, label.i, label.p
            if label.case is Case.III:
                assert mu == Fraction((p + i) ** 2, 4)
            elif label.case is Case.IV:
                assert mu == Fraction((q + j) ** 2, 4)
            elif label.case is Case.VI:
                assert mu == Fraction((p + n) ** 2, 4)
            elif label.case is Case.VII:
                assert mu == Fraction((q + n) ** 2, 4)
            elif label.case is Case.I:
                assert mu == 0


def test_decompose_bottom_bidegree_families():
    # E^{0,0} at n=1 is the union {(q,0,0,p) : p,q >= 0} across cases.
    fams = decompose(1, 0, 0)
    labels = {lab for fam in fams for lab in fam.labels(2)}
    expected = {RuminLabel(1, q, 0, 0, p) for q in range(3) for p in range(3)}
    assert labels == expected


def test_decompose_middle_bidegree_n2():
    fams = decompose(2, 1, 1)
    tags = sorted((f.case.value, f.i, f.j) for f in fams)
    assert tags == [("II", 0, 0), ("V", 0, 1), ("V", 1, 0)]
    for fam in fams:
        assert fam.q_fixed is None and fam.p_fixed is None


def test_decompose_degree_one_n1():
    fams = decompose(1, 1, 0)
    by_case = {f.case: f for f in fams}
    assert set(by_case) == {Case.V, Case.III, Case.VI}
    vi_labels = list(by_case[Case.VI].labels(3))
    assert vi_labels == [RuminLabel(1, -1, 0, 0, p) for p in (1, 2, 3)]
    iii_labels = list(by_case[Case.III].labels(3))
    assert iii_labels == [RuminLabel(1, 0, 0, 0, p) for p in (1, 2, 3)]


def test_decompose_rejects_above_middle():
    # Degrees above n are reached through the mirror rule, so the table
    # lists each bidegree (s, t) with s, t >= 0 and s + t <= n, and no other.
    assert decompose(2, 2, 1) == decompose(2, -1, 0) == []
    for n in range(1, 7):
        held = {st for fam in all_families(n) for st in fam.spaces}
        assert held == {(s, t) for s in range(n + 1) for t in range(n + 1 - s)}


def test_block_multiplicity_one():
    for n in (1, 2, 3):
        for s in range(n + 1):
            for t in range(n + 1 - s):
                labels = [
                    lab for fam in decompose(n, s, t) for lab in fam.labels(6)
                ]
                assert len(labels) == len(set(labels))


def test_block_validates_bidegree():
    lab = RuminLabel(2, 1, 0, 0, 1)  # Case II at n=2
    spaces = lab.family.spaces
    assert set(spaces) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert (1, 1) in spaces and (2, 0) not in spaces
    # Degree 2 carries the label's block at (1, 1) alone, with the Weyl
    # dimension of its weight; bidegree (2, 0) has no family holding it.
    degree2 = {RuminLabel(2, q, fam.j, fam.i, p): (dim, sp)
               for fam, sp in degree_families(2, 2) for q, p, _, dim in fam.rows(1)}
    assert degree2[lab] == (weyl_dimension(label_to_weight(lab)), ((1, 1),))
    assert all(lab not in fam.labels(1) for fam in decompose(2, 2, 0))
    holders = [fam for fam in decompose(2, 1, 1) if lab in fam.labels(1)]
    assert [(fam.case, fam.i, fam.j) for fam in holders] == [(Case.II, 0, 0)]


def test_spectrum_slice_n1_degree0():
    # Derived by enumerating the decomposition and counting GT patterns.
    entries = spectrum_slice(1, 0, 1)
    assert entries == {
        Fraction(0): 1,
        Fraction(1, 4): 4,
        Fraction(4): 3,
    }
    assert list(entries) == sorted(entries)
    assert entries[Fraction(4)] == gt_pattern_count(HighestWeight((1, -1)))


def test_spectrum_slice_mirror_is_verbatim():
    for n, k, N in ((1, 0, 7), (2, 1, 5)):
        entries = spectrum_slice(n, k, N)
        mirror = spectrum_slice(n, 2 * n + 1 - k, N)
        assert list(mirror.items()) == list(entries.items())
        assert list(entries) == sorted(entries)


def test_spectrum_slice_n2_degree1():
    entries = spectrum_slice(2, 1, 1)
    # Case III (i=0, p=1) at bidegree (1,0) and its Case IV conjugate at
    # (0,1) both contribute dim V(0,0,-1) = 3.
    assert entries[Fraction(1, 4)] == 6
    assert entries == {
        Fraction(1, 4): 6,
        Fraction(1): 6,
        Fraction(9, 4): 16,
        Fraction(49, 4): 12,
    }
    assert list(entries) == sorted(entries)


def test_spectrum_slice_zero_only_at_ends():
    for n in (1, 2, 3):
        for k in range(2 * n + 2):
            entries = spectrum_slice(n, k, 6)
            assert entries.get(Fraction(0), 0) == (1 if k in (0, 2 * n + 1) else 0)
            assert list(entries) == sorted(entries)


def test_spectrum_slice_rejects_bad_degree():
    with pytest.raises(ValueError):
        spectrum_slice(1, 4, 3)
    with pytest.raises(ValueError):
        spectrum_slice(1, 0, 0)


def test_operator_norm_squares_examples():
    assert operator_norm_squares(RuminLabel(1, 1, 0, 0, 1)) == (1, 1)
    assert operator_norm_squares(RuminLabel(2, 1, 0, 0, 1)) == (
        Fraction(3, 4),
        Fraction(3, 4),
    )
    # (p+i)(q+n-i)/(2(n-i-j)) = 4/2 and (q+j)(p+n-j)/(2(n-i-j)) = 6/2.
    assert operator_norm_squares(RuminLabel(2, 2, 1, 0, 1)) == (2, 3)


def test_operator_norms_reject_one_parameter_cases():
    with pytest.raises(CaseRangeError):
        operator_norm_squares(RuminLabel(2, 0, 0, 1, 3))
    with pytest.raises(CaseRangeError):
        case_v_mixed_eigenvalue(RuminLabel(3, 1, 0, 0, 1))  # Case II at n=3


def test_norm_route_matches_formula():
    for n in range(1, 5):
        for label in table_labels(n, 12):
            if label.case in (Case.II, Case.V):
                assert norm_route_eigenvalue(label) == eigenvalue_formula(label)


def test_case_v_mixed_route():
    assert case_v_mixed_eigenvalue(RuminLabel(1, 1, 0, 0, 1)) == 4
    for n in range(1, 5):
        for label in table_labels(n, 12):
            if label.case is Case.V:
                mu = eigenvalue_formula(label)
                assert case_v_mixed_eigenvalue(label) == mu
                assert case_v_identity_value(label) == mu


def test_axis_and_free_parameter_reproduce_the_one_parameter_rows():
    # A one-parameter family with axis c has, at free parameter x, the
    # dimension special_dimension(n, c, x) and the eigenvalue ((x+c)/2)^2.
    for n in range(1, 9):
        den = eigenvalue_denominator(n)
        for fam in all_families(n):
            c = fam.axis
            assert (c is None) == (fam.case in (Case.I, Case.II, Case.V)), fam
            if c is None:
                continue
            rows = list(fam.rows(6))
            xs = [q if fam.q_fixed is None else p for q, p, _, _ in rows]
            assert xs == list(range(1, 7)), fam
            for x, (_, _, key, dim) in zip(xs, rows):
                assert dim == special_dimension(n, c, x), (fam, x)
                assert Fraction(key, den) == Fraction(x + c, 2) ** 2, (fam, x)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fraction_routes_are_their_pair_homes(n):
    # Every exported ``Fraction`` norm route is its integer-pair home read
    # as one fraction, and ``label_to_weight`` is ``BlockFamily.weight``, on
    # every label at bound 6: ``verify`` certifies the homes, so a wrapper
    # cannot drift from them.  The routes outside their cases are refused.
    two_parameter = (Case.II, Case.V)
    for label in table_labels(n, 6):
        fam, q, p = label.family, label.q, label.p
        assert label_to_weight(label) == fam.weight(q, p)
        norms = spectrum.squared_norm_pairs(fam, q, p)
        assert spectrum.squared_norms(label) == {
            bidegree: Fraction(*pair) for bidegree, pair in norms.items()}
        for (s, t), pair in norms.items():
            assert squared_norm(label, s, t) == Fraction(*pair)
        if fam.case in two_parameter:
            assert operator_norm_squares(label) == tuple(
                Fraction(*pair) for pair in spectrum.operator_norm_pairs(fam, q, p))
            assert norm_route_eigenvalue(label) == Fraction(
                *spectrum.norm_route_pair(fam, q, p))
        else:
            with pytest.raises(CaseRangeError):
                operator_norm_squares(label)
            with pytest.raises(CaseRangeError):
                norm_route_eigenvalue(label)
        if fam.case is Case.V:
            assert case_v_mixed_eigenvalue(label) == Fraction(
                *spectrum.case_v_mixed_pair(fam, q, p))
            assert case_v_identity_value(label) == Fraction(
                *spectrum.case_v_identity_pair(fam, q, p))
        else:
            with pytest.raises(CaseRangeError):
                case_v_mixed_eigenvalue(label)
            with pytest.raises(CaseRangeError):
                case_v_identity_value(label)


def test_squared_norm_base_constants():
    # The coefficients of pi^2 at n = 1, p = q = 1: C = 2^2 0! 0! / 3! = 2/3
    # (Case V) and D = 2^2 0! / 2! = 2 (Case IV, and Case III with p for
    # q).  Each bottom-block factor (q+j)(p+i), q+j or p+i is 1 here.
    assert squared_norm(RuminLabel(1, 1, 0, 0, 1), 0, 0) == Fraction(2, 3)
    assert squared_norm(RuminLabel(1, 1, 0, 0, 0), 0, 0) == 2
    assert squared_norm(RuminLabel(1, 0, 0, 0, 1), 0, 0) == 2


def test_squared_norm_base_example():
    # |psi^{(0,0)}_{(1,0,0,1)}|^2 at n=1: C(1,1) * (q+j)(p+i) / 2^0.
    assert squared_norm(RuminLabel(1, 1, 0, 0, 1), 0, 0) == Fraction(2, 3)


def test_squared_norm_d_route():
    # D = 2^{n+1} (q-1)! / (q+n)! = 2^3 2! / 5! = 2/15 at n = 2, q = 3.
    lab = RuminLabel(2, 3, 1, 0, 0)  # Case IV: j=1, q=3
    assert squared_norm(lab, 0, 1) == Fraction(2, 15) * (3 + 1) / 2
    assert squared_norm(lab, 0, 2) == Fraction(2, 15) * (2 - 1) / 4
    conjugate = RuminLabel(2, 0, 0, 1, 3)  # Case III: i=1, p=3
    assert squared_norm(conjugate, 1, 0) == Fraction(2, 15) * (3 + 1) / 2
    assert squared_norm(conjugate, 2, 0) == Fraction(2, 15) * (2 - 1) / 4


def test_squared_norm_ratio_rule():
    # |psi^{(i+1,j)}|^2 / |psi^{(i,j)}|^2 == (q+n-i) / (2(p+i)) where the
    # (i+1, j) formula applies (j > 0).
    for n in (2, 3, 4):
        for label in table_labels(n, 6):
            if label.case not in (Case.II, Case.V) or label.j == 0:
                continue
            i, j, p, q = label.i, label.j, label.p, label.q
            ratio = squared_norm(label, i + 1, j) / squared_norm(label, i, j)
            assert ratio == Fraction(q + n - i, 2 * (p + i))


def test_operator_norm_consistent_with_l2_ratios():
    for n in (2, 3, 4):
        for label in table_labels(n, 8):
            if label.case not in (Case.II, Case.V):
                continue
            i, j, p, q = label.i, label.j, label.p, label.q
            d = n - i - j
            a2, b2 = operator_norm_squares(label)
            base = squared_norm(label, i, j)
            if j > 0:
                up = squared_norm(label, i + 1, j)
                assert a2 == Fraction((p + i) ** 2, d) * up / base
            if i > 0:
                up = squared_norm(label, i, j + 1)
                assert b2 == Fraction((q + j) ** 2, d) * up / base
            if i > 0 and j > 0 and i + j <= n - 2:
                corner = squared_norm(label, i + 1, j + 1)
                side = squared_norm(label, i, j + 1)
                assert a2 == Fraction((p + i) ** 2, d - 1) * corner / side


def test_squared_norm_rejects_out_of_range():
    with pytest.raises(CaseRangeError):
        squared_norm(RuminLabel(2, 1, 0, 0, 1), 1, 1)  # needs i, j > 0
    with pytest.raises(CaseRangeError):
        squared_norm(RuminLabel(1, 0, 0, 0, 0), 0, 0)  # Case I not tabulated
    with pytest.raises(CaseRangeError):
        squared_norm(RuminLabel(2, -1, 0, 1, 2), 2, 0)  # Case VI not tabulated


def test_eigenvalue_determined_by_weight():
    for n in (1, 2, 3):
        seen = {}
        for label in table_labels(n, 10):
            key = label_to_weight(label).entries
            mu = eigenvalue_formula(label)
            assert seen.setdefault(key, mu) == mu


def test_families_cover_all_cases_once():
    fams = all_families(3)
    pair_ij = [(f.i, f.j) for f in fams if f.case in (Case.II, Case.V)]
    assert sorted(pair_ij) == [(i, j) for i in range(3) for j in range(3 - i)]
    assert sum(1 for f in fams if f.case is Case.VI) == 1
    assert sum(1 for f in fams if f.case is Case.VII) == 1


def _paper_bidegrees(label):
    # The bidegree table of the seven cases, written out independently of
    # ``all_families``.
    n, i, j = label.n, label.i, label.j
    return {
        Case.I: ((0, 0),),
        Case.II: ((i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)),
        Case.V: ((i, j), (i + 1, j), (i, j + 1)),
        Case.III: ((i, 0), (i + 1, 0)),
        Case.IV: ((0, j), (0, j + 1)),
        Case.VI: ((n, 0),),
        Case.VII: ((0, n),),
    }[label.case]


def test_family_labels_are_valid_distinct_and_cover_all_cases():
    for n in range(1, 5):
        for bound in (1, 3):
            labels = []
            for fam in all_families(n):
                for lab in fam.labels(bound):
                    # RuminLabel validates on construction; the case it
                    # finds must be the family's.
                    assert lab.case is fam.case, (fam, lab)
                    assert (lab.i, lab.j) == (fam.i, fam.j)
                    labels.append(lab)
            assert len(labels) == len(set(labels))
            # Case II needs i + j <= n - 2, so n = 1 has none.
            expected = set(Case) if n >= 2 else set(Case) - {Case.II}
            assert {lab.case for lab in labels} == expected


def _paper_case(n, q, j, i, p):
    # The seven case ranges of the paper, written out independently of
    # ``all_families``: the case of (q, j, i, p), or None outside them all.
    if min(i, j) < 0 or i + j > n - 1:
        return None
    if (q, j, i, p) == (0, 0, 0, 0):
        return Case.I
    if q >= 1 and p >= 1:
        return Case.II if i + j <= n - 2 else Case.V
    if q == 0 and p >= 1 and j == 0:
        return Case.III
    if p == 0 and q >= 1 and i == 0:
        return Case.IV
    if q == -1 and p >= 1 and (i, j) == (n - 1, 0):
        return Case.VI
    if p == -1 and q >= 1 and (i, j) == (0, n - 1):
        return Case.VII
    return None


def test_labels_accept_exactly_the_paper_case_ranges():
    accepted = 0
    for n in range(1, 6):
        # The family that yields each label with p, q <= 3; no label twice.
        owner = {}
        for fam in all_families(n):
            for lab in fam.labels(3):
                assert owner.setdefault(lab, fam) is fam, lab
        for q, p, i, j in product(range(-3, 4), range(-3, 4),
                                  range(-2, n + 2), range(-2, n + 2)):
            case = _paper_case(n, q, j, i, p)
            if case is None:
                with pytest.raises(InvalidLabelError):
                    RuminLabel(n, q, j, i, p)
                continue
            label = RuminLabel(n, q, j, i, p)
            assert label.case is case, label
            assert label.family is owner[label], label
            accepted += 1
    assert accepted == len({lab for n in range(1, 6) for lab in table_labels(n, 3)})
    with pytest.raises(InvalidLabelError):
        RuminLabel(0, 0, 0, 0, 0)


@pytest.mark.parametrize("duplicate", [
    lambda fam: fam,  # the same row twice
    lambda fam: dataclasses.replace(fam, case=Case.V),  # one key, two cases
])
def test_label_index_refuses_two_families_under_one_key(monkeypatch, duplicate):
    n = 3
    families = all_families(n)
    pair = next(fam for fam in families if fam.case is Case.II)
    monkeypatch.setattr(spectrum, "all_families",
                        lambda m: families + (duplicate(pair),))
    with pytest.raises(ValueError, match="share the key"):
        spectrum._family_index.__wrapped__(n)


def test_label_family_spaces_are_the_family_table():
    for n in range(1, 6):
        for fam in all_families(n):
            for lab in fam.labels(3):
                assert lab.family.spaces == fam.spaces
                assert lab.family.spaces == _paper_bidegrees(lab)


def test_degree_families_enumerate_each_label_once():
    for n in (1, 2, 3):
        denominator = eigenvalue_denominator(n)
        for k in range(2 * n + 2):
            got = list(degree_families(n, k))
            rows = [(fam, row) for fam, _ in got for row in fam.rows(4)]
            expected = [
                lab for lab in table_labels(n, 4)
                if any(s + t == k for s, t in lab.family.spaces)
            ]
            labels = [RuminLabel(n, q, fam.j, fam.i, p) for fam, (q, p, _, _) in rows]
            assert labels == expected
            if k > n:
                assert got == []
            assert [fam for fam, _ in got] == [
                fam for fam in all_families(n) if any(s + t == k for s, t in fam.spaces)]
            for fam, spaces in got:
                assert spaces == tuple((s, t) for s, t in fam.spaces if s + t == k)
            for lab, (fam, row) in zip(labels, rows):
                assert lab.family is fam
                assert len(row) == 4 and all(type(x) is int for x in row)
                _, _, key, dim = row
                assert Fraction(key, denominator) == eigenvalue_formula(lab)
                assert dim == weyl_dimension(label_to_weight(lab))
