"""Block enumeration, exact eigenvalues, norm routes, spectrum slices."""

from fractions import Fraction

import pytest

from rumin_sphere import (
    Case,
    CaseRangeError,
    RuminLabel,
    all_families,
    case_v_identity_value,
    case_v_mixed_eigenvalue,
    decompose,
    eigenvalue_formula,
    gt_pattern_count,
    label_to_weight,
    lie_derivative_eigenvalue,
    norm_constants,
    norm_route_eigenvalue,
    operator_norm_squares,
    spectrum_slice,
    squared_norm,
    weyl_dimension,
)
from rumin_sphere.spectrum import (
    block_bidegrees,
    degree_labels,
    eigenvalue_denominator,
)


def table_labels(n, bound):
    """Every label of the family table, free parameters running 1..bound."""
    return [lab for fam in all_families(n) for lab in fam.labels(bound, bound)]


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
    labels = {lab for fam in fams for lab in fam.labels(2, 2)}
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
    vi_labels = list(by_case[Case.VI].labels(3, 3))
    assert vi_labels == [RuminLabel(1, -1, 0, 0, p) for p in (1, 2, 3)]
    iii_labels = list(by_case[Case.III].labels(3, 3))
    assert iii_labels == [RuminLabel(1, 0, 0, 0, p) for p in (1, 2, 3)]


def test_decompose_rejects_above_middle():
    with pytest.raises(CaseRangeError):
        decompose(2, 2, 1)
    with pytest.raises(CaseRangeError):
        decompose(2, -1, 0)


def test_block_multiplicity_one():
    for n in (1, 2, 3):
        for s in range(n + 1):
            for t in range(n + 1 - s):
                labels = [
                    lab for fam in decompose(n, s, t) for lab in fam.labels(6, 6)
                ]
                assert len(labels) == len(set(labels))


def test_block_validates_bidegree():
    lab = RuminLabel(2, 1, 0, 0, 1)  # Case II at n=2
    spaces = block_bidegrees(lab)
    assert set(spaces) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert (1, 1) in spaces and (2, 0) not in spaces
    # Degree 2 carries the label's block at (1, 1) alone, with the Weyl
    # dimension of its weight; bidegree (2, 0) has no family holding it.
    degree2 = {RuminLabel(2, q, j, i, p): (dim, sp)
               for _, i, j, q, p, _, dim, sp in degree_labels(2, 2, 1)}
    assert degree2[lab] == (weyl_dimension(label_to_weight(lab)), ((1, 1),))
    assert all(lab not in fam.labels(1, 1) for fam in decompose(2, 2, 0))
    holders = [fam for fam in decompose(2, 1, 1) if lab in fam.labels(1, 1)]
    assert [(fam.case, fam.i, fam.j) for fam in holders] == [(Case.II, 0, 0)]


def test_spectrum_slice_n1_degree0():
    # Derived by enumerating the decomposition and counting GT patterns.
    sl = spectrum_slice(1, 0, 1)
    assert sl.entries == {
        Fraction(0): 1,
        Fraction(1, 4): 4,
        Fraction(4): 3,
    }
    assert sl.multiplicity_of(Fraction(4)) == gt_pattern_count((1, -1))


def test_spectrum_slice_mirror_is_verbatim():
    assert spectrum_slice(1, 3, 7) == spectrum_slice(1, 0, 7)
    assert spectrum_slice(2, 4, 5) == spectrum_slice(2, 1, 5)


def test_spectrum_slice_n2_degree1():
    sl = spectrum_slice(2, 1, 1)
    # Case III (i=0, p=1) at bidegree (1,0) and its Case IV conjugate at
    # (0,1) both contribute dim V(0,0,-1) = 3.
    assert sl.multiplicity_of(Fraction(1, 4)) == 6
    assert sl.entries == {
        Fraction(1, 4): 6,
        Fraction(1): 6,
        Fraction(9, 4): 16,
        Fraction(49, 4): 12,
    }


def test_spectrum_slice_zero_only_at_ends():
    for n in (1, 2, 3):
        for k in range(2 * n + 2):
            mult = spectrum_slice(n, k, 6).multiplicity_of(Fraction(0))
            assert mult == (1 if k in (0, 2 * n + 1) else 0)


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


def test_lie_derivative_examples():
    assert lie_derivative_eigenvalue(RuminLabel(1, 1, 0, 0, 1)) == 0
    assert lie_derivative_eigenvalue(RuminLabel(1, -1, 0, 0, 1)) == 2
    assert lie_derivative_eigenvalue(RuminLabel(2, 2, 1, 0, 3)) == 0


def test_norm_constants_example():
    nc = norm_constants(1, 1, 1)
    assert nc.C == Fraction(4, 6)  # coefficient of pi^2: 2^2 0! 0! / 3!
    assert nc.D == Fraction(2)     # 2^2 0! / 2!


def test_squared_norm_base_example():
    # |psi^{(0,0)}_{(1,0,0,1)}|^2 at n=1: C(1,1) * (q+j)(p+i) / 2^0.
    assert squared_norm(RuminLabel(1, 1, 0, 0, 1), 0, 0) == Fraction(2, 3)


def test_squared_norm_d_route():
    lab = RuminLabel(2, 3, 1, 0, 0)  # Case IV: j=1, q=3
    d = norm_constants(2, 3, 1).D
    assert squared_norm(lab, 0, 1) == d * (3 + 1) / 2
    assert squared_norm(lab, 0, 2) == d * (2 - 1) / 4


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
                for lab in fam.labels(bound, bound):
                    # RuminLabel validates on construction; the case it
                    # finds must be the family's.
                    assert lab.case is fam.case, (fam, lab)
                    assert (lab.i, lab.j) == (fam.i, fam.j)
                    labels.append(lab)
            assert len(labels) == len(set(labels))
            # Case II needs i + j <= n - 2, so n = 1 has none.
            expected = set(Case) if n >= 2 else set(Case) - {Case.II}
            assert {lab.case for lab in labels} == expected


def test_block_bidegrees_is_the_family_table():
    for n in range(1, 6):
        for fam in all_families(n):
            for lab in fam.labels(3, 3):
                assert block_bidegrees(lab) == fam.spaces
                assert block_bidegrees(lab) == _paper_bidegrees(lab)


def test_degree_labels_enumerates_each_label_once():
    for n in (1, 2, 3):
        for k in range(2 * n + 2):
            got = list(degree_labels(n, k, 4))
            expected = [
                lab for lab in table_labels(n, 4)
                if any(s + t == k for s, t in block_bidegrees(lab))
            ]
            labels = [RuminLabel(n, q, j, i, p) for _, i, j, q, p, *_ in got]
            assert labels == expected
            if k > n:
                assert got == []
            denominator = eigenvalue_denominator(n)
            for lab, (case, _, _, _, _, key, dim, spaces) in zip(labels, got):
                assert case is lab.case
                assert all(type(x) is int for x in (key, dim))
                assert Fraction(key, denominator) == eigenvalue_formula(lab)
                assert dim == weyl_dimension(label_to_weight(lab))
                assert spaces == tuple(
                    (s, t) for s, t in block_bidegrees(lab) if s + t == k
                )
