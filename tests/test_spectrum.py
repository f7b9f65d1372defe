"""Block enumeration, exact eigenvalues, norm routes, spectra by degree."""

import dataclasses
from fractions import Fraction
from itertools import product

import pytest

import oracles
from oracles import holders, weyl_dimension
from rumin_sphere import (
    Case,
    HighestWeight,
    all_families,
    cli,
    gt_pattern_count,
    special_dimension,
)
from rumin_sphere.spectrum import (
    case_v_identity_pair,
    case_v_mixed_pair,
    degree_families,
    degree_multiplicities,
    eigenvalue_denominator,
    eigenvalue_numerator,
    norm_route_pair,
    operator_norm_pairs,
    squared_norm_pairs,
)


def members(fam, bound):
    """The labels (q, j, i, p) of a family, free parameters running
    1..bound, in the order of its rows."""
    return [(q, fam.j, fam.i, p) for q, p, _, _ in fam.rows(bound)]


def table_rows(n, bound):
    """(family, q, p, eigenvalue, dimension) of every label of the table,
    free parameters running 1..bound."""
    den = eigenvalue_denominator(n)
    return [(fam, q, p, Fraction(key, den), dim)
            for fam in all_families(n) for q, p, key, dim in fam.rows(bound)]


def universal_eigenvalue(n, q, j, i, p):
    """A^2 / (4 (n-i-j)^2), A from ``eigenvalue_numerator``."""
    return Fraction(eigenvalue_numerator(n, q, j, i, p) ** 2, 4 * (n - i - j) ** 2)


def label_row(n, q, j, i, p):
    """The one family that holds the label, and the label's (eigenvalue,
    dimension) from the family's rows."""
    [fam] = holders(n, q, j, i, p)
    [row] = [(Fraction(key, eigenvalue_denominator(n)), dim)
             for q_, p_, key, dim in fam.rows(max(q, p, 1)) if (q_, p_) == (q, p)]
    return fam, *row


def norm(n, q, j, i, p, s, t):
    """The squared norm of the label at bidegree (s, t) as one fraction."""
    [fam] = holders(n, q, j, i, p)
    return Fraction(*squared_norm_pairs(fam, q, p)[s, t])


def degree_spectrum(n, k, N):
    """{eigenvalue: multiplicity} of degree k <= n, from
    ``degree_multiplicities``."""
    den = eigenvalue_denominator(n)
    return {Fraction(key, den): mult
            for key, mult in degree_multiplicities(n, k, N).items()}


def decompose(n, s, t):
    """The families of the table whose block list holds bidegree (s, t)."""
    return [fam for fam in all_families(n) if (s, t) in fam.spaces]


def test_eigenvalue_examples():
    for label, mu in (((1, 1, 0, 0, 1), 4), ((1, -1, 0, 0, 1), 1), ((1, 0, 0, 0, 0), 0)):
        assert label_row(*label)[1] == mu, label


def test_eigenvalue_case_reductions():
    for n in range(1, 5):
        for fam, q, p, mu, _ in table_rows(n, 50):
            i, j = fam.i, fam.j
            assert mu == universal_eigenvalue(n, q, j, i, p)
            if fam.case is Case.III:
                assert mu == Fraction((p + i) ** 2, 4)
            elif fam.case is Case.IV:
                assert mu == Fraction((q + j) ** 2, 4)
            elif fam.case is Case.VI:
                assert mu == Fraction((p + n) ** 2, 4)
            elif fam.case is Case.VII:
                assert mu == Fraction((q + n) ** 2, 4)
            elif fam.case is Case.I:
                assert mu == 0


def test_decompose_bottom_bidegree_families():
    # E^{0,0} at n=1 is the union {(q,0,0,p) : p,q >= 0} across cases.
    fams = decompose(1, 0, 0)
    labels = {lab for fam in fams for lab in members(fam, 2)}
    expected = {(q, 0, 0, p) for q in range(3) for p in range(3)}
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
    assert members(by_case[Case.VI], 3) == [(-1, 0, 0, p) for p in (1, 2, 3)]
    assert members(by_case[Case.III], 3) == [(0, 0, 0, p) for p in (1, 2, 3)]


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
                labels = [lab for fam in decompose(n, s, t) for lab in members(fam, 6)]
                assert len(labels) == len(set(labels))


def test_block_validates_bidegree():
    fam, _, dim = label_row(2, 1, 0, 0, 1)  # Case II at n=2
    assert fam.case is Case.II
    spaces = fam.spaces
    assert set(spaces) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert (1, 1) in spaces and (2, 0) not in spaces
    # Degree 2 carries the label's block at (1, 1) alone, with the Weyl
    # dimension of its weight; no family holding bidegree (2, 0) holds it.
    degree2 = {(q, f.j, f.i, p): (dim, sp)
               for f, sp in degree_families(2, 2) for q, p, _, dim in f.rows(1)}
    label = (1, 0, 0, 1)
    assert degree2[label] == (weyl_dimension(HighestWeight((1, 0, -1))), ((1, 1),))
    assert degree2[label][0] == dim
    assert all(label not in members(f, 1) for f in decompose(2, 2, 0))
    owners = [f for f in decompose(2, 1, 1) if label in members(f, 1)]
    assert [(f.case, f.i, f.j) for f in owners] == [(Case.II, 0, 0)]


def test_spectrum_slice_n1_degree0():
    # Derived by enumerating the decomposition and counting GT patterns.
    entries = degree_spectrum(1, 0, 1)
    assert entries == {
        Fraction(0): 1,
        Fraction(1, 4): 4,
        Fraction(4): 3,
    }
    assert list(entries) == sorted(entries)
    assert entries[Fraction(4)] == gt_pattern_count(HighestWeight((1, -1)))


def test_spectrum_slice_n2_degree1():
    entries = degree_spectrum(2, 1, 1)
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


def csv_spectrum(capsys, n, k, N):
    """The rows of ``spectrum --format csv`` as (eigenvalue, multiplicity)."""
    assert cli.main(["spectrum", "--n", str(n), "--degree", str(k),
                     "--max", str(N), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "eigenvalue_num,eigenvalue_den,eigenvalue_float,multiplicity"
    rows = [line.split(",") for line in lines[1:]]
    return [(Fraction(int(num), int(den)), int(mult)) for num, den, _, mult in rows]


def test_spectrum_slice_mirror_is_verbatim(capsys):
    # Degree 2n+1-k writes the rows of degree k, in the same order.
    for n, k, N in ((1, 0, 7), (2, 1, 5)):
        rows = csv_spectrum(capsys, n, k, N)
        mirror = csv_spectrum(capsys, n, 2 * n + 1 - k, N)
        assert mirror == rows
        assert rows == list(degree_spectrum(n, k, N).items())
        assert [mu for mu, _ in rows] == sorted(mu for mu, _ in rows)


def test_spectrum_slice_zero_only_at_ends(capsys):
    # Every degree, mirrored ones included, as the CLI writes it.
    for n in (1, 2, 3):
        for k in range(2 * n + 2):
            rows = csv_spectrum(capsys, n, k, 6)
            entries = dict(rows)
            assert len(entries) == len(rows)
            assert entries.get(Fraction(0), 0) == (1 if k in (0, 2 * n + 1) else 0)
            assert list(entries) == sorted(entries)


def test_spectrum_slice_rejects_bad_degree(capsys):
    # A degree outside 0..2n+1 exits 3 and a truncation below 1 exits 2,
    # each with one stderr line and no record.
    for argv, code in ((("--degree", "4", "--max", "3"), 3),
                       (("--degree", "-1", "--max", "3"), 3),
                       (("--degree", "0", "--max", "0"), 2)):
        assert cli.main(["spectrum", "--n", "1", *argv]) == code
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1


def test_operator_norm_squares_examples():
    def squares(n, q, j, i, p):
        [fam] = holders(n, q, j, i, p)
        return tuple(Fraction(*pair) for pair in operator_norm_pairs(fam, q, p))

    assert squares(1, 1, 0, 0, 1) == (1, 1)
    assert squares(2, 1, 0, 0, 1) == (Fraction(3, 4), Fraction(3, 4))
    # (p+i)(q+n-i)/(2(n-i-j)) = 4/2 and (q+j)(p+n-j)/(2(n-i-j)) = 6/2.
    assert squares(2, 2, 1, 0, 1) == (2, 3)


def test_norm_route_matches_formula():
    for n in range(1, 5):
        for fam, q, p, mu, _ in table_rows(n, 12):
            if fam.case in (Case.II, Case.V):
                route = Fraction(*norm_route_pair(fam, q, p))
                assert route == mu == universal_eigenvalue(n, q, fam.j, fam.i, p)


def test_case_v_mixed_route():
    [fam] = holders(1, 1, 0, 0, 1)
    assert Fraction(*case_v_mixed_pair(fam, 1, 1)) == 4
    for n in range(1, 5):
        for fam, q, p, mu, _ in table_rows(n, 12):
            if fam.case is Case.V:
                assert mu == universal_eigenvalue(n, q, fam.j, fam.i, p)
                assert Fraction(*case_v_mixed_pair(fam, q, p)) == mu
                assert Fraction(*case_v_identity_pair(fam, q, p)) == mu


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


def test_squared_norm_base_constants():
    # The coefficients of pi^2 at n = 1, p = q = 1: C = 2^2 0! 0! / 3! = 2/3
    # (Case V) and D = 2^2 0! / 2! = 2 (Case IV, and Case III with p for
    # q).  Each bottom-block factor (q+j)(p+i), q+j or p+i is 1 here.
    assert norm(1, 1, 0, 0, 1, 0, 0) == Fraction(2, 3)
    assert norm(1, 1, 0, 0, 0, 0, 0) == 2
    assert norm(1, 0, 0, 0, 1, 0, 0) == 2


def test_squared_norm_base_example():
    # |psi^{(0,0)}_{(1,0,0,1)}|^2 at n=1: C(1,1) * (q+j)(p+i) / 2^0.
    assert norm(1, 1, 0, 0, 1, 0, 0) == Fraction(2, 3)


def test_squared_norm_d_route():
    # D = 2^{n+1} (q-1)! / (q+n)! = 2^3 2! / 5! = 2/15 at n = 2, q = 3.
    # Case IV: j=1, q=3, and its Case III conjugate: i=1, p=3.
    assert norm(2, 3, 1, 0, 0, 0, 1) == Fraction(2, 15) * (3 + 1) / 2
    assert norm(2, 3, 1, 0, 0, 0, 2) == Fraction(2, 15) * (2 - 1) / 4
    assert norm(2, 0, 0, 1, 3, 1, 0) == Fraction(2, 15) * (3 + 1) / 2
    assert norm(2, 0, 0, 1, 3, 2, 0) == Fraction(2, 15) * (2 - 1) / 4


def test_squared_norm_ratio_rule():
    # |psi^{(i+1,j)}|^2 / |psi^{(i,j)}|^2 == (q+n-i) / (2(p+i)) where the
    # (i+1, j) formula applies (j > 0).
    for n in (2, 3, 4):
        for fam, q, p, _, _ in table_rows(n, 6):
            if fam.case not in (Case.II, Case.V) or fam.j == 0:
                continue
            i, j = fam.i, fam.j
            norms = squared_norm_pairs(fam, q, p)
            ratio = Fraction(*norms[i + 1, j]) / Fraction(*norms[i, j])
            assert ratio == Fraction(q + n - i, 2 * (p + i))


def test_operator_norm_consistent_with_l2_ratios():
    for n in (2, 3, 4):
        for fam, q, p, _, _ in table_rows(n, 8):
            if fam.case not in (Case.II, Case.V):
                continue
            i, j = fam.i, fam.j
            d = n - i - j
            a2, b2 = (Fraction(*pair) for pair in operator_norm_pairs(fam, q, p))
            norms = {st: Fraction(*pair)
                     for st, pair in squared_norm_pairs(fam, q, p).items()}
            base = norms[i, j]
            if j > 0:
                assert a2 == Fraction((p + i) ** 2, d) * norms[i + 1, j] / base
            if i > 0:
                assert b2 == Fraction((q + j) ** 2, d) * norms[i, j + 1] / base
            if i > 0 and j > 0 and i + j <= n - 2:
                corner, side = norms[i + 1, j + 1], norms[i, j + 1]
                assert a2 == Fraction((p + i) ** 2, d - 1) * corner / side


def test_squared_norm_rejects_out_of_range():
    # The norm table has no entry outside the side conditions of a formula,
    # and none for Cases I, VI and VII.
    [fam] = holders(2, 1, 0, 0, 1)  # Case II at n=2: (1, 1) needs i, j > 0
    assert sorted(squared_norm_pairs(fam, 1, 1)) == [(0, 0)]
    [fam] = holders(1, 0, 0, 0, 0)  # Case I
    assert squared_norm_pairs(fam, 0, 0) == {}
    [fam] = holders(2, -1, 0, 1, 2)  # Case VI
    assert squared_norm_pairs(fam, -1, 2) == {}


def test_eigenvalue_determined_by_weight():
    for n in (1, 2, 3):
        seen = {}
        for fam, q, p, mu, _ in table_rows(n, 10):
            assert seen.setdefault(fam.weight(q, p).entries, mu) == mu


def test_families_cover_all_cases_once():
    fams = all_families(3)
    pair_ij = [(f.i, f.j) for f in fams if f.case in (Case.II, Case.V)]
    assert sorted(pair_ij) == [(i, j) for i in range(3) for j in range(3 - i)]
    assert sum(1 for f in fams if f.case is Case.VI) == 1
    assert sum(1 for f in fams if f.case is Case.VII) == 1


def shared_keys(families):
    """The keys (i, j, q_fixed, p_fixed) that more than one family holds."""
    keys = [(f.i, f.j, f.q_fixed, f.p_fixed) for f in families]
    return {key for key in keys if keys.count(key) > 1}


def test_family_keys_are_distinct():
    # No two families share (i, j, q_fixed, p_fixed), the key that names a
    # label's family, so no label is held by two families or has two cases.
    for n in range(1, 41):
        assert shared_keys(all_families(n)) == set(), n


@pytest.mark.parametrize("duplicate", [
    lambda fam: fam,  # the same row twice
    lambda fam: dataclasses.replace(fam, case=Case.V),  # one key, two cases
])
def test_label_index_refuses_two_families_under_one_key(monkeypatch, duplicate):
    # A table with two families under one key is caught by the key check,
    # and a member label then has two holders, which ``label_row`` refuses.
    n = 3
    families = all_families(n)
    pair = next(fam for fam in families if fam.case is Case.II)
    tampered = families + (duplicate(pair),)
    assert shared_keys(tampered) == {(pair.i, pair.j, None, None)}
    monkeypatch.setattr(oracles, "all_families", lambda m: tampered)
    assert len(holders(n, 1, pair.j, pair.i, 1)) == 2
    with pytest.raises(ValueError, match="too many values"):
        label_row(n, 1, pair.j, pair.i, 1)


def _paper_bidegrees(n, case, i, j):
    # The bidegree table of the seven cases, written out independently of
    # ``all_families``.
    return {
        Case.I: ((0, 0),),
        Case.II: ((i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)),
        Case.V: ((i, j), (i + 1, j), (i, j + 1)),
        Case.III: ((i, 0), (i + 1, 0)),
        Case.IV: ((0, j), (0, j + 1)),
        Case.VI: ((n, 0),),
        Case.VII: ((0, n),),
    }[case]


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


def test_family_labels_are_valid_distinct_and_cover_all_cases():
    for n in range(1, 5):
        for bound in (1, 3):
            labels = []
            for fam in all_families(n):
                for lab in members(fam, bound):
                    # Each member lies in the paper's range of its family's
                    # case, and in no other family.
                    assert _paper_case(n, *lab) is fam.case, (fam, lab)
                    assert holders(n, *lab) == [fam], lab
                    labels.append(lab)
            assert len(labels) == len(set(labels))
            # Case II needs i + j <= n - 2, so n = 1 has none.
            expected = set(Case) if n >= 2 else set(Case) - {Case.II}
            assert {_paper_case(n, *lab) for lab in labels} == expected


def test_labels_accept_exactly_the_paper_case_ranges():
    accepted = members_at_3 = 0
    for n in range(1, 6):
        # The family that yields each label with p, q <= 3; no label twice.
        owner = {}
        for fam in all_families(n):
            for lab in members(fam, 3):
                assert owner.setdefault(lab, fam) is fam, lab
        members_at_3 += len(owner)
        for q, p, i, j in product(range(-3, 4), range(-3, 4),
                                  range(-2, n + 2), range(-2, n + 2)):
            case = _paper_case(n, q, j, i, p)
            found = holders(n, q, j, i, p)
            if case is None:
                assert found == [], (n, q, j, i, p)
                continue
            assert found == [owner[q, j, i, p]], (n, q, j, i, p)
            assert found[0].case is case
            accepted += 1
    assert accepted == members_at_3
    with pytest.raises(ValueError):
        holders(0, 0, 0, 0, 0)


def test_label_family_spaces_are_the_family_table():
    for n in range(1, 6):
        for fam in all_families(n):
            for lab in members(fam, 3):
                assert holders(n, *lab) == [fam]
                case = _paper_case(n, *lab)
                assert fam.spaces == _paper_bidegrees(n, case, fam.i, fam.j)


def test_degree_families_enumerate_each_label_once():
    for n in (1, 2, 3):
        denominator = eigenvalue_denominator(n)
        for k in range(2 * n + 2):
            got = list(degree_families(n, k))
            rows = [(fam, row) for fam, _ in got for row in fam.rows(4)]
            expected = [
                (fam, lab) for fam in all_families(n) for lab in members(fam, 4)
                if any(s + t == k for s, t in fam.spaces)
            ]
            labels = [(fam, (q, fam.j, fam.i, p)) for fam, (q, p, _, _) in rows]
            assert labels == expected
            if k > n:
                assert got == []
            assert [fam for fam, _ in got] == [
                fam for fam in all_families(n) if any(s + t == k for s, t in fam.spaces)]
            for fam, spaces in got:
                assert spaces == tuple((s, t) for s, t in fam.spaces if s + t == k)
            for fam, row in rows:
                assert len(row) == 4 and all(type(x) is int for x in row)
                q, p, key, dim = row
                assert holders(n, q, fam.j, fam.i, p) == [fam]
                assert Fraction(key, denominator) == universal_eigenvalue(
                    n, q, fam.j, fam.i, p)
                weight = ((q,) + (1,) * fam.j + (0,) * (n - 1 - fam.i - fam.j)
                          + (-1,) * fam.i + (-p,))
                assert dim == weyl_dimension(HighestWeight(weight))
