"""Weight bookkeeping: tuple expansion, the Weyl product of ``oracles``
against the GT oracle and the closed forms, the elementary symmetric rows behind the dimension polynomial, and the
polynomial against the special dimensions."""

import itertools
import time
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import holders, weyl_dimension
from rumin_sphere import weights
from rumin_sphere import (
    Case,
    EnumerationBudgetError,
    HighestWeight,
    dimension_coefficients,
    gt_pattern_count,
    special_dimension,
)
from rumin_sphere.spectrum import all_families


def test_highest_weight_requires_nonincreasing():
    HighestWeight((3, 1, 1, 0, -2))
    with pytest.raises(ValueError):
        HighestWeight((0, 1))
    with pytest.raises(ValueError):
        HighestWeight(())


def test_highest_weight_refuses_entries_that_are_not_integers():
    # int() truncated these: (1.5, 0) became (1, 0), ("3", 0) became
    # (3, 0), and the Weyl dimension of (2.7, 0) was that of (2, 0).
    for entries in ((1.5, 0), ("3", 0), (2.7, 0)):
        with pytest.raises(TypeError):
            HighestWeight(entries)
    with pytest.raises(TypeError):
        weyl_dimension(HighestWeight((2.7, 0)))
    assert HighestWeight((2, 0)).entries == (2, 0)
    assert HighestWeight((True, False, -1)).entries == (1, 0, -1)
    assert weyl_dimension(HighestWeight((True, False))) == 2


@pytest.mark.parametrize(
    "n, q, j, i, p, expected",
    [
        (2, 3, 1, 0, 2, (3, 1, -2)),
        (1, -1, 0, 0, 2, (-1, -2)),
        # At n=3 the zero run has length n-1-i-j = 0; the weight must have
        # n+1 entries.  The 5-entry variant belongs to n=4.
        (3, 1, 1, 1, 1, (1, 1, -1, -1)),
        (4, 1, 1, 1, 1, (1, 1, 0, -1, -1)),
        (1, 0, 0, 0, 0, (0, 0)),
        (2, -1, 0, 1, 3, (-1, -1, -3)),
        (2, 4, 1, 0, -1, (4, 1, 1)),
    ],
)
def test_label_to_weight_expansion(n, q, j, i, p, expected):
    [fam] = holders(n, q, j, i, p)
    assert fam.weight(q, p).entries == expected


@pytest.mark.parametrize(
    "n, q, j, i, p, case",
    [
        (1, 0, 0, 0, 0, Case.I),
        (3, 2, 1, 0, 5, Case.II),
        (2, 0, 0, 1, 3, Case.III),
        (2, 3, 1, 0, 0, Case.IV),
        (2, 1, 1, 0, 1, Case.V),
        (2, -1, 0, 1, 2, Case.VI),
        (2, 2, 1, 0, -1, Case.VII),
    ],
)
def test_label_case_classification(n, q, j, i, p, case):
    assert [fam.case for fam in holders(n, q, j, i, p)] == [case]


@pytest.mark.parametrize(
    "n, q, j, i, p",
    [
        (1, 0, 0, 0, -1),   # p = -1 needs q >= 1
        (1, -1, 0, 0, -1),  # both structural negatives
        (2, 0, 1, 0, 3),    # q = 0 forces j = 0
        (2, 5, 0, 1, 0),    # p = 0 forces i = 0
        (2, -1, 0, 0, 2),   # Case VI needs i = n-1
        (2, 1, 1, 1, 1),    # i + j > n - 1
        (1, -2, 0, 0, 1),   # q < -1
    ],
)
def test_invalid_labels_rejected(n, q, j, i, p):
    assert holders(n, q, j, i, p) == []


def test_weyl_dimension_examples():
    assert weyl_dimension(HighestWeight((0, 0, 0))) == 1
    # Frozen from the GT oracle (asserted here against it too).
    w = HighestWeight((0, -1, -1))
    assert weyl_dimension(w) == gt_pattern_count(w) == 3
    for p in range(1, 12):
        assert weyl_dimension(HighestWeight((0, -p))) == p + 1


def test_middle_dimension_is_the_weyl_dimension():
    # Every middle weight (1^a, 0^b, (-1)^c) with m = a+b+c <= 40 entries;
    # the empty weight of m = 0 (the middle weight of n = 1) counts 1.
    assert weights.middle_dimension(0, 0, 0) == 1
    for m in range(1, 41):
        for a in range(m + 1):
            for b in range(m + 1 - a):
                c = m - a - b
                assert weights.middle_dimension(a, b, c) == weyl_dimension(
                    HighestWeight((1,) * a + (0,) * b + (-1,) * c)), (a, b, c)


def test_gt_pattern_count_examples():
    assert gt_pattern_count(HighestWeight((0, 0))) == 1
    assert gt_pattern_count(HighestWeight((1, 0))) == 2
    assert gt_pattern_count(HighestWeight((1, 0, -1))) == 8


def gt_leaf_count(row):
    """Gelfand-Tsetlin patterns with top row ``row``, counted one leaf at a
    time by a depth-first walk over every interlacing triangle: the
    exhaustive reference for the memoised ``gt_pattern_count``."""
    if len(row) == 1:
        return 1
    total = 0
    for child in itertools.product(
        *(range(row[t + 1], row[t] + 1) for t in range(len(row) - 1))
    ):
        total += gt_leaf_count(child)
    return total


def test_gt_pattern_count_matches_leaf_count():
    rows = [
        row
        for m in range(1, 6)
        for row in itertools.combinations_with_replacement(range(3, -4, -1), m)
    ]
    assert len(rows) == 7 + 28 + 84 + 210 + 462
    for row in rows:
        assert gt_pattern_count(HighestWeight(row)) == gt_leaf_count(row), row


def test_gt_pattern_count_shares_a_memo_between_rows():
    # Counts through one shared memo equal fresh counts, whatever the order.
    memo = {}
    rows = [HighestWeight((q, 1, 0, -1, -p)) for q in range(1, 7) for p in range(1, 7)]
    for row in rows[::-1] + rows:
        assert gt_pattern_count(row, memo=memo) == gt_pattern_count(row), row
    # The memo is keyed on rows shifted to end in 0; a translated row is a hit.
    # With every count made, a call does no work at all.
    assert (12, 7, 6, 5, 0) in memo
    assert gt_pattern_count(HighestWeight((9, 4, 3, 2, -3)), budget=0, memo=memo) == (
        gt_pattern_count(HighestWeight((6, 1, 0, -1, -6)))
    )


rows_up_to_6 = st.lists(
    st.integers(min_value=-3, max_value=3), min_size=1, max_size=6
).map(lambda vs: tuple(sorted(vs, reverse=True)))

# Rows whose last two entries are equal: their running sums P(c, 0) sit
# beside the row c + (0,), so a running-sum list stored under the key c
# itself would overwrite a row count whenever c ends in 0 too.
EQUAL_TAILS = [(2, 1, 0, 0), (3, 2, 0, 0, 0), (3, 3, 1, 1, 1), (1, 0, 0, 0, 0, 0),
               (2, 2, 2, 2, 2, 2), (3, 1, 0, 0, 0, -2, -2)]


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(rows_up_to_6, min_size=1, max_size=10))
def test_gt_pattern_count_through_one_memo_in_any_order(rows):
    # Counts through one memo, in the drawn order after rows that fill it
    # with running sums of both kinds of key, equal fresh counts and the
    # leaf count.
    memo = {}
    for row in EQUAL_TAILS + rows:
        got = gt_pattern_count(HighestWeight(row), memo=memo)
        assert got == gt_pattern_count(HighestWeight(row)), row
        if len(row) <= 5:
            assert got == gt_leaf_count(row), row


def test_gt_memo_keeps_running_sums_apart_from_rows():
    memo = {}
    for row in EQUAL_TAILS:
        gt_pattern_count(HighestWeight(row), memo=memo)
    rows = {k for k in memo if all(isinstance(a, int) for a in k)}
    running = {k[0]: v for k, v in memo.items() if k not in rows}
    assert all(r[-1] == 0 for r in rows)
    assert all(len(k) == 1 for k in memo if k not in rows)
    # Some prefix c is also a counted row: the two share no key, and the
    # running sums of c start at the count of c + (0,).
    shared = [c for c in running if c in rows]
    assert shared
    for c in shared:
        assert running[c][0] == memo[c + (0,)] and memo[c] == gt_leaf_count(c)


def test_gt_work_for_a_request_stays_pinned():
    # The rows of ``verify --n 4 --max 20`` through one memo take 34,349
    # work units: per stored row count or running sum and per running sum
    # read.
    memo = {}
    work = 0
    for fam in all_families(4):
        for q, p, _, dim in fam.rows(20):
            w = fam.weight(q, p)
            count, units = weights._gt_count(w.entries, 10**6, memo)
            assert count == dim
            work += units
    assert work < 36_000


@settings(max_examples=60, deadline=None)
@given(row=rows_up_to_6.filter(lambda row: len(row) >= 2))
@example(row=(20, 0, 0, 0, -1))
@example(row=(9, 2, 2, -1, -3))
@example(row=(6, 6, 1, 0))
def test_gt_count_of_a_top_row_stores_every_row_below_it(row):
    # One count of (x, tail) with a fresh memo stores the count of every
    # (y, tail) for tail[0] <= y <= x: each is then a hit, of zero work
    # even under budget 0, and equals its count from a fresh memo.
    x, *tail = row
    memo = {}
    assert weights._gt_count(row, 10**6, memo)[0] == gt_pattern_count(HighestWeight(row))
    for y in range(tail[0], x + 1):
        below = (y, *tail)
        assert weights._gt_count(below, 0, memo) == (
            gt_pattern_count(HighestWeight(below)), 0), below


def test_gt_budget_guard():
    with pytest.raises(EnumerationBudgetError):
        gt_pattern_count(HighestWeight((5, 2, 0, -2, -5)), budget=50)


def test_gt_budget_guard_raises_before_a_large_sum():
    # 21^3 child rows under one first entry: the budget is charged before
    # they are summed, so the guard trips at once.
    start = time.perf_counter()
    with pytest.raises(EnumerationBudgetError):
        gt_pattern_count(HighestWeight((40, 20, 0, -20, -40)), budget=1000)
    assert time.perf_counter() - start < 0.05


def test_gt_budget_guard_charges_the_descent_walk():
    # The row (10^9, 0) walks its first entry down from 10^9 before any sum;
    # each step is charged as it is taken, so the guard trips at once.
    start = time.perf_counter()
    with pytest.raises(EnumerationBudgetError):
        gt_pattern_count(HighestWeight((10**9, 0)), budget=10)
    assert time.perf_counter() - start < 0.1


def test_gt_budget_guard_charges_the_running_sums():
    # The row (10^6, 10^6, 0) makes one row count, then 10^6 + 1 running
    # sums of (10^6,); they are charged before any is made.
    start = time.perf_counter()
    with pytest.raises(EnumerationBudgetError):
        gt_pattern_count(HighestWeight((10**6, 10**6, 0)), budget=10)
    assert time.perf_counter() - start < 0.05


def test_weyl_matches_gt_on_bounded_labels():
    for n in (1, 2, 3):
        for fam in all_families(n):
            for q, p, _, dim in fam.rows(4):
                w = fam.weight(q, p)
                assert weyl_dimension(w) == gt_pattern_count(w) == dim, w


small_weights = st.lists(
    st.integers(min_value=-4, max_value=4), min_size=1, max_size=4
).map(lambda vs: HighestWeight(tuple(sorted(vs, reverse=True))))


@settings(max_examples=80, deadline=None)
@given(w=small_weights, c=st.integers(min_value=-3, max_value=3))
def test_weyl_determinant_twist_invariance(w, c):
    shifted = HighestWeight(tuple(a + c for a in w.entries))
    assert weyl_dimension(w) == weyl_dimension(shifted)


@settings(max_examples=80, deadline=None)
@given(w=small_weights)
def test_weyl_conjugation_symmetry(w):
    conj = HighestWeight(tuple(-a for a in reversed(w.entries)))
    assert weyl_dimension(w) == weyl_dimension(conj)


@pytest.mark.parametrize(
    "n, i, p, expected",
    [(1, 0, 3, 4), (2, 1, 1, 3), (2, 0, 1, 3)],
)
def test_special_dimension_examples(n, i, p, expected):
    # Expected values frozen from the GT oracle on the expanded weights.
    w = HighestWeight((0,) * (n - i) + (-1,) * i + (-p,))
    assert gt_pattern_count(w) == expected
    assert special_dimension(n, i, p) == expected


def test_special_dimension_matches_weyl():
    for n in range(1, 5):
        for i in range(n + 1):
            for p in range(1, 21):
                w = HighestWeight((0,) * (n - i) + (-1,) * i + (-p,))
                assert special_dimension(n, i, p) == weyl_dimension(w)


def test_special_dimension_rejects_bad_input():
    with pytest.raises(ValueError):
        special_dimension(2, 3, 1)
    with pytest.raises(ValueError):
        special_dimension(2, 0, 0)


def test_elementary_symmetric_basics():
    # weights._symmetric_row(values, l) is [e_0, ..., e_l]; e_l past the
    # number of values is 0.
    assert weights._symmetric_row([], 0) == [1]
    assert weights._symmetric_row([5, 7, 11], 0) == [1]
    assert weights._symmetric_row([1, 0, -1], 2) == [1, 0, -1]
    assert weights._symmetric_row([1, 2], 3) == [1, 3, 2, 0]


def test_elementary_symmetric_arithmetic_series():
    for n in range(1, 8):
        for i in range(n + 1):
            vals = [n - i - m for m in range(n + 1)]
            assert weights._symmetric_row(vals, 1)[1] == sum(vals)
            assert 2 * sum(vals) == (n + 1) * (n - 2 * i)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=6))
def test_elementary_symmetric_against_polynomial_expansion(vals):
    # prod (x + v) has coefficient e_l on x^{len-l}: expand brute force.
    coeffs = [1]  # coeffs[d] multiplies x^d
    for v in vals:
        new = [0] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            new[d + 1] += c
            new[d] += v * c
        coeffs = new
    assert weights._symmetric_row(vals, len(vals)) == coeffs[::-1]


def test_dimension_polynomial_matches_special_dimension():
    for n in range(1, 5):
        for i in range(n + 1):
            cs = dimension_coefficients(n, i)
            assert len(cs) == n + 1
            for p in range(1, 31):
                value = sum(c * (p + i) ** l for l, c in enumerate(cs))
                assert value == special_dimension(n, i, p)


def test_dimension_polynomial_leading_coefficient():
    # Leading term is C(n,i)/n! * (p+i)^n.
    for n in range(1, 5):
        for i in range(n + 1):
            cs = dimension_coefficients(n, i)
            assert cs[-1] == Fraction(comb(n, i), factorial(n))
