"""Weight bookkeeping: tuple expansion, Weyl dimension, GT oracle."""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumin_sphere import (
    Case,
    EnumerationBudgetError,
    HighestWeight,
    InvalidLabelError,
    RuminLabel,
    gt_pattern_count,
    label_to_weight,
    special_dimension,
    weyl_dimension,
)
from rumin_sphere.spectrum import all_families


def test_highest_weight_requires_nonincreasing():
    HighestWeight((3, 1, 1, 0, -2))
    with pytest.raises(ValueError):
        HighestWeight((0, 1))
    with pytest.raises(ValueError):
        HighestWeight(())


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
    assert label_to_weight(RuminLabel(n, q, j, i, p)).entries == expected


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
    assert RuminLabel(n, q, j, i, p).case is case


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
    with pytest.raises(InvalidLabelError):
        RuminLabel(n, q, j, i, p)


def test_weyl_dimension_examples():
    assert weyl_dimension((0, 0, 0)) == 1
    # Frozen from the GT oracle (asserted here against it too).
    assert weyl_dimension((0, -1, -1)) == gt_pattern_count((0, -1, -1)) == 3
    for p in range(1, 12):
        assert weyl_dimension((0, -p)) == p + 1


def test_gt_pattern_count_examples():
    assert gt_pattern_count((0, 0)) == 1
    assert gt_pattern_count((1, 0)) == 2
    assert gt_pattern_count((1, 0, -1)) == 8


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
        assert gt_pattern_count(row) == gt_leaf_count(row), row


def test_gt_pattern_count_shares_a_memo_between_rows():
    # Counts through one shared memo equal fresh counts, whatever the order.
    memo = {}
    rows = [(q, 1, 0, -1, -p) for q in range(1, 7) for p in range(1, 7)]
    for row in rows[::-1] + rows:
        assert gt_pattern_count(row, memo=memo) == gt_pattern_count(row), row
    # The memo is keyed on rows shifted to end in 0; a translated row is a hit.
    # With every count made, a call does no work at all.
    assert (12, 7, 6, 5, 0) in memo
    assert gt_pattern_count((9, 4, 3, 2, -3), budget=0, memo=memo) == (
        gt_pattern_count((6, 1, 0, -1, -6))
    )


def test_gt_budget_guard():
    with pytest.raises(EnumerationBudgetError):
        gt_pattern_count((5, 2, 0, -2, -5), budget=50)


def test_gt_budget_guard_raises_before_a_large_sum():
    # 21^3 child rows under one first entry: the budget is charged before
    # they are summed, so the guard trips at once.
    start = time.perf_counter()
    with pytest.raises(EnumerationBudgetError):
        gt_pattern_count((40, 20, 0, -20, -40), budget=1000)
    assert time.perf_counter() - start < 0.05


def test_weyl_matches_gt_on_bounded_labels():
    for n in (1, 2, 3):
        for fam in all_families(n):
            for label in fam.labels(4, 4):
                w = label_to_weight(label)
                assert weyl_dimension(w) == gt_pattern_count(w), label


small_weights = st.lists(
    st.integers(min_value=-4, max_value=4), min_size=1, max_size=4
).map(lambda vs: tuple(sorted(vs, reverse=True)))


@settings(max_examples=80, deadline=None)
@given(w=small_weights, c=st.integers(min_value=-3, max_value=3))
def test_weyl_determinant_twist_invariance(w, c):
    shifted = tuple(a + c for a in w)
    assert weyl_dimension(w) == weyl_dimension(shifted)


@settings(max_examples=80, deadline=None)
@given(w=small_weights)
def test_weyl_conjugation_symmetry(w):
    conj = tuple(-a for a in reversed(w))
    assert weyl_dimension(w) == weyl_dimension(conj)


@pytest.mark.parametrize(
    "n, i, p, expected",
    [(1, 0, 3, 4), (2, 1, 1, 3), (2, 0, 1, 3)],
)
def test_special_dimension_examples(n, i, p, expected):
    # Expected values frozen from the GT oracle on the expanded weights.
    w = (0,) * (n - i) + (-1,) * i + (-p,)
    assert gt_pattern_count(w) == expected
    assert special_dimension(n, i, p) == expected


def test_special_dimension_matches_weyl():
    for n in range(1, 5):
        for i in range(n + 1):
            for p in range(1, 21):
                w = (0,) * (n - i) + (-1,) * i + (-p,)
                assert special_dimension(n, i, p) == weyl_dimension(w)


def test_special_dimension_rejects_bad_input():
    with pytest.raises(ValueError):
        special_dimension(2, 3, 1)
    with pytest.raises(ValueError):
        special_dimension(2, 0, 0)

