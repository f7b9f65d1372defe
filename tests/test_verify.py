"""The verify suites: every check reaches the record's bound, one request
builds the label set once from the row generator ``spectrum`` prints, and
every numeric check holds against a bound derived from its routes and fails
on errors below it.
The identity tests of ``sigma`` (two), ``c_coefficients`` (three) and the
vanishing correction (two) moved here from ``test_zeta`` unchanged."""

import contextlib
import dataclasses
import functools
import inspect
import io
import itertools
import json
import math
import random
import sys
import time
import types
from fractions import Fraction
from math import factorial
from operator import itemgetter

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumin_sphere import _kernels_py, cli, limits, spectrum, torsion, verify, weights, zeta
from rumin_sphere import c_coefficients, sigma


def kernel_pairs(n, bound):
    """The (dimension, bidegrees) pair of every row of ``BlockFamily.rows``
    with key 0, each with all its family's bidegrees, as ``run_all`` hands
    them to the kernel check."""
    return [(dim, fam.spaces) for fam in spectrum.all_families(n)
            for _, _, key, dim in fam.rows(bound) if not key]


def patch_rows(monkeypatch, change):
    """Make ``BlockFamily.rows`` yield every row (q, p, key, dimension) with
    its (key, dimension) replaced by ``change(family, row)``; ``spectrum``
    and ``verify`` both read the changed rows."""
    generate = spectrum.BlockFamily.rows

    def changed(family, bound):
        for row in generate(family, bound):
            yield (*row[:2], *change(family, row))

    monkeypatch.setattr(spectrum.BlockFamily, "rows", changed)


def failing_checks(capsys, n, bound):
    code = cli.main(["verify", "--n", str(n), "--max", str(bound)])
    record = json.loads(capsys.readouterr().out)
    return code, {c["name"] for c in record["checks"] if not c["passed"]}


def test_weyl_check_reaches_the_bound(capsys, monkeypatch):
    # A generated dimension off by one only at q = 17 is caught at --max 20.
    def wrong_at_q17(family, row):
        return row[2], row[3] + (row[0] == 17)

    assert failing_checks(capsys, 2, 20) == (0, set())
    patch_rows(monkeypatch, wrong_at_q17)
    assert failing_checks(capsys, 2, 16) == (0, set())
    assert failing_checks(capsys, 2, 20) == (1, {"weyl_dimension_vs_gt_patterns"})


def test_weight_check_reaches_the_bound(capsys, monkeypatch):
    # A generated eigenvalue off by one only at p = 15 is caught at --max 20.
    def wrong_at_p15(family, row):
        return row[2] + (row[1] == 15) * spectrum.eigenvalue_denominator(family.n), row[3]

    patch_rows(monkeypatch, wrong_at_p15)
    code, failed = failing_checks(capsys, 2, 20)
    assert code == 1
    assert "eigenvalue_determined_by_weight" in failed
    assert failing_checks(capsys, 2, 14) == (0, set())


def at_target(family, q, p):
    """Whether (family, q, p) is the one Case V label (q, j, i, p) =
    (1, 1, 0, 15) of n = 2."""
    return (family.n, family.i, family.j, q, p) == (2, 0, 1, 1, 15)


def test_weight_check_reads_the_shared_weight(capsys, monkeypatch):
    # A valid but wrong weight, first entry q+1, from the one weight
    # expansion ``BlockFamily.weight`` at the one label (q, j, i, p) =
    # (1, 1, 0, 15) of n = 2 reaches both checks that read the weight: the
    # weight-determined eigenvalue, and the GT count, which no longer
    # matches the generated dimension.  The other checks do not read it.
    to_weight = spectrum.BlockFamily.weight

    def wrong_at_target(family, q, p):
        w = to_weight(family, q, p)
        if not at_target(family, q, p):
            return w
        return weights.HighestWeight((q + 1, *w.entries[1:]))

    monkeypatch.setattr(spectrum.BlockFamily, "weight", wrong_at_target)
    assert failing_checks(capsys, 2, 20) == (
        1, {"eigenvalue_determined_by_weight", "weyl_dimension_vs_gt_patterns"})
    assert failing_checks(capsys, 2, 14) == (0, set())


def test_verify_sees_a_wrong_key_multiplier_of_the_generator(capsys, monkeypatch):
    # The multiplier L / (4 d^2) of the key taken as L / (4 d) for d > 2:
    # the key times d, exactly, as 4 d^2 divides L.  It changes the spectrum
    # that ``spectrum`` prints, and four checks see it.
    n = 4
    before = [spectrum.degree_multiplicities(n, k, 10) for k in range(n + 1)]
    patch_rows(monkeypatch, lambda family, row: (
        row[2] * (n - family.i - family.j) if n - family.i - family.j > 2 else row[2],
        row[3]))
    assert [spectrum.degree_multiplicities(n, k, 10) for k in range(n + 1)] != before
    assert failing_checks(capsys, n, 10) == (1, {
        "universal_eigenvalue_reductions", "norm_route_eigenvalue_equivalence",
        "operator_norms_vs_l2_ratios", "eigenvalue_determined_by_weight"})


def test_verify_sees_a_doubled_family_constant_of_the_generator(capsys, monkeypatch):
    # The middle-weight constant of the Case II family (i, j) = (0, 1)
    # doubled: every dimension of that family doubles, exactly, as the
    # undoubled product is a multiple of the divisor.  The spectrum changes,
    # and the GT check sees it.
    n = 4

    def doubled(family, row):
        hit = family.case is spectrum.Case.II and (family.i, family.j) == (0, 1)
        return row[2], row[3] * (1 + hit)

    before = [spectrum.degree_multiplicities(n, k, 10) for k in range(n + 1)]
    patch_rows(monkeypatch, doubled)
    assert [spectrum.degree_multiplicities(n, k, 10) for k in range(n + 1)] != before
    assert failing_checks(capsys, n, 10) == (1, {"weyl_dimension_vs_gt_patterns"})


@pytest.mark.parametrize("i, j, failed", [
    (0, 2, {"weyl_dimension_vs_gt_patterns", "eigenvalue_determined_by_weight",
            "norm_route_eigenvalue_equivalence", "case_v_mixed_route_equivalence"}),
    # The family (1, 1) is its own conjugate: a swap maps it onto itself.
    (1, 1, set()),
], ids=["asymmetric", "self_conjugate"])
def test_verify_sees_swapped_row_parameters(capsys, monkeypatch, i, j, failed):
    # The generator yields (p, q, key, dimension) for (q, p, key, dimension)
    # on one Case V family of n = 3: the checks read q and p by position,
    # so on the asymmetric family (i, j) = (0, 2) the weight, the norm
    # routes and the mixed route no longer match the key and the dimension.
    # At --max 1 the swap changes no row.
    generate = spectrum.BlockFamily.rows

    def swapped(family, bound):
        hit = family.case is spectrum.Case.V and (family.i, family.j) == (i, j)
        for q, p, key, dim in generate(family, bound):
            yield (p, q, key, dim) if hit else (q, p, key, dim)

    monkeypatch.setattr(spectrum.BlockFamily, "rows", swapped)
    assert failing_checks(capsys, 3, 10) == (int(bool(failed)), failed)
    assert failing_checks(capsys, 3, 1) == (0, set())


def test_verify_sees_running_sums_that_skip_the_child_ending_in_0(capsys, monkeypatch):
    # A copy of ``weights`` whose running sums start at the child ending in
    # 1, not 0: each new list of running sums holds the empty sum P(c, 0) =
    # 0 before the first child is added.  Only the GT check sees it, so the
    # GT count is still a route of its own.
    source = inspect.getsource(weights)
    fresh = "table.setdefault((c,), [])"
    assert source.count(fresh) == 1
    mutant = types.ModuleType("weights_mutant")
    monkeypatch.setitem(sys.modules, mutant.__name__, mutant)
    exec(compile(source.replace(fresh, "table.setdefault((c,), [0])"),
                 weights.__file__, "exec"), mutant.__dict__)
    assert failing_checks(capsys, 3, 5) == (0, set())
    monkeypatch.setattr(verify, "gt_pattern_count", mutant.gt_pattern_count)
    assert failing_checks(capsys, 3, 5) == (1, {"weyl_dimension_vs_gt_patterns"})


def gt_calls(monkeypatch):
    """Record (top row, work units) of every ``weights._gt_count`` call that
    ``gt_pattern_count`` makes, in the returned list."""
    calls = []
    count = weights._gt_count

    def recorded(top, budget, table):
        got = count(top, budget, table)
        calls.append((top, got[1]))
        return got

    monkeypatch.setattr(weights, "_gt_count", recorded)
    return calls


def test_gt_check_counts_each_run_from_its_top_row(monkeypatch):
    # The rows of a run differ only in q.  The check counts the run's
    # largest q first, and that call stores the rest of the run, so each row
    # is counted by one call and only a run's first call does any work: 52
    # calls, where counting row by row makes 349.
    calls = gt_calls(monkeypatch)
    assert all(c.passed for c in verify.run_all(3, 10))
    # The weights of each run of one family and one p, in the rows' order.
    runs = [[fam.weight(q, p).entries for q, p, _, _ in run]
            for fam in spectrum.all_families(3)
            for _, run in itertools.groupby(fam.rows(10), itemgetter(1))]
    assert len(runs) == 105 and len(calls) == sum(map(len, runs))
    at = 0
    for run in runs:
        made, at = calls[at:at + len(run)], at + len(run)
        assert [top for top, _ in made] == [run[-1], *run[:-1]]
        assert not any(work for _, work in made[1:]), run
    assert sum(1 for _, work in calls if work) == 52


def test_gt_check_budgets_a_run_by_its_rows(monkeypatch):
    # 98 units is the costliest single row of ``run_all(4, 20)`` counted row
    # by row in the generator's order.  Under a per-row budget of 98, each
    # run's top call has 98 units per row of the run, which covers its
    # 1,049; one row's 98 would stop the run of (q, 0, 0, 0, -1).
    memo = {}
    single = [weights._gt_count(fam.weight(q, p).entries, 10**6, memo)[1]
              for fam in spectrum.all_families(4) for q, p, _, _ in fam.rows(20)]
    assert max(single) == 98
    monkeypatch.setattr(verify, "GT_BUDGET", 98)
    calls = gt_calls(monkeypatch)
    assert all(c.passed for c in verify.run_all(4, 20))
    assert max(work for _, work in calls) == 1049
    count = verify.gt_pattern_count
    monkeypatch.setattr(verify, "gt_pattern_count",
                        lambda w, budget=98, memo=None: count(w, min(budget, 98), memo))
    with pytest.raises(weights.EnumerationBudgetError,
                       match=r"top row \(20, 0, 0, 0, -1\)$"):
        verify.run_all(4, 20)


# Each case patches the integer-pair home of a route; the ids are the ones
# the cases had when they patched the ``Fraction`` routes, which wrapped
# these homes and are gone.
@pytest.mark.parametrize("name, check", [
    pytest.param("norm_route_pair", "norm_route_eigenvalue_equivalence",
                 id="norm_route_eigenvalue-norm_route_eigenvalue_equivalence"),
    pytest.param("case_v_mixed_pair", "case_v_mixed_route_equivalence",
                 id="case_v_mixed_eigenvalue-case_v_mixed_route_equivalence"),
    pytest.param("case_v_identity_pair", "case_v_mixed_route_equivalence",
                 id="case_v_identity_value-case_v_mixed_route_equivalence"),
    pytest.param("squared_norm_pairs", "operator_norms_vs_l2_ratios",
                 id="squared_norm-operator_norms_vs_l2_ratios"),
])
def test_route_checks_are_exact_to_the_bound(capsys, monkeypatch, name, check):
    # 10^-40 added to a route's value (to every norm of the table) at the
    # one Case V label (q, j, i, p) = (1, 1, 0, 15) of n = 2, relative
    # 10^-26 or less, is caught at --max 20 and not at 14: the cross
    # products compare exact integers, and the pairs are not reduced.
    route = getattr(spectrum, name)
    tiny = 10**40

    def plus_tiny(pair):
        num, den = pair
        return num * tiny + den, den * tiny

    def off_at_target(family, q, p):
        value = route(family, q, p)
        if not at_target(family, q, p):
            return value
        if isinstance(value, dict):
            return {bidegree: plus_tiny(norm) for bidegree, norm in value.items()}
        return plus_tiny(value)

    monkeypatch.setattr(spectrum, name, off_at_target)
    assert failing_checks(capsys, 2, 20) == (1, {check})
    assert failing_checks(capsys, 2, 14) == (0, set())


@pytest.mark.parametrize("case", [spectrum.Case.IV, spectrum.Case.III])
def test_norm_ratio_check_reaches_the_one_parameter_norms(capsys, monkeypatch, case):
    # A factor n-j+1 for n-j in the Case IV norm at (0, j+1), or n-i+1 for
    # n-i in the Case III norm at (i+1, 0), of the norm table's one home
    # fails the ratio check.
    norms = spectrum.squared_norm_pairs

    def wrong_factor(family, q, p):
        k = family.n - family.i - family.j
        return {(s, t): (num * (k + 1), den * k)
                if family.case is case and s + t == family.i + family.j + 1 else (num, den)
                for (s, t), (num, den) in norms(family, q, p).items()}

    assert failing_checks(capsys, 3, 10) == (0, set())
    monkeypatch.setattr(spectrum, "squared_norm_pairs", wrong_factor)
    assert failing_checks(capsys, 3, 10) == (1, {"operator_norms_vs_l2_ratios"})


def count_calls(monkeypatch, module, name):
    """The argument tuples of every call to ``module.name`` from now on."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_request_builds_the_label_set_once(monkeypatch):
    # run_all walks the families once, reading each family's rows from one
    # ``BlockFamily.rows`` call, and builds each row's weight once, from
    # ``BlockFamily.weight``, for every label check, and no other weight.
    # The checks read (family, q, p) and the integer-pair homes; the
    # special-dimension checks read the (n+1) bound Case III and VI rows,
    # and each takes one closed form per row.
    n, bound = 3, 5
    families = spectrum.all_families(n)
    parameters = [(fam, q, p) for fam in families for q, p, _, _ in fam.rows(bound)]
    generated = count_calls(monkeypatch, spectrum.BlockFamily, "rows")
    made = count_calls(monkeypatch, weights.HighestWeight, "__post_init__")
    expanded = count_calls(monkeypatch, spectrum.BlockFamily, "weight")
    specials = count_calls(monkeypatch, verify, "special_dimension")
    assert all(r.passed for r in verify.run_all(n, bound))
    assert generated == [(fam, bound) for fam in families]
    assert len(made) == len(parameters)
    assert expanded == parameters
    assert sorted(specials) == sorted(
        [(n, i, p) for i in range(n + 1) for p in range(1, bound + 1)] * 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_run_all_builds_no_spectrum_slice(monkeypatch, n):
    # The kernel check reads the multiplicity of 0 off the labels; no check
    # aggregates the whole spectrum of a degree.
    calls = count_calls(monkeypatch, spectrum, "degree_multiplicities")
    assert all(r.passed for r in verify.run_all(n, 3))
    assert calls == []


def test_kernel_check_slices_reach_the_bound(monkeypatch):
    # An eigenvalue 0 only at p = 25 is caught at --max 25, not at 24.
    numerator = spectrum.eigenvalue_numerator

    def zero_at_p25(n, q, j, i, p):
        return 0 if p == 25 else numerator(n, q, j, i, p)

    monkeypatch.setattr(spectrum, "eigenvalue_numerator", zero_at_p25)
    assert verify.check_kernel_uniqueness(2, kernel_pairs(2, 24)).passed
    # Degrees 0, 1 and 2 are each wrong, and each counts once: their
    # mirrors 5, 4 and 3 are not compared again.
    assert verify.check_kernel_uniqueness(2, kernel_pairs(2, 25)).residual == 3
    # ``run_all`` hands the check the same pairs.
    name = "zero_eigenvalue_only_in_top_and_bottom"
    assert named_checks(2, 24)[name].passed
    assert named_checks(2, 25)[name].residual == 3


def test_kernel_check_takes_dimensions_only_at_eigenvalue_zero(capsys, monkeypatch):
    # ``run_all`` hands the check the generated dimension, with the family's
    # bidegrees, of the rows of key 0 and of no other row: the one Case I
    # row.
    handed = count_calls(monkeypatch, verify, "check_kernel_uniqueness")
    for bound in (1, 5, 20):
        expected = kernel_pairs(3, bound)
        assert expected == [(1, ((0, 0),))]
        handed.clear()
        assert all(r.passed for r in verify.run_all(3, bound))
        assert handed == [(3, expected)]
    # A doubled dimension of the Case I row fails it, and the GT check.
    patch_rows(monkeypatch, lambda family, row: (row[2], row[3] * (1 + (row[2] == 0))))
    assert failing_checks(capsys, 3, 5) == (
        1, {"weyl_dimension_vs_gt_patterns", "zero_eigenvalue_only_in_top_and_bottom"})


def test_run_all_has_no_mirror_check():
    names = [r.name for r in verify.run_all(1, 2)]
    assert len(names) == len(set(names)) == 17
    # No check that compares one computation with itself, or that cannot
    # fail (labels of two families never coincide: no two families of
    # ``all_families`` share a key), and no second direct route.
    for gone in ("mirror_rule_slices", "block_multiplicity_one",
                 "direct_route_within_tail_bound"):
        assert gone not in names


@pytest.mark.parametrize("n", [2, 3])
def test_run_all_makes_one_direct_route_and_one_pass_at_the_reference_point(
        monkeypatch, em_passes, n):
    # The direct route of the torsion report is the one verify checks: one
    # kappa_direct call, at N_REF, and one zeta(2 s_ref) pass for the
    # closed form and the continued route (at n = 1, 2 s_ref = 4 would
    # also count zeta(4) of the constants check).
    direct = count_calls(monkeypatch, torsion, "kappa_direct")
    assert all(r.passed for r in verify.run_all(n, 2))
    assert direct == [(n, (n + 3) / 2, torsion.N_REF)]
    assert [s for s, _ in em_passes].count(n + 3) == 1


def test_run_all_expands_the_c_coefficients_once(monkeypatch):
    # run_all computes the c_l once and hands them to check_c_coefficients
    # and check_sigma, which takes sigma(k) from the product the c_l expand.
    calls = count_calls(monkeypatch, verify, "c_coefficients")
    assert all(r.passed for r in verify.run_all(4, 2))
    assert calls == [(4,)]


def test_vanishing_correction_counts_a_non_integral_row(monkeypatch):
    # As in check_dimension_polynomial, a non-integral entry is a violation:
    # 1/(2 n!) added to every constant coefficient leaves a half in each
    # integer row, so every i counts, i = 0 with no x to check among them.
    coefficients = weights.dimension_coefficients

    def broken(n, i):
        c0, *rest = coefficients(n, i)
        return (c0 + Fraction(1, 2 * math.factorial(n)), *rest)

    monkeypatch.setattr(verify, "dimension_coefficients", broken)
    check = verify.check_vanishing_correction(3)
    assert not check.passed and check.residual == 4


def test_sigma_certifies_the_c_coefficients(monkeypatch):
    # One row of the dimension polynomial times (1 + 1/n!) moves the c_l.
    # sigma(k), from its product form, then differs from sum_l c_l k^l, so
    # the sigma check fails with the identity it is the second route of.
    coefficients = weights.dimension_coefficients

    def scaled(n, i):
        row = coefficients(n, i)
        return tuple(c * (1 + Fraction(1, factorial(n))) for c in row) if i == 1 else row

    assert all(named_checks(3, 2)[name].passed
               for name in ("c_coefficients_identity", "sigma_linearity"))
    monkeypatch.setattr(verify, "dimension_coefficients", scaled)
    checks = named_checks(3, 2)
    assert not checks["c_coefficients_identity"].passed
    assert not checks["sigma_linearity"].passed


def test_sigma_refuses_n_below_one():
    # sigma(0, 3) was 3 and sigma(-1, 3) was 0; c_coefficients refuses both.
    for n in (0, -1):
        for f in (lambda: sigma(n, 3), lambda: c_coefficients(n)):
            with pytest.raises(ValueError, match="n must be >= 1"):
                f()


def test_sigma_examples():
    assert sigma(3, 5) == 120
    for n in range(1, 6):
        for k in range(11):
            assert sigma(n, k) == factorial(n + 1) * k


def test_sigma_is_the_polynomial_of_the_c_coefficients():
    # sigma comes from the product the c_l expand, a second route to the
    # same polynomial sum_l c_l k^l.
    for n in range(1, 9):
        cs = c_coefficients(n)
        for k in range(11):
            assert sigma(n, k) == sum(c * k**l for l, c in enumerate(cs, start=1))


def test_c_coefficients_small_cases():
    assert c_coefficients(1) == (2, 0)
    assert c_coefficients(2) == (6, 0, 0)


def test_c_coefficients_identity_up_to_eight():
    for n in range(1, 9):
        cs = c_coefficients(n)
        assert cs[0] == factorial(n + 1)
        assert all(c == 0 for c in cs[1:])


def test_c_coefficients_at_n80_from_one_pass_per_shift():
    # Each shift's symmetric polynomials come from one pass.  Recomputed
    # for every l they took 3.1 s on a 2-core VM, most of the time of
    # ``torsion --n 80``.
    start = time.perf_counter()
    cs = c_coefficients(80)
    assert time.perf_counter() - start < 0.5
    assert cs[0] == factorial(81)
    assert all(c == 0 for c in cs[1:])


def test_vanishing_correction():
    # Every row n! dimension_coefficients(n, i) vanishes at x = 1..i.
    for n in range(1, 7):
        assert verify.check_vanishing_correction(n).residual == 0


def test_vanishing_correction_detects_a_broken_identity(monkeypatch):
    # The exact check is the whole check: with the shift values moved by
    # one, (n-i+1, ..., 1-i), the rows of i = 1, 2 and 3 no longer vanish
    # at x = 1..i; i = 0 has no x to check.
    row = weights._symmetric_row
    monkeypatch.setattr(weights, "_symmetric_row",
                        lambda values, l: row([v + 1 for v in values], l))
    check = verify.check_vanishing_correction(3)
    assert not check.passed and check.residual == 3


def test_check_cancellation():
    for n in range(1, 5):
        check = verify.check_cancellation(n)
        assert check.passed and check.residual == 0
    # n=2 Case II: w_0 + 2 w_1 + w_2 = -3 + 4 - 1 = 0
    ws = torsion.degree_weights(2)
    assert ws[0] + 2 * ws[1] + ws[2] == 0
    # n=1 Case V: w_0 + 2 w_1 = -2 + 2 = 0
    ws = torsion.degree_weights(1)
    assert ws[0] + 2 * ws[1] == 0


def test_check_cancellation_fails_on_a_non_cancelling_family(monkeypatch):
    # Each of the three Case II families of n = 3 loses a bidegree; the
    # residual counts the families that no longer cancel.
    families = spectrum.all_families(3)
    broken = tuple(
        dataclasses.replace(fam, spaces=fam.spaces[:-1])
        if fam.case is spectrum.Case.II else fam
        for fam in families
    )
    monkeypatch.setattr(spectrum, "all_families", lambda n: broken)
    check = verify.check_cancellation(3)
    assert not check.passed and check.residual == 3


def named_checks(n, bound):
    return {check.name: check for check in verify.run_all(n, bound)}


def test_dimension_check_counts_a_non_integral_value(monkeypatch):
    # Half added to every constant coefficient makes every value of the
    # polynomial non-integral: each (i, p) counts as one violation, where
    # the value used to raise ArithmeticError.  The special dimensions
    # themselves still match the generated ones.
    assert named_checks(3, 5)["dimension_polynomial_vs_special"].passed
    coefficients = weights.dimension_coefficients

    def broken(n, i):
        c0, *rest = coefficients(n, i)
        return (c0 + Fraction(1, 2), *rest)

    monkeypatch.setattr(verify, "dimension_coefficients", broken)
    checks = named_checks(3, 5)
    check = checks["dimension_polynomial_vs_special"]
    assert not check.passed and check.residual == 4 * 5
    assert checks["special_dimension_vs_weyl"].passed


@pytest.mark.parametrize("i", [3, 0], ids=["case_vi", "case_iii"])
def test_special_dimension_checks_read_the_special_rows(capsys, monkeypatch, i):
    # One special dimension of n = 3 off by one, at p = 3 of i = n (the
    # Case VI rows) or of i = 0 (the first Case III family): both checks
    # that compare with it see it, and only they.
    special = weights.special_dimension

    def off(n, i_, p):
        return special(n, i_, p) + ((i_, p) == (i, 3))

    assert failing_checks(capsys, 3, 5) == (0, set())
    monkeypatch.setattr(verify, "special_dimension", off)
    assert failing_checks(capsys, 3, 5) == (
        1, {"special_dimension_vs_weyl", "dimension_polynomial_vs_special"})
    assert failing_checks(capsys, 3, 2) == (0, set())


def test_verify_and_torsion_see_a_wrong_axis(capsys, monkeypatch):
    # BlockFamily.axis + 1 on the Case IV family with j = 1 of n = 3: the
    # reductions and the norm ratios read it in verify, and the direct
    # route reads the axis sum of 2 for that family, which fails the torsion
    # record and verify's torsion check.
    axis = spectrum.BlockFamily.axis.fget

    def shifted(family):
        c = axis(family)
        return c + 1 if (family.n, family.case, family.j) == (3, spectrum.Case.IV, 1) else c

    def torsion_code():
        code = cli.main(["torsion", "--n", "3"])
        capsys.readouterr()
        return code

    assert failing_checks(capsys, 3, 5) == (0, set()) and torsion_code() == 0
    monkeypatch.setattr(spectrum.BlockFamily, "axis", property(shifted))
    assert failing_checks(capsys, 3, 5) == (1, {
        "universal_eigenvalue_reductions", "operator_norms_vs_l2_ratios",
        "torsion_closed_values"})
    assert torsion_code() == 1


def test_verify_sees_a_doubled_middle_dimension(capsys, monkeypatch):
    # The middle-weight dimension doubled at (a, b, c) = (1, 1, 0) and
    # (1, 2, 0), the Case II family (i, j) = (0, 1) at n = 3 and n = 4, in
    # every module that binds it: the row generator and the pair kernel
    # share the wrong factor.  The direct zetas change, and the GT check,
    # which certifies every generated dimension, is the one check that
    # sees it.
    original = weights.middle_dimension

    def doubled(a, b, c):
        return original(a, b, c) * (1 + ((a, b, c) in ((1, 1, 0), (1, 2, 0))))

    before = torsion.degree_zetas_direct(3, 4.2, 50)
    assert failing_checks(capsys, 4, 10) == (0, set())
    bound = sorted(name for name, module in list(sys.modules.items())
                   if name.startswith("rumin_sphere")
                   and vars(module).get("middle_dimension") is original)
    assert bound == ["rumin_sphere._kernels_py", "rumin_sphere.spectrum",
                     "rumin_sphere.weights"]
    for name in bound:
        monkeypatch.setattr(sys.modules[name], "middle_dimension", doubled)
    assert torsion.degree_zetas_direct(3, 4.2, 50) != before
    assert failing_checks(capsys, 4, 10) == (1, {"weyl_dimension_vs_gt_patterns"})
    assert failing_checks(capsys, 3, 5) == (1, {"weyl_dimension_vs_gt_patterns"})


def test_shift_points_are_the_seeded_draws():
    # The ten (s, a) points were drawn by random.Random(20240) and copied
    # with repr, so every bit of the check is unchanged; none lay within
    # 0.05 of the pole at s = 1.
    rng = random.Random(20240)
    draws = tuple((rng.uniform(-4.0, 6.0), rng.randint(1, 8)) for _ in range(10))
    assert verify._SHIFT_POINTS == draws
    assert all(abs(s - 1.0) >= 0.05 for s, _ in draws)


def test_route_checks_catch_a_scaled_axis_sum(capsys, monkeypatch):
    # An axis sum 0.1 % off moves the direct and truncated reduced routes
    # beyond their bounds (0.199 against about 0.09 at n = 2).  The torsion
    # record printed these residuals with no bound and exited 0.
    axis = _kernels_py.axis_family_sum
    monkeypatch.setattr(_kernels_py, "axis_family_sum",
                        lambda n, i, N, s: axis(n, i, N, s) * 1.001)
    code = cli.main(["torsion", "--n", "2"])
    record = json.loads(capsys.readouterr().out)
    assert code == 1
    failed = {c["name"] for c in record["checks"] if not c["passed"]}
    assert failed == {"direct_vs_closed@(s=2.5, N=80)",
                      "reduced_truncated_vs_closed@(s=2.5, N=80)"}
    assert failing_checks(capsys, 2, 3) == (1, {"torsion_closed_values"})


# -- one check type, bounds derived from the routes ------------------------

def test_check_passes_iff_residual_within_bound():
    assert verify.CheckResult("x", 1.0, 1.0).passed
    assert not verify.CheckResult("x", 1.5, 1.0).passed
    assert not verify.CheckResult("x", math.nan, math.inf).passed
    # Exact checks count violations against bound 0.
    assert verify._exact("x", 0) == verify.CheckResult("x", 0.0, 0.0)
    assert not verify._exact("x", 2).passed


@pytest.mark.parametrize("parts, passed", [
    ([(1e-3, 1.0), (2.0, 3.0), (0.0, 0.0)], True),
    ([(1e-3, 1e-4), (2.0, 3.0)], False),   # a small residual beyond its bound
    ([(0.0, 0.0), (1.0, 0.0)], False),     # an exact check with a violation
    ([(0.0, 1.0), (math.nan, 1.0)], False),
    ([(0.0, 1.0), (0.0, 2.0)], True),
])
def test_folded_check_reports_the_largest_residual_and_fails_with_any_part(parts, passed):
    folded = verify._worst("f", [verify.CheckResult("", r, b) for r, b in parts])
    assert folded.passed is passed
    residuals = [r for r, _ in parts]
    if not any(math.isnan(r) for r in residuals):
        assert folded.residual == max(residuals)


def kappa_record(capsys, n, s, N, mode):
    code = cli.main(["kappa", "--n", str(n), "--s", str(s), "--mode", mode,
                     "--max", str(N)])
    return code, json.loads(capsys.readouterr().out)


# Correct values whose double rounding exceeded the old absolute slacks
# (residuals 8.3e-7, 0.0625, 3.8e-6 and 8.0).
@pytest.mark.parametrize("n, s, N, mode", [
    (4, 13.012, 51, "direct"), (2, 22.741, 12, "direct"),
    (1, 16.447, 23, "reduced"), (3, 26.396, 6, "reduced"),
])
def test_truncated_route_checks_count_the_rounding(capsys, n, s, N, mode):
    code, record = kappa_record(capsys, n, s, N, mode)
    assert code == 0
    assert record["checks"][0]["passed"] is True


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 5), N=st.integers(5, 80),
       mode=st.sampled_from(["direct", "reduced"]), data=st.data())
def test_every_truncated_route_record_passes_its_check(n, N, mode, data):
    s = data.draw(st.floats((n + 1) / 2 + 0.6, 45, exclude_min=True), label="s")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["kappa", "--n", str(n), "--s", repr(s), "--mode", mode,
                         "--max", str(N)])
    assert code == 0, json.loads(out.getvalue())["checks"]


def test_direct_check_catches_a_scaled_axis_sum(capsys, monkeypatch):
    axis = _kernels_py.axis_family_sum
    monkeypatch.setattr(_kernels_py, "axis_family_sum",
                        lambda n, i, N, s: axis(n, i, N, s) * (1 + 1e-10))
    for n, s, N in [(2, 22.741, 12), (4, 13.012, 51)]:
        code, record = kappa_record(capsys, n, s, N, "direct")
        assert code == 1
        assert record["checks"][0]["passed"] is False


def test_torsion_check_catches_a_scaled_kappa_prime(capsys, monkeypatch):
    # A relative error of 1e-13 in kappa'(0) moves T by 1.8e-12 at n = 6,
    # far below an absolute slack of 1e-10.
    deriv = torsion._closed_deriv_from

    def scaled(*args):
        est = deriv(*args)
        return dataclasses.replace(est, value=est.value * (1 + 1e-13))

    monkeypatch.setattr(torsion, "_closed_deriv_from", scaled)
    code = cli.main(["torsion", "--n", "6"])
    record = json.loads(capsys.readouterr().out)
    assert code == 1
    failed = {c["name"] for c in record["checks"] if not c["passed"]}
    assert "torsion_is_4pi_power" in failed


def test_torsion_record_and_verify_share_one_claims_function(capsys, monkeypatch):
    claims = verify.torsion_checks

    def inflated(*args, **kwargs):
        report, checks = claims(*args, **kwargs)
        return report, [dataclasses.replace(c, residual=2 * c.bound + 1) for c in checks]

    monkeypatch.setattr(verify, "torsion_checks", inflated)
    code = cli.main(["torsion", "--n", "2"])
    record = json.loads(capsys.readouterr().out)
    assert code == 1
    assert not any(c["passed"] for c in record["checks"])
    assert failing_checks(capsys, 2, 3) == (1, {"torsion_closed_values"})


def shifted(original, delta, only=lambda *args: True, prec=400):
    """``original`` with ``delta`` added, at ``prec`` bits, to the value it
    returns for the arguments ``only`` accepts."""
    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        if not only(*args):
            return out
        with mpmath.workprec(prec):
            return dataclasses.replace(out, value=out.value + delta)
    return wrapper


@pytest.mark.parametrize("module, name, delta, only, check", [
    # Errors far below the old slacks (1e-12, and 1e-12 over the bounds).
    (zeta, "riemann_zeta", 1e-30, lambda s, *rest: True, "zeta_special_values"),
    # The right side zeta(s, a + 1) of the shift identity only: a = 9 is
    # a + 1 for the draws a = 8, and no left side or other check uses it.
    (zeta, "hurwitz_zeta", 1e-30, lambda s, a, *rest: a == 9,
     "hurwitz_shift_identity"),
    (torsion, "_continued_from", 1e-20, lambda *args: True,
     "reduced_continuation_vs_closed"),
])
def test_tightened_checks_catch_small_errors(monkeypatch, module, name, delta,
                                             only, check):
    assert check not in {r.name for r in verify.run_all(1, 2) if not r.passed}
    monkeypatch.setattr(module, name, shifted(getattr(module, name), delta, only))
    assert check in {r.name for r in verify.run_all(1, 2) if not r.passed}


def test_zeta_constants_make_three_passes(em_passes):
    # zeta(0) and zeta'(0) from one derivative pass, then zeta(2) and zeta(4).
    assert verify.check_zeta_constants().passed
    assert sorted(em_passes) == [(0, True), (2, False), (4, False)]


def test_zeta_checks_are_decided_beyond_the_double_range(monkeypatch):
    # At 2048 bits both bounds are far below the smallest double, so an
    # error of 1e-400 used to pass as residual 0.0 against 5e-324.
    prec, delta = 2048, mpmath.mpf(10) ** -400
    # The shift check makes 20 2048-bit evaluations, about 1.5 s; the run
    # with the injected error reuses those of the clean run.
    monkeypatch.setattr(zeta, "hurwitz_zeta", functools.cache(zeta.hurwitz_zeta))
    assert verify.check_zeta_constants(prec).passed
    assert verify.check_hurwitz_shift(prec).passed
    value_and_deriv = zeta.hurwitz_zeta_and_deriv

    def shifted_zeta0(s, a, precision=None):
        z, dz = value_and_deriv(s, a, precision)
        with mpmath.workprec(2 * prec):
            return dataclasses.replace(z, value=z.value + delta), dz

    with monkeypatch.context() as m:
        m.setattr(zeta, "hurwitz_zeta_and_deriv", shifted_zeta0)
        check = verify.check_zeta_constants(prec)
        assert not check.passed and check.residual > 0
    monkeypatch.setattr(zeta, "hurwitz_zeta", shifted(
        zeta.hurwitz_zeta, delta, lambda s, a, *rest: a == 9, 2 * prec))
    check = verify.check_hurwitz_shift(prec)
    assert not check.passed and check.residual > 0


def test_run_all_refuses_n_beyond_the_double_range_before_any_check(monkeypatch):
    # The label checks take minutes at n = 171, so the refusal comes first.
    monkeypatch.setattr(verify, "check_weyl_vs_gt", None)
    with pytest.raises(OverflowError, match=r"1\.\.170"):
        verify.run_all(171, 1)


def test_run_all_refuses_an_unreachable_precision_before_any_check(monkeypatch):
    # At 7000 bits the label checks ran for 20 s before the first zeta pass
    # failed to converge.
    monkeypatch.setattr(verify, "check_weyl_vs_gt", None)
    with pytest.raises(limits.PrecisionError, match="outside the working range"):
        verify.run_all(2, 1, limits.MAX_PRECISION_BITS + 1)
