"""The verify suites: every check reaches the record's bound, and the
spectrum slices are built once per canonical degree."""

import json

import pytest

from rumin_sphere import cli, spectrum, verify, weyl_dimension


def failing_checks(capsys, n, bound):
    code = cli.main(["verify", "--n", str(n), "--max", str(bound)])
    record = json.loads(capsys.readouterr().out)
    return code, {c["name"] for c in record["checks"] if not c["passed"]}


def test_weyl_check_reaches_the_bound(capsys, monkeypatch):
    # A Weyl dimension off by one only at q = 17 is caught at --max 20.
    def wrong_at_q17(w):
        return weyl_dimension(w) + (w.entries[0] == 17)

    assert failing_checks(capsys, 2, 20) == (0, set())
    monkeypatch.setattr(verify, "weyl_dimension", wrong_at_q17)
    assert failing_checks(capsys, 2, 16) == (0, set())
    assert failing_checks(capsys, 2, 20) == (1, {"weyl_dimension_vs_gt_patterns"})


def test_weight_check_reaches_the_bound(capsys, monkeypatch):
    # An eigenvalue off by one only at p = 15 is caught at --max 20.
    formula = spectrum.eigenvalue_formula

    def wrong_at_p15(label):
        return formula(label) + (label.p == 15)

    monkeypatch.setattr(spectrum, "eigenvalue_formula", wrong_at_p15)
    code, failed = failing_checks(capsys, 2, 20)
    assert code == 1
    assert "eigenvalue_determined_by_weight" in failed
    assert failing_checks(capsys, 2, 14) == (0, set())


def count_slices(monkeypatch):
    calls = []
    slice_of = spectrum.spectrum_slice

    def counted(*args):
        calls.append(args)
        return slice_of(*args)

    monkeypatch.setattr(spectrum, "spectrum_slice", counted)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_run_all_builds_each_canonical_slice_once(monkeypatch, n):
    calls = count_slices(monkeypatch)
    assert all(r.passed for r in verify.run_all(n, 3))
    assert sorted(calls) == [(n, k, 3) for k in range(n + 1)]
    # No slice outlives the call: a second run builds all of them again.
    verify.run_all(n, 3)
    assert len(calls) == 2 * (n + 1)


def test_kernel_check_slices_reach_the_bound(monkeypatch):
    calls = count_slices(monkeypatch)
    assert verify.check_kernel_uniqueness(2, 25).passed
    assert calls == [(2, k, 25) for k in range(3)]


def test_run_all_has_no_mirror_check():
    names = [r.name for r in verify.run_all(1, 2)]
    assert len(names) == len(set(names)) == 19
    assert "mirror_rule_slices" not in names
