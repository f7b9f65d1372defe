"""The verify suites: every check reaches the record's bound, the spectrum
slices are built once per canonical degree, and every numeric check holds
against a bound derived from its routes and fails on errors below it."""

import contextlib
import dataclasses
import io
import json
import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumin_sphere import cli, kernels, spectrum, torsion, verify, weyl_dimension, zeta


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
    axis = kernels.axis_family_sum
    monkeypatch.setattr(kernels, "axis_family_sum",
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


def shifted(original, delta, only=lambda *args: True):
    """``original`` with ``delta`` added, at 400 bits, to the value it
    returns for the arguments ``only`` accepts."""
    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        if not only(*args):
            return out
        with mpmath.workprec(400):
            return dataclasses.replace(out, value=out.value + delta)
    return wrapper


@pytest.mark.parametrize("module, name, delta, only, check", [
    # Errors far below the old slacks (1e-12, and 1e-12 over the bounds).
    (zeta, "riemann_zeta", 1e-30, lambda s, *rest: True, "zeta_special_values"),
    # The left side zeta(s, a) of the shift identity only (a is a float).
    (zeta, "hurwitz_zeta", 1e-30, lambda s, a, *rest: isinstance(a, float),
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
