"""CLI contract: determinism, schema validity, exit codes, formats."""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rumin_sphere import (
    DivergenceError, KappaEstimate, PoleError, PrecisionError, cli, spectrum, torsion,
)
from rumin_sphere.limits import MAX_PRECISION_BITS

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "output_record.schema.json")
    .read_text()
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    # Strict: Python's json would accept NaN and Infinity.
    record = json.loads(out, parse_constant=_reject_constant)
    jsonschema.validate(record, SCHEMA)
    return code, record, out


def test_spectrum_json_record(capsys):
    code, record, _ = run_json(
        capsys, "spectrum", "--n", "1", "--degree", "0", "--max", "1"
    )
    assert code == 0
    rows = record["payload"]["rows"]
    assert [(r["eigenvalue"], r["multiplicity"]) for r in rows] == [
        ("0/1", 1),
        ("1/4", 4),
        ("4/1", 3),
    ]
    floats = [r["eigenvalue_float"] for r in rows]
    assert floats == sorted(floats)


def test_spectrum_output_is_deterministic(capsys):
    _, _, out1 = run_json(capsys, "spectrum", "--n", "2", "--degree", "1", "--max", "3")
    _, _, out2 = run_json(capsys, "spectrum", "--n", "2", "--degree", "1", "--max", "3")
    assert out1 == out2


def test_spectrum_mirror_byte_identical(capsys):
    _, _, out_low = run_json(
        capsys, "spectrum", "--n", "1", "--degree", "0", "--max", "5"
    )
    _, _, out_high = run_json(
        capsys, "spectrum", "--n", "1", "--degree", "3", "--max", "5"
    )
    assert out_low == out_high


def pinned(*cases):
    """Golden (argv, digest) cases, each with its argv as the test id, so
    that re-pinning a record changes a value and not a test name."""
    return [pytest.param(argv, digest, id="_".join(argv)) for argv, digest in cases]


@pytest.mark.parametrize("argv, digest", pinned(
    (("--n", "2", "--degree", "1", "--max", "6"),
     "0b92371bcf059597849f98df33e989980592d7b2845824a60f63d5d58242433c"),
    (("--n", "3", "--degree", "4", "--max", "5"),
     "6519ef1b3c29ebf3da32189e3c9a4346b4b1d1a2b15225f15e5185489d30c1c9"),
    (("--n", "1", "--degree", "2", "--max", "7", "--format", "csv"),
     "0e825edcbc226b6a5a6e38821e7987e211ec54393ed87491bde24656fcc12ab4"),
))
def test_spectrum_output_is_pinned(capsys, argv, digest):
    # Golden bytes: any change to rows, order, fields or formatting shows.
    code, out, _ = run_cli(capsys, "spectrum", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_spectrum_rows_match_spectrum_slice(capsys):
    for n in (1, 2, 3):
        for k in range(2 * n + 2):
            _, record, _ = run_json(capsys, "spectrum", "--n", str(n),
                                    "--degree", str(k), "--max", "5")
            rows = record["payload"]["rows"]
            for row in rows:
                assert row["multiplicity"] == sum(
                    b["dimension"] for b in row["blocks"]
                )
            got = {Fraction(r["eigenvalue"]): r["multiplicity"] for r in rows}
            den = spectrum.eigenvalue_denominator(n)
            canonical = min(k, 2 * n + 1 - k)
            expected = {Fraction(key, den): mult for key, mult
                        in spectrum.degree_multiplicities(n, canonical, 5).items()}
            assert list(got.items()) == list(expected.items()), (n, k)


@pytest.mark.parametrize("argv, k", [
    (("spectrum", "--n", "3", "--degree", "2", "--max", "4"), 2),
    (("spectrum", "--n", "3", "--degree", "5", "--max", "4", "--format", "csv"), 2),
    (("verify", "--n", "3", "--max", "4"), None),
])
def test_one_request_calls_the_row_generator_once_per_family(
        capsys, monkeypatch, argv, k):
    # One walk of the families per request: ``BlockFamily.rows`` is called
    # once per family with a bidegree in the (mirrored) degree k, which one
    # ``degree_families`` call yields with those bidegrees, for ``spectrum``
    # in JSON or CSV, and once per family, with no filter by degree, for
    # ``verify``.
    calls = []
    generate = spectrum.BlockFamily.rows
    filtered = []
    by_degree = spectrum.degree_families

    def counted(family, bound):
        calls.append((family, bound))
        return generate(family, bound)

    def recorded(n, degree):
        filtered.append((n, degree, list(by_degree(n, degree))))
        return iter(filtered[-1][2])

    monkeypatch.setattr(spectrum.BlockFamily, "rows", counted)
    monkeypatch.setattr(spectrum, "degree_families", recorded)
    assert run_cli(capsys, *argv)[0] == 0
    expected = []
    for family in spectrum.all_families(3):
        spaces = tuple(st for st in family.spaces if k is None or sum(st) == k)
        if spaces:
            expected.append((family, spaces))
    assert calls == [(family, 4) for family, _ in expected]
    assert filtered == ([] if k is None else [(3, k, expected)])


def test_spectrum_csv_header_and_rows(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--n", "1", "--degree", "0", "--max", "1",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "eigenvalue_num,eigenvalue_den,eigenvalue_float,multiplicity"
    assert lines[1] == "0,1,0.0,1"
    assert lines[2] == "1,4,0.25,4"
    assert lines[3] == "4,1,4.0,3"


def test_spectrum_degree_out_of_range_exits_3(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--n", "1", "--degree", "4",
                             "--max", "2")
    assert code == 3
    assert out == ""
    assert "range" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--n", "1", "--degree", "0"])  # missing --max
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["kappa", "--n", "1", "--s", "2", "--mode", "bogus"])
    assert exc.value.code == 2


def test_kappa_closed_at_zero(capsys):
    code, record, _ = run_json(
        capsys, "kappa", "--n", "1", "--s", "0", "--mode", "closed"
    )
    assert code == 0
    assert abs(record["payload"]["value"]) < 1e-12


def test_kappa_direct_mode(capsys):
    code, record, _ = run_json(
        capsys, "kappa", "--n", "1", "--s", "2", "--mode", "direct",
        "--max", "400",
    )
    assert code == 0
    payload = record["payload"]
    assert payload["residual_vs_closed"] < payload["tail_bound"] + 1e-8
    assert record["checks"][0]["passed"] is True


def test_kappa_direct_requires_max(capsys):
    code, out, err = run_cli(capsys, "kappa", "--n", "1", "--s", "2",
                             "--mode", "direct")
    assert code == 2


def test_kappa_closed_refuses_max(capsys):
    # Was exit 0 with the flag dropped: the record's parameters held no max.
    code, out, err = run_cli(capsys, "kappa", "--n", "1", "--s", "2",
                             "--mode", "closed", "--max", "10")
    assert code == 2
    assert out == ""
    assert err == "--max does not apply to --mode closed\n"


def test_kappa_pole_exits_4(capsys):
    code, _, err = run_cli(capsys, "kappa", "--n", "2", "--s", "0.5",
                           "--mode", "closed")
    assert code == 4
    assert "pole" in err.lower()


def test_kappa_divergent_direct_exits_4(capsys):
    code, _, err = run_cli(capsys, "kappa", "--n", "2", "--s", "1.2",
                           "--mode", "direct", "--max", "50")
    assert code == 4


def test_kappa_reduced_continuation(capsys):
    code, record, _ = run_json(
        capsys, "kappa", "--n", "3", "--s", "-0.5", "--mode", "reduced"
    )
    assert code == 0
    assert record["payload"]["residual_vs_closed"] < 1e-12
    assert record["checks"][0]["passed"] is True


def test_torsion_record(capsys):
    code, record, _ = run_json(capsys, "torsion", "--n", "4")
    assert code == 0
    payload = record["payload"]
    assert payload["ratio"] == pytest.approx(24.0, rel=1e-10)
    assert all(c["passed"] for c in record["checks"])
    assert payload["zeta_convention"] == "kernel-included"
    # The three claims, then one check behind each route residual, named by
    # its key and holding its value as the residual.
    assert [c["name"] for c in record["checks"][:3]] == [
        "kappa_at_0_matches_convention", "torsion_is_4pi_power",
        "ray_singer_ratio_is_n_factorial"]
    assert {c["name"]: c["residual"] for c in record["checks"][3:]} == \
        payload["route_residuals"]
    assert len(record["checks"]) == 6


def test_torsion_kernel_excluded(capsys):
    code, record, _ = run_json(
        capsys, "torsion", "--n", "2", "--zeta-convention", "kernel-excluded"
    )
    assert code == 0
    assert record["payload"]["kappa_at_0"] == pytest.approx(3.0, abs=1e-12)
    assert all(c["passed"] for c in record["checks"])


def test_verify_passes(capsys):
    code, record, _ = run_json(capsys, "verify", "--n", "2", "--max", "8")
    assert code == 0
    assert record["payload"]["passed"] is True
    assert record["payload"]["failed"] == 0
    assert len(record["checks"]) >= 15
    assert all(c["passed"] for c in record["checks"])


@pytest.mark.parametrize("s", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "mode_args", [("--mode", "closed"), ("--mode", "direct", "--max", "10"),
                  ("--mode", "reduced"), ("--mode", "reduced", "--max", "10")]
)
def test_kappa_non_finite_s_exits_2(capsys, s, mode_args):
    code, out, err = run_cli(capsys, "kappa", "--n", "1", f"--s={s}", *mode_args)
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_torsion_n_beyond_double_range_exits_3(capsys):
    # The ratio T / T_RS = n! first overflows a double at n = 171, before
    # T = (4 pi)^(n+1) does at n = 280.
    code, out, err = run_cli(capsys, "torsion", "--n", "280")
    assert code == 3
    assert out == ""
    assert "170" in err


@pytest.mark.parametrize("n", ["171", "279"])
def test_torsion_n_factorial_beyond_double_range_exits_3_at_once(capsys, n):
    # These n ended in an OverflowError traceback while converting n! to a
    # float.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "torsion", "--n", n)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and "1..170" in err


def test_verify_n_beyond_double_range_exits_3_at_once(capsys):
    # The label checks take minutes at n = 171, so the refusal comes first.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--n", "171", "--max", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and "1..170" in err


def test_verify_over_the_gt_budget_exits_3(capsys, monkeypatch):
    # A Gelfand-Tsetlin count over its work budget is refused like a result
    # out of range: exit 3, one stderr line naming the command, no record.
    from rumin_sphere import verify

    monkeypatch.setattr(verify, "GT_BUDGET", 1)
    code, out, err = run_cli(capsys, "verify", "--n", "2", "--max", "3")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("verify: over the work budget: more than ")


def test_kappa_direct_beyond_exact_pair_bases_exits_3_at_once(capsys, monkeypatch):
    # At --max 10^8 the pair kernel's largest base 2N(N+1) exceeds 2^53, so
    # it is refused before any work; the request used to run out of memory.
    # Should the refusal go, the patched rows fail the test before the
    # N-sized lists are built.
    from rumin_sphere import _kernels_py

    def rows(n, k, N):
        raise AssertionError("the pair kernel reached its rows")

    monkeypatch.setattr(_kernels_py, "_dimension_rows", rows)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "kappa", "--n", "1", "--s", "1.0000001",
                             "--mode", "direct", "--max", "100000000")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and "2^53" in err


@pytest.mark.parametrize(
    "argv",
    [
        # The i = 0 axis term 2 (1/2)^(-2s) overflows a double.
        ("--s", "600", "--mode", "direct", "--max", "10"),
        ("--s", "600", "--mode", "reduced", "--max", "10"),
        # (n+1) 2^(2s+1) = 2^1024: the value would print as -Infinity.
        ("--s", "511"),
        ("--s", "511", "--mode", "reduced"),
        # The degree sums overflow to -inf before the alternating sum.
        ("--s", "510.9", "--mode", "direct", "--max", "10"),
        # 2^(2s+1) zeta(2s) overflows through zeta's growth at negative 2s.
        ("--s=-200.25",),
        ("--s=-200.25", "--mode", "reduced"),
    ],
)
def test_kappa_beyond_double_range_exits_3(capsys, argv):
    code, out, err = run_cli(capsys, "kappa", "--n", "1", *argv)
    assert code == 3
    assert out == ""
    assert "double range" in err


@pytest.mark.parametrize("mode", ["direct", "reduced"])
@pytest.mark.parametrize("s", ["1e308", "9e307"])
def test_truncated_kappa_at_a_huge_s_exits_3(capsys, mode, s):
    # The tail bound ran before the range check and ended in a ValueError
    # traceback (-inf + inf in fsum), with exit 1.
    code, out, err = run_cli(capsys, "kappa", "--n", "1", "--s", s,
                             "--mode", mode, "--max", "10")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and "kappa(s) at n=1" in err


@pytest.mark.parametrize("mode", ["direct", "reduced"])
def test_kappa_with_a_tail_bound_beyond_the_double_range_exits_3(capsys, mode):
    # kappa(300) at n = 400 is about -1.7e183; the tail bound at N = 5 is
    # not a double, and the exit said only "math range error".
    code, out, err = run_cli(capsys, "kappa", "--n", "400", "--s", "300",
                             "--mode", mode, "--max", "5")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "the tail bound at n=400, s=300.0, N=5 overflows a double" in err


@pytest.mark.parametrize("mode_args", [("--mode", "closed"), ("--mode", "reduced")])
def test_kappa_at_an_integer_beyond_the_guard_bit_budget_is_exact(capsys, mode_args):
    # zeta(-2e6) would need about 4e7 guard bits, but it is a trivial zero,
    # returned before the budget is checked (it used to exit 3).
    for s in ("-1e6", "-3000"):
        start = time.perf_counter()
        code, record, _ = run_json(capsys, "kappa", "--n", "1", f"--s={s}",
                                   *mode_args)
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert record["payload"]["value"] == -2.0
        assert record["payload"]["error_bound"] == 0.0
        assert all(c["passed"] for c in record["checks"])


def test_kappa_direct_with_an_underflowing_tail_bound(capsys):
    # 2^{2s+1} overflows and N^{n+1-2s} underflows; kappa is -8.1e242.
    code, record, _ = run_json(capsys, "kappa", "--n", "60", "--s", "400",
                               "--mode", "direct", "--max", "10")
    assert code == 0
    assert 0 < record["payload"]["tail_bound"] < 1e-300
    assert -8.2e242 < record["payload"]["value"] < -8.1e242
    assert all(c["passed"] for c in record["checks"])


@pytest.mark.parametrize("argv, digest", pinned(
    # The torsion records carry, after their three claims, one route
    # check per key of ``route_residuals``; the payload is unchanged.
    (("torsion", "--n", "1", "--prec", "2048"),
     "d3474b896128ef172ece734a830a1bd699dfe8ebdbdf902862c3b461898e7e66"),
    (("torsion", "--n", "6", "--prec", "256",
      "--zeta-convention", "kernel-excluded"),
     "5a7f9573f7cb881bb8e01e666ab3f8eeceb0b352b007436bbeca8446711c46ef"),
    (("torsion", "--n", "4", "--prec", "1024"),
     "8f5079a4c55f7282334a011f7b5e35cb625e4108891d57c994ed8d2f74efc325"),
    # The two kappa records carry error_bound rounded up to a double:
    # 6.041084798261761e-158 and 5e-324 (was 0.0).  The first is within
    # 2^-512 of zeta(-2.5) as returned, not of its uncorrected prefix
    # sum (8.102150711871305e-156 before); its rounding slack is that of
    # the sieved prefix summed with one rounding (6.0410873867698406e-158
    # with the slack of the term-by-term prefix).
    (("kappa", "--n", "3", "--s=-1.25", "--mode", "reduced", "--prec", "512"),
     "fbcb76fdd6511f35d531addcaa8f6dc51ba45d8786806d59766adac1e6875e1c"),
    (("kappa", "--n", "2", "--s", "2.35", "--mode", "closed", "--prec", "2048"),
     "57e260121a1bae9345680c8618dea8284d42da7ddb5b47fc7dc4bef3eb0c423a"),
))
def test_zeta_records_are_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_kappa_huge_s_exits_3_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "kappa", "--n", "1", "--s", "1e6")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""


@pytest.mark.parametrize("mode_args", [("--mode", "closed"), ("--mode", "reduced")])
def test_kappa_just_inside_double_range_is_valid_json(capsys, mode_args):
    # (n+1) 2^(2s+1) = 2^1023.8 at s = 510.9: finite, and strictly parsed.
    code, record, _ = run_json(capsys, "kappa", "--n", "1", "--s", "510.9",
                               *mode_args)
    assert code == 0
    assert -1.6e308 < record["payload"]["value"] < -1.5e308


@pytest.mark.parametrize("mode_args", [("--mode", "closed"), ("--mode", "reduced")])
@pytest.mark.parametrize("s", ["-300.3", "-500.3", "-2600.7", "-999999.5"])
def test_kappa_far_below_zero_exits_3_at_once(capsys, s, mode_args):
    # The double-precision lower bound on log|kappa| rejects these before
    # zeta(2s) is evaluated (-500.3 took 14-19 s to reach the same exit).
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "kappa", "--n", "1", f"--s={s}", *mode_args)
    assert time.perf_counter() - start < 0.5
    assert code == 3
    assert out == ""
    assert "double range" in err


def test_kappa_far_below_zero_exits_3_at_once_as_a_process():
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "rumin_sphere", "kappa", "--n", "1", "--s=-500.3"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert time.perf_counter() - start < 1.0
    assert result.returncode == 3
    assert result.stdout == ""


@pytest.mark.parametrize("mode_args", [("--mode", "direct", "--max", "10"),
                                       ("--mode", "reduced", "--max", "10")])
def test_kappa_far_below_zero_truncated_modes_still_diverge(capsys, mode_args):
    code, out, _ = run_cli(capsys, "kappa", "--n", "1", "--s=-500.3", *mode_args)
    assert code == 4
    assert out == ""


def test_kappa_below_zero_inside_the_double_range(capsys):
    # s = -150.3 stays inside the double range; mpmath at 400 bits gives
    # kappa = 3.657231552032246e+285 (the record was 3.6572315731911445e+285
    # while zeta stopped at the target of its uncorrected prefix sum).
    code, record, _ = run_json(capsys, "kappa", "--n", "1", "--s=-150.3")
    assert code == 0
    assert record["payload"]["value"] == 3.657231552032246e+285
    # zeta(2s) = 0 at negative integers, so kappa = -(n+1) there, also
    # where 2s is not a double (those requests exited 3).
    for s in ("--s=-160", "--s=-1e308", "--s=-1.7976931348623157e308"):
        for mode_args in (("--mode", "closed"), ("--mode", "reduced")):
            code, record, _ = run_json(capsys, "kappa", "--n", "2", s, *mode_args)
            assert code == 0
            assert record["payload"]["value"] == -3.0
            assert record["payload"]["error_bound"] == 0.0


@pytest.mark.parametrize("n, s", [(1, -10.25), (2, -15.6), (3, -30.7),
                                  (4, -50.25), (1, -150.3)])
def test_kappa_closed_below_zero_is_correctly_rounded(capsys, n, s):
    # At the default 128 bits these were 31 ulp to 1.2e10 ulp off while zeta
    # stopped at the target of its uncorrected prefix sum.
    code, record, _ = run_json(capsys, "kappa", "--n", str(n), f"--s={s}",
                               "--mode", "closed")
    assert code == 0
    with mpmath.workprec(400):
        ms = mpmath.mpf(s)
        kappa = -(n + 1) * (1 + 2 ** (2 * ms + 1) * mpmath.zeta(2 * ms))
    assert record["payload"]["value"] == float(kappa)


_S_VALUES = st.one_of(
    st.integers(min_value=-10_000, max_value=10_000).map(float),
    st.integers(min_value=-20_000, max_value=20_000).map(lambda k: k / 2),
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=6), s=_S_VALUES,
       mode=st.sampled_from(["closed", "reduced"]))
def test_kappa_gives_a_valid_record_or_one_line_exit(n, s, mode):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["kappa", "--n", str(n), f"--s={s!r}", "--mode", mode])
    if code == 0:
        record = json.loads(out.getvalue(), parse_constant=_reject_constant)
        jsonschema.validate(record, SCHEMA)
        assert all(c["passed"] for c in record["checks"])
        assert err.getvalue() == ""
    else:
        assert code in (3, 4), (code, err.getvalue())
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
        assert "Traceback" not in err.getvalue()


# Every s a double can hold, from the edges of the range inwards.
_ANY_S = st.one_of(_S_VALUES, st.floats(min_value=-1e308, max_value=1e308,
                                        allow_nan=False),
                   st.sampled_from([1e308, 9e307, -1e308]))
# About one draw in eight spans every precision up to one bit above the
# ceiling; a zeta pass there takes seconds, so the others stay cheap.
_ANY_PREC = st.integers(0, 7).flatmap(
    lambda r: st.integers(8, MAX_PRECISION_BITS + 1) if r == 0 else st.integers(8, 256))


@st.composite
def _any_request(draw):
    command = draw(st.sampled_from(["kappa", "torsion", "verify"]))
    if command == "kappa":
        n = draw(st.integers(1, 6))
        mode = draw(st.sampled_from(["closed", "direct", "reduced"]))
        # Truncated routes also draw from where their sums converge, up to
        # past the double range.
        s = draw(_ANY_S if mode == "closed" else _ANY_S | st.floats(
            min_value=(n + 1) / 2, max_value=520, exclude_min=True))
        argv = ["kappa", "--n", str(n), f"--s={s!r}", "--mode", mode]
        # --max is required in direct mode and refused in closed mode.
        truncation = draw(st.integers(1, 60) if mode == "direct"
                          else st.none() | st.integers(1, 60))
        if truncation is not None:
            argv += ["--max", str(truncation)]
    elif command == "torsion":
        argv = ["torsion", "--n", str(draw(st.integers(1, 12))),
                "--zeta-convention",
                draw(st.sampled_from(["kernel-included", "kernel-excluded"]))]
    else:
        argv = ["verify", "--n", str(draw(st.integers(1, 3))),
                "--max", str(draw(st.integers(1, 4)))]
    # verify's Hurwitz shift check makes 20 passes, about 2 s each at 5227
    # bits (verify --n 1 --max 1 --prec 5227 takes 45 s as a process), so
    # verify draws stay cheap or above the ceiling.
    prec = draw(_ANY_PREC if command != "verify" else
                st.integers(8, 128) | st.just(MAX_PRECISION_BITS + 1))
    return argv + ["--prec", str(prec)]


@settings(max_examples=100, deadline=None)
@given(argv=_any_request())
@example(argv=["kappa", "--n", "1", "--s", "1e308", "--mode", "direct", "--max", "10"])
@example(argv=["kappa", "--n", "1", "--s", "9e307", "--mode", "reduced", "--max", "10"])
# The kernels' powers need a scale 2^-e, e > 0, here, and the checks pass.
@example(argv=["kappa", "--n", "5", "--s", "150.75", "--mode", "direct", "--max", "20"])
# kappa is finite, but the direct route's weighted sum overflows: exit 3.
@example(argv=["kappa", "--n", "1", "--s", "510.9", "--mode", "direct", "--max", "3"])
def test_every_subcommand_gives_a_valid_record_or_one_line_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == 0:
        record = json.loads(out.getvalue(), parse_constant=_reject_constant)
        jsonschema.validate(record, SCHEMA)
        assert all(c["passed"] for c in record["checks"])
        assert err.getvalue() == ""
    else:
        assert code in (2, 3, 4), (code, err.getvalue())
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
        assert "Traceback" not in err.getvalue()


def test_error_bounds_are_rounded_up():
    from mpmath import mpf, workprec

    from rumin_sphere.torsion import _float_up

    with workprec(2048):
        xs = [mpf(2) ** -2000, mpf(1) / 3, mpf(2) ** -1074, mpf(10) ** -320 / 7,
              mpf(1) / 3 * mpf(2) ** 700, mpf(0)]
        for x in xs:
            b = _float_up(x)
            assert mpf(b) >= x
            assert x == 0 or mpf(math.nextafter(b, -math.inf)) < x
    assert _float_up(mpf(2) ** -2000) == 5e-324


def test_closed_record_at_2048_bits_reports_a_nonzero_bound(capsys):
    code, record, _ = run_json(capsys, "kappa", "--n", "2", "--s", "2.35",
                               "--mode", "closed", "--prec", "2048")
    assert code == 0
    assert record["payload"]["error_bound"] > 0


def test_kappa_at_a_far_trivial_zero_is_exact_as_a_process():
    # zeta(-2000) = 0, so kappa = -(n+1) exactly; the Euler-Maclaurin pass
    # used to run 3.4 s and fail to converge (exit 2).
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "rumin_sphere", "kappa", "--n", "1", "--s=-1000"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert time.perf_counter() - start < 1.0
    assert result.returncode == 0
    payload = json.loads(result.stdout)["payload"]
    assert payload == {"value": -2.0, "error_bound": 0.0}


@pytest.mark.parametrize("mode", ["direct", "reduced"])
def test_kappa_truncation_below_one_exits_2(capsys, mode):
    # Was a ValueError traceback with exit 1.
    code, out, err = run_cli(capsys, "kappa", "--n", "1", "--s", "3",
                             "--mode", mode, "--max", "0")
    assert code == 2
    assert out == ""
    assert "--max must be >= 1" in err


@pytest.mark.parametrize("argv", [
    ("kappa", "--n", "1", "--s", "2"),
    ("kappa", "--n", "1", "--s", "3", "--mode", "direct", "--max", "400"),
    ("torsion", "--n", "2"),
    ("verify", "--n", "2", "--max", "1"),
])
def test_a_precision_above_the_ceiling_exits_2_at_once(capsys, argv):
    # One bit above the ceiling is refused before any work: verify used to
    # run its label checks for 20 s at 7000 bits before the first zeta pass
    # failed to converge, and kappa at 8192 bits took 3.7 s to exit 2.
    from rumin_sphere.limits import MAX_PRECISION_BITS

    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--prec", str(MAX_PRECISION_BITS + 1))
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith(f"{argv[0]}: ") and f"8..{MAX_PRECISION_BITS} bits" in err
    with pytest.raises(SystemExit):
        cli.main([argv[0], "--help"])
    assert f"8..{MAX_PRECISION_BITS}" in capsys.readouterr().out


@pytest.mark.parametrize("exc, code", [
    (PoleError("a pole"), 4),
    (DivergenceError("a divergent sum"), 4),
    (OverflowError("an overflow"), 3),
    (PrecisionError("an unreachable precision"), 2),
])
def test_each_refusal_maps_to_one_exit_code(capsys, monkeypatch, exc, code):
    def refuse(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_kappa", refuse)
    got, out, err = run_cli(capsys, "kappa", "--n", "1", "--s", "2")
    assert got == code
    assert out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("kappa: ") and str(exc) in err
    assert ("double range" in err) == (code == 3)


def test_one_parser_serves_every_request(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._parser.cache_clear()
    argv = ("spectrum", "--n", "1", "--degree", "0", "--max", "2")
    first = run_cli(capsys, *argv)
    assert len(built) == 5  # the parser and its four subcommands
    assert run_cli(capsys, *argv) == first
    assert len(built) == 5


def test_no_state_carries_between_requests(capsys):
    # A refused request and one that sets --max leave nothing behind: the
    # default --max of the last request is 20, and its record is the one a
    # fresh process writes.
    with pytest.raises(SystemExit) as refused:
        cli.main(["verify", "--n", "1", "--max"])
    assert refused.value.code == 2
    assert run_json(capsys, "verify", "--n", "1", "--max", "3")[1][
        "parameters"]["max"] == 3
    code, record, out = run_json(capsys, "verify", "--n", "1")
    assert code == 0 and record["parameters"]["max"] == 20
    fresh = subprocess.run(
        [sys.executable, "-m", "rumin_sphere", "verify", "--n", "1"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert fresh.returncode == 0
    assert out == fresh.stdout


def test_one_writer_of_the_record_envelope(capsys, monkeypatch):
    # A key that ``_record`` adds reaches the JSON spectrum record, whose
    # rows come from a template, and every other record.
    record = cli._record

    def with_a_key(*args):
        return json.dumps({**json.loads(record(*args)), "provenance": {"k": 1}},
                          indent=2, sort_keys=True)

    monkeypatch.setattr(cli, "_record", with_a_key)
    for argv in (["spectrum", "--n", "2", "--degree", "1", "--max", "3"],
                 ["verify", "--n", "1", "--max", "2"]):
        code, out, _ = run_cli(capsys, *argv)
        got = json.loads(out)
        assert code == 0 and got["provenance"] == {"k": 1}, argv
        assert got["command"] == argv[0]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_no_record_holds_a_non_finite_value(capsys, monkeypatch, value):
    monkeypatch.setattr(torsion, "kappa_closed",
                        lambda n, s, prec=None: KappaEstimate(value, 0.0, 0.0))
    code, out, err = run_cli(capsys, "kappa", "--n", "1", "--s", "2")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and "double range" in err

    estimates = torsion.torsion_estimates

    def infinite_torsion(*args):
        report, *estimates_behind = estimates(*args)
        return dataclasses.replace(report, T=value), *estimates_behind

    monkeypatch.setattr(torsion, "torsion_estimates", infinite_torsion)
    code, out, err = run_cli(capsys, "torsion", "--n", "2")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and "double range" in err
