"""CLI contract: determinism, schema validity, exit codes, formats."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from rumin_sphere import cli, spectrum_slice

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


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("--n", "2", "--degree", "1", "--max", "6"),
         "0b92371bcf059597849f98df33e989980592d7b2845824a60f63d5d58242433c"),
        (("--n", "3", "--degree", "4", "--max", "5"),
         "6519ef1b3c29ebf3da32189e3c9a4346b4b1d1a2b15225f15e5185489d30c1c9"),
        (("--n", "1", "--degree", "2", "--max", "7", "--format", "csv"),
         "0e825edcbc226b6a5a6e38821e7987e211ec54393ed87491bde24656fcc12ab4"),
    ],
)
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
            assert got == spectrum_slice(n, k, 5).entries, (n, k)


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


def test_precision_env_override(capsys, monkeypatch):
    monkeypatch.setenv("RUMIN_PRECISION_BITS", "96")
    parser = cli.build_parser()
    args = parser.parse_args(["kappa", "--n", "1", "--s", "0"])
    assert args.prec == 96
    monkeypatch.delenv("RUMIN_PRECISION_BITS")


def test_precision_env_not_an_integer_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("RUMIN_PRECISION_BITS", "abc")
    with pytest.raises(SystemExit) as exc:
        cli.main(["kappa", "--n", "1", "--s", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "RUMIN_PRECISION_BITS must be an integer, got 'abc'" in captured.err


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
    # T = (4 pi)^(n+1) first overflows a double at n = 280.
    code, out, err = run_cli(capsys, "torsion", "--n", "280")
    assert code == 3
    assert out == ""
    assert "279" in err


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


@pytest.mark.parametrize("mode_args", [("--mode", "closed"), ("--mode", "reduced")])
def test_kappa_guard_bits_beyond_working_range_exit_3_at_once(capsys, mode_args):
    # zeta(-2e6) would need about 4e7 guard bits: refused before any work.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "kappa", "--n", "1", "--s=-1e6", *mode_args)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and "guard bits" in err


def test_kappa_direct_with_an_underflowing_tail_bound(capsys):
    # 2^{2s+1} overflows and N^{n+1-2s} underflows; kappa is -8.1e242.
    code, record, _ = run_json(capsys, "kappa", "--n", "60", "--s", "400",
                               "--mode", "direct", "--max", "10")
    assert code == 0
    assert 0 < record["payload"]["tail_bound"] < 1e-300
    assert -8.2e242 < record["payload"]["value"] < -8.1e242
    assert all(c["passed"] for c in record["checks"])


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("torsion", "--n", "1", "--prec", "2048"),
         "dd37fa2f4ba754a73b8fe0758f81e39b93d57a4b30f27f5689a2247319debd37"),
        (("torsion", "--n", "6", "--prec", "256",
          "--zeta-convention", "kernel-excluded"),
         "699edee5247d9a19a4dd8db662c9f8a1e640fa974e3d6a7d487a86fdc71f8f0e"),
        (("torsion", "--n", "4", "--prec", "1024"),
         "38a312e9fa93062bf4c77e8b33f42f85324efe6dfc37c4e76b850a38214d51cd"),
        # The two kappa records carry error_bound rounded up to a double:
        # 8.102150711871305e-156 (was ...304e-156) and 5e-324 (was 0.0).
        (("kappa", "--n", "3", "--s=-1.25", "--mode", "reduced", "--prec", "512"),
         "bc8f8659efb03fa50fc88d4ebb3f21ebcf1d7522d5d0be04610c271dfb9729c7"),
        (("kappa", "--n", "2", "--s", "2.35", "--mode", "closed", "--prec", "2048"),
         "57e260121a1bae9345680c8618dea8284d42da7ddb5b47fc7dc4bef3eb0c423a"),
    ],
)
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
    # s = -150.3 stays inside the double range; its record is unchanged.
    code, record, _ = run_json(capsys, "kappa", "--n", "1", "--s=-150.3")
    assert code == 0
    assert record["payload"]["value"] == 3.6572315731911445e+285
    # zeta(2s) = 0 at negative integers, so kappa = -(n+1) there.
    for mode_args in (("--mode", "closed"), ("--mode", "reduced")):
        code, record, _ = run_json(capsys, "kappa", "--n", "2", "--s=-160",
                                   *mode_args)
        assert code == 0
        assert record["payload"]["value"] == -3.0


def test_log_kappa_lower_bound_is_tight():
    import mpmath

    for n, s in [(1, -140.3), (1, -150.3), (3, -145.7), (2, -3.25)]:
        with mpmath.workprec(200):
            ms = mpmath.mpf(s)
            kappa = -(n + 1) * (1 + 2 ** (2 * ms + 1) * mpmath.zeta(2 * ms))
            true = float(mpmath.log(abs(kappa)))
        bound = cli._log_kappa_lower_bound(n, s)
        if s < -100:
            assert abs(bound - true) <= 1e-11 * true, (n, s)
        else:
            assert bound <= true
    assert cli._log_kappa_lower_bound(1, -160.0) == float("-inf")
    assert cli._log_kappa_lower_bound(1, 0.25) == float("-inf")


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
