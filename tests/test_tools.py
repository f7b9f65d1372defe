"""The pure functions of the tools: the request list, the record diff, and
the bench verdict and paste line."""

import shlex
import sys
from pathlib import Path

import pytest

from rumin_sphere import cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
sys.path.insert(0, str(ROOT / "clibench"))

import bench  # noqa: E402
import records  # noqa: E402
import workloads  # noqa: E402


def test_requests_are_the_workloads_then_cold_then_the_extras_each_once():
    found = [argv for name in workloads.WORKLOADS for seed in records.SEEDS
             for argv in workloads.build(name, seed)]
    cold = [argv for kinds in workloads.COLD.values() for argv in kinds]
    # A repeated extra, an extra that is already a cold request, and one
    # that is already a fixed request.
    extras = ["torsion --n 41", shlex.join(cold[0]), "kappa --n 1 --s=-158.4392",
              "torsion --n 41", "torsion --n 40"]
    reqs = records.requests(extras)
    assert len(set(reqs)) == len(reqs)
    assert set(reqs) == {*found, *cold, *records.REFUSALS, *records.ENGINE,
                         *records.BEYOND, ("torsion", "--n", "41"),
                         ("kappa", "--n", "1", "--s=-158.4392")}
    first = {}
    later = [*cold, *records.REFUSALS, *records.ENGINE, *records.BEYOND,
             *(tuple(shlex.split(e)) for e in extras)]
    for i, argv in enumerate(found + later):
        first.setdefault(argv, i)
    assert reqs == sorted(reqs, key=first.__getitem__)
    assert reqs[:len(set(found))] == list(dict.fromkeys(found))
    assert reqs[-2:] == [("torsion", "--n", "41"), ("kappa", "--n", "1", "--s=-158.4392")]
    # The engine requests reach what no workload request does.
    assert not set(records.ENGINE) & {*found, *cold}

    # Each request beyond the workloads has a larger n than every workload
    # or cold request of its subcommand and kappa mode, or, for ``verify``,
    # a larger --max than every one of them at the largest n.
    def path(argv):
        return argv[0], argv[argv.index("--mode") + 1] if "--mode" in argv else None

    def n_of(argv):
        return int(argv[argv.index("--n") + 1])

    def max_of(argv):
        return int(argv[argv.index("--max") + 1])

    widest = {}
    for argv in [*found, *cold]:
        widest[path(argv)] = max(widest.get(path(argv), 0), n_of(argv))
    longest = max(max_of(argv) for argv in [*found, *cold] if argv[0] == "verify")
    assert len(records.BEYOND) == 10
    for argv in records.BEYOND:
        assert n_of(argv) > widest[path(argv)] or (
            argv[0] == "verify" and n_of(argv) == widest[path(argv)]
            and max_of(argv) > longest), argv
    assert any(argv[0] == "verify" and max_of(argv) > longest for argv in records.BEYOND)
    # Two JSON spectrum tables, one at a mirrored degree, a CSV one, and a
    # reduced kappa truncated by --max.
    tables = [argv for argv in records.BEYOND if argv[0] == "spectrum"]
    assert sorted("--format" in argv for argv in tables) == [False, False, True]
    assert any(int(argv[argv.index("--degree") + 1]) > n_of(argv) for argv in tables)
    assert any(path(argv) == ("kappa", "reduced") and "--max" in argv
               for argv in records.BEYOND)


def test_every_refusal_exits_with_its_code_and_one_stderr_line(capsys):
    # Two to four requests per exit code of cli.main's exit table.
    codes = []
    for argv in records.REFUSALS:
        codes.append(cli.main(list(argv)))
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, argv
    assert codes == [2, 2, 2, 2, 3, 3, 3, 4, 4]


def test_json_paths_name_a_changed_leaf_an_added_key_and_a_resized_list():
    parent = {"checks": [{"name": "a", "residual": 0.5}],
              "payload": {"rows": [1, 2, 3], "route_residuals": {"x/y": 1e-3}},
              "version": 1}
    change = {"checks": [{"name": "a", "residual": 0.25}],
              "payload": {"rows": [1, 2], "route_residuals": {"x/y": 1e-3}, "added": None},
              "version": 1.0}
    assert records.json_paths(parent, change) == [
        "/checks/0/residual", "/payload/added", "/payload/rows", "/version"]
    assert records.json_paths(parent, parent) == []
    # A key with a slash is escaped as a JSON pointer.
    assert records.json_paths({"x/y": 1}, {"x/y": 2}) == ["/x~1y"]


def test_differences_report_exit_codes_json_paths_and_csv_lines():
    record = '{"a": 1, "b": [1, 2]}\n'
    assert records.differences([record, 0, ""], [record, 0, ""]) == []
    assert records.differences([record, 0, ""], ['{"a": 1, "b": [1, 3]}\n', 0, ""]) == [
        "/b/1"]
    assert records.differences(["", 3, "x: out of range"], ["", 1, "x: failed"]) == [
        "exit 3 -> 1", "stderr 'x: out of range' -> 'x: failed'"]
    csv_a, csv_b = "h\n1,2\n3,4\n", "h\n1,2\n3,5\n"
    assert records.differences([csv_a, 0, ""], [csv_b, 0, ""]) == [
        "line 3: '3,4' -> '3,5'"]


def test_report_counts_identical_records_per_subcommand():
    reqs = [("kappa", "--n", "1"), ("kappa", "--n", "2"), ("torsion", "--n", "1")]
    same = ["{}", 0, ""]
    lines, differ = records.report(reqs, [same] * 3, [same, ['{"a": 1}', 0, ""], same])
    assert differ
    assert lines == ["identical records: kappa 1/2, torsion 1/1",
                     "kappa --n 2: /a"]
    assert records.report(reqs, [same] * 3, [same] * 3) == (
        ["identical records: kappa 2/2, torsion 1/1"], False)


LOWER = {"name": "solve_p50_s", "unit": "s", "better": "lower", "bound": 0.15}
HIGHER = {"name": "solves_per_s", "unit": "1/s", "better": "higher", "bound": 0.15}


@pytest.mark.parametrize("metric, parent, change, expected", [
    # Within the bound of a tight parent.
    (LOWER, [1.0, 1.01, 0.99], [1.1, 1.12, 1.08], "ok"),
    (HIGHER, [100, 101, 99], [90, 91, 89], "ok"),
    # Median worse by more than 15 %.
    (LOWER, [1.0, 1.01, 0.99], [1.2, 1.21, 1.19], "worse"),
    (HIGHER, [100, 101, 99], [80, 81, 79], "worse"),
    # The parent spreads by more than 15 % of its median, and the change
    # does not beat every parent run ...
    (LOWER, [1.0, 0.6, 1.4], [0.9, 1.0, 1.1], "unresolved"),
    (HIGHER, [100, 60, 140], [100, 110, 90], "unresolved"),
    # ... unless it beats them all.
    (LOWER, [1.0, 0.6, 1.4], [0.5, 0.55, 0.4], "ok"),
])
def test_bench_verdict(metric, parent, change, expected):
    assert bench.verdict(metric, parent, change) == expected


def test_bench_summary_carries_the_verdict_of_each_metric():
    def run(value):
        metrics = {m["name"]: {"value": value} for m in bench.BENCHMARK["end_to_end"]}
        return {"metrics": metrics}

    runs = [{"parent": run(1.0), "change": run(1.0)} for _ in range(3)]
    summary = bench.summarise(runs)
    assert {m["verdict"] for m in summary.values()} == {"ok"}
    runs[0]["change"] = runs[1]["change"] = run(2.0)
    verdicts = {name: m["verdict"] for name, m in bench.summarise(runs).items()}
    # Twice the parent is worse for a time and better for a rate.
    assert verdicts == {"setup_s": "worse", "solve_p50_s": "worse", "solves_per_s": "ok"}


def test_bench_paste_line_gives_each_metric_and_the_failures():
    values = {"setup_s": ([0.2, 0.4, 0.3], [0.21, 0.28, 0.32]),
              "solve_p50_s": ([0.01] * 3, [0.02] * 3),
              "solves_per_s": ([100] * 3, [110, 120, 90])}
    failed = {"parent": [0, 1, 0], "change": [2, 0, 0]}
    correct = {"parent": [True] * 3, "change": [True, False, True]}
    runs = [{side: {"metrics": {name: {"value": v[side == "change"][i]}
                                for name, v in values.items()},
                    "failed": failed[side][i], "correct": correct[side][i]}
             for side in ("parent", "change")} for i in range(3)]
    line = bench.paste_line("direct_sums", runs, bench.summarise(runs))
    assert line == (
        "direct_sums (3 pairs, seeds 1-3): "
        "setup_s unresolved: 1/3 wins, median 0.3 -> 0.28 s, parent IQR 0.1; "
        "solve_p50_s worse: 0/3 wins, median 0.01 -> 0.02 s, parent IQR 0; "
        "solves_per_s ok: 2/3 wins, median 100 -> 110, parent IQR 0; "
        "failed 1 / 2, incorrect runs 1")


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    # Each line of the module is marked 1 if it counts as code, 0 if not.
    source = (
        '"""A module docstring\n'                  # 0
        '\n'                                        # 0
        'over three lines."""\n'                    # 0
        'import os  # a trailing comment\n'         # 1
        '\n'                                        # 0
        '# a comment line\n'                        # 0
        'class A:\n'                                # 1
        '    """A class docstring."""\n'            # 0
        '\n'                                        # 0
        '    def f(self, x):\n'                     # 1
        "        '''A function docstring.'''\n"     # 0
        '        text = """a string,\n'             # 1
        '\n'                                        # 0: blank inside it
        'not a docstring"""\n'                      # 1
        '        return (x,\n'                      # 1
        '                # a comment inside\n'      # 0
        '                text)\n'                   # 1
        '    \n'                                    # 0
        'async def g():\n'                          # 1
        '    """Async docstring."""\n'              # 0
        '    "a string statement after the first"\n'  # 1
    )
    assert bench.code_lines(source) == 9
    package = tmp_path / "src" / "rumin_sphere"
    package.mkdir(parents=True)
    (package / "a.py").write_text(source)
    (package / "b.py").write_text("x = 1\ny = 2\n")
    (package / "notes.txt").write_text("x = 1\n")
    assert bench.src_code_lines(tmp_path) == 11
