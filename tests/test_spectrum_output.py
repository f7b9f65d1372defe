"""The ``spectrum`` command against a reference: the label-by-label path it
replaced, kept here as the oracle, with ``json.dumps`` as its writer."""

import io
import itertools
import json
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest

from oracles import weyl_dimension
from rumin_sphere import cli, spectrum, weights
from rumin_sphere.spectrum import all_families, degree_families


def _weyl_fraction(entries):
    # prod_{a<b} (w_a - w_b + b - a)/(b - a), one Fraction per factor.
    d = Fraction(1)
    for a in range(len(entries)):
        for b in range(a + 1, len(entries)):
            d *= Fraction(entries[a] - entries[b] + b - a, b - a)
    assert d.denominator == 1 and d > 0
    return int(d)


@lru_cache(maxsize=None)
def _reference_rows(n, degree, N):
    """Rows sorted by eigenvalue, each listing its contributing blocks: one
    weight tuple and Fraction eigenvalue per label."""
    blocks = {}
    for fam in all_families(n):
        spaces = [(s, t) for s, t in fam.spaces if s + t == degree]
        ps, qs = fam.parameters(N) if spaces else ((), ())
        for p, q in itertools.product(ps, qs):
            i, j = fam.i, fam.j
            num = (p + i) * (q + n - i) + (q + j) * (p + n - j)
            mu = Fraction(num * num, 4 * (n - i - j) ** 2)
            weight = (q,) + (1,) * j + (0,) * (n - 1 - i - j) + (-1,) * i + (-p,)
            dim = _weyl_fraction(weight)
            key = (fam.case.value, i, j, q, p)
            blocks.setdefault(mu, []).extend((*key, s, t, dim) for s, t in spaces)
    rows = []
    for mu in sorted(blocks):
        contributing = sorted(blocks[mu])
        rows.append({
            "eigenvalue": f"{mu.numerator}/{mu.denominator}",
            "eigenvalue_float": float(mu),
            "multiplicity": sum(b[-1] for b in contributing),
            "blocks": [
                {"case": case, "q": q, "j": j, "i": i, "p": p,
                 "s": s, "t": t, "dimension": dim}
                for case, i, j, q, p, s, t, dim in contributing
            ],
        })
    return rows


def reference_output(n, degree, N, fmt):
    canonical = min(degree, 2 * n + 1 - degree)
    rows = _reference_rows(n, canonical, N)
    if fmt == "csv":
        lines = ["eigenvalue_num,eigenvalue_den,eigenvalue_float,multiplicity\n"]
        for row in rows:
            num, den = row["eigenvalue"].split("/")
            lines.append(f"{num},{den},{row['eigenvalue_float']!r},"
                         f"{row['multiplicity']}\n")
        return "".join(lines)
    record = {
        "schema_version": cli.SCHEMA_VERSION,
        "command": "spectrum",
        "parameters": {"n": n, "degree": canonical, "max": N, "format": "json"},
        "payload": {"rows": rows},
        "checks": [],
    }
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_spectrum_output_equals_the_reference(capsys, n):
    for degree in range(2 * n + 2):
        for N in (1, 4, 11):
            for fmt in ("json", "csv"):
                code = cli.main(["spectrum", "--n", str(n), "--degree", str(degree),
                                 "--max", str(N), "--format", fmt])
                out = capsys.readouterr().out
                assert code == 0
                assert out == reference_output(n, degree, N, fmt), (n, degree, N, fmt)


def test_spectrum_writer_handles_an_empty_row_list(monkeypatch):
    # Every degree carries labels, so an empty table only arises here; the
    # writer must still match json.dumps on it.
    monkeypatch.setattr(spectrum, "degree_families", lambda n, k: iter(()))
    stream = io.StringIO()
    cli._write_spectrum_json(1, 0, 1, stream)
    record = {"schema_version": cli.SCHEMA_VERSION, "command": "spectrum",
              "parameters": {"n": 1, "degree": 0, "max": 1, "format": "json"},
              "payload": {"rows": []}, "checks": []}
    assert stream.getvalue() == json.dumps(record, indent=2, sort_keys=True) + "\n"


class _CountingSink:
    # A stream that keeps only the number of characters written to it.
    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


def test_the_json_writer_holds_less_than_it_writes():
    # The writer keeps one tuple per label and one row's text, never the
    # output: its traced peak was 3.71 times the 11.5 MB it writes here when
    # it joined the whole body before one write.
    sink = _CountingSink()
    tracemalloc.start()
    try:
        cli._write_spectrum_json(3, 2, 80, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.chars > 10_000_000
    assert peak < sink.chars


def test_a_refused_table_writes_no_byte(monkeypatch):
    # Rows are streamed, but every row is read and the envelope built first:
    # a refusal by the last family's rows or by ``_record`` leaves the
    # stream empty.
    families = [family for family, _ in degree_families(3, 2)]
    generate = spectrum.BlockFamily.rows

    def last_refuses(family, bound):
        yield from generate(family, bound)
        if family == families[-1]:
            raise ArithmeticError("Weyl product is not a positive integer")

    with monkeypatch.context() as patch:
        patch.setattr(spectrum.BlockFamily, "rows", last_refuses)
        stream = io.StringIO()
        with pytest.raises(ArithmeticError, match="Weyl product"):
            cli._write_spectrum_json(3, 2, 5, stream)
        assert stream.getvalue() == ""

    def refused(*args):
        raise OverflowError("the record holds a value that is not a finite double")

    monkeypatch.setattr(cli, "_record", refused)
    stream = io.StringIO()
    with pytest.raises(OverflowError, match="not a finite double"):
        cli._write_spectrum_json(3, 2, 5, stream)
    assert stream.getvalue() == ""


@pytest.mark.parametrize("n, N", [*((n, 12) for n in range(1, 7)), (10, 3)])
def test_every_dimension_is_the_weyl_product(n, N):
    # The factored product of the rows of ``degree_families`` against the
    # plain O(n^2) loop of ``oracles.weyl_dimension``, label by label.
    for k in range(n + 1):
        got = [(fam, row) for fam, _ in degree_families(n, k) for row in fam.rows(N)]
        assert got
        for fam, (q, p, _, dim) in got:
            weight = (q, *spectrum._middle_weight(n, fam.j, fam.i), -p)
            assert dim == weyl_dimension(weights.HighestWeight(weight)), (n, k, weight)


@pytest.mark.parametrize("call", [0, 5], ids=["q_row", "p_row"])
def test_a_factor_row_off_by_one_is_refused(monkeypatch, call):
    # Every label's dimension is still required to be a positive integer.
    # The first family of degree 1 (Case II, i = j = 0) builds its q-rows
    # for q = 1..5 before the p-row of p = 1; either row moved by one makes
    # the label (1, 0, 0, 1) give 7 * 6 * 5 = 210 over 12, not an integer.
    calls = itertools.count()
    shifted = spectrum._shifted_product

    def off_by_one(x, shifts):
        return shifted(x, shifts) + (next(calls) == call)

    family, _ = next(degree_families(3, 1))
    assert (family.case, family.i, family.j) == (spectrum.Case.II, 0, 0)
    monkeypatch.setattr(spectrum, "_shifted_product", off_by_one)
    with pytest.raises(ArithmeticError, match=r"\(1, 0, 0, -1\)"):
        spectrum.degree_multiplicities(3, 1, 5)
