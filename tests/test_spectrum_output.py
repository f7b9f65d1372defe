"""The ``spectrum`` command against a reference: the label-by-label path it
replaced, kept here as the oracle, with ``json.dumps`` as its writer."""

import io
import json
from fractions import Fraction
from functools import lru_cache

import pytest

from rumin_sphere import cli, label_to_weight, spectrum
from rumin_sphere.spectrum import all_families, degree_labels


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
    RuminLabel, HighestWeight and Fraction eigenvalue per label."""
    blocks = {}
    for fam in all_families(n):
        spaces = [(s, t) for s, t in fam.spaces if s + t == degree]
        for label in fam.labels(N) if spaces else ():
            q, j, i, p = label.q, label.j, label.i, label.p
            num = (p + i) * (q + n - i) + (q + j) * (p + n - j)
            mu = Fraction(num * num, 4 * (n - i - j) ** 2)
            dim = _weyl_fraction(label_to_weight(label).entries)
            key = (label.case.value, i, j, q, p)
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
    monkeypatch.setattr(spectrum, "degree_labels", lambda n, k, N: iter(()))
    stream = io.StringIO()
    cli._write_spectrum_json(1, 0, 1, stream)
    record = {"schema_version": cli.SCHEMA_VERSION, "command": "spectrum",
              "parameters": {"n": 1, "degree": 0, "max": 1, "format": "json"},
              "payload": {"rows": []}, "checks": []}
    assert stream.getvalue() == json.dumps(record, indent=2, sort_keys=True) + "\n"


def test_every_dimension_is_checked(monkeypatch):
    # The label table fixes case and ordering; the Weyl product of every
    # label is still required to be a positive integer.
    calls = []
    product = spectrum.weyl_product

    def counting(entries):
        calls.append(entries)
        return product(entries)

    monkeypatch.setattr(spectrum, "weyl_product", counting)
    got = list(degree_labels(2, 1, 5))
    assert len(calls) == len(got)
    assert [(q, p) for q, *_, p in calls] == [(q, -p) for _, _, _, q, p, *_ in got]
