"""Fixtures shared by the test modules."""

import pytest

from rumin_sphere import zeta


@pytest.fixture
def em_passes(monkeypatch):
    """Counts the Euler-Maclaurin passes made through the zeta engine."""
    calls = []
    original = zeta._euler_maclaurin

    def counted(s, a, prec, want_derivative):
        calls.append((s, want_derivative))
        return original(s, a, prec, want_derivative)

    monkeypatch.setattr(zeta, "_euler_maclaurin", counted)
    return calls
