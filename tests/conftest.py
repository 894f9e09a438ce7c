"""Fixtures shared by the test modules."""

import pytest

from hxfib.fibseq import FibContext


def _non_zero(self, *key):
    return False


@pytest.fixture
def per_table_route(monkeypatch):
    """A function that makes every batched read of the scalar instances
    report non-zero, so that from then on the algebra Catalan, Cassini and
    d'Ocagne checks take the per-table comparison, as under a fault, even
    on a context whose flags are already warm."""
    def force():
        monkeypatch.setattr(FibContext, "catalan_instances", _non_zero)
        monkeypatch.setattr(FibContext, "docagne_instances", _non_zero)

    return force


def _unproven(self, top):
    self._scale_to(top)  # NotDivisible where the prefix raises it
    return False


@pytest.fixture
def direct_route(monkeypatch):
    """A function that makes the recurrence prove no shift by one, so that
    from then on the scalar Catalan check at n > r and the index-shift
    check at r >= 1 compare in Q[x], and the algebra Catalan, Cassini and
    d'Ocagne checks per table, as under a fault, even on a context whose
    recurrence prefix is already warm."""
    def force():
        monkeypatch.setattr(FibContext, "_recurrence_holds", _unproven)

    return force
