"""Random inputs and call counters shared by the test modules."""

import traceinv.perms
from traceinv import TraceMonomial


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_mon(rng, n, m, ell):
    perms = tuple(tuple(rng.permutation(ell).tolist()) for _ in range(n))
    labels = tuple(int(x) for x in rng.integers(0, m, size=ell))
    return TraceMonomial(labels=labels, perms=perms)


def count_connectivity_tests(monkeypatch):
    """A list that grows by one per ``is_connected`` call the enumeration
    makes: with ``connected_only`` that is one per monomial it builds."""
    calls = []
    real = traceinv.perms.is_connected
    monkeypatch.setattr(traceinv.perms, "is_connected", lambda mon: calls.append(mon) or real(mon))
    return calls
