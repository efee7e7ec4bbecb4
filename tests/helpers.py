"""Random inputs shared by the test modules."""

from traceinv import TraceMonomial


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_mon(rng, n, m, ell):
    perms = tuple(tuple(rng.permutation(ell).tolist()) for _ in range(n))
    labels = tuple(int(x) for x in rng.integers(0, m, size=ell))
    return TraceMonomial(labels=labels, perms=perms)
