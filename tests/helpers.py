"""Random inputs and call counters shared by the test modules."""

import numpy as np
from numpy.lib import NumpyVersion

import traceinv.perms
from traceinv import Dims, OperatorTuple, TraceMonomial, random_density
from traceinv.evaluate import _inputs


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_ops(rng, dims, m):
    """m complex Gaussian matrices on dims: neither Hermitian nor normal."""
    D = dims.total
    return OperatorTuple(dims, tuple(crandn(rng, D, D) for _ in range(m)))


def random_mon(rng, n, m, ell):
    perms = tuple(tuple(rng.permutation(ell).tolist()) for _ in range(n))
    labels = tuple(int(x) for x in rng.integers(0, m, size=ell))
    return TraceMonomial(labels=labels, perms=perms)


# eval_contract runs the steps numpy 2.4's einsum runs on the same path: one
# matmul per pairwise step, the contracted indices in the left operand's
# order.  numpy 1.24 runs them through tensordot with the contracted indices
# sorted, so its sums run in another order and agree only to rounding.
EINSUM_BITWISE = NumpyVersion(np.__version__) >= "2.4.0"


def bits(z):
    """The exact bits of a complex value, signs of zeros included."""
    return z.real.hex(), z.imag.hex()


def interleaved(mon, ops):
    """The network of ``mon`` on ``ops`` in numpy's interleaved einsum form,
    built here independently of ``eval_contract``: box j's column index on
    row i is bonded to the row index of box sigma_i(j)."""
    rows = [i for i, d in enumerate(ops.dims.sizes) if d > 1]
    shape = tuple(ops.dims.sizes[i] for i in rows) * 2
    ell = mon.n_boxes
    bond = {(k, mon.perms[i][j]): k * ell + j for k, i in enumerate(rows) for j in range(ell)}
    args = []
    for j in range(ell):
        subs = [bond[k, j] for k in range(len(rows))] + [k * ell + j for k in range(len(rows))]
        args += [ops.matrices[mon.labels[j]].reshape(shape), subs]
    return args + [[]]


def step_kind(ins):
    """"matmul", "multiply" or "einsum": what an instruction
    (kernel, read_a, a, read_b, b, frees) of a step program runs."""
    kernel = ins[0]
    if kernel is None:
        return "einsum"
    return "matmul" if kernel is np.matmul else "multiply"


def step_inputs(ins):
    """The registers an instruction of a step program reads."""
    return _inputs(*ins[:5])


def is_box_trace(steps, k):
    """Whether step k of a ``_plan`` program traces a box for a pairwise
    step after it: it reads one register, which otherwise only the one step
    of a one-box network does."""
    return len(step_inputs(steps[k])) == 1 and k + 1 < len(steps)


def count_connectivity_tests(monkeypatch):
    """A list that grows by one per ``is_connected`` call the enumeration
    makes: with ``connected_only`` that is one per monomial it builds."""
    calls = []
    real = traceinv.perms.is_connected
    monkeypatch.setattr(traceinv.perms, "is_connected", lambda mon: calls.append(mon) or real(mon))
    return calls


# (dims, m, max_degree, the degree at which the walk first separates) for
# ``conjugate_pair``: the imaginary parts that separate the degree-5 pairs
# are about 1e-5, and no invariant below that degree has one above tol
CONJUGATE_CASES = [
    ((2, 3), 1, 5, 5),
    ((3, 3), 1, 5, 5),
    ((2, 2, 2), 1, 4, 3),
    ((2, 2), 2, 4, 3),
]


def conjugate_pair(dims, m):
    """A tuple of m random densities (seed 7) and its entrywise complex
    conjugate.  Each invariant of the conjugate is the conjugate of the
    original's, so only the non-real invariants separate the two."""
    rng = np.random.default_rng(7)
    dims = Dims(dims)
    mats = tuple(random_density(dims, seed=rng) for _ in range(m))
    return OperatorTuple(dims, mats), OperatorTuple(dims, tuple(M.conj() for M in mats))


def scaled_pair(tol, factor):
    """diag(.5, .5) on dims (2,) and (1 + delta) times it, with the gap of
    the degree-1 invariant, delta, at ``factor`` times its threshold
    tol * (1 + max|v|) = tol * (2 + delta)."""
    delta = 2 * factor * tol / (1 - factor * tol)
    A = np.diag([0.5, 0.5]).astype(complex)
    return OperatorTuple(Dims((2,)), (A,)), OperatorTuple(Dims((2,)), ((1 + delta) * A,))
