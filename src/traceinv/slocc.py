"""SLOCC invariants of n-qubit pure states via a self-dual embedding.

A pure state vector v is embedded as the matrix  v v^T S^T  with
S = T (x) ... (x) T, T = [[0, 1], [-1, 0]] the SL(2) invariant form.  The
embedding intertwines the local SL(2)^n action on states with conjugation
on matrices, so trace monomials of embedded states are SLOCC invariants:
polynomial in the amplitudes (degree 2 per box) and invariant under
determinant-one local operations.  They are not invariant under global
scaling or generic local GL factors.

S is a signed anti-diagonal permutation, S[j, D-1-j] = (-1)^popcount(j), so
the embedding is the signed outer product  outer(v, s * reverse(v))  with
s = [1, -1] (x) ... (x) [1, -1]: O(D^2) work and no BLAS call.
``duality_form`` builds S itself and stays the defining formula.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import (
    DEFAULT_MAX_COND,
    Dims,
    _qubit_count,
    kron,
    random_local_invertible,
)
from .errors import UnsupportedSizeError, check_count
from .evaluate import _boxes, _check_compat, _plan, _run
from .perms import TraceMonomial

#: The 2x2 symplectic form; g^T T g = det(g) T for any 2x2 g.
DUALITY = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


def duality_form(n) -> np.ndarray:
    """n-fold Kronecker power of the symplectic form."""
    return kron([DUALITY] * check_count(n, "n"))


# one read-only entry per qubit count seen, each half the size of one row
# of that count's embedding
@lru_cache(maxsize=None)
def _signs(n) -> np.ndarray:
    """s = [1, -1] (x) ... (x) [1, -1] (n factors): s[j] = (-1)^popcount(j)."""
    s = np.ones(1)
    for _ in range(n):
        s = np.concatenate([s, -s])
    s.flags.writeable = False
    return s


def embed_state(v) -> np.ndarray:
    """Embed an n-qubit amplitude vector as the matrix v v^T S^T.

    Computed as the signed outer product  outer(v, s * v[::-1]),  since
    (S^T)[D-1-k, k] = s[k] is the only nonzero entry in column k: O(D^2)
    work, no Kronecker power and no BLAS call.  The entries equal those of
    ``np.outer(v, v) @ duality_form(n).T``.  Finite amplitudes whose
    products overflow the float range raise UnsupportedSizeError.

    The result has rank at most one and transforms by conjugation under
    local determinant-one operations; its plain trace is the full
    symplectic self-pairing of v (identically zero for odd n).
    """
    v = np.asarray(v, dtype=complex).ravel()
    embedded = np.outer(v, _signs(_qubit_count(v.size)) * v[::-1])
    if not np.isfinite(embedded.view(float)).all() and np.isfinite(v.view(float)).all():
        raise UnsupportedSizeError("the embedding of a state overflowed the float range")
    return embedded


def eval_slocc(mon: TraceMonomial, states) -> complex:
    """Evaluate a trace monomial on the embeddings of the given states.

    ``states`` is a sequence of amplitude vectors, all of the same qubit
    count n = mon.n_rows; monomial labels index into it.  The value is a
    degree-2-per-box polynomial in the amplitudes, invariant under one
    common SL(2)^n action on all states.  Qubit counts and finite
    amplitudes, then labels, then ``eval_contract``'s size limits are
    checked before anything is embedded; ``embed_state`` converts each
    state, and the embeddings run through ``eval_contract``'s runner.
    """
    states = list(states)
    if not states:
        raise ValueError("need at least one state")
    n = mon.n_rows
    for k, v in enumerate(states):
        qubits = _qubit_count(np.size(v))
        if qubits != n:
            raise ValueError(f"state {k} has {qubits} qubits, monomial expects {n}")
        if not np.isfinite(np.asarray(v, dtype=complex)).all():
            raise ValueError(f"state {k} has non-finite amplitudes")
    sizes = (2,) * n
    _check_compat(mon, Dims(sizes), len(states))
    _plan(mon.perms, sizes)  # runs the size checks; _run then hits
    embedded = [embed_state(v) for v in states]
    (value,) = _run(mon, sizes, _boxes([embedded[x] for x in mon.labels], sizes))
    return value


def random_sl2_tuple(n, seed=None, max_cond=DEFAULT_MAX_COND) -> list[np.ndarray]:
    """Sample n independent determinant-one 2x2 complex matrices.

    The draws of ``random_local_invertible`` on n qubits, each rescaled by a
    square root of its determinant.
    """
    return [
        g / np.sqrt(np.linalg.det(g))
        for g in random_local_invertible((2,) * check_count(n, "n"), seed, max_cond)
    ]
