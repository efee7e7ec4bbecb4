"""SLOCC invariants of n-qubit pure states via a self-dual embedding.

A pure state vector v is embedded as the matrix  v v^T S^T  with
S = T (x) ... (x) T, T = [[0, 1], [-1, 0]] the SL(2) invariant form.  The
embedding intertwines the local SL(2)^n action on states with conjugation
on matrices, so trace monomials of embedded states are SLOCC invariants:
polynomial in the amplitudes (degree 2 per box) and invariant under
determinant-one local operations.  They are not invariant under global
scaling or generic local GL factors.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_MAX_COND,
    Dims,
    OperatorTuple,
    _qubit_count,
    kron,
    random_local_invertible,
)
from .evaluate import eval_contract
from .perms import TraceMonomial

#: The 2x2 symplectic form; g^T T g = det(g) T for any 2x2 g.
DUALITY = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


def duality_form(n) -> np.ndarray:
    """n-fold Kronecker power of the symplectic form."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return kron([DUALITY] * n)


def embed_state(v) -> np.ndarray:
    """Embed an n-qubit amplitude vector as the matrix v v^T S^T.

    The result has rank at most one and transforms by conjugation under
    local determinant-one operations; its plain trace is the full
    symplectic self-pairing of v (identically zero for odd n).
    """
    v = np.asarray(v, dtype=complex).ravel()
    n = _qubit_count(v.size)
    return np.outer(v, v) @ duality_form(n).T


def eval_slocc(mon: TraceMonomial, states) -> complex:
    """Evaluate a trace monomial on the embeddings of the given states.

    ``states`` is a sequence of amplitude vectors, all of the same qubit
    count n = mon.n_rows; monomial labels index into it.  The value is a
    degree-2-per-box polynomial in the amplitudes, invariant under one
    common SL(2)^n action on all states.
    """
    states = [np.asarray(v, dtype=complex).ravel() for v in states]
    if not states:
        raise ValueError("need at least one state")
    n = mon.n_rows
    for k, v in enumerate(states):
        if _qubit_count(v.size) != n:
            raise ValueError(
                f"state {k} has {_qubit_count(v.size)} qubits, monomial expects {n}"
            )
    ops = OperatorTuple(Dims((2,) * n), tuple(embed_state(v) for v in states))
    return eval_contract(mon, ops)


def random_sl2_tuple(n, seed=None, max_cond=DEFAULT_MAX_COND) -> list[np.ndarray]:
    """Sample n independent determinant-one 2x2 complex matrices.

    The draws of ``random_local_invertible`` on n qubits, each rescaled by a
    square root of its determinant.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return [
        g / np.sqrt(np.linalg.det(g))
        for g in random_local_invertible((2,) * n, seed, max_cond)
    ]
