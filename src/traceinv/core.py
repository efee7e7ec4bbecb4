"""Dense tensor-product plumbing for tuples of operators on a multipartite space.

Everything here works on explicit numpy arrays over the full product space
V = V_1 (x) ... (x) V_n with dim V_i = d_i.  Subsystems are indexed 0-based
and flattened row-major, matching ``np.kron`` / ``reshape`` conventions:
the flat index of (k_1, ..., k_n) is sum_i k_i * prod_{j>i} d_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import frexp, isfinite, ldexp, prod
from operator import index

import numpy as np

from .errors import check_count

#: Default absolute tolerance for numeric certificates.
DEFAULT_TOL = 1e-10


def check_tol(tol, name="tol") -> float:
    """Return tol as a float if it is finite and >= 0, else raise ValueError
    naming ``name``, also for a value that float() cannot convert (None).

    A NaN or infinite tolerance makes every |a - b| > tol comparison false,
    so two clearly different values would pass as equal; a negative one
    makes every comparison true.
    """
    try:
        value = float(tol)
    except (TypeError, ValueError, OverflowError):
        value = float("nan")
    if not (isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, got {tol!r}")
    return value


#: Condition-number cap used when sampling random invertible test elements.
DEFAULT_MAX_COND = 50.0


@dataclass(frozen=True)
class Dims:
    """Subsystem dimension vector (d_1, ..., d_n) of integers >= 1; numpy
    integers are stored as ints, and floats or strings raise TypeError."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(map(index, self.sizes)))
        if len(self.sizes) == 0:
            raise ValueError("need at least one subsystem")
        if any(d < 1 for d in self.sizes):
            raise ValueError(f"subsystem dimensions must be >= 1, got {self.sizes}")

    @property
    def n(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        """Dimension of the full product space."""
        return prod(self.sizes)

    def __iter__(self):
        return iter(self.sizes)


def as_dims(dims) -> Dims:
    return dims if isinstance(dims, Dims) else Dims(tuple(dims))


def _subsystems(indices, n, what) -> list[int]:
    """Sorted distinct 0-based subsystem indices, each an integer in range(n):
    a float or a string raises TypeError, an index out of range ValueError."""
    out = sorted(set(map(index, indices)))
    if out and not (out[0] >= 0 and out[-1] < n):
        raise ValueError(f"{what} indices out of range for {n} subsystems: {out}")
    return out


def _qubit_count(length):
    """n for a pure state of n qubits with ``length`` = 2^n amplitudes."""
    n = length.bit_length() - 1
    if length < 2 or 2**n != length:
        raise ValueError(f"amplitude count must be a power of two >= 2, got {length}")
    return n


@dataclass(frozen=True, eq=False)  # compared and hashed by identity, as its arrays are
class OperatorTuple:
    """An ordered tuple (M_1, ..., M_m) of D x D matrices on a common product space."""

    dims: Dims
    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", as_dims(self.dims))
        mats = tuple(np.asarray(M, dtype=complex) for M in self.matrices)
        object.__setattr__(self, "matrices", mats)
        if len(mats) == 0:
            raise ValueError("operator tuple must contain at least one matrix")
        D = self.dims.total
        for k, M in enumerate(mats):
            if M.shape != (D, D):
                raise ValueError(
                    f"matrix {k} has shape {M.shape}, expected ({D}, {D}) for dims {self.dims.sizes}"
                )
            if not np.isfinite(M).all():
                raise ValueError(f"matrix {k} contains non-finite entries")

    @property
    def m(self) -> int:
        return len(self.matrices)


def kron(factors) -> np.ndarray:
    """Kronecker product of a list of matrices, left to right."""
    factors = [np.asarray(f, dtype=complex) for f in factors]
    if not factors:
        raise ValueError("kron of an empty list")
    return reduce(np.kron, factors)


def to_net_tensor(M, dims) -> np.ndarray:
    """Reshape a D x D matrix into a 2n-index tensor.

    Axis i is the row (output) index on subsystem i, axis n+i the column
    (input) index on subsystem i.
    """
    dims = as_dims(dims)
    M = np.asarray(M, dtype=complex)
    D = dims.total
    if M.shape != (D, D):
        raise ValueError(f"expected shape ({D}, {D}), got {M.shape}")
    return M.reshape(dims.sizes + dims.sizes)


def partial_trace(M, dims, keep) -> np.ndarray:
    """Trace out all subsystems not in ``keep``.

    Parameters
    ----------
    M : (D, D) array_like
    dims : Dims or sequence of int
    keep : iterable of 0-based integer subsystem indices to retain, in any
        order; repeats count once.  The result is ordered by increasing
        subsystem index.

    Returns
    -------
    (D', D') ndarray with D' the product of the kept dimensions.
    """
    dims = as_dims(dims)
    keep = _subsystems(keep, dims.n, "keep")
    T = to_net_tensor(M, dims)
    n = dims.n
    traced = [i for i in range(n) if i not in keep]
    for i in reversed(traced):
        # trace over the (row, col) axis pair of subsystem i; later axes shift down
        T = np.trace(T, axis1=i, axis2=i + n)
        n -= 1
    Dk = prod(dims.sizes[i] for i in keep) if keep else 1
    return T.reshape(Dk, Dk)


def conjugate_local(M, factors, dims, det_tol=1e-12) -> np.ndarray:
    """Conjugate M by a product of local factors: (g_1 (x) ... (x) g_n) M (...)^{-1}.

    Raises ValueError if any factor is singular (|det g_i| <= det_tol) or has
    the wrong shape for its subsystem.
    """
    dims = as_dims(dims)
    factors = [np.asarray(g, dtype=complex) for g in factors]
    if len(factors) != dims.n:
        raise ValueError(f"expected {dims.n} local factors, got {len(factors)}")
    invs = []
    for i, (g, d) in enumerate(zip(factors, dims.sizes)):
        if g.shape != (d, d):
            raise ValueError(f"factor {i} has shape {g.shape}, expected ({d}, {d})")
        if abs(np.linalg.det(g)) <= det_tol:
            raise ValueError(f"factor {i} is singular (|det| <= {det_tol})")
        invs.append(np.linalg.inv(g))
    G = kron(factors)
    return G @ np.asarray(M, dtype=complex) @ kron(invs)


def is_normal(M, tol=DEFAULT_TOL) -> bool:
    """Certify that M commutes with its adjoint, entrywise within tol.

    Normality of every matrix in a tuple is what makes agreement of all
    trace-monomial invariants a conclusive equivalence certificate; for
    non-normal tuples it is one-directional evidence only.  M is scaled by
    2^-e and tol by 2^-2e first, e > 0 the binary exponent of its largest
    entry, so huge M does not overflow; that is exact unless an entry underflows.
    """
    M = np.asarray(M, dtype=complex)
    e = frexp(max(np.max(np.abs(M.real)), np.max(np.abs(M.imag))))[1]
    if e > 0:
        M = M * 2.0**-e
        tol = ldexp(tol, -2 * e)
    H = M.conj().T
    return bool(np.max(np.abs(M @ H - H @ M)) <= tol)


def _rng(seed):
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def _haar_unitary(d, rng):
    # Ginibre matrix -> QR -> fix phases so R has positive diagonal
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def random_local_unitary(dims, seed=None) -> list[np.ndarray]:
    """Sample independent Haar-distributed unitaries, one per subsystem."""
    dims = as_dims(dims)
    rng = _rng(seed)
    return [_haar_unitary(d, rng) for d in dims.sizes]


def random_local_invertible(dims, seed=None, max_cond=DEFAULT_MAX_COND) -> list[np.ndarray]:
    """Sample entrywise-Gaussian invertible local factors.

    Draws are rejected until the condition number is below ``max_cond``, so
    downstream invariance checks are not swamped by ill-conditioning.  No
    condition number is below 1, so ``max_cond`` must be a number > 1.
    """
    dims = as_dims(dims)
    if not max_cond > 1:
        raise ValueError(f"max_cond must be a number > 1, got {max_cond!r}")
    rng = _rng(seed)
    out = []
    for d in dims.sizes:
        while True:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            if np.linalg.cond(g) < max_cond:
                out.append(g)
                break
    return out


def random_density(dims, rank=None, seed=None) -> np.ndarray:
    """Sample a random density matrix of the given rank (default: full rank).

    Built as G G^dagger / Tr(G G^dagger) with G a D x rank standard complex
    Gaussian, so the result is Hermitian, positive semidefinite, unit trace,
    and almost surely of exactly the requested rank.
    """
    dims = as_dims(dims)
    D = dims.total
    rank = D if rank is None else check_count(rank, "rank")
    if rank > D:
        raise ValueError(f"rank must be in [1, {D}], got {rank}")
    rng = _rng(seed)
    G = rng.standard_normal((D, rank)) + 1j * rng.standard_normal((D, rank))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real
