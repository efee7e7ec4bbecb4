"""Deciding local-unitary equivalence through invariant comparison.

Two tuples of normal matrices are LU-equivalent exactly when all their
trace-monomial invariants agree, and finitely many suffice: the connected
ones with each row within ``generator_girth_cap`` generate, and the degree
bounds below give an explicit (astronomically loose) cutoff, while in
practice low degrees already separate inequivalent states.  For non-normal
tuples agreement is necessary but not known to be sufficient, so the
verdict carries a normality flag.

``fingerprint`` and ``decide_lu_equiv`` read one stream of invariants,
``_invariants``, which walks the generating monomials degree by degree.  A
degree's monomials and their contraction steps never depend on the states,
so each degree is compiled once into one step program (``_program``, an LRU
cache), in which a step that several monomials share runs once.  The
program yields each monomial's values as soon as its last step has run, so
a decision that separates runs no step past its witness.  ``_program`` also
decides, once per shape, which degrees are too large to keep; the walk
streams those one monomial at a time.  Every size check of a walk runs at
the call, before the first degree is read and before ``decide_lu_equiv``
scans for normality.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, log

import numpy as np

from .core import (
    DEFAULT_TOL,
    OperatorTuple,
    _subsystems,
    as_dims,
    check_tol,
    is_normal,
    partial_trace,
)
from .errors import CONTRACT_MAX_DIM, check_count, check_size
from .evaluate import _boxes, _compile, _execute, _run
from .perms import TraceMonomial, _check_listing, _generate, canonical_count, identity_perm


def generator_girth_cap(dims):
    """Per-subsystem girth cap sufficient for a generating set of invariants.

    d*(d+1)/2 for d <= 3, d^2 otherwise.
    """
    return tuple(d * (d + 1) // 2 if d <= 3 else d * d for d in as_dims(dims).sizes)


def lu_degree_bound(dims, m=1) -> int:
    """Degree at which the trace-monomial invariants are guaranteed to
    generate, for m operators on subsystems of the given dimensions.

    max{2, ceil((3/8) * max d_i * m^2 * D^4 * (2n)^(2*delta))} with
    D = prod d_i and delta = sum (d_i - 1).  Exact integer arithmetic.
    """
    dims, m = as_dims(dims), check_count(m, "m")
    delta = sum(d - 1 for d in dims.sizes)
    val = Fraction(3, 8) * max(dims.sizes) * m**2 * dims.total**4 * (2 * dims.n) ** (2 * delta)
    return max(2, ceil(val))


def slocc_degree_bound(n, m=1) -> int:
    """Generating-degree cutoff for the SLOCC invariants of m pure n-qubit
    states: max{2, ceil((3/2) * m^2 * (2^n)^2 * n^(6n))}."""
    n, m = check_count(n, "n"), check_count(m, "m")
    val = Fraction(3, 2) * m**2 * (2**n) ** 2 * n ** (6 * n)
    return max(2, ceil(val))


@dataclass(frozen=True)
class Fingerprint:
    """Values of the generating monomials up to a degree, in enumeration order."""

    dims: tuple[int, ...]
    m: int
    max_degree: int
    entries: tuple[tuple[TraceMonomial, complex], ...]

    @property
    def values(self):
        return tuple(v for _, v in self.entries)


# A walk's listing never depends on the states, so each degree's program is
# kept, keyed by (m, ell, sizes) alone.  Only a degree with at most
# _CACHED_CLASSES relabeling classes (perms.canonical_count), which bound its
# listing, is compiled; a larger one is kept as None.  The five lu-compare
# shapes have at most 681 classes in a degree, and their 23 degrees fit the
# 32 entries with room to spare.  So the cache holds at most 32 * 2**14
# monomials and their programs.  A running program also keeps each
# intermediate that a later monomial of its degree reads.
_CACHED_CLASSES = 2**14


@lru_cache(maxsize=32)
def _program(m, ell, sizes):
    """The step program (``evaluate._compile``) of the connected canonical
    monomials of degree ell within the girth caps of ``sizes``, or None when
    the degree has more than ``_CACHED_CLASSES`` relabeling classes: the walk
    then streams it.  Only a miss counts the classes, over the rows not capped
    at girth 1 (at least one), since a d = 1 row holds only the identity."""
    caps = generator_girth_cap(sizes)
    if canonical_count(max(1, sum(c != 1 for c in caps)), m, ell) > _CACHED_CLASSES:
        return None
    return _compile(_generate(m, ell, caps, connected_only=True, canonical=True), sizes, m)


def _invariants(tuples, max_degree):
    """A lazy stream of ``(mon, values on each tuple)`` in enumeration order.

    The monomials, from the first tuple (all share dims and length), are
    the connected canonical ones with rows within ``generator_girth_cap``:
    the others are products of these or polynomials in them.  Every check
    of the walk runs here, at the call: the arguments, ``MAX_BOXES``, the
    enumeration budget and the total-dimension envelope.  Once the stream
    (``_walk``) has started, only a value that overflows raises
    ``UnsupportedSizeError`` (``evaluate._finite``).
    """
    dims = tuples[0].dims
    m, max_degree, caps = _check_listing(dims.n, tuples[0].m, max_degree, generator_girth_cap(dims))
    check_size("contraction engine total dimension", dims.total, CONTRACT_MAX_DIM)
    stacks = _boxes([np.stack([t.matrices[k] for t in tuples]) for k in range(m)], dims.sizes)
    return _walk(m, max_degree, caps, dims.sizes, stacks)


def _walk(m, max_degree, caps, sizes, stacks):
    """The stream of ``_invariants``, for checked arguments.

    Each degree's program is read from ``_program`` when the stream reaches
    it, and yields each monomial's values as soon as its last step has run,
    so a caller that stops early builds no higher degree and runs no step
    past its stop.  A degree that ``_program`` does not keep is generated as
    it is read, each monomial run as a program of its own.  Every program
    runs on all the tuples at once, stacked along the batch axis
    (``evaluate._execute``), and is a function of its operands alone: the
    walk keeps nothing between programs.
    """
    for ell in range(1, max_degree + 1):
        program = _program(m, ell, sizes)
        if program is None:
            for mon in _generate(m, ell, caps, connected_only=True, canonical=True):
                yield mon, _run(mon, sizes, [stacks[x] for x in mon.labels])
        else:
            yield from _execute(program, stacks)


def fingerprint(ops: OperatorTuple, max_degree) -> Fingerprint:
    """Evaluate the generating trace monomials of the tuple up to max_degree.

    These are the connected canonical monomials within the generating girth
    cap (see ``_invariants``); for other listings use ``enumerate_monomials``
    and ``eval_contract``.
    """
    max_degree = check_count(max_degree, "max_degree")
    invariants = _invariants((ops,), max_degree)
    return Fingerprint(
        dims=ops.dims.sizes,
        m=ops.m,
        max_degree=max_degree,
        entries=tuple((mon, v) for mon, (v,) in invariants),
    )


@dataclass(frozen=True)
class Verdict:
    """Outcome of an invariant-comparison run.

    ``separated`` True means a monomial with differing values was found
    (witness + both values recorded); False means all compared invariants
    agreed up to the stated degree, which for normal tuples is evidence of
    equivalence and for non-normal ones (``normal_certified`` False) is
    weaker.
    """

    separated: bool
    max_degree: int
    tol: float
    normal_certified: bool
    witness: TraceMonomial | None = None
    values: tuple[complex, complex] | None = None


def decide_lu_equiv(a: OperatorTuple, b: OperatorTuple, max_degree=4, tol=DEFAULT_TOL) -> Verdict:
    """Compare the generating invariants of two operator tuples up to a degree.

    The monomials are those of ``fingerprint``.  Returns a separated
    verdict at the first monomial (in enumeration order) where
    |v_a - v_b| > tol * (1 + max(|v_a|, |v_b|)); otherwise an
    indistinguishable-up-to verdict.  Tuples must share dims and length, and
    tol must be finite and >= 0.  Arguments, ``MAX_BOXES`` (on max_degree),
    the enumeration budget and the total dimension are checked before any
    work, the normality scan included.
    """
    max_degree = check_count(max_degree, "max_degree")
    tol = check_tol(tol)
    if a.dims != b.dims:
        raise ValueError(f"dimension mismatch: {a.dims.sizes} vs {b.dims.sizes}")
    if a.m != b.m:
        raise ValueError(f"tuple length mismatch: {a.m} vs {b.m}")
    invariants = _invariants((a, b), max_degree)
    normal = all(is_normal(M) for M in a.matrices) and all(is_normal(M) for M in b.matrices)
    if not normal:
        warnings.warn(
            "inputs are not certified normal: invariant agreement is necessary "
            "for local-unitary equivalence but may not be sufficient",
            stacklevel=2,
        )
    for mon, (va, vb) in invariants:
        if abs(va - vb) > tol * (1 + max(abs(va), abs(vb))):
            return Verdict(
                separated=True,
                max_degree=max_degree,
                tol=tol,
                normal_certified=normal,
                witness=mon,
                values=(va, vb),
            )
    return Verdict(separated=False, max_degree=max_degree, tol=tol, normal_certified=normal)


def renyi_monomial(n, trace_out, q) -> TraceMonomial:
    """The trace monomial computing Tr((Tr_A rho)^q) for a single density.

    q boxes all holding one operator, q an integer >= 2; rows for traced-out
    subsystems (A, indices in range(n)) carry the identity, the others one q-cycle.
    """
    n, q = check_count(n, "n"), check_count(q, "q", least=2)
    trace_out = _subsystems(trace_out, n, "trace_out")
    cycle = tuple((j + 1) % q for j in range(q))
    perms = tuple(identity_perm(q) if i in trace_out else cycle for i in range(n))
    return TraceMonomial(labels=(0,) * q, perms=perms)


def renyi_entropy(rho, dims, trace_out, q, tol=DEFAULT_TOL) -> float:
    """Order-q Renyi entropy of the reduction of rho onto the subsystems
    not in ``trace_out``:  log Tr((Tr_A rho)^q) / (1 - q).

    q must be an integer >= 2 (so the quantity is itself a trace-monomial
    invariant); rho must be a density matrix within tol.
    """
    dims = as_dims(dims)
    tol = check_tol(tol)
    q = check_count(q, "q", least=2)
    trace_out = _subsystems(trace_out, dims.n, "trace_out")
    if not 0 < len(trace_out) < dims.n:
        raise ValueError("trace_out must be a nonempty proper subset of the subsystems")
    rho = np.asarray(rho, dtype=complex)
    D = dims.total
    if rho.shape != (D, D):
        raise ValueError(f"expected shape ({D}, {D}), got {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > tol:
        raise ValueError("rho is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1) > max(tol, 1e-12):
        raise ValueError("rho does not have unit trace within tolerance")
    if np.linalg.eigvalsh(rho).min() < -max(tol, 1e-12):
        raise ValueError("rho is not positive semidefinite within tolerance")
    keep = [i for i in range(dims.n) if i not in trace_out]
    # log Tr(rho_A^q) from the spectrum scaled by its largest eigenvalue,
    # which stays finite where Tr(rho_A^q) itself underflows to 0.0
    lam = np.linalg.eigvalsh(partial_trace(rho, dims, keep))
    top = lam[-1]
    return (q * log(top) + log(np.sum((lam[lam > 0] / top) ** q))) / (1 - q)
