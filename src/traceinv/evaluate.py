"""Two independent engines for evaluating trace monomials, plus factorization.

``eval_reference`` works straight from the defining trace formula: the value
is the trace of a permutation operator (acting row-wise on the ell-fold
product space) composed with the Kronecker product of the chosen matrices.
It sums matrix entries over all global index assignments instead of
materializing that big product, but the index bookkeeping is otherwise a
literal transcription and is kept deliberately simple.

``eval_contract`` treats the monomial as a tensor network: one box per
position with two indices per subsystem of dimension d > 1, the column
index of box j on row i bonded to the row index of box sigma_i(j).  The
network is contracted pairwise along numpy's greedy path, planned with an
intermediate limit of D^4 elements (D the total dimension).  numpy's default
limit is the largest input, D^2: when no pairwise step fits under it, greedy
contracts all remaining boxes in one naive loop, which at D = 64 can cost
1e15 FLOPs.  With room for D^4, every network sampled at eight boxes and
D = 64 was contracted pairwise throughout, along the path greedy takes with
no limit at all (README, "Envelopes").  A network's envelopes (boxes, total
dimension, subscripts) and its path depend only on (perms, dims), never on
labels or matrix values, so ``_plan`` owns that key: it checks the
envelopes, plans the path, compiles it into a program of the steps numpy's
einsum would take on it (a ``matmul`` or ``multiply`` per pairwise step,
between transposes and reshapes), and an LRU cache of 2**14 networks keeps
the programs.  The cache stores no call that raised, so nothing outside the
envelopes is planned or cached, and a hit skips only checks its key has
already passed.
Agreement of the two engines on random inputs is the main internal
correctness check of the package.
"""

from __future__ import annotations

import cmath
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

from .core import OperatorTuple
from .errors import (
    CONTRACT_MAX_DIM,
    EINSUM_MAX_SUBSCRIPTS,
    MAX_BOXES,
    REFERENCE_ENVELOPE,
    UnsupportedSizeError,
    check_size,
)
from .perms import TraceMonomial, _component, cycle_decomposition, invert_perm


def _check_compat(mon: TraceMonomial, dims, m):
    if mon.n_rows != dims.n:
        raise ValueError(
            f"monomial has {mon.n_rows} rows but operators act on {dims.n} subsystems"
        )
    if max(mon.labels) >= m:
        raise ValueError(
            f"monomial labels go up to {max(mon.labels) + 1} but only {m} matrices given"
        )


def _finite(value: complex) -> complex:
    """Every entry of an OperatorTuple is finite, so a value that is not has
    overflowed the float range on the way.  That raises UnsupportedSizeError
    rather than returning inf or nan: |inf - inf| > tol is False, so a
    comparison would read two overflowed values as agreeing."""
    if not cmath.isfinite(value):
        raise UnsupportedSizeError(f"the value {value} overflowed the float range")
    return value


def eval_reference(mon: TraceMonomial, ops: OperatorTuple) -> complex:
    """Brute-force engine: sum over all global index assignments.

    For each box j pick a flat row index y_j; the column index of box j is
    obtained by routing each subsystem component through that row's
    permutation (component i of the column of box j equals component i of
    the row of box sigma_i(j)).  The value is the sum over all assignments
    of the product of the selected matrix entries.

    Cost is O(D^ell * ell), so inputs are capped at D^ell <= 4096.  A value
    that overflowed raises UnsupportedSizeError, as in ``eval_contract``.
    """
    _check_compat(mon, ops.dims, ops.m)
    dims = ops.dims
    D = dims.total
    ell = mon.n_boxes
    check_size("reference engine index assignments (D^ell)", D**ell, REFERENCE_ENVELOPE)
    strides = [prod(dims.sizes[i + 1 :]) for i in range(dims.n)]
    y = np.indices((D,) * ell).reshape(ell, -1)
    term = np.ones(y.shape[1], dtype=complex)
    for j in range(ell):
        z = np.zeros(y.shape[1], dtype=y.dtype)
        for i in range(dims.n):
            comp = (y[mon.perms[i][j]] // strides[i]) % dims.sizes[i]
            z += comp * strides[i]
        term *= ops.matrices[mon.labels[j]][y[j], z]
    return _finite(complex(term.sum()))


# Keyed by (perms, dims) alone, so one entry serves every label pattern and
# every matrix tuple.  The bound covers the largest walk the envelopes admit:
# enumerating (n=3, m=1, degree 5) meets 15,460 distinct networks, and a
# smaller cache would miss on every call of such a walk.
@lru_cache(maxsize=2**14)
def _plan(perms, sizes):
    """Check a network's size envelopes, then return its box shape and step
    program.

    The path depends only on shapes, so it is planned on zero-stride stand-in
    boxes.  The program replays it as numpy's einsum would: each step is
    (positions, run, args), and ``run(args, *operands)`` replaces the
    operands at ``positions``, popped in that order, by one result appended
    at the end.  numpy names an intermediate's indices in order of
    (dimension, subscript), and the last step yields the scalar.
    """
    ell = len(perms[0])
    rows = [i for i, d in enumerate(sizes) if d > 1]
    n = len(rows)
    D = prod(sizes)
    check_size("contraction engine boxes", ell, MAX_BOXES)
    check_size("contraction engine total dimension", D, CONTRACT_MAX_DIM)
    check_size("einsum subscripts (rows with d > 1, times ell)", n * ell, EINSUM_MAX_SUBSCRIPTS)
    shape = tuple(sizes[i] for i in rows) * 2
    inv = [invert_perm(perms[i]) for i in rows]
    subs = [
        tuple(k * ell + inv[k][j] for k in range(n)) + tuple(k * ell + j for k in range(n))
        for j in range(ell)
    ]
    box = np.broadcast_to(0j, shape)
    interleaved = [x for s in subs for x in (box, s)]
    path, _ = np.einsum_path(*interleaved, [], optimize=("greedy", D**4))
    dim = {x: d for s in subs for x, d in zip(s, shape)}
    steps = []
    for step in path[1:]:
        positions = tuple(sorted(step, reverse=True))
        ins = [subs.pop(p) for p in positions]
        out = tuple(sorted(set().union(*ins) & set().union(*subs), key=lambda x: (dim[x], x)))
        subs.append(out)
        steps.append((positions, *_step(ins, out, dim)))
    return shape, tuple(steps)


def _step(ins, out, dim):
    """(run, args) of one contraction step, as numpy 2.4's einsum runs it.

    Two operands with a contracted index meet in one ``matmul``: the left
    operand (the higher position) is laid out as (kept + contracted), the
    right as (contracted + kept), the contracted indices in the order the
    left operand lists them.  Every subscript names one bond, so it occurs
    twice in the network: no index is both shared and kept, and one that
    repeats within an operand (a trace) is neither.  Two
    operands with nothing to contract are multiplied with size-1 axes
    inserted.  Any other step is a plain einsum.
    """
    if len(ins) != 2:
        return _einsum_step, (ins, out)
    a, b = ins
    con = [x for x in a if x in b and x not in out]
    if not con:
        return _multiply_step, tuple(
            _prep(t, [x for x in out if x in t], [dim[x] if x in t else 1 for x in out])
            for t in (a, b)
        )
    a_keep = [x for x in a if x in out]
    b_keep = [x for x in b if x in out]
    kept = a_keep + b_keep
    con_size = prod(dim[x] for x in con)
    return _matmul_step, (
        _prep(a, a_keep + con, (prod(dim[x] for x in a_keep), con_size)),
        _prep(b, con + b_keep, (con_size, prod(dim[x] for x in b_keep))),
        tuple(dim[x] for x in kept),
        None if tuple(kept) == out else tuple(map(kept.index, out)),
    )


def _prep(term, want, shape):
    """(trace, axes, shape) bringing an operand with indices ``term`` to the
    indices ``want``, then to ``shape``.  A repeated index (a fixed point of
    a row) is traced out by a plain einsum; otherwise a transpose will do."""
    want = tuple(want)
    if term == want:
        return None, None, shape
    if len(set(term)) < len(term):
        return (term, want), None, shape
    return None, tuple(map(term.index, want)), shape


def _prepared(x, prep):
    trace, axes, shape = prep
    if trace is not None:
        x = np.einsum(x, *trace)
    elif axes is not None:
        x = x.transpose(axes)
    return x.reshape(shape)


def _matmul_step(args, a, b):
    prep_a, prep_b, shape, axes = args
    ab = np.matmul(_prepared(a, prep_a), _prepared(b, prep_b)).reshape(shape)
    return ab if axes is None else ab.transpose(axes)


def _multiply_step(args, a, b):
    prep_a, prep_b = args
    return np.multiply(_prepared(a, prep_a), _prepared(b, prep_b))


def _einsum_step(args, *operands):
    terms, out = args
    return np.einsum(*[x for pair in zip(operands, terms) for x in pair], out)


def eval_contract(mon: TraceMonomial, ops: OperatorTuple) -> complex:
    """Tensor-network engine: a contraction of one tensor per box.

    Each box has a row and a column axis per subsystem of dimension d > 1;
    subsystems with d = 1 carry no index and are dropped from the network.
    Bond (i, j) joins the column axis of box j on subsystem row i with the
    row axis of box sigma_i(j); a fixed point of a row becomes a plain trace
    on that box.  Contraction order is numpy's greedy path with each
    intermediate capped at D^4 elements rather than numpy's default cap, the
    largest input (D^2), under which greedy can fall back to one naive
    contraction of the remaining boxes.

    Raises ValueError when the rows or labels do not fit the tuple, and
    UnsupportedSizeError past the box, total-dimension or subscript
    envelope, or when the value overflows (see ``_finite``).  The envelope
    is checked once per network, before it is planned and cached (module
    docstring).  On numpy 2.4 values are bit-identical to ``np.einsum`` on
    the same path; older numpy sums its steps in another order and agrees
    to rounding.
    """
    _check_compat(mon, ops.dims, ops.m)
    shape, steps = _plan(mon.perms, ops.dims.sizes)
    operands = [ops.matrices[label].reshape(shape) for label in mon.labels]
    for positions, run, args in steps:
        operands.append(run(args, *[operands.pop(p) for p in positions]))
    return _finite(complex(operands[0]))


@dataclass(frozen=True)
class Factorization:
    """Outcome of the reducibility test for a trace monomial.

    When ``reducible`` is True the witness fields describe a product
    identity  value(factored) = value(left) * value(right):

    * ``factored`` is the monomial that identity is about.  If the split
      was found by disconnecting the contraction network it is the input
      monomial itself (``relocated`` False).  If it was found by splitting
      each row's cycle-length multiset, ``factored`` is a sibling of the
      input with the same labels and per-row cycle types but cycles moved
      onto aligned position blocks (``relocated`` True); the input monomial
      itself need not equal the product in that case.
    * ``left_positions`` / ``right_positions`` partition the box positions
      of ``factored``; ``left`` / ``right`` are the factor monomials.
    * ``row_split`` gives, per row, the two cycle-length multisets.
    """

    reducible: bool
    left_positions: tuple[int, ...] | None = None
    right_positions: tuple[int, ...] | None = None
    left: TraceMonomial | None = None
    right: TraceMonomial | None = None
    factored: TraceMonomial | None = None
    relocated: bool = False
    row_split: tuple | None = None


def _restrict(mon: TraceMonomial, positions):
    """Sub-monomial on a cycle-closed position subset."""
    pos = sorted(positions)
    index = {k: i for i, k in enumerate(pos)}
    labels = tuple(mon.labels[k] for k in pos)
    perms = tuple(tuple(index[p[k]] for k in pos) for p in mon.perms)
    return TraceMonomial(labels=labels, perms=perms)


def _split(factored: TraceMonomial, left, relocated) -> Factorization:
    """The reducible outcome for ``factored`` split along the cycle-closed
    position set ``left``."""
    left = sorted(left)
    right = [j for j in range(factored.n_boxes) if j not in left]
    return Factorization(
        reducible=True,
        left_positions=tuple(left),
        right_positions=tuple(right),
        left=_restrict(factored, left),
        right=_restrict(factored, right),
        factored=factored,
        relocated=relocated,
        row_split=tuple(
            tuple(tuple(sorted(len(c) for c in cycles if c[0] in side)) for side in (left, right))
            for cycles in map(cycle_decomposition, factored.perms)
        ),
    )


def _cycle_subsets(cycles, labels, ell):
    """Map (size, label multiset) -> first cycle subset realizing it."""
    sigs = {}
    for mask in range(1, (1 << len(cycles)) - 1):
        chosen = [cycles[b] for b in range(len(cycles)) if mask >> b & 1]
        size = sum(len(c) for c in chosen)
        if size == ell:
            continue
        counts = Counter(labels[j] for c in chosen for j in c)
        sig = (size, tuple(sorted(counts.items())))
        sigs.setdefault(sig, chosen)
    return sigs


def factorize(mon: TraceMonomial) -> Factorization:
    """Decide whether the monomial factors into two smaller ones.

    Two routes, tried in order:

    1. If the contraction network is disconnected, split along any
       component boundary.  The product identity then holds for the input
       monomial itself.
    2. Otherwise look for a label-respecting split of every row's cycle
       set: subsets A_i with one common total size and one common label
       multiset across all rows.  If found, the cycles are relocated onto
       aligned position blocks (keeping each box's label fixed) and the
       identity holds for that relocated sibling -- which has the same
       per-row cycle types as the input but, in general, a different value.

    Anything that survives both routes is reported irreducible.  This is a
    decision procedure for the splits it searches, not a proof that no
    other polynomial relation exists.
    """
    ell = mon.n_boxes
    check_size("factorize boxes", ell, MAX_BOXES)
    comp = _component(mon.perms, 0)
    if len(comp) < ell:
        return _split(mon, comp, relocated=False)

    # connected: search for a common (size, label-multiset) split of each
    # row's cycles
    per_row = [_cycle_subsets(cycle_decomposition(p), mon.labels, ell) for p in mon.perms]
    common = set(per_row[0]).intersection(*per_row[1:])
    if not common:
        return Factorization(reducible=False)
    sig = min(common)

    # relocate each row by a label-preserving bijection: the chosen cycles'
    # positions (sorted), then the rest, each take the next unused position
    # with the same label.  All rows' chosen cycles carry the label multiset
    # sig[1], so they land on one left block
    slots = {lab: [j for j, x in enumerate(mon.labels) if x == lab] for lab in set(mon.labels)}
    new_perms = []
    for p, sigs in zip(mon.perms, per_row):
        chosen = sorted(j for c in sigs[sig] for j in c)
        order = chosen + [j for j in range(ell) if j not in chosen]
        free = {lab: iter(js) for lab, js in slots.items()}
        phi = {j: next(free[mon.labels[j]]) for j in order}
        source = sorted(phi, key=phi.get)  # phi^-1
        new_perms.append(tuple(phi[p[j]] for j in source))
    factored = TraceMonomial(labels=mon.labels, perms=tuple(new_perms))
    return _split(factored, [phi[j] for j in chosen], relocated=True)
