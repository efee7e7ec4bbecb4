"""Two independent engines for evaluating trace monomials.

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
no limit at all (README, "Envelopes").  A network's envelopes (boxes and
total dimension) and its path depend only on (perms, dims), never on
labels or matrix values, so ``_plan`` owns that key: it checks the
envelopes, plans the path, compiles it into a program of the steps numpy's
einsum would take on it (a ``matmul`` or ``multiply`` per pairwise step, each
operand read through a transpose and reshape), and an LRU cache of 2**14
networks keeps the programs.  The cache stores no call that raised, so
nothing outside the envelopes is planned or cached, and a hit skips only
checks its key has already passed.  A program is in register form and a
pure function of its operands, which are its first registers (a plan's are
its boxes); each step writes one more, holding what the step computed (a
``matmul`` its raw product), which each reader views in the layout it
needs.  Every operand carries a leading batch axis, so one run evaluates a
monomial on a stack of T tuples at once.  A box with a fixed point is
traced by an einsum step of its own.  ``_compile`` merges the programs of
many monomials into one whose operands are the labels' matrices, in which
each distinct step (same step, args and input registers) appears once, so
an intermediate that several monomials share is computed once, whatever
layout each reads it in; each intermediate is dropped after the last
instruction that reads it.
``_execute`` is the one runner: ``equivalence`` runs one compiled program
per degree of a walk, with both tuples of a comparison stacked, and
``eval_contract`` a monomial's own program with T = 1.  A shared step is the
same call on the same operands, so values do not change.
Agreement of the two engines on random inputs is the main internal
correctness check of the package.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from math import prod

import numpy as np

from .core import OperatorTuple
from .errors import (
    CONTRACT_MAX_DIM,
    MAX_BOXES,
    REFERENCE_ENVELOPE,
    UnsupportedSizeError,
    check_size,
)
from .perms import TraceMonomial, invert_perm


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
# every matrix tuple.  A repeated walk reads its degrees from
# ``equivalence._program`` and plans nothing.  The readers are
# ``eval_contract`` and ``slocc.eval_slocc`` (such as the design monomials of
# the slocc-6q benchmark), a cold compile, where an m = 2 degree plans each
# network once for several label vectors, and each monomial of a streamed
# degree.  The bound covers the largest listing the envelopes admit:
# (n=3, m=1, degree 5) has 15,460 distinct networks.
@lru_cache(maxsize=2**14)
def _plan(perms, sizes):
    """Check a network's size envelopes, then return its step program.

    The path depends only on shapes, so it is planned on zero-stride stand-in
    boxes.  The program replays it as numpy's einsum would, in register
    form: registers 0 to ell - 1 hold the boxes, and step k is
    (run, args, inputs, frees), where ``run(args, *operands)`` takes the
    registers named by ``inputs``, its result is register ell + k, and the
    registers named by ``frees`` are read by no later step; here each
    register is read once, so ``frees`` is ``inputs``.  A box register holds
    its label's matrix as given, (D, D) or a (T, D, D) stack, and a step
    register what its step computed: a ``matmul`` its (batch, rows, cols)
    product, and the other steps their indices in numpy's order, by
    (dimension, subscript).  Each step reads an operand through one view from
    the layout that operand is stored in (``_prep``), with a leading batch
    axis before a box's axes, ``shape``: its row indices, then its column
    indices, over the ``rows`` of dimension above 1; the last step yields
    the scalar.
    A box that a ``matmul`` or ``multiply`` step would trace (a fixed point
    of a row) is traced by an einsum step of its own right before it, whose
    sublists are renamed in order of first appearance (``_renamed``).
    """
    ell = len(perms[0])
    rows = [i for i, d in enumerate(sizes) if d > 1]
    n = len(rows)
    D = prod(sizes)
    check_size("contraction engine boxes", ell, MAX_BOXES)
    check_size("contraction engine total dimension", D, CONTRACT_MAX_DIM)
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
    live = list(enumerate(subs))  # (register, index order it is stored in)
    steps = []
    for step in path[1:]:
        positions = sorted(step, reverse=True)
        ins = [subs.pop(p) for p in positions]
        inputs, lays = zip(*[live.pop(p) for p in positions])
        out = tuple(sorted(set().union(*ins) & set().union(*subs), key=lambda x: (dim[x], x)))
        subs.append(out)
        run, args, lay = _step(ins, lays, out, dim)
        if run is not _einsum_step:
            # only a box repeats an index: an einsum step traces it first
            inputs = list(inputs)
            for k, (trace, _) in enumerate(args):
                if trace is not None:
                    steps.append((_einsum_step, trace, (inputs[k],), (inputs[k],)))
                    inputs[k] = ell + len(steps) - 1
            args, inputs = (args[0][1], args[1][1]), tuple(inputs)
        live.append((ell + len(steps), lay))
        steps.append((run, args, inputs, inputs))
    return tuple(steps)


def _renamed(subscripts):
    """Einsum sublists with their indices renamed 0, 1, ... in order of first
    appearance, so boxes that trace alike share one key."""
    names = {}
    return tuple(
        tuple(x if x is ... else names.setdefault(x, len(names)) for x in sub)
        for sub in subscripts
    )


def _step(ins, lays, out, dim):
    """(run, args, lay) of one contraction step, as numpy 2.4's einsum runs
    it, on operands with indices ``ins`` stored in the orders ``lays``;
    ``lay`` is the order its result is stored in.

    Two operands with a contracted index meet in one ``matmul``: the left
    operand (the higher position) is laid out as (kept + contracted), the
    right as (contracted + kept), the contracted indices in the order the
    left operand lists them, and the product is stored as (left kept +
    right kept).  Every subscript names one bond, so it occurs twice in the
    network: no index is both shared and kept, and one that repeats within
    an operand (a trace) is neither.  Two operands with nothing to contract
    are multiplied with size-1 axes inserted.  Any other step is a plain
    einsum, which reads each operand in its stored order.
    """
    if len(ins) != 2:
        return _einsum_step, _einsum(lays, out, dim), out
    a, b = ins
    con = [x for x in a if x in b and x not in out]
    if not con:
        return _multiply_step, tuple(
            _prep(t, lay, [x for x in out if x in t], (-1, *[dim[x] if x in t else 1 for x in out]), dim)
            for t, lay in zip(ins, lays)
        ), out
    a_keep = [x for x in a if x in out]
    b_keep = [x for x in b if x in out]
    con_size = prod(dim[x] for x in con)
    return _matmul_step, (
        _prep(a, lays[0], a_keep + con, (-1, prod(dim[x] for x in a_keep), con_size), dim),
        _prep(b, lays[1], con + b_keep, (-1, con_size, prod(dim[x] for x in b_keep)), dim),
    ), tuple(a_keep + b_keep)


def _einsum(lays, out, dim):
    """(views, sublists) of an einsum step that reads each operand in the
    index order ``lays`` it is stored in; the last sublist is the output's."""
    views = tuple([(None, None, (-1, *[dim[x] for x in lay])) for lay in lays])
    return views, (*[(..., *lay) for lay in lays], (..., *out))


def _prep(term, lay, want, shape, dim):
    """(trace, view) reading an operand with indices ``term``, stored in the
    order ``lay``, as the indices ``want`` in ``shape``.  A view is
    (stored, axes, shape): reshape to the stored layout, transpose by
    ``axes``, then reshape to ``shape``; with ``axes`` None the orders agree
    and one reshape will do.  A repeated index (a fixed point of a row) is
    only a box's, stored as ``term``: an einsum step, whose args ``trace``
    holds, traces it out first, into the order ``want``."""
    want = tuple(want)
    if lay == want:
        return None, (None, None, shape)
    if len(set(term)) < len(term):
        views, subscripts = _einsum([term], want, dim)
        return (views, _renamed(subscripts)), (None, None, shape)
    return None, ((-1, *[dim[x] for x in lay]), (0, *[lay.index(x) + 1 for x in want]), shape)


def _viewed(x, view):
    stored, axes, shape = view
    return (x if axes is None else x.reshape(stored).transpose(axes)).reshape(shape)


def _matmul_step(args, a, b):
    return np.matmul(_viewed(a, args[0]), _viewed(b, args[1]))


def _multiply_step(args, a, b):
    return np.multiply(_viewed(a, args[0]), _viewed(b, args[1]))


def _einsum_step(args, *operands):
    views, subscripts = args
    operands = map(_viewed, operands, views)
    return np.einsum(*[x for pair in zip(operands, subscripts) for x in pair], subscripts[-1])


def _compile(mons, sizes, m):
    """One program for the monomials ``mons`` on ``sizes`` and m labels,
    which computes each shared intermediate once.

    The plans of the monomials are merged into one register program, a tuple
    of segments (mon, code, out), one per monomial in order.  Its operands,
    the labels' matrices, are registers 0 to m - 1, and box j of a monomial
    reads register ``mon.labels[j]``.  Each distinct step is one instruction
    (run, args, inputs, frees), the registers from m on, and two steps are
    the same when they have the same run, args and input registers, so
    boxes of one label that trace alike are traced once.  ``out`` is the
    register of the monomial's last step.  ``frees`` names the registers
    that no later instruction or ``out`` reads, so the runner drops each
    after its last reader and only the intermediates a later monomial reads
    stay alive.  Values are those of each monomial's own plan: the same
    steps run on the same operands.
    """
    registers = {}  # (run, args, inputs) -> register
    shared = {}  # one copy of equal args, which the plans hold apart
    segments = []
    for mon in mons:
        local, code = list(mon.labels), []
        for run, args, inputs, _ in _plan(mon.perms, sizes):
            inputs = tuple(map(local.__getitem__, inputs))
            # setdefault hashes each key once: it returns ``new`` for a new key
            new = m + len(registers)
            local.append(registers.setdefault((run, args, inputs), new))
            if local[-1] == new:
                code.append((run, shared.setdefault(args, args), inputs))
        segments.append((mon, code, local[-1]))
    # walking back from the end, a register not yet read is read last here
    read = set()
    for _, code, out in reversed(segments):
        read.add(out)
        for k in reversed(range(len(code))):
            run, args, inputs = code[k]
            dead = set(inputs) - read
            # a cached entry keeps one tuple fewer when all inputs die here
            code[k] = (run, args, inputs, inputs if len(dead) == len(inputs) else tuple(dead))
            read.update(inputs)
    return tuple((mon, tuple(code), out) for mon, code, out in segments)


def _execute(program, operands):
    """Run a program of ``_compile``'s form on its ``operands``, yielding
    ``(mon, values)`` on T tuples at once as soon as each monomial's last
    step has run, each value checked by ``_finite``.

    Each operand is a (D, D) matrix (T = 1) or a (T, D, D) stack.  Each
    instruction drops its ``frees`` once it has run, so at most the
    operands and the intermediates a later monomial reads are alive at a
    time.
    """
    registers = list(operands)
    for mon, code, out in program:
        for run, args, inputs, frees in code:
            registers.append(run(args, *[registers[i] for i in inputs]))
            for i in frees:
                registers[i] = None
        yield mon, tuple(map(_finite, registers[out].reshape(-1).tolist()))


def _run(mon: TraceMonomial, sizes, matrices) -> tuple[complex, ...]:
    """The values of ``mon`` on T tuples at once: its plan is a program of
    one segment, run by ``_execute`` with the monomial's boxes as operands."""
    [(_, values)] = _execute(((mon, _plan(mon.perms, sizes), -1),), [matrices[x] for x in mon.labels])
    return values


def eval_contract(mon: TraceMonomial, ops: OperatorTuple) -> complex:
    """Tensor-network engine: a contraction of one tensor per box.

    Each box has a row and a column axis per subsystem of dimension d > 1;
    subsystems with d = 1 carry no index and are dropped from the network.
    Bond (i, j) joins the column axis of box j on subsystem row i with the
    row axis of box sigma_i(j); a fixed point of a row becomes a plain trace
    on that box.  Contraction order is numpy's greedy path with each
    intermediate capped at D^4 elements rather than numpy's default cap, the
    largest input (D^2), under which greedy can fall back to one naive
    contraction of the remaining boxes.  The value is one run of the
    monomial's program with a batch of one (``_run``, module docstring).

    Raises ValueError when the rows or labels do not fit the tuple, and
    UnsupportedSizeError past the box or the total-dimension envelope,
    or when the value overflows (see ``_finite``).  The envelope
    is checked once per network, before it is planned and cached (module
    docstring).  On numpy 2.4 values are bit-identical to ``np.einsum`` on
    the same path; older numpy sums its steps in another order and agrees
    to rounding.
    """
    _check_compat(mon, ops.dims, ops.m)
    (value,) = _run(mon, ops.dims.sizes, ops.matrices)
    return value
