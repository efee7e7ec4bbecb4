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
einsum would take on it, and an LRU cache of 2**14 networks keeps the
programs.  The cache stores no call that raised, so nothing outside the
envelopes is planned or cached, and a hit skips only checks its key has
already passed.  A program is in register form and a pure function of its
operands, which are its first registers (a plan's are its boxes), each a
stack of T tuples' matrices in box layout (T, *box), so one run evaluates a
monomial on T tuples at once.  Each step writes one more register, holding
what it computed (a ``matmul`` its raw product).  Every step is resolved
when it is planned: a pairwise step is its numpy kernel (``matmul`` or
``multiply``) and, per operand, a reader, the one shared function of the
view (reshape, transpose, reshape, each left out when it would do nothing)
from the layout the operand is stored in to the one the step needs.  So
running it is ``kernel(read_a(a), read_b(b))`` and no more.  A box with a
fixed point is traced by an einsum step of its own, which calls
``np.einsum`` on its sublists.  ``_compile`` merges the programs of many
monomials into one whose operands are the labels' matrices, in which each
distinct step (same kernel, readers, sublists and input registers) appears
once, so an intermediate that several monomials share is computed once,
whatever layout each reads it in; each intermediate is dropped after the
last instruction that reads it.
``_execute`` is the one runner: ``equivalence`` runs one compiled program
per degree of a walk, with both tuples of a comparison stacked, and
``eval_contract`` a monomial's own program with T = 1.  A shared step is the
same call on the same operands, so values do not change.
Agreement of the two engines on random inputs is the main internal
correctness check of the package.
"""

from __future__ import annotations

from cmath import isfinite
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
    if not isfinite(value):
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
    form: registers 0 to ell - 1 hold the boxes, each in box layout (a
    leading batch axis, then ``shape``: its row indices, then its column
    indices, over the ``rows`` of dimension above 1), and step k is an
    instruction (kernel, read_a, a, read_b, b, frees) whose result is
    register ell + k (see ``_execute``): a pairwise step is
    ``kernel(read_a(a), read_b(b))``, with ``np.matmul`` or ``np.multiply``
    as kernel.  ``frees`` names the registers that no later step reads; here
    each register is read once, so it names the inputs.  A step register
    holds what its step computed: a ``matmul`` its (batch, rows, cols)
    product, and the other steps their indices in numpy's order, by
    (dimension, subscript).  A reader is the shared function of one view
    (``_read``), from the layout its operand is stored in to the one the
    step needs; the last step yields the scalar.
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
    shape = _box_shape(sizes)
    inv = [invert_perm(perms[i]) for i in rows]
    subs = [
        tuple(k * ell + inv[k][j] for k in range(n)) + tuple(k * ell + j for k in range(n))
        for j in range(ell)
    ]
    box = np.broadcast_to(0j, shape)
    interleaved = [x for s in subs for x in (box, s)]
    path, _ = np.einsum_path(*interleaved, [], optimize=("greedy", D**4))
    dim = {x: d for s in subs for x, d in zip(s, shape)}
    # (register, index order it is stored in, its shape after the batch axis)
    live = [(j, s, shape) for j, s in enumerate(subs)]
    steps = []
    for step in path[1:]:
        positions = sorted(step, reverse=True)
        ins = [subs.pop(p) for p in positions]
        operands = [live.pop(p) for p in positions]
        out = tuple(sorted(set().union(*ins) & set().union(*subs), key=lambda x: (dim[x], x)))
        subs.append(out)
        if len(ins) != 2:
            steps.append(_einsum(operands, out, dim))
            live.append((ell + len(steps) - 1, out, _dims(out, dim)))
            continue
        kernel, wants, lay, stored = _step(*ins, out, dim)
        reads = []
        for term, (r, order, have), (want, view) in zip(ins, operands, wants):
            if len(set(term)) < len(term):
                # only a box repeats an index: an einsum step traces it first
                steps.append(_einsum([(r, order, have)], want, dim, _renamed))
                r, order, have = ell + len(steps) - 1, want, _dims(want, dim)
            reads += _read(have, order, want, view, dim), r
        steps.append((kernel, *reads, (reads[1], reads[3])))
        live.append((ell + len(steps) - 1, lay, stored))
    return tuple(steps)


def _box_shape(sizes):
    """The shape of a box in box layout: its row indices, then its column
    indices, over the subsystems in ``sizes`` of dimension above 1."""
    return tuple(d for d in sizes if d > 1) * 2


def _dims(indices, dim):
    return tuple(dim[x] for x in indices)


def _renamed(subscripts):
    """Einsum sublists with their indices renamed 0, 1, ... in order of first
    appearance, so boxes that trace alike share one key."""
    names = {}
    return tuple(
        tuple(x if x is ... else names.setdefault(x, len(names)) for x in sub)
        for sub in subscripts
    )


def _step(a, b, out, dim):
    """(kernel, reads, lay, stored) of a pairwise contraction step, as numpy
    2.4's einsum runs it, on operands with indices ``a`` and ``b``: for each
    operand, ``reads`` gives the index order it is read in and the shape it
    is read as; ``lay`` is the order the result is stored in, and
    ``stored`` its shape after the batch axis.

    Two operands with a contracted index meet in one ``matmul``: the left
    operand (the higher position) is laid out as (kept + contracted), the
    right as (contracted + kept), the contracted indices in the order the
    left operand lists them, and the product is stored as (left kept +
    right kept).  Every subscript names one bond, so it occurs twice in the
    network: no index is both shared and kept, and one that repeats within
    an operand (a trace) is neither.  Two operands with nothing to contract
    are multiplied with size-1 axes inserted.
    """
    con = tuple(x for x in a if x in b and x not in out)
    if not con:
        return np.multiply, [
            (tuple(x for x in out if x in t), (-1, *[dim[x] if x in t else 1 for x in out]))
            for t in (a, b)
        ], out, _dims(out, dim)
    a_keep = tuple(x for x in a if x in out)
    b_keep = tuple(x for x in b if x in out)
    con_size = prod(dim[x] for x in con)
    rows, cols = prod(dim[x] for x in a_keep), prod(dim[x] for x in b_keep)
    return np.matmul, [
        (a_keep + con, (-1, rows, con_size)),
        (con + b_keep, (-1, con_size, cols)),
    ], a_keep + b_keep, (rows, cols)


def _einsum(operands, out, dim, rename=tuple):
    """The instruction of an einsum step with the output indices ``out``,
    which reads each of its ``operands`` (register, index order, stored
    shape) in the order it is stored in, its sublists passed through
    ``rename``: (None, read, a, sublist, output sublist, frees) for one
    operand, and for several (None, None, registers, (read, sublist) pairs,
    output sublist, frees)."""
    subscripts = rename([*[(..., *lay) for _, lay, _ in operands], (..., *out)])
    registers = tuple(r for r, _, _ in operands)
    reads = [_read(have, lay, lay, (-1, *_dims(lay, dim)), dim) for _, lay, have in operands]
    if len(operands) == 1:
        return (None, reads[0], registers[0], *subscripts, registers)
    return (None, None, registers, tuple(zip(reads, subscripts)), subscripts[-1], registers)


def _read(have, lay, want, shape, dim):
    """The reader of an operand with the indices ``lay``, stored in that
    order as an array of shape (batch, *have), which views it as the indices
    ``want`` in ``shape``: reshape to the stored index layout, transpose,
    then reshape to ``shape``.  A reshape to the shape the array already
    has is left out, as is the transpose when the orders agree."""
    if lay == want:
        return _view(None, None, None if have == shape[1:] else shape)
    dims = _dims(lay, dim)
    axes = (0, *[lay.index(x) + 1 for x in want])
    return _view(None if have == dims else (-1, *dims), axes,
                 None if _dims(want, dim) == shape[1:] else shape)


def _same(x):
    return x


# As many entries as the plan cache: a view that fell out and is made again
# is a new function, so steps that read through it and through the old one
# are no longer shared, which costs time, not values.
@lru_cache(maxsize=2**14)
def _view(stored, axes, shape):
    """The one reader function of a view: reshape to ``stored``, transpose
    by ``axes``, then reshape to ``shape``, each step left out when None.
    Equal views get the same function, so ``_compile`` shares the steps
    that read alike."""
    if axes is None:
        return _same if shape is None else lambda x: x.reshape(shape)
    if stored is None:
        if shape is None:
            return lambda x: x.transpose(axes)
        return lambda x: x.transpose(axes).reshape(shape)
    if shape is None:
        return lambda x: x.reshape(stored).transpose(axes)
    return lambda x: x.reshape(stored).transpose(axes).reshape(shape)


def _inputs(kernel, read_a, a, read_b, b):
    """The registers an instruction, without its frees, reads."""
    if kernel is not None:
        return a, b
    return (a,) if read_a is not None else a


def _compile(mons, sizes, m):
    """One program for the monomials ``mons`` on ``sizes`` and m labels,
    which computes each shared intermediate once.

    The plans of the monomials are merged into one register program, a tuple
    of segments (mon, code, out), one per monomial in order.  Its operands,
    the labels' matrices in box layout, are registers 0 to m - 1, and box j
    of a monomial reads register ``mon.labels[j]``.  Each distinct step is
    one instruction, the registers from m on, and two steps are the same
    when they have the same kernel, readers, input registers and sublists,
    so boxes of one label that trace alike are traced once.  ``out`` is the
    register of the monomial's last step.  Each instruction's ``frees``
    names the registers that no later instruction or ``out`` reads, so the
    runner drops each after its last reader and only the intermediates a
    later monomial reads stay alive.  Values are those of each monomial's
    own plan: the same steps run on the same operands.
    """
    registers = {}  # instruction without its frees -> register
    segments = []
    for mon in mons:
        local, code = list(mon.labels), []
        for kernel, read_a, a, read_b, b, _ in _plan(mon.perms, sizes):
            if kernel is not None:
                a, b = local[a], local[b]
            else:
                a = local[a] if read_a is not None else tuple(map(local.__getitem__, a))
            # setdefault hashes each key once: it returns ``new`` for a new key
            new = m + len(registers)
            local.append(registers.setdefault((kernel, read_a, a, read_b, b), new))
            if local[-1] == new:
                code.append((kernel, read_a, a, read_b, b))
        segments.append((mon, code, local[-1]))
    # walking back from the end, a register not yet read is read last here
    read = set()
    for _, code, out in reversed(segments):
        read.add(out)
        for k in reversed(range(len(code))):
            inputs = _inputs(*code[k])
            dead = set(inputs) - read
            code[k] = (*code[k], tuple(dead))
            read.update(inputs)
    return tuple((mon, tuple(code), out) for mon, code, out in segments)


def _execute(program, operands):
    """Run a program of ``_compile``'s form on its ``operands``, yielding
    ``(mon, values)`` on T tuples at once as soon as each monomial's last
    step has run.

    Each operand is a (T, *box) stack in box layout (``_boxes``).  An
    instruction (kernel, read_a, a, read_b, b, frees) with a kernel runs
    ``kernel(read_a(registers[a]), read_b(registers[b]))``; without one it
    is an einsum step, in the interleaved form, of one operand (read_b and
    b are its sublists) or, when read_a is None, of several.  ``np.einsum``
    is looked up when a step runs, so a program holds no reference to it.
    Each instruction drops its ``frees`` once it has run, so at most the
    operands and the intermediates a later monomial reads are alive at a
    time.  A monomial's values are checked as one: only when one is not
    finite does ``_finite`` run, to raise for the first.
    """
    registers = list(operands)
    append = registers.append
    for mon, code, out in program:
        for kernel, read_a, a, read_b, b, frees in code:
            if kernel is not None:
                append(kernel(read_a(registers[a]), read_b(registers[b])))
            elif read_a is not None:
                append(np.einsum(read_a(registers[a]), read_b, b))
            else:
                operands = [x for r, (read, sub) in zip(a, read_b) for x in (read(registers[r]), sub)]
                append(np.einsum(*operands, b))
            for i in frees:
                registers[i] = None
        values = tuple(registers[out].reshape(-1).tolist())
        if not all(map(isfinite, values)):
            for value in values:
                _finite(value)
        yield mon, values


def _boxes(matrices, sizes):
    """Each matrix of ``matrices``, (D, D) or a (T, D, D) stack, in box
    layout: (T, *box), with box the ``_box_shape`` of ``sizes``."""
    shape = _box_shape(sizes)
    return [M.reshape(-1, *shape) for M in matrices]


def _run(mon: TraceMonomial, sizes, boxes) -> tuple[complex, ...]:
    """The values of ``mon`` on T tuples at once, ``boxes`` holding box j's
    (T, *box) stack at j (``_boxes``): its plan is a program of one
    segment, run by ``_execute`` with the boxes as operands."""
    [(_, values)] = _execute(((mon, _plan(mon.perms, sizes), -1),), boxes)
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
    sizes = ops.dims.sizes
    (value,) = _run(mon, sizes, _boxes([ops.matrices[x] for x in mon.labels], sizes))
    return value
