"""Two independent engines for evaluating trace monomials, plus factorization.

``eval_reference`` works straight from the defining trace formula: the value
is the trace of a permutation operator (acting row-wise on the ell-fold
product space) composed with the Kronecker product of the chosen matrices.
It sums matrix entries over all global index assignments instead of
materializing that big product, but the index bookkeeping is otherwise a
literal transcription and is kept deliberately simple.

``eval_contract`` treats the monomial as a tensor network: one 2n-index box
per position, with the column index of box j on row i bonded to the row
index of box sigma_i(j).  The network is contracted pairwise with a greedy
intermediate-size heuristic.  Agreement of the two engines on random inputs
is the main internal correctness check of the package.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import prod

import numpy as np

from .core import OperatorTuple, to_net_tensor
from .errors import (
    CONTRACT_MAX_DIM,
    EINSUM_MAX_SUBSCRIPTS,
    MAX_BOXES,
    REFERENCE_ENVELOPE,
    check_size,
)
from .perms import TraceMonomial, _component, cycle_decomposition, invert_perm


def _check_compat(mon: TraceMonomial, ops: OperatorTuple):
    if mon.n_rows != ops.dims.n:
        raise ValueError(
            f"monomial has {mon.n_rows} rows but operators act on {ops.dims.n} subsystems"
        )
    if max(mon.labels) >= ops.m:
        raise ValueError(
            f"monomial labels go up to {max(mon.labels) + 1} but only {ops.m} matrices given"
        )


def eval_reference(mon: TraceMonomial, ops: OperatorTuple) -> complex:
    """Brute-force engine: sum over all global index assignments.

    For each box j pick a flat row index y_j; the column index of box j is
    obtained by routing each subsystem component through that row's
    permutation (component i of the column of box j equals component i of
    the row of box sigma_i(j)).  The value is the sum over all assignments
    of the product of the selected matrix entries.

    Cost is O(D^ell * ell), so inputs are capped at D^ell <= 4096.
    """
    _check_compat(mon, ops)
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
    return complex(term.sum())


def eval_contract(mon: TraceMonomial, ops: OperatorTuple) -> complex:
    """Tensor-network engine: einsum over one 2n-index tensor per box.

    Bond (i, j) joins the column axis of box j on subsystem row i with the
    row axis of box sigma_i(j); a fixed point of a row becomes a plain trace
    on that box.  Contraction order is chosen greedily to keep intermediate
    tensors small.
    """
    _check_compat(mon, ops)
    dims = ops.dims
    ell = mon.n_boxes
    check_size("contraction engine boxes", ell, MAX_BOXES)
    check_size("contraction engine total dimension", dims.total, CONTRACT_MAX_DIM)
    check_size("einsum subscripts (n * ell)", dims.n * ell, EINSUM_MAX_SUBSCRIPTS)
    inv = [invert_perm(p) for p in mon.perms]
    operands = []
    for j in range(ell):
        t = to_net_tensor(ops.matrices[mon.labels[j]], dims)
        subs = [i * ell + inv[i][j] for i in range(dims.n)] + [
            i * ell + j for i in range(dims.n)
        ]
        operands += [t, subs]
    return complex(np.einsum(*operands, [], optimize="greedy"))


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


def _components(mon: TraceMonomial):
    """Sorted position lists of the network components, by least position."""
    comps, seen = [], set()
    for start in range(mon.n_boxes):
        if start not in seen:
            comp = _component(mon.perms, start)
            seen |= comp
            comps.append(sorted(comp))
    return comps


def _row_lengths(mon, positions):
    out = []
    for p in mon.perms:
        lens = [len(c) for c in cycle_decomposition(p) if c[0] in positions]
        out.append(tuple(sorted(lens)))
    return out


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
    if ell == 1:
        return Factorization(reducible=False)

    comps = _components(mon)
    if len(comps) > 1:
        left = comps[0]
        right = sorted(j for grp in comps[1:] for j in grp)
        return Factorization(
            reducible=True,
            left_positions=tuple(left),
            right_positions=tuple(right),
            left=_restrict(mon, left),
            right=_restrict(mon, right),
            factored=mon,
            relocated=False,
            row_split=tuple(
                (a, b)
                for a, b in zip(_row_lengths(mon, set(left)), _row_lengths(mon, set(right)))
            ),
        )

    # connected: search for a common (size, label-multiset) split of each
    # row's cycles
    per_row = [
        _cycle_subsets(cycle_decomposition(p), mon.labels, ell) for p in mon.perms
    ]
    common = set(per_row[0])
    for sigs in per_row[1:]:
        common &= set(sigs)
    if not common:
        return Factorization(reducible=False)
    sig = min(common)

    # relocate: left block takes, per label value, the first positions
    # carrying that label; each row maps its chosen cycles onto the block
    # label-by-label so box labels stay put
    need = dict(sig[1])
    left_pos, right_pos = [], []
    taken = Counter()
    for j, lab in enumerate(mon.labels):
        if taken[lab] < need.get(lab, 0):
            left_pos.append(j)
            taken[lab] += 1
        else:
            right_pos.append(j)

    def slots_by_label(positions):
        by = {}
        for j in positions:
            by.setdefault(mon.labels[j], []).append(j)
        return by

    left_slots = slots_by_label(left_pos)
    right_slots = slots_by_label(right_pos)

    new_perms = []
    for p, sigs in zip(mon.perms, per_row):
        chosen = sigs[sig]
        in_left = {j for c in chosen for j in c}
        phi = {}
        fill = {lab: list(slots) for lab, slots in left_slots.items()}
        for j in sorted(in_left):
            phi[j] = fill[mon.labels[j]].pop(0)
        fill = {lab: list(slots) for lab, slots in right_slots.items()}
        for j in range(ell):
            if j not in in_left:
                phi[j] = fill[mon.labels[j]].pop(0)
        q = [0] * ell
        for j in range(ell):
            q[phi[j]] = phi[p[j]]
        new_perms.append(tuple(q))

    factored = TraceMonomial(labels=mon.labels, perms=tuple(new_perms))
    return Factorization(
        reducible=True,
        left_positions=tuple(left_pos),
        right_positions=tuple(right_pos),
        left=_restrict(factored, left_pos),
        right=_restrict(factored, right_pos),
        factored=factored,
        relocated=True,
        row_split=tuple(
            (a, b)
            for a, b in zip(
                _row_lengths(factored, set(left_pos)), _row_lengths(factored, set(right_pos))
            )
        ),
    )
