"""Permutation tuples, trace-monomial bookkeeping, and monomial enumeration.

A permutation on ell box positions is a tuple of 0-based images: ``p[j]`` is
where position j is sent.  A trace monomial is a label vector P (entries are
0-based indices into an operator tuple) together with one permutation per
subsystem row; on a tuple of simple tensors it evaluates, row by row, to a
product of one trace per cycle, and extends multilinearly to everything else.

Cycle-notation strings (as accepted by the command line tools) are 1-based:
``"(2 3);(1 2)"`` has one parenthesized-cycle list per row, rows separated by
semicolons, omitted positions fixed.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from math import factorial
from numbers import Integral
from operator import index

from .core import as_dims
from .errors import ENUM_BUDGET, MAX_BOXES, MAX_DEGREE, check_size


def identity_perm(size):
    return tuple(range(size))


def invert_perm(p):
    inv = [0] * len(p)
    for j, pj in enumerate(p):
        inv[pj] = j
    return tuple(inv)


def compose(p, q):
    """(p o q)(j) = p[q[j]]."""
    return tuple(p[qj] for qj in q)


def cycle_decomposition(p):
    """All cycles of p (fixed points included), each rotated to start at its
    minimum, listed in order of that minimum."""
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = p[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        cycles.append(tuple(cyc))
    return tuple(cycles)


def perm_from_cycles(cycles, size):
    p = list(range(size))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if not 0 <= a < size:
                raise ValueError(f"cycle entry {a} out of range for size {size}")
            p[a] = b
    return tuple(p)


def format_perm(p):
    """1-based cycle notation, fixed points omitted; '()' for the identity."""
    parts = [
        "(" + " ".join(str(j + 1) for j in cyc) + ")"
        for cyc in cycle_decomposition(p)
        if len(cyc) > 1
    ]
    return "".join(parts) if parts else "()"


def format_perm_tuple(perms):
    return ";".join(format_perm(p) for p in perms)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_perm(text, size):
    """Parse one row of 1-based cycle notation into an image tuple."""
    text = text.strip()
    stripped = _CYCLE_RE.sub("", text)
    if stripped.strip():
        raise ValueError(f"unparseable permutation text: {text!r}")
    cycles = []
    used = set()
    for body in _CYCLE_RE.findall(text):
        entries = body.replace(",", " ").split()
        if not entries:
            continue
        try:
            cyc = tuple(int(e) - 1 for e in entries)
        except ValueError:
            raise ValueError(f"non-integer cycle entry in {text!r}") from None
        for e in cyc:
            if not 0 <= e < size:
                raise ValueError(f"cycle entry {e + 1} out of range 1..{size} in {text!r}")
            if e in used:
                raise ValueError(f"position {e + 1} repeated in {text!r}")
            used.add(e)
        if len(cyc) > 1:
            cycles.append(cyc)
    return perm_from_cycles(cycles, size)


def parse_perm_tuple(text, size):
    return tuple(parse_perm(row, size) for row in text.split(";"))


@dataclass(frozen=True)
class TraceMonomial:
    """A label vector plus one permutation per subsystem row.

    labels : tuple of 0-based integer operator indices, one per box position.
    perms  : tuple of n integer image tuples, each a permutation of range(len(labels)).
    Floats and strings raise TypeError; numpy integers are stored as ints.
    """

    labels: tuple[int, ...]
    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(map(index, self.labels)))
        object.__setattr__(self, "perms", tuple(tuple(map(index, p)) for p in self.perms))
        ell = len(self.labels)
        if ell == 0:
            raise ValueError("monomial needs at least one box")
        if len(self.perms) == 0:
            raise ValueError("monomial needs at least one subsystem row")
        if any(x < 0 for x in self.labels):
            raise ValueError(f"labels must be nonnegative, got {self.labels}")
        for i, p in enumerate(self.perms):
            if sorted(p) != list(range(ell)):
                raise ValueError(f"row {i} is not a permutation of {ell} positions: {p}")

    @property
    def n_boxes(self) -> int:
        return len(self.labels)

    @property
    def n_rows(self) -> int:
        return len(self.perms)

    @property
    def degree(self) -> int:
        return len(self.labels)

    def __str__(self):
        labels = ",".join(str(x + 1) for x in self.labels)
        return f"{labels} {format_perm_tuple(self.perms)}"


def _max_cycle(p):
    return max(len(c) for c in cycle_decomposition(p))


def girth_of(mon: TraceMonomial):
    """Per-row maximum cycle length."""
    return tuple(_max_cycle(p) for p in mon.perms)


def generator_girth_cap(dims):
    """Per-subsystem girth cap sufficient for a generating set of invariants.

    d*(d+1)/2 for d <= 3, d^2 otherwise.
    """
    return tuple(d * (d + 1) // 2 if d <= 3 else d * d for d in as_dims(dims).sizes)


def network_edges(mon: TraceMonomial):
    """Undirected edges {j, sigma_i(j)} over box positions, self-loops dropped."""
    edges = set()
    for p in mon.perms:
        for j, pj in enumerate(p):
            if j != pj:
                edges.add((min(j, pj), max(j, pj)))
    return edges


def _component(perms, start):
    """Positions in the network component of ``start``; the rows generate a
    permutation group, so following images alone sweeps out the component."""
    seen = {start}
    stack = [start]
    while stack:
        j = stack.pop()
        for p in perms:
            if p[j] not in seen:
                seen.add(p[j])
                stack.append(p[j])
    return seen


def is_connected(mon: TraceMonomial) -> bool:
    return len(_component(mon.perms, 0)) == mon.n_boxes


def _relabel(labels, perms, tau, tau_inv):
    new_labels = tuple(labels[tau_inv[j]] for j in range(len(labels)))
    new_perms = tuple(
        tuple(tau[p[tau_inv[j]]] for j in range(len(labels))) for p in perms
    )
    return new_labels, new_perms


def _tau_pairs(ell):
    return [(tau, invert_perm(tau)) for tau in itertools.permutations(range(ell))]


def canonical_form(mon: TraceMonomial) -> TraceMonomial:
    """Lexicographically minimal representative under box relabeling.

    Relabeling by tau sends labels to labels o tau^{-1} and conjugates every
    row by tau; the value of the monomial on any operator tuple is unchanged.
    Brute force over all tau, so limited to MAX_BOXES positions.
    """
    ell = mon.n_boxes
    check_size("canonical form boxes", ell, MAX_BOXES)
    best = min(_relabel(mon.labels, mon.perms, tau, tau_inv) for tau, tau_inv in _tau_pairs(ell))
    return TraceMonomial(labels=best[0], perms=best[1])


def _label_stabilizer(labels):
    """Relabelings that fix a sorted label vector, as (tau, tau_inv) pairs.

    This is the Young subgroup that permutes each block of equal labels
    within itself.
    """
    blocks = [
        tuple(j for j, x in enumerate(labels) if x == lab) for lab in sorted(set(labels))
    ]
    taus = (
        tuple(j for block in choice for j in block)
        for choice in itertools.product(*(itertools.permutations(b) for b in blocks))
    )
    return [(tau, invert_perm(tau)) for tau in taus]


def _orbit_minima(rows, group):
    """Yield the lex-min member of each orbit of ``group`` on row tuples.

    ``rows[i]`` lists the candidates for row i in lex order, closed under
    conjugation; ``group`` acts on a tuple by conjugating every row.  Row 0
    is kept when it is the least member of its conjugacy class under the
    group, and the remaining rows are then reduced under the stabilizer of
    row 0 (its centralizer in the group), and so on down the rows.  The
    minima come out in lex order.
    """
    if len(group) == 1 or not rows:
        yield from itertools.product(*rows)
        return
    seen = set()
    for r in rows[0]:
        # rows[0] is visited in lex order, so the first member of each
        # conjugacy class met is its minimum
        if r in seen:
            continue
        stabilizer = []
        for tau, tau_inv in group:
            c = tuple(tau[r[k]] for k in tau_inv)
            seen.add(c)
            if c == r:
                stabilizer.append((tau, tau_inv))
        for rest in _orbit_minima(rows[1:], stabilizer):
            yield (r, *rest)


def enumerate_monomials(
    n,
    m,
    max_degree,
    girth_cap=None,
    connected_only=False,
    canonical=True,
):
    """List trace monomials for n subsystem rows and m operator labels.

    With ``canonical=True`` (default) one representative per relabeling class
    is returned: the lexicographically least member, which is what
    ``canonical_form`` returns.  With ``canonical=False`` the raw product
    listing is returned (every (P, sigma) pair, no dedup).  ``girth_cap`` is
    an optional per-row cap on the maximum cycle length, each an integer
    >= 1; ``connected_only`` keeps only monomials whose contraction network
    is connected (the rest are products of smaller ones).  Output is sorted by degree, then by
    ``(labels, perms)``, so it is deterministic.

    The canonical listing is generated in that order, without a dedup set
    over the whole degree.  The least label vector of a class is its sorted
    one, so labels range over sorted vectors only.  Row 0 then ranges over
    the least member of each conjugacy class under the relabelings that fix
    the labels, and each later row over the least member of each class under
    what still fixes the rows before it.  Girth is a conjugation invariant,
    so the cap prunes each row's candidates before any of this.

    The budget bounds the raw (P, sigma) count, sum over ell of
    (ell!)^n * m^ell, for both listings.
    """
    if n < 1 or m < 1 or max_degree < 1:
        raise ValueError("n, m, max_degree must all be >= 1")
    check_size("max_degree", max_degree, MAX_DEGREE)
    if girth_cap is not None:
        girth_cap = tuple(girth_cap)
        if len(girth_cap) != n or not all(isinstance(c, Integral) and c >= 1 for c in girth_cap):
            raise ValueError(f"girth_cap must have one integer >= 1 per row, got {girth_cap}")

    work = sum(factorial(ell) ** n * m**ell for ell in range(1, max_degree + 1))
    check_size("enumeration candidates (reduce max_degree, n or m)", work, ENUM_BUDGET)

    out = []
    for ell in range(1, max_degree + 1):
        perms_ell = list(itertools.permutations(range(ell)))
        rows = [
            perms_ell if cap is None else [p for p in perms_ell if _max_cycle(p) <= cap]
            for cap in girth_cap or (None,) * n
        ]
        if canonical:
            blocks = (
                (labels, _label_stabilizer(labels))
                for labels in itertools.combinations_with_replacement(range(m), ell)
            )
        else:
            trivial = [(identity_perm(ell),) * 2]
            blocks = ((labels, trivial) for labels in itertools.product(range(m), repeat=ell))
        for labels, group in blocks:
            for perms in _orbit_minima(rows, group):
                mon = TraceMonomial(labels=labels, perms=perms)
                if connected_only and not is_connected(mon):
                    continue
                out.append(mon)
    return out
