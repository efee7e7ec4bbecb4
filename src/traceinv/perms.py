"""Permutation tuples, trace monomials, their factorization, and enumeration.

A permutation on ell box positions is a tuple of 0-based images: ``p[j]`` is
where position j is sent.  A trace monomial is a label vector P (entries are
0-based indices into an operator tuple) together with one permutation per
subsystem row; on a tuple of simple tensors it evaluates, row by row, to a
product of one trace per cycle, and extends multilinearly to everything else.

Cycle-notation strings (as accepted by the command line tools) are 1-based:
``"(2 3);(1 2)"`` has one parenthesized-cycle list per row, rows separated by
semicolons, omitted positions fixed.  ``str(mon)`` prints 1-based labels and
then the rows, and ``parse_monomial`` reads that text back.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass
from math import factorial
from operator import index

from .errors import ENUM_BUDGET, MAX_BOXES, check_count, check_size


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
    """Image tuple of the product of disjoint 0-based cycles on range(size);
    a position that appears twice raises ValueError."""
    p = list(range(size))
    used = set()
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if not 0 <= a < size:
                raise ValueError(f"cycle entry {a} out of range for size {size}")
            if a in used:
                raise ValueError(f"position {a} appears twice in cycles {cycles}")
            used.add(a)
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
_INT_RE = re.compile(r"[+-]?[0-9]+")


def parse_int(text):
    """The integer written in ``text``: an optional sign and ASCII digits,
    surrounding whitespace ignored.  Unlike ``int``, digit separators
    ("1_0") and non-ASCII digits raise ValueError."""
    if not _INT_RE.fullmatch(text.strip()):
        raise ValueError(f"invalid integer text: {text!r}")
    return int(text)


def parse_perm(text, size):
    """Parse one row of 1-based cycle notation into an image tuple."""
    text = text.strip()
    stripped = _CYCLE_RE.sub("", text)
    if stripped.strip():
        raise ValueError(f"unparseable permutation text: {text!r}")
    cycles = []
    used = set()
    for body in _CYCLE_RE.findall(text):
        try:
            cyc = tuple(parse_int(e) - 1 for e in body.replace(",", " ").split())
        except ValueError:
            raise ValueError(f"non-integer cycle entry in {text!r}") from None
        for e in cyc:
            if not 0 <= e < size:
                raise ValueError(f"cycle entry {e + 1} out of range 1..{size} in {text!r}")
            if e in used:
                raise ValueError(f"position {e + 1} repeated in {text!r}")
            used.add(e)
        cycles.append(cyc)
    return perm_from_cycles(cycles, size)


def parse_perm_tuple(text, size):
    return tuple(parse_perm(row, size) for row in text.split(";"))


def parse_monomial(labels_text, perm_text) -> TraceMonomial:
    """Read back the two parts of ``str(mon)``: 1-based comma-separated
    labels, and one row of 1-based cycle notation per subsystem."""
    try:
        labels = tuple(parse_int(x) - 1 for x in labels_text.split(","))
    except ValueError:
        raise ValueError(f"labels must be comma-separated integers, got {labels_text!r}") from None
    if any(x < 0 for x in labels):
        raise ValueError(f"labels are 1-based, got {labels_text!r}")
    return TraceMonomial(labels=labels, perms=parse_perm_tuple(perm_text, len(labels)))


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
    new = {k: i for i, k in enumerate(pos)}
    labels = tuple(mon.labels[k] for k in pos)
    perms = tuple(tuple(new[p[k]] for k in pos) for p in mon.perms)
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


def _cycle_subsets(cycles, labels):
    """Map (size, label multiset) -> first nonempty proper cycle subset
    realizing it."""
    sigs = {}
    for mask in range(1, (1 << len(cycles)) - 1):
        chosen = [cycles[b] for b in range(len(cycles)) if mask >> b & 1]
        size = sum(len(c) for c in chosen)
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
    per_row = [_cycle_subsets(cycle_decomposition(p), mon.labels) for p in mon.perms]
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
    minima come out in lex order.  A lone candidate is central, since its
    list is closed under conjugation, so every relabeling fixes it: each
    leading run of single-candidate rows (a row capped at girth 1 holds only
    the identity) is taken as it is, with no group scan and no level.
    """
    k = 0
    while k < len(rows) and len(rows[k]) == 1:
        k += 1
    if len(group) == 1 or k == len(rows):
        yield from itertools.product(*rows)
        return
    lead = [row[0] for row in rows[:k]]
    seen = set()
    for r in rows[k]:
        # rows[k] is visited in lex order, so the first member of each
        # conjugacy class met is its minimum
        if r in seen:
            continue
        stabilizer = []
        for tau, tau_inv in group:
            c = tuple(tau[r[k]] for k in tau_inv)
            seen.add(c)
            if c == r:
                stabilizer.append((tau, tau_inv))
        for rest in _orbit_minima(rows[k + 1:], stabilizer):
            yield (*lead, r, *rest)


def _partitions(k, largest):
    """The partitions of k with no part above ``largest``, as non-increasing
    tuples."""
    if k == 0:
        yield ()
    for first in range(min(k, largest), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first, *rest)


def canonical_count(n, m, ell):
    """The number of relabeling classes of degree-ell monomials on n rows and
    m labels, which bounds every canonical listing of that degree.

    By Burnside, the sum over cycle types lambda of ell of
    m^(len lambda) * z_lambda^(n-1), where z_lambda = prod_k k^(a_k) a_k! for
    a_k parts of size k is the order of a permutation's centralizer.  A row
    capped at girth 1 holds only the identity and adds no class, so a caller
    counts the other rows, and at least one: at n = 0 the formula divides by
    z_lambda.
    """
    total = 0
    for shape in _partitions(ell, ell):
        z = 1
        for k in set(shape):
            a = shape.count(k)
            z *= k**a * factorial(a)
        total += m ** len(shape) * z ** (n - 1)
    return total


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
    an optional per-row cap on the maximum cycle length, one entry per row;
    ``connected_only`` keeps only monomials whose contraction network
    is connected (the rest are products of smaller ones).  Output is sorted by degree, then by
    ``(labels, perms)``, so it is deterministic.

    n, m, max_degree and each ``girth_cap`` entry are counts under
    ``errors.check_count``: integers >= 1, where a float raises TypeError.
    max_degree is at most ``MAX_BOXES``, and the budget bounds the raw
    (P, sigma) count, sum over ell of (ell!)^f * m^ell, for both listings,
    where f counts the rows not capped at 1: a row capped at girth 1 holds
    only the identity.
    """
    m, max_degree, caps = _check_listing(n, m, max_degree, girth_cap)
    return list(itertools.chain.from_iterable(
        _generate(m, ell, caps, connected_only, canonical) for ell in range(1, max_degree + 1)
    ))


def _check_listing(n, m, max_degree, girth_cap):
    """``(m, max_degree, caps)`` for the arguments of ``enumerate_monomials``,
    each checked, with one cap (or None) per row in ``caps``."""
    n, m = check_count(n, "n"), check_count(m, "m")
    max_degree = check_count(max_degree, "max_degree")
    check_size("max_degree", max_degree, MAX_BOXES)
    if girth_cap is not None:
        girth_cap = tuple(girth_cap)
        if len(girth_cap) != n:
            raise ValueError(f"girth_cap must have one integer >= 1 per row, got {girth_cap}")
        girth_cap = tuple(check_count(c, "girth_cap entry") for c in girth_cap)

    # a row capped at 1 holds only the identity; over the other ``free`` rows
    # (ell!)^free >= 2^free for ell >= 2, so clipping free at the budget's bit
    # length and m one past the budget keeps whether the count exceeds the
    # budget; the clipped sum is a lower bound on the count that stays small
    free = n if girth_cap is None else sum(c != 1 for c in girth_cap)
    cn, cm = min(free, ENUM_BUDGET.bit_length()), min(m, ENUM_BUDGET + 1)
    work = sum(factorial(ell) ** cn * cm**ell for ell in range(1, max_degree + 1))
    what = "enumeration candidates (reduce max_degree, n or m)"
    check_size(what if (cn, cm) == (free, m) else "lower bound on " + what, work, ENUM_BUDGET)
    return m, max_degree, girth_cap or (None,) * n


def _generate(m, ell, caps, connected_only, canonical):
    """The degree-``ell`` part of the listing of ``enumerate_monomials``, for
    checked arguments.

    The canonical listing is generated in order, without a dedup set over
    the whole degree.  The least label vector of a class is its sorted one,
    so labels range over sorted vectors only.  Row 0 then ranges over the
    least member of each conjugacy class under the relabelings that fix the
    labels, and each later row over the least member of each class under
    what still fixes the rows before it.  Girth is a conjugation invariant,
    so the cap prunes each row's candidates before any of this.
    """
    perms_ell = list(itertools.permutations(range(ell)))
    rows = [
        perms_ell if cap is None else [p for p in perms_ell if _max_cycle(p) <= cap]
        for cap in caps
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
            yield mon
