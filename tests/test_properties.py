"""Property tests over random sizes inside the envelopes, and the envelope
table's boundaries."""

from math import prod

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import traceinv.evaluate
import traceinv.perms
from traceinv import (
    Dims,
    OperatorTuple,
    TraceMonomial,
    UnsupportedSizeError,
    canonical_form,
    conjugate_local,
    cycle_decomposition,
    enumerate_monomials,
    eval_contract,
    eval_reference,
    eval_slocc,
    factorize,
    kron,
    random_local_unitary,
    random_sl2_tuple,
    render_svg,
)
from traceinv.diagram import PALETTE
from traceinv.errors import (
    CONTRACT_MAX_DIM,
    EINSUM_MAX_SUBSCRIPTS,
    ENUM_BUDGET,
    MAX_BOXES,
    MAX_DEGREE,
    REFERENCE_ENVELOPE,
)


@st.composite
def monomial(draw, n, ell, m):
    """n rows on ell boxes, labels below m."""
    labels = tuple(draw(st.lists(st.integers(0, m - 1), min_size=ell, max_size=ell)))
    row = st.permutations(range(ell)).map(tuple)
    return TraceMonomial(labels=labels, perms=tuple(draw(st.lists(row, min_size=n, max_size=n))))


@st.composite
def monomial_and_ops(draw):
    """A monomial and an operator tuple it fits, with D^ell within the
    reference engine's envelope; matrices have unit Frobenius norm."""
    sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    D = prod(sizes)
    ell = draw(st.integers(1, max(k for k in range(1, 6) if D**k <= REFERENCE_ENVELOPE)))
    m = draw(st.integers(1, 2))
    mon = draw(monomial(len(sizes), ell, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = []
    for _ in range(m):
        M = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        mats.append(M / np.linalg.norm(M))
    return mon, OperatorTuple(Dims(sizes), tuple(mats))


def close(a, b):
    return abs(a - b) <= 1e-10 * (1 + max(abs(a), abs(b)))


@settings(max_examples=30, deadline=None)
@given(monomial_and_ops())
def test_engines_agree(case):
    mon, ops = case
    assert close(eval_contract(mon, ops), eval_reference(mon, ops))


@settings(max_examples=30, deadline=None)
@given(monomial_and_ops())
def test_relabeling_invariance(case):
    mon, ops = case
    assert close(eval_contract(canonical_form(mon), ops), eval_contract(mon, ops))


@settings(max_examples=30, deadline=None)
@given(monomial_and_ops(), st.integers(0, 2**32 - 1))
def test_lu_invariance(case, seed):
    mon, ops = case
    g = random_local_unitary(ops.dims, seed)
    moved = OperatorTuple(ops.dims, tuple(conjugate_local(M, g, ops.dims) for M in ops.matrices))
    assert close(eval_contract(mon, moved), eval_contract(mon, ops))


def _unit(rng, d):
    M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return M / np.linalg.norm(M)


@settings(max_examples=30, deadline=None)
@given(st.tuples(st.integers(1, 3), st.integers(1, 4)).flatmap(lambda s: monomial(*s, 2)),
       st.integers(0, 2**32 - 1))
def test_sl_invariance(mon, seed):
    rng = np.random.default_rng(seed)
    n = mon.n_rows
    states = [v / np.linalg.norm(v) for v in
              (rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n) for _ in range(2))]
    G = kron(random_sl2_tuple(n, rng))
    moved = [G @ v for v in states]
    # |value| <= prod of the boxes' trace norms |v|^2; scale the tolerance by it
    scale = prod(max(1.0, np.linalg.norm(moved[k]) ** 2) for k in mon.labels)
    assert abs(eval_slocc(mon, moved) - eval_slocc(mon, states)) <= 1e-10 * scale


def _cycle_types(mon):
    return [sorted(len(c) for c in cycle_decomposition(p)) for p in mon.perms]


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(1, 3), st.integers(2, 6)).flatmap(lambda s: monomial(*s, 2)),
       st.integers(0, 2**32 - 1))
# a relocation that moves a cycle onto a block with other labels breaks (c)
@example(TraceMonomial(labels=(0, 0, 0, 1), perms=((0, 1, 3, 2), (2, 3, 0, 1))), 0)
def test_factorize_identities(mon, seed):
    res = factorize(mon)
    assume(res.reducible)
    f = res.factored
    # (a) the factored monomial is a sibling: same labels, same cycle types
    assert f.labels == mon.labels
    assert _cycle_types(f) == _cycle_types(mon)
    rng = np.random.default_rng(seed)
    n = mon.n_rows
    dims = Dims((2,) * n)
    # (b) the product identity, on generic operators
    ops = OperatorTuple(dims, (_unit(rng, 2**n), _unit(rng, 2**n)))
    assert close(eval_contract(f, ops), eval_contract(res.left, ops) * eval_contract(res.right, ops))
    # (c) on product operators a monomial's value depends only on each row's
    # cycle label-words, which a label-preserving relocation keeps
    ops = OperatorTuple(dims, tuple(kron([_unit(rng, 2) for _ in range(n)]) for _ in range(2)))
    assert close(eval_contract(f, ops), eval_contract(mon, ops))


def _boxes(ell, rows=1):
    return TraceMonomial(labels=(0,) * ell, perms=(tuple(range(ell)),) * rows)


def _eye(sizes):
    dims = Dims(sizes)
    return OperatorTuple(dims, (np.eye(dims.total, dtype=complex),))


def _enumerate_at_budget(k, monkeypatch):
    # (2, 1, 4) visits 1 + 4 + 36 + 576 raw candidates; no request lands on
    # the real budget exactly, so move the budget to meet the request
    monkeypatch.setattr(traceinv.perms, "ENUM_BUDGET", 617 - k)
    enumerate_monomials(2, 1, 4)


def _reference_at_envelope(k, monkeypatch):
    # 8^4 = 4096 lands on the envelope; no small D^ell lands one past it
    monkeypatch.setattr(traceinv.evaluate, "REFERENCE_ENVELOPE", REFERENCE_ENVELOPE - k)
    eval_reference(_boxes(4, rows=3), _eye((2, 2, 2)))


def _contract_at_subscripts(k, monkeypatch):
    # only rows with d > 1 take subscripts, so one d = 2 row of ell boxes
    # uses ell of them; the box cap is moved out of the way
    monkeypatch.setattr(traceinv.evaluate, "MAX_BOXES", EINSUM_MAX_SUBSCRIPTS + 1)
    try:
        eval_contract(_boxes(EINSUM_MAX_SUBSCRIPTS + k), _eye((2,)))
    finally:
        # the limits are checked when a network is planned, so a plan made
        # under the moved cap must not outlive it
        traceinv.evaluate._plan.cache_clear()


#: One probe per check site: ``probe(k, monkeypatch)`` makes a request whose
#: size is the limit plus k.
ENVELOPE_PROBES = {
    "MAX_DEGREE/enumerate": lambda k, mp: enumerate_monomials(1, 1, MAX_DEGREE + k),
    "ENUM_BUDGET/enumerate": _enumerate_at_budget,
    "MAX_BOXES/canonical_form": lambda k, mp: canonical_form(_boxes(MAX_BOXES + k)),
    "REFERENCE_ENVELOPE/eval_reference": _reference_at_envelope,
    "MAX_BOXES/eval_contract": lambda k, mp: eval_contract(_boxes(MAX_BOXES + k), _eye((2,))),
    "CONTRACT_MAX_DIM/eval_contract": (
        lambda k, mp: eval_contract(_boxes(1), _eye((CONTRACT_MAX_DIM + k,)))
    ),
    "EINSUM_MAX_SUBSCRIPTS/eval_contract": _contract_at_subscripts,
    "MAX_BOXES/factorize": lambda k, mp: factorize(_boxes(MAX_BOXES + k)),
    "MAX_BOXES/render_svg": lambda k, mp: render_svg(_boxes(MAX_BOXES + k)),
    "PALETTE/render_svg": lambda k, mp: render_svg(_boxes(2, rows=len(PALETTE) + k)),
}


@pytest.mark.parametrize("site", sorted(ENVELOPE_PROBES))
def test_envelope_boundary(site, monkeypatch):
    probe = ENVELOPE_PROBES[site]
    probe(0, monkeypatch)
    with pytest.raises(UnsupportedSizeError):
        probe(1, monkeypatch)


def test_envelope_table_values():
    # the documented envelopes, and the old module paths that still read them
    assert (MAX_DEGREE, MAX_BOXES, ENUM_BUDGET) == (6, 8, 4_000_000)
    assert (REFERENCE_ENVELOPE, CONTRACT_MAX_DIM, EINSUM_MAX_SUBSCRIPTS) == (4096, 64, 52)
    assert traceinv.perms.MAX_DEGREE == MAX_DEGREE
    assert traceinv.perms.MAX_BOXES == MAX_BOXES
    assert traceinv.perms.ENUM_BUDGET == ENUM_BUDGET
    assert traceinv.evaluate.REFERENCE_ENVELOPE == REFERENCE_ENVELOPE
    assert traceinv.evaluate.CONTRACT_MAX_DIM == CONTRACT_MAX_DIM
    assert traceinv.evaluate.EINSUM_MAX_SUBSCRIPTS == EINSUM_MAX_SUBSCRIPTS
