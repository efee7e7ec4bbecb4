import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from traceinv import (
    Dims,
    OperatorTuple,
    TraceMonomial,
    UnsupportedSizeError,
    conjugate_local,
    cycle_decomposition,
    embed_state,
    eval_contract,
    eval_reference,
    factorize,
    parse_monomial,
    partial_trace,
    random_density,
    random_local_invertible,
    random_local_unitary,
)
from traceinv.evaluate import _einsum_step, _multiply_step, _plan

from helpers import EINSUM_BITWISE, bits, crandn, interleaved, is_box_trace, random_mon, random_ops

ENGINES = [eval_reference, eval_contract]


def simple_tensor_value(mon, factors):
    """Product over rows of one trace per cycle; factors[i][k] is the row-i
    part of matrix k."""
    val = 1.0 + 0j
    for i, p in enumerate(mon.perms):
        for cyc in cycle_decomposition(p):
            acc = np.eye(factors[i][0].shape[0], dtype=complex)
            for j in cyc:
                acc = acc @ factors[i][mon.labels[j]]
            val *= np.trace(acc)
    return val


@pytest.mark.parametrize("engine", ENGINES)
class TestSingleEngine:
    def test_trace_of_density(self, engine):
        rho = random_density(Dims((2, 2)), seed=30)
        ops = OperatorTuple(Dims((2, 2)), (rho,))
        mon = TraceMonomial(labels=(0,), perms=((0,), (0,)))
        assert abs(engine(mon, ops) - 1) < 1e-12

    def test_purity(self, engine):
        rho = np.eye(2, dtype=complex) / 2
        ops = OperatorTuple(Dims((2,)), (rho,))
        mon = TraceMonomial(labels=(0, 0), perms=((1, 0),))
        assert abs(engine(mon, ops) - 0.5) < 1e-12

    def test_forward_cycle_orientation(self, engine):
        # a 3-cycle must read Tr(M1 M2 M3) in cycle order, not reversed
        rng = np.random.default_rng(31)
        mats = tuple(crandn(rng, 3, 3) for _ in range(3))
        ops = OperatorTuple(Dims((3,)), mats)
        mon = TraceMonomial(labels=(0, 1, 2), perms=((1, 2, 0),))
        fwd = np.trace(mats[0] @ mats[1] @ mats[2])
        rev = np.trace(mats[0] @ mats[2] @ mats[1])
        assert abs(fwd - rev) > 1e-6  # generic matrices tell the orders apart
        assert abs(engine(mon, ops) - fwd) < 1e-10

    def test_simple_tensor_three_boxes(self, engine):
        rng = np.random.default_rng(32)
        A = [crandn(rng, 2, 2) for _ in range(2)]
        B = [crandn(rng, 2, 2) for _ in range(2)]
        ops = OperatorTuple(Dims((2, 2)), (np.kron(A[0], B[0]), np.kron(A[1], B[1])))
        mon = TraceMonomial(labels=(0, 0, 1), perms=((0, 2, 1), (1, 0, 2)))
        expect = np.trace(A[0]) * np.trace(A[0] @ A[1]) * np.trace(B[0] @ B[0]) * np.trace(B[1])
        got = engine(mon, ops)
        assert abs(got - expect) < 1e-10 * (1 + abs(expect))

    def test_partial_trace_power(self, engine):
        # swap on one row computes the purity of the reduction
        rho = random_density(Dims((2, 2)), rank=2, seed=33)
        ops = OperatorTuple(Dims((2, 2)), (rho,))
        mon = TraceMonomial(labels=(0, 0), perms=((1, 0), (0, 1)))
        red = partial_trace(rho, Dims((2, 2)), keep={0})
        assert abs(engine(mon, ops) - np.trace(red @ red)) < 1e-12

    def test_multilinearity(self, engine):
        rng = np.random.default_rng(34)
        dims = Dims((2,))
        M, N, X = (crandn(rng, 2, 2) for _ in range(3))
        mon = TraceMonomial(labels=(0, 1), perms=((1, 0),))
        v1 = engine(mon, OperatorTuple(dims, (M + 2.5j * N, X)))
        v2 = engine(mon, OperatorTuple(dims, (M, X))) + 2.5j * engine(
            mon, OperatorTuple(dims, (N, X))
        )
        assert abs(v1 - v2) < 1e-10

    def test_label_out_of_range(self, engine):
        ops = OperatorTuple(Dims((2,)), (np.eye(2),))
        mon = TraceMonomial(labels=(0, 1), perms=((0, 1),))
        with pytest.raises(ValueError):
            engine(mon, ops)

    def test_row_count_mismatch(self, engine):
        ops = OperatorTuple(Dims((2, 2)), (np.eye(4),))
        mon = TraceMonomial(labels=(0,), perms=((0,),))
        with pytest.raises(ValueError):
            engine(mon, ops)


class TestEngineAgreement:
    def test_random_cases(self):
        rng = np.random.default_rng(35)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            ell = int(rng.integers(1, 5))
            m = int(rng.integers(1, 3))
            dims = Dims((2,) * n)
            ops = random_ops(rng, dims, m)
            mon = random_mon(rng, n, m, ell)
            a, b = eval_reference(mon, ops), eval_contract(mon, ops)
            assert abs(a - b) <= 1e-10 * (1 + max(abs(a), abs(b)))

    def test_mixed_dims(self):
        rng = np.random.default_rng(36)
        dims = Dims((2, 3))
        ops = random_ops(rng, dims, 2)
        for _ in range(10):
            mon = random_mon(rng, 2, 2, 3)
            a, b = eval_reference(mon, ops), eval_contract(mon, ops)
            assert abs(a - b) <= 1e-10 * (1 + max(abs(a), abs(b)))


class TestInvariance:
    def test_local_unitary(self):
        rng = np.random.default_rng(37)
        dims = Dims((2, 2))
        ops = random_ops(rng, dims, 2)
        mon = random_mon(rng, 2, 2, 4)
        u = random_local_unitary(dims, seed=38)
        conj = OperatorTuple(dims, tuple(conjugate_local(M, u, dims) for M in ops.matrices))
        a, b = eval_contract(mon, ops), eval_contract(mon, conj)
        assert abs(a - b) <= 1e-9 * (1 + abs(a))

    def test_local_invertible(self):
        rng = np.random.default_rng(39)
        dims = Dims((2, 3))
        ops = random_ops(rng, dims, 1)
        mon = TraceMonomial(labels=(0, 0, 0), perms=((1, 2, 0), (2, 0, 1)))
        g = random_local_invertible(dims, seed=40)
        conj = OperatorTuple(dims, tuple(conjugate_local(M, g, dims) for M in ops.matrices))
        a, b = eval_contract(mon, ops), eval_contract(mon, conj)
        assert abs(a - b) <= 1e-7 * (1 + abs(a))

    def test_hermitian_conjugation_symmetry(self):
        # on Hermitian tuples, inverting every row conjugates the value
        rng = np.random.default_rng(41)
        dims = Dims((2, 2))
        mats = tuple(crandn(rng, 4, 4) for _ in range(2))
        ops = OperatorTuple(dims, tuple(M + M.conj().T for M in mats))
        mon = random_mon(rng, 2, 2, 4)
        inv_mon = TraceMonomial(
            labels=mon.labels,
            perms=tuple(tuple(np.argsort(p).tolist()) for p in mon.perms),
        )
        a, b = eval_contract(mon, ops), eval_contract(inv_mon, ops)
        assert abs(np.conj(a) - b) < 1e-10 * (1 + abs(a))


class TestEnvelopes:
    def test_reference_envelope(self):
        dims = Dims((2, 2, 2))
        ops = OperatorTuple(dims, (np.eye(8),))
        mon = TraceMonomial(labels=(0,) * 5, perms=(tuple(range(5)),) * 3)
        with pytest.raises(UnsupportedSizeError):
            eval_reference(mon, ops)

    def test_contract_box_envelope(self):
        ops = OperatorTuple(Dims((2,)), (np.eye(2),))
        mon = TraceMonomial(labels=(0,) * 9, perms=(tuple(range(9)),))
        with pytest.raises(UnsupportedSizeError):
            eval_contract(mon, ops)

    def test_contract_dim_envelope(self):
        dims = Dims((5, 5, 5))
        ops = OperatorTuple(dims, (np.eye(125),))
        mon = TraceMonomial(labels=(0,), perms=((0,), (0,), (0,)))
        with pytest.raises(UnsupportedSizeError):
            eval_contract(mon, ops)

    def test_contract_subscript_envelope(self):
        # ten rows of six boxes would need 60 einsum subscripts, but the
        # nine d = 1 rows are dropped, leaving 6 of einsum's 52
        dims = Dims((1,) * 9 + (2,))
        ops = OperatorTuple(dims, (np.eye(2, dtype=complex),))
        mon = TraceMonomial(labels=(0,) * 6, perms=(tuple(range(6)),) * 10)
        assert eval_reference(mon, ops) == 64
        assert eval_contract(mon, ops) == 64

    def test_contract_subscript_limit_reached(self):
        # 13 rows of four boxes would name 52 subscripts, but the 12 d = 1
        # rows are dropped and 4 remain; the two engines agree.  The
        # subscript boundary itself is probed in test_properties.py
        rng = np.random.default_rng(52)
        dims = Dims((1,) * 12 + (2,))
        ops = random_ops(rng, dims, 2)
        mon = TraceMonomial(labels=(0, 1, 1, 0), perms=((1, 2, 3, 0),) * 12 + ((0, 2, 1, 3),))
        a, b = eval_contract(mon, ops), eval_reference(mon, ops)
        assert abs(a - b) <= 1e-10 * (1 + abs(b))


def plan_path(perms, sizes):
    """The einsum path ``_plan`` compiled, read back from its steps: the
    operand list starts with the boxes' registers, and each step pops the
    positions of its input registers and appends its own, as the path step
    listing those positions in ascending order does.  A box trace stands in
    for the box it reads."""
    ell = len(perms[0])
    live = list(range(ell))
    path = ["einsum_path"]
    steps = _plan(perms, sizes)
    box = {}
    for k, (_, _, inputs, _) in enumerate(steps):
        inputs = [box.get(r, r) for r in inputs]
        if is_box_trace(steps, k):
            box[ell + k] = inputs[0]
            continue
        path.append(tuple(sorted(live.index(r) for r in inputs)))
        live = [r for r in live if r not in inputs] + [ell + k]
    return path


def planned_path(mon, ops):
    """The contraction path ``eval_contract`` runs on these inputs, and its
    FLOPs as numpy reports them for that path on the network above."""
    path = plan_path(mon.perms, ops.dims.sizes)
    _, report = np.einsum_path(*interleaved(mon, ops), optimize=path)
    flops = float(re.search(r"Optimized FLOP count:\s*(\S+)", report).group(1))
    return path[1:], flops


# networks whose greedy path under numpy's default intermediate cap (the
# largest input) ends in a naive contraction of three or more boxes
NAIVE_AT_DEFAULT_CAP = [
    ((2, 3), parse_monomial("1,1,1,1", "(1 2)(3 4);(1 3 2 4)")),
    ((2, 2, 2), parse_monomial("1,1,1,1", "(1 2)(3 4);(1 3)(2 4);(1 4)(2 3)")),
]
J034 = parse_monomial("2,2,2,1", "(1 3 2);(1 4 2);(1 2 3 4);(1 3 2 4);(1 3)(2 4);(1 2)(3 4)")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestOverflow:
    """A non-finite value is a size error: every input entry is finite."""

    def test_square_of_huge_entry(self):
        ops = OperatorTuple(Dims((1,)), (np.array([[1e308]], dtype=complex),))
        mon = TraceMonomial(labels=(0, 0), perms=((1, 0),))
        with pytest.raises(UnsupportedSizeError, match="overflow"):
            eval_contract(mon, ops)

    def test_trace_of_huge_diagonal(self):
        ops = OperatorTuple(Dims((2,)), (np.diag([1e308, 1.5e308]).astype(complex),))
        with pytest.raises(UnsupportedSizeError, match="overflow"):
            eval_contract(TraceMonomial(labels=(0,), perms=((0,),)), ops)

    def test_large_finite_value_returned(self):
        ops = OperatorTuple(Dims((1,)), (np.array([[1e154]], dtype=complex),))
        mon = TraceMonomial(labels=(0, 0), perms=((1, 0),))
        assert eval_contract(mon, ops) == 1e154 * 1e154

    def test_overflow_of_mixed_signs(self):
        # terms of both signs overflow: the value may be inf or nan
        ops = OperatorTuple(Dims((2,)), (np.array([[1e308, 1e308], [-1e308, -1e308]]),))
        with pytest.raises(UnsupportedSizeError, match="overflow"):
            eval_contract(TraceMonomial(labels=(0, 0), perms=((1, 0),)), ops)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_both_engines(self, engine):
        ops = OperatorTuple(Dims((1,)), (np.array([[1e308]], dtype=complex),))
        with pytest.raises(UnsupportedSizeError, match="overflow"):
            engine(TraceMonomial(labels=(0, 0), perms=((1, 0),)), ops)
        ops = OperatorTuple(Dims((2,)), (np.array([[1e308, 1e308], [-1e308, -1e308]]),))
        with pytest.raises(UnsupportedSizeError, match="overflow"):
            engine(TraceMonomial(labels=(0, 0), perms=((1, 0),)), ops)


class TestContractionPlan:
    @pytest.mark.parametrize(
        "sizes, mon", NAIVE_AT_DEFAULT_CAP + [((2,) * 6, J034)], ids=["2x3", "2x2x2", "j034"]
    )
    def test_every_step_pairwise(self, sizes, mon):
        dims = Dims(sizes)
        ops = OperatorTuple(dims, (np.eye(dims.total),) * mon.n_boxes)
        path, _ = planned_path(mon, ops)
        assert all(len(step) <= 2 for step in path), path

    @pytest.mark.parametrize("sizes", [(2,) * 6, (4, 4, 4), (8, 8)], ids=["2^6", "4x4x4", "8x8"])
    def test_planned_flops_at_envelope_corner(self, sizes):
        # eight boxes at D = 64; a naive step here plans up to 2.3e15 FLOPs
        rng = np.random.default_rng(64)
        dims = Dims(sizes)
        ops = OperatorTuple(dims, (np.eye(dims.total),))
        for _ in range(20):
            _, flops = planned_path(random_mon(rng, dims.n, 1, 8), ops)
            assert flops < 1e10

    @pytest.mark.parametrize("sizes, mon", NAIVE_AT_DEFAULT_CAP, ids=["2x3", "2x2x2"])
    def test_values_match_reference(self, sizes, mon):
        rng = np.random.default_rng(65)
        ops = random_ops(rng, Dims(sizes), 1)
        a, b = eval_contract(mon, ops), eval_reference(mon, ops)
        assert abs(a - b) <= 1e-10 * (1 + abs(b))

    def test_j034_matches_naive_contraction(self):
        rng = np.random.default_rng(66)
        states = [crandn(rng, 64) for _ in range(2)]
        ops = OperatorTuple(Dims((2,) * 6), tuple(embed_state(v / np.linalg.norm(v)) for v in states))
        want = np.einsum(*interleaved(J034, ops), optimize=False)
        got = eval_contract(J034, ops)
        assert abs(got - want) <= 1e-12 * abs(want)


# d = 1 rows leave the network; (1, 1) leaves no index at all
PLAN_DIMS = [(2,), (3,), (1, 2), (2, 1, 3), (2, 2), (4, 1, 2), (2, 2, 2), (1, 1)]

def assert_matches_einsum(got, mon, ops):
    """``got`` against a plain ``np.einsum`` call on the independent network,
    planned as ``eval_contract`` plans it."""
    want = complex(np.einsum(*interleaved(mon, ops), optimize=("greedy", ops.dims.total**4)))
    if EINSUM_BITWISE:
        assert bits(got) == bits(want)
    else:
        assert abs(got - want) <= 1e-13 * (1 + abs(want))


class TestPlanCache:
    @pytest.mark.parametrize("sizes", PLAN_DIMS, ids=lambda s: "x".join(map(str, s)))
    def test_bit_identical_on_miss_and_hit(self, sizes):
        rng = np.random.default_rng(sum(sizes) * 7 + len(sizes))
        dims = Dims(sizes)
        for _ in range(12):
            m = int(rng.integers(1, 3))
            mon = random_mon(rng, dims.n, m, int(rng.integers(1, 7)))
            ops = random_ops(rng, dims, m)
            _plan.cache_clear()
            got = eval_contract(mon, ops)
            assert _plan.cache_info().misses == 1
            assert bits(eval_contract(mon, ops)) == bits(got)
            assert _plan.cache_info().hits == 1
            assert_matches_einsum(got, mon, ops)

    @pytest.mark.parametrize("sizes", PLAN_DIMS, ids=lambda s: "x".join(map(str, s)))
    def test_path_matches_real_operands(self, sizes):
        rng = np.random.default_rng(len(sizes) * 11 + sizes[-1])
        dims = Dims(sizes)
        for _ in range(12):
            mon = random_mon(rng, dims.n, 2, int(rng.integers(1, 7)))
            ops = random_ops(rng, dims, 2)
            path, _ = np.einsum_path(*interleaved(mon, ops), optimize=("greedy", dims.total**4))
            assert plan_path(mon.perms, sizes) == path

    @pytest.mark.parametrize("sizes, ell, match", [
        ((2,), 9, "boxes = 9"),
        ((5, 5, 5), 1, "total dimension = 125"),
    ], ids=["boxes", "dim"])
    def test_oversized_network_never_cached(self, sizes, ell, match):
        # the envelope is checked inside the cached planner, and a call that
        # raised is not stored, so the check runs again on the next call
        dims = Dims(sizes)
        ops = OperatorTuple(dims, (np.eye(dims.total),))
        mon = TraceMonomial(labels=(0,) * ell, perms=(tuple(range(ell)),) * dims.n)
        size = _plan.cache_info().currsize
        for _ in range(2):
            with pytest.raises(UnsupportedSizeError, match=match):
                eval_contract(mon, ops)
            assert _plan.cache_info().currsize == size

    def test_key_is_structure_only(self):
        rng = np.random.default_rng(67)
        perms = ((1, 2, 0, 3), (3, 0, 1, 2))
        mon = TraceMonomial(labels=(0, 0, 1, 1), perms=perms)
        relabeled = TraceMonomial(labels=(0, 1, 1, 0), perms=perms)
        _plan.cache_clear()
        eval_contract(mon, random_ops(rng, Dims((2, 2)), 2))
        assert _plan.cache_info()[:2] == (0, 1)
        # other labels and other matrices: one hit, no new entry
        eval_contract(relabeled, random_ops(rng, Dims((2, 2)), 2))
        assert _plan.cache_info()[:2] == (1, 1)
        assert _plan.cache_info().currsize == 1
        # other dims: a new entry
        eval_contract(relabeled, random_ops(rng, Dims((2, 3)), 2))
        assert _plan.cache_info()[:2] == (1, 2)
        assert _plan.cache_info().currsize == 2


def step_runs(mon, sizes):
    """The kind of each step of the einsum path in the program
    ``eval_contract`` runs."""
    steps = _plan(mon.perms, sizes)
    return [run for k, (run, *_) in enumerate(steps) if not is_box_trace(steps, k)]


def traced_operands(mon, sizes):
    """How many operands of pairwise steps are prepared by a trace: each is
    a box, traced by an einsum step of its own."""
    steps = _plan(mon.perms, sizes)
    return sum(is_box_trace(steps, k) for k in range(len(steps)))


class TestStepProgram:
    """Each kind of step against a plain einsum call on the same path."""

    @pytest.mark.parametrize("sizes, labels, perms", [
        ((2, 3), "1,2,1,2", "(1 2);(3 4)"),
        ((2, 2, 2), "1,1,2", "(1 2);();(2 3)"),
        ((3, 2), "1,2,2,1,2", "(1 2 3);(4 5)"),
        ((2, 2), "2,1,1", "();(1 3)"),
    ], ids=["2x3", "2x2x2", "3x2", "2x2-identity-row"])
    def test_fixed_points(self, sizes, labels, perms):
        mon = parse_monomial(labels, perms)
        assert traced_operands(mon, sizes) > 0
        ops = random_ops(np.random.default_rng(71), Dims(sizes), 2)
        assert_matches_einsum(eval_contract(mon, ops), mon, ops)

    @pytest.mark.parametrize("sizes, labels, perms", [
        ((2, 2), "1,2,1,2", "(1 2)(3 4);(1 2)(3 4)"),
        ((3, 2), "1,2", "();()"),
        ((2, 3), "1,1,2,2,1,2", "(1 2)(3 4)(5 6);(1 2)(5 6)"),
        ((2, 2, 2), "1,2,2", "(1 2);(1 2);()"),
    ], ids=["two-pairs", "two-traces", "three-pairs", "pair-and-trace"])
    def test_disconnected(self, sizes, labels, perms):
        mon = parse_monomial(labels, perms)
        assert _multiply_step in step_runs(mon, sizes)
        ops = random_ops(np.random.default_rng(72), Dims(sizes), 2)
        assert_matches_einsum(eval_contract(mon, ops), mon, ops)

    @pytest.mark.parametrize("sizes", PLAN_DIMS, ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize("ell", [1, 2])
    def test_one_and_two_boxes(self, sizes, ell):
        rng = np.random.default_rng(73 + ell)
        dims = Dims(sizes)
        ops = random_ops(rng, dims, 2)
        rows = [(0,)] if ell == 1 else [(0, 1), (1, 0)]
        for perms in itertools.product(rows, repeat=dims.n):
            for labels in itertools.product(range(2), repeat=ell):
                mon = TraceMonomial(labels=labels, perms=perms)
                assert len(step_runs(mon, sizes)) == 1
                assert_matches_einsum(eval_contract(mon, ops), mon, ops)

    @pytest.mark.parametrize("sizes", [(1,), (1, 1)], ids=["1", "1x1"])
    @pytest.mark.parametrize("ell", [1, 2, 3, 5])
    def test_no_index_left(self, sizes, ell):
        # every box is a scalar: three or more meet in one einsum step
        rng = np.random.default_rng(75 + ell)
        dims = Dims(sizes)
        ops = random_ops(rng, dims, 2)
        mon = random_mon(rng, dims.n, 2, ell)
        [run] = step_runs(mon, sizes)
        assert run is (_multiply_step if ell == 2 else _einsum_step)
        assert_matches_einsum(eval_contract(mon, ops), mon, ops)

    @pytest.mark.parametrize("sizes", [(2,) * 6, (8, 8)], ids=["2^6", "8x8"])
    def test_eight_boxes_at_envelope_corner(self, sizes):
        rng = np.random.default_rng(77)
        dims = Dims(sizes)
        ops = random_ops(rng, dims, 2)
        for _ in range(4):
            mon = random_mon(rng, dims.n, 2, 8)
            assert_matches_einsum(eval_contract(mon, ops), mon, ops)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_networks(self, data):
        sizes = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
        ell = data.draw(st.integers(1, 6))
        m = data.draw(st.integers(1, 3))
        row = st.permutations(range(ell)).map(tuple)
        mon = TraceMonomial(
            labels=tuple(data.draw(st.lists(st.integers(0, m - 1), min_size=ell, max_size=ell))),
            perms=tuple(data.draw(st.lists(row, min_size=len(sizes), max_size=len(sizes)))),
        )
        ops = random_ops(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), Dims(sizes), m)
        assert_matches_einsum(eval_contract(mon, ops), mon, ops)


class TestFactorize:
    def test_disconnected_mixed_labels(self):
        mon = TraceMonomial(labels=(0, 1), perms=((0, 1), (0, 1)))
        res = factorize(mon)
        assert res.reducible and not res.relocated
        assert res.factored == mon
        assert str(res.left) == "1 ();()"
        assert str(res.right) == "2 ();()"

    def test_aligned_double_swap(self):
        mon = TraceMonomial(labels=(0,) * 4, perms=((1, 0, 3, 2), (1, 0, 3, 2)))
        res = factorize(mon)
        assert res.reducible and not res.relocated
        assert res.left_positions == (0, 1)
        assert res.right_positions == (2, 3)
        assert res.row_split == (((2,), (2,)), ((2,), (2,)))

    def test_misaligned_double_swap_relocates(self):
        mon = TraceMonomial(labels=(0,) * 4, perms=((1, 0, 3, 2), (2, 3, 0, 1)))
        res = factorize(mon)
        assert res.reducible and res.relocated
        assert res.factored != mon
        assert res.factored.perms == ((1, 0, 3, 2), (1, 0, 3, 2))
        assert res.row_split == (((2,), (2,)), ((2,), (2,)))

    def test_three_one_vs_two_two(self):
        mon = TraceMonomial(labels=(0,) * 4, perms=((1, 2, 0, 3), (1, 0, 3, 2)))
        assert not factorize(mon).reducible

    def test_single_cycle_irreducible(self):
        mon = TraceMonomial(labels=(0,) * 3, perms=((1, 2, 0), (1, 2, 0)))
        assert not factorize(mon).reducible

    def test_single_box(self):
        assert not factorize(TraceMonomial(labels=(0,), perms=((0,),))).reducible

    def test_label_respecting_relocation(self):
        # per-row splits must match in label multiset, not just size
        mon = TraceMonomial(labels=(0, 0, 1, 1), perms=((1, 0, 3, 2), (2, 3, 0, 1)))
        res = factorize(mon)
        # row 0 can split {M1M1 | M2M2}, row 1 only {M1M2 | M1M2}: no match
        assert not res.reducible

    def test_relocation_keeps_labels(self):
        mon = TraceMonomial(labels=(0, 1, 0, 1), perms=((1, 0, 3, 2), (3, 2, 1, 0)))
        res = factorize(mon)
        assert res.reducible and res.relocated
        assert res.factored.labels == mon.labels

    def test_witness_product_identity(self):
        rng = np.random.default_rng(42)
        dims = Dims((2, 2))
        cases = [
            TraceMonomial(labels=(0, 1), perms=((0, 1), (0, 1))),
            TraceMonomial(labels=(0,) * 4, perms=((1, 0, 3, 2), (1, 0, 3, 2))),
            TraceMonomial(labels=(0,) * 4, perms=((1, 0, 3, 2), (2, 3, 0, 1))),
            TraceMonomial(labels=(0, 1, 0, 1), perms=((1, 0, 3, 2), (3, 2, 1, 0))),
        ]
        for mon in cases:
            res = factorize(mon)
            assert res.reducible
            for _ in range(5):
                ops = random_ops(rng, dims, max(mon.labels) + 1)
                whole = eval_contract(res.factored, ops)
                parts = eval_contract(res.left, ops) * eval_contract(res.right, ops)
                assert abs(whole - parts) <= 1e-9 * (1 + abs(whole))

    def test_misaligned_original_differs_from_product(self):
        # the relocated route really is about the sibling: on a generic
        # tuple the original connected monomial is NOT the product
        mon = TraceMonomial(labels=(0,) * 4, perms=((1, 0, 3, 2), (2, 3, 0, 1)))
        res = factorize(mon)
        M = np.zeros((4, 4), dtype=complex)
        M[0, 3] = M[3, 0] = 1
        ops = OperatorTuple(Dims((2, 2)), (M,))
        original = eval_contract(mon, ops)
        product = eval_contract(res.left, ops) * eval_contract(res.right, ops)
        assert abs(original - 2) < 1e-12
        assert abs(product - 4) < 1e-12

    def test_envelope(self):
        with pytest.raises(UnsupportedSizeError):
            factorize(TraceMonomial(labels=(0,) * 9, perms=(tuple(range(9)),)))
