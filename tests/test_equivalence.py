import warnings

import numpy as np
import pytest

from traceinv import (
    DEFAULT_TOL,
    Dims,
    OperatorTuple,
    TraceMonomial,
    UnsupportedSizeError,
    Verdict,
    conjugate_local,
    decide_lu_equiv,
    enumerate_monomials,
    eval_contract,
    fingerprint,
    generator_girth_cap,
    girth_of,
    kron,
    lu_degree_bound,
    random_density,
    random_local_unitary,
    renyi_entropy,
    renyi_monomial,
    slocc_degree_bound,
)

import traceinv.equivalence
import traceinv.evaluate
from traceinv.equivalence import _invariants, _program
from traceinv.evaluate import _einsum_step, _multiply_step, _plan, _run
from traceinv.perms import canonical_count

from helpers import (
    CONJUGATE_CASES,
    EINSUM_BITWISE,
    bits,
    conjugate_pair,
    count_connectivity_tests,
    crandn,
    interleaved,
    is_box_trace,
    random_ops,
    scaled_pair,
)


def bell_density():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return np.outer(v, v.conj())


class TestDegreeBounds:
    def test_lu_single_qubit(self):
        assert lu_degree_bound(Dims((2,)), m=1) == 48

    def test_lu_trivial_space(self):
        assert lu_degree_bound(Dims((1,)), m=1) == 2

    def test_lu_two_qubits(self):
        # (3/8) * 2 * 1 * 4^4 * 4^4
        assert lu_degree_bound(Dims((2, 2)), m=1) == 49152

    def test_lu_m_scaling(self):
        assert lu_degree_bound(Dims((2,)), m=3) == 48 * 9

    def test_lu_monotone_in_dims(self):
        assert lu_degree_bound(Dims((2, 2))) > lu_degree_bound(Dims((2,)))

    def test_lu_exact_integer(self):
        assert isinstance(lu_degree_bound(Dims((3, 3)), m=2), int)

    @pytest.mark.parametrize(
        "n,expect",
        [(1, 6), (2, 24 * 2**12), (3, 96 * 3**18), (4, 384 * 4**24)],
    )
    def test_slocc_table(self, n, expect):
        assert slocc_degree_bound(n, m=1) == expect

    def test_slocc_m_scaling(self):
        assert slocc_degree_bound(2, m=2) == 4 * slocc_degree_bound(2, m=1)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            lu_degree_bound(Dims((2,)), m=0)
        with pytest.raises(ValueError):
            slocc_degree_bound(0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: slocc_degree_bound(2.5),
            lambda: slocc_degree_bound(2, m=1.5),
            lambda: lu_degree_bound((2, 2), m=1.5),
            lambda: lu_degree_bound((2,), m=2.0),
        ],
        ids=["slocc-n", "slocc-m", "lu-m", "lu-m-whole-float"],
    )
    def test_non_integer_args(self, call):
        # no bound from a truncated or fractional n or m
        with pytest.raises(TypeError):
            call()

    def test_numpy_integer_args(self):
        assert slocc_degree_bound(np.int8(3), m=np.int64(2)) == slocc_degree_bound(3, m=2)
        bound = lu_degree_bound(Dims((2, 2)), m=np.int64(2))
        assert bound == lu_degree_bound(Dims((2, 2)), m=2)
        assert type(bound) is int


class TestFingerprint:
    def test_maximally_mixed_values(self):
        ops = OperatorTuple(Dims((2, 2)), (np.eye(4, dtype=complex) / 4,))
        fp = fingerprint(ops, max_degree=2)
        assert [m.degree for m, _ in fp.entries] == [1, 2, 2, 2]
        expect = [1.0, 0.5, 0.5, 0.25]
        for (mon, val), e in zip(fp.entries, expect):
            assert abs(val - e) < 1e-12

    def test_values_follow_entries(self):
        ops = OperatorTuple(Dims((2, 2)), (np.eye(4, dtype=complex) / 4,))
        fp = fingerprint(ops, max_degree=2)
        assert fp.values == tuple(v for _, v in fp.entries)
        assert np.allclose(fp.values, [1.0, 0.5, 0.5, 0.25], rtol=0, atol=1e-12)

    def test_unitary_invariance(self):
        rho = random_density(Dims((2, 2)), seed=50)
        dims = Dims((2, 2))
        u = random_local_unitary(dims, seed=51)
        sigma = conjugate_local(rho, u, dims)
        fa = fingerprint(OperatorTuple(dims, (rho,)), max_degree=3)
        fb = fingerprint(OperatorTuple(dims, (sigma,)), max_degree=3)
        assert len(fa.entries) == len(fb.entries)
        for (ma, va), (mb, vb) in zip(fa.entries, fb.entries):
            assert ma == mb
            assert abs(va - vb) <= 1e-9 * (1 + abs(va))

    def test_generating_listing(self):
        # the connected canonical monomials within the generating girth cap
        ops = OperatorTuple(Dims((2,)), (random_density(Dims((2,)), seed=52),))
        mons = [mon for mon, _ in fingerprint(ops, max_degree=4).entries]
        assert mons == enumerate_monomials(1, 1, 4, girth_cap=(3,), connected_only=True)

    def test_trivial_subsystems_cost_nothing(self):
        # a subsystem of dimension 1 has girth cap 1, so its row holds only
        # the identity: the walk on (1,1,1,2) lists 3 monomials, as on (2,),
        # and the enumeration budget counts no candidate of those rows
        rho = random_density(Dims((2,)), seed=53)
        padded = fingerprint(OperatorTuple(Dims((1, 1, 1, 2)), (rho,)), max_degree=5)
        plain = fingerprint(OperatorTuple(Dims((2,)), (rho,)), max_degree=5)
        assert len(padded.entries) == 3
        assert list(map(bits, padded.values)) == list(map(bits, plain.values))

    def test_many_trivial_subsystems_take_no_recursion(self):
        # the stabilizer chain takes rows that hold only the identity as they
        # are: 1,200 of them would pass Python's recursion limit as levels
        rho = random_density(Dims((2,)), seed=53)
        padded = fingerprint(OperatorTuple(Dims((1,) * 1200 + (2,)), (rho,)), max_degree=3)
        plain = fingerprint(OperatorTuple(Dims((2,)), (rho,)), max_degree=3)
        assert len(padded.values) == 3
        assert list(map(bits, padded.values)) == list(map(bits, plain.values))


class TestDecide:
    def test_classic_separated_pair(self):
        dims = Dims((2, 2))
        a = OperatorTuple(dims, (np.diag([0.5, 0, 0, 0.5]).astype(complex),))
        b = OperatorTuple(dims, (np.diag([0.5, 0.5, 0, 0]).astype(complex),))
        v = decide_lu_equiv(a, b, max_degree=2)
        assert v.separated
        assert v.normal_certified
        assert v.witness.degree == 2
        assert str(v.witness) == "1,1 (1 2);()"
        va, vb = v.values
        assert abs(va - 0.5) < 1e-10
        assert abs(vb - 1.0) < 1e-10

    def test_separated_stops_at_the_witness(self, monkeypatch):
        dims = Dims((2, 2))
        a = OperatorTuple(dims, (np.diag([0.5, 0, 0, 0.5]).astype(complex),))
        b = OperatorTuple(dims, (np.diag([0.5, 0.5, 0, 0]).astype(complex),))
        built = count_connectivity_tests(monkeypatch)
        _program.cache_clear()  # so the walk builds what it reads
        verdict = decide_lu_equiv(a, b, max_degree=5)
        walked = len(built)
        built.clear()
        listing = enumerate_monomials(2, 1, 5, girth_cap=generator_girth_cap(dims), connected_only=True)
        assert walked < len(built)
        # the verdict of a walk over the whole listing, built first
        for mon in listing:
            va, vb = eval_contract(mon, a), eval_contract(mon, b)
            if abs(va - vb) > DEFAULT_TOL * (1 + max(abs(va), abs(vb))):
                break
        assert verdict == Verdict(
            separated=True, max_degree=5, tol=DEFAULT_TOL, normal_certified=True,
            witness=mon, values=(va, vb),
        )

    def test_same_tuple(self):
        rho = random_density(Dims((2, 2)), seed=53)
        ops = OperatorTuple(Dims((2, 2)), (rho,))
        v = decide_lu_equiv(ops, ops, max_degree=3)
        assert not v.separated
        assert v.max_degree == 3

    def test_conjugated_pair_indistinguishable(self):
        dims = Dims((2, 2))
        rho = random_density(dims, rank=3, seed=54)
        u = random_local_unitary(dims, seed=55)
        sigma = conjugate_local(rho, u, dims)
        v = decide_lu_equiv(
            OperatorTuple(dims, (rho,)), OperatorTuple(dims, (sigma,)), max_degree=4
        )
        assert not v.separated

    def test_non_normal_flag(self):
        # a nilpotent matrix shares every trace invariant with zero even
        # though the two are inequivalent -- exactly why the verdict must
        # flag non-normal input
        dims = Dims((2,))
        a = OperatorTuple(dims, (np.array([[0, 1], [0, 0]], dtype=complex),))
        b = OperatorTuple(dims, (np.zeros((2, 2), dtype=complex),))
        with pytest.warns(UserWarning):
            v = decide_lu_equiv(a, b, max_degree=2)
        assert not v.normal_certified
        assert not v.separated

    def test_huge_normal_pair_certified(self):
        # M M^H of a 1e160 diagonal overflows; the invariants do not
        dims = Dims((2,))
        a = OperatorTuple(dims, (np.diag([1e160, 2e160]).astype(complex),))
        b = OperatorTuple(dims, (np.diag([2e160, 1e160]).astype(complex),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = decide_lu_equiv(a, b, max_degree=1)
        assert v.normal_certified
        assert not v.separated

    @pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::UserWarning")
    def test_overflow_is_not_agreement(self):
        # normal, with different spectra; every invariant overflows to inf,
        # and |inf - inf| > tol is False
        dims = Dims((2,))
        a = OperatorTuple(dims, (np.diag([1e308, 1e308]).astype(complex),))
        b = OperatorTuple(dims, (np.diag([1e308, 1.5e308]).astype(complex),))
        with pytest.raises(UnsupportedSizeError, match="overflow"):
            decide_lu_equiv(a, b, max_degree=3)
        with pytest.raises(UnsupportedSizeError, match="overflow"):
            fingerprint(a, max_degree=3)

    def test_dims_mismatch(self):
        a = OperatorTuple(Dims((2,)), (np.eye(2),))
        b = OperatorTuple(Dims((2, 2)), (np.eye(4),))
        with pytest.raises(ValueError):
            decide_lu_equiv(a, b)

    def test_length_mismatch(self):
        a = OperatorTuple(Dims((2,)), (np.eye(2),))
        b = OperatorTuple(Dims((2,)), (np.eye(2), np.eye(2)))
        with pytest.raises(ValueError):
            decide_lu_equiv(a, b)

    def test_tolerance_scaling(self):
        dims = Dims((2,))
        a = OperatorTuple(dims, (np.diag([0.6, 0.4]).astype(complex),))
        b = OperatorTuple(dims, (np.diag([0.6 + 1e-6, 0.4 - 1e-6]).astype(complex),))
        assert decide_lu_equiv(a, b, max_degree=2, tol=1e-10).separated
        assert not decide_lu_equiv(a, b, max_degree=2, tol=1e-3).separated


    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_bad_tolerance(self, bad):
        dims = Dims((2,))
        a = OperatorTuple(dims, (np.diag([1.0, 0.0]).astype(complex),))
        b = OperatorTuple(dims, (np.eye(2, dtype=complex) / 2,))
        with pytest.raises(ValueError, match="tol"):
            decide_lu_equiv(a, b, max_degree=2, tol=bad)
        with pytest.raises(ValueError, match="tol"):
            decide_lu_equiv(a, a, max_degree=2, tol=bad)

    def test_max_degree_checked_before_any_work(self):
        # a non-normal input would warn first if the scan ran before the check
        ops = OperatorTuple(Dims((2,)), (np.array([[1, 1], [0, 1]], dtype=complex),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="max_degree must be an integer >= 1, got 0"):
                decide_lu_equiv(ops, ops, max_degree=0)
            with pytest.raises(TypeError):
                decide_lu_equiv(ops, ops, max_degree=2.0)

    @pytest.mark.parametrize("dims, max_degree", [((2,), 9), ((2, 2, 2), 6), ((8, 16), 2)])
    def test_size_envelope_checked_before_normality_scan(self, dims, max_degree):
        # past MAX_BOXES, the enumeration budget, then the total dimension:
        # a non-normal input would warn first if the scan ran before the
        # size check
        dims = Dims(dims)
        M = np.eye(dims.total, dtype=complex) + np.eye(dims.total, k=1)
        ops = OperatorTuple(dims, (M,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnsupportedSizeError):
                decide_lu_equiv(ops, ops, max_degree=max_degree)

    def test_max_degree_stored_as_int(self):
        ops = OperatorTuple(Dims((2,)), (np.eye(2) / 2,))
        assert type(fingerprint(ops, np.int64(2)).max_degree) is int
        assert type(decide_lu_equiv(ops, ops, max_degree=np.int64(2)).max_degree) is int


class TestNoFalseIndistinguishable:
    @pytest.mark.parametrize("dims, m, max_degree, degree", CONJUGATE_CASES)
    def test_conjugate_pair_separated(self, dims, m, max_degree, degree):
        a, b = conjugate_pair(dims, m)
        v = decide_lu_equiv(a, b, max_degree=max_degree)
        assert v.separated
        assert v.witness.degree == degree
        va, vb = v.values
        assert abs(va - vb.conjugate()) < 1e-12
        assert not decide_lu_equiv(a, b, max_degree=degree - 1).separated

    @pytest.mark.parametrize("tol", [1e-10, 1e-6])
    def test_tolerance_boundary(self, tol):
        a, below = scaled_pair(tol, 0.5)
        _, above = scaled_pair(tol, 2)
        assert not decide_lu_equiv(a, below, max_degree=4, tol=tol).separated
        v = decide_lu_equiv(a, above, max_degree=4, tol=tol)
        assert v.separated
        assert str(v.witness) == "1 ()"

    def test_non_normal_b_only(self):
        dims = Dims((2,))
        a = OperatorTuple(dims, (np.zeros((2, 2), dtype=complex),))
        b = OperatorTuple(dims, (np.array([[0, 1], [0, 0]], dtype=complex),))
        with pytest.warns(UserWarning, match="not certified normal"):
            v = decide_lu_equiv(a, b, max_degree=2)
        assert not v.normal_certified
        assert not v.separated


# (dims, m, max_degree) of the batched-evaluation audit.  In the m = 2
# cases boxes of both labels trace alike, so the program must trace each
# label's boxes apart
BATCH_CASES = [
    ((2, 2), 1, 5), ((2, 3), 1, 4), ((3, 3), 1, 5), ((2, 2, 2), 1, 3), ((2, 2), 2, 3), ((3, 2), 2, 3),
]
# walks whose products are read back through views that transpose and
# reshape them, and walks whose d = 1 rows leave little or nothing to lay out
LAYOUT_CASES = [((8, 8), 1, 3), ((2,) * 6, 1, 3), ((1, 1), 2, 4), ((2, 1, 3), 2, 3)]


def walk_listing(dims, m, max_degree):
    return enumerate_monomials(
        dims.n, m, max_degree, girth_cap=generator_girth_cap(dims), connected_only=True
    )


def einsum_bits(mon, ops):
    """The bits of a plain ``np.einsum`` call on the independent network,
    along the path ``eval_contract`` plans."""
    return bits(complex(np.einsum(*interleaved(mon, ops), optimize=("greedy", ops.dims.total**4))))


def box_traces(mon, sizes):
    """(args, label) of each box trace in the plan of ``mon``."""
    steps = _plan(mon.perms, sizes)
    return [
        (args, mon.labels[inputs[0]])
        for k, (_, args, inputs, _) in enumerate(steps)
        if is_box_trace(steps, k)
    ]


@pytest.mark.skipif(not EINSUM_BITWISE, reason="bit-identical steps need numpy >= 2.4")
class TestBatchedInvariants:
    def test_bit_identical_to_eval_contract(self):
        # three non-Hermitian tuples run through one program per monomial,
        # each walk twice: cold (no listing or plan cached) and warm.  Each
        # value has the bits eval_contract gives on its own tuple, and those
        # of np.einsum on the same path.  The full listings add the
        # disconnected networks, whose outer products are the multiply steps
        steps = set()
        for dims, m, max_degree in BATCH_CASES + LAYOUT_CASES:
            dims = Dims(dims)
            rng = np.random.default_rng(len(dims.sizes) * 10 + m)
            tuples = [random_ops(rng, dims, m) for _ in range(3)]
            # a layout case walks once, cold, against eval_contract alone,
            # whose np.einsum bits test_evaluate pins on these shapes:
            # (2,) * 6 has 8,051 monomials at degree 3
            audit = (dims.sizes, m, max_degree) in BATCH_CASES
            _program.cache_clear()
            _plan.cache_clear()
            for _ in range(2 if audit else 1):
                for mon, values in _invariants(tuples, max_degree):
                    want = [bits(eval_contract(mon, t)) for t in tuples]
                    assert [bits(v) for v in values] == want
                    assert not audit or want == [einsum_bits(mon, t) for t in tuples]
            if not audit:
                continue
            stacks = [np.stack([t.matrices[k] for t in tuples]) for k in range(m)]
            for mon in enumerate_monomials(dims.n, m, max_degree):
                values = _run(mon, dims.sizes, stacks)
                assert [bits(v) for v in values] == [bits(eval_contract(mon, t)) for t in tuples]
                steps.update(run for run, *_ in _plan(mon.perms, dims.sizes))
                if box_traces(mon, dims.sizes):
                    steps.add("trace")
        assert {_multiply_step, "trace"} <= steps

    @pytest.mark.parametrize("dims, m, max_degree", [c for c in BATCH_CASES if c[1] == 2])
    def test_labels_share_trace_patterns(self, dims, m, max_degree):
        # the walks above meet boxes of both labels that trace alike
        dims = Dims(dims)
        labels = {}
        for mon in walk_listing(dims, m, max_degree):
            for args, label in box_traces(mon, dims.sizes):
                labels.setdefault(args, set()).add(label)
        assert any(len(seen) == m for seen in labels.values())

    def test_each_pattern_traced_once_per_degree(self, monkeypatch):
        # np.einsum runs once per einsum instruction of the walk's programs:
        # once per (label, pattern) of a degree, plus once per distinct
        # einsum step, fewer times than the plans trace boxes
        dims, m, max_degree = Dims((2, 2)), 2, 3
        tuples = [random_ops(np.random.default_rng(81), dims, m) for _ in range(2)]
        traced_boxes = sum(len(box_traces(mon, dims.sizes)) for mon in walk_listing(dims, m, max_degree))
        calls = []
        real = np.einsum
        monkeypatch.setattr(np, "einsum", lambda *args: calls.append(args) or real(*args))
        list(_invariants(tuples, max_degree))
        instructions = [
            run for ell in range(1, max_degree + 1)
            for _, code, _ in _program(m, ell, dims.sizes) for run, *_ in code
        ]
        assert len(calls) == instructions.count(_einsum_step)
        assert len(calls) < traced_boxes

    @pytest.mark.parametrize("sizes", [(2,), (3,), (2, 2), (2, 1, 3)], ids=lambda s: "x".join(map(str, s)))
    def test_einsum_steps_keep_their_traces(self, sizes):
        # a network of one box is one einsum step, which traces its own
        # operand: no box trace is placed before it
        dims = Dims(sizes)
        ops = random_ops(np.random.default_rng(82), dims, 1)
        mon = TraceMonomial(labels=(0,), perms=((0,),) * dims.n)
        [(run, (_, subscripts), *_)] = _plan(mon.perms, sizes)
        assert run is _einsum_step
        assert len(set(subscripts[0])) < len(subscripts[0])
        assert bits(eval_contract(mon, ops)) == einsum_bits(mon, ops)


# the lu-compare benchmark's walks: (dims, m, max_degree)
BENCH_WALKS = [((2, 2), 1, 5), ((2, 3), 1, 5), ((3, 3), 1, 5), ((2, 2, 2), 1, 4), ((2, 2), 2, 4)]


def walk(dims, m, max_degree, seed=83):
    """Read one fingerprint walk to its end."""
    fingerprint(random_ops(np.random.default_rng(seed), Dims(dims), m), max_degree)


class TestWalkCache:
    def test_cached_degrees_are_the_listing(self):
        # one cache for all cases: (2, 2) with m = 1 and m = 2 share their
        # sizes, so only m tells their entries apart
        _program.cache_clear()
        for sizes, m, max_degree in [((2, 2), 1, 4), ((2, 3), 1, 4), ((2, 2, 2), 1, 3),
                                     ((2, 2), 2, 3), ((2,), 1, 6)]:
            dims = Dims(sizes)
            walk(sizes, m, max_degree)
            listing = walk_listing(dims, m, max_degree)
            for ell in range(1, max_degree + 1):
                cached = [mon for mon, *_ in _program(m, ell, sizes)]
                assert cached == [mon for mon in listing if mon.degree == ell]
        assert _program.cache_info().misses == 4 + 4 + 3 + 3 + 6

    def test_walk_caches_no_degree_past_its_witness(self):
        # equal traces, unequal purities: the walk separates at degree 2
        dims = Dims((2, 2))
        a = OperatorTuple(dims, (np.eye(4, dtype=complex) / 4,))
        b = OperatorTuple(dims, (np.diag([0.5, 0.5, 0, 0]).astype(complex),))
        _program.cache_clear()
        verdict = decide_lu_equiv(a, b, max_degree=5)
        assert verdict.witness.degree == 2
        assert _program.cache_info().currsize == 2

    def test_degree_past_the_candidate_gate_is_not_cached(self):
        # degree 2 on one row with m = 128 has 128 + 128**2 relabeling
        # classes, more than a cached degree may have: it is streamed, and
        # its entry is None
        dims, m = Dims((2,)), 128
        assert canonical_count(1, m, 2) > 2**14
        _program.cache_clear()
        fp = fingerprint(OperatorTuple(dims, (np.eye(2, dtype=complex),) * m), 2)
        assert [mon for mon, _ in fp.entries] == walk_listing(dims, m, 2)
        assert _program.cache_info().currsize == 2
        assert _program(m, 2, dims.sizes) is None

    def test_second_walk_reads_degree_six_from_the_cache(self):
        # degree 6 on (2, 2) has 720**2 raw candidates but 901 classes and
        # 66 monomials: the class count lets it into the cache
        assert canonical_count(2, 1, 6) == 901
        _program.cache_clear()
        walk((2, 2), 1, 6)
        assert _program.cache_info()[:4] == (0, 6, 32, 6)
        assert len(_program(1, 6, (2, 2))) == 66
        walk((2, 2), 1, 6)
        assert _program.cache_info()[:4] == (7, 6, 32, 6)

    @pytest.mark.parametrize("sizes, max_degree, match", [
        ((2, 2), 9, "max_degree = 9"),
        ((2, 2, 2), 6, "enumeration candidates"),
    ], ids=["boxes", "budget"])
    def test_checks_run_before_cached_degrees(self, sizes, max_degree, match):
        walk(sizes, 1, 3)
        info = _program.cache_info()
        ops = random_ops(np.random.default_rng(84), Dims(sizes), 1)
        with pytest.raises(UnsupportedSizeError, match=match):
            fingerprint(ops, max_degree)
        assert _program.cache_info() == info

    def test_warm_walk_counts_no_classes(self, monkeypatch):
        # a miss of _program counts its degree's classes once; a hit does not
        calls = []
        real = traceinv.equivalence.canonical_count
        monkeypatch.setattr(
            traceinv.equivalence, "canonical_count", lambda *args: calls.append(args) or real(*args)
        )
        _program.cache_clear()
        for sizes, m, max_degree in BENCH_WALKS:
            walk(sizes, m, max_degree)
        assert len(calls) == 23
        calls.clear()
        for sizes, m, max_degree in BENCH_WALKS:
            walk(sizes, m, max_degree)
        assert calls == []

    def test_bound_holds_the_bench_walks(self):
        _program.cache_clear()
        for _ in range(2):
            for sizes, m, max_degree in BENCH_WALKS:
                walk(sizes, m, max_degree)
        # 23 degrees, each built once and read again on the second round
        assert _program.cache_info()[:4] == (23, 23, 32, 23)


@pytest.fixture
def step_calls(monkeypatch):
    """A list that grows by one per step instruction a program runs.  The
    three step functions are wrapped before any plan is made, so every plan
    and program built in the test holds the wrappers; both caches are
    cleared before and after."""
    calls = []
    for name in ("_matmul_step", "_multiply_step", "_einsum_step"):
        real = getattr(traceinv.evaluate, name)
        monkeypatch.setattr(
            traceinv.evaluate, name, lambda args, *ops, real=real: calls.append(real) or real(args, *ops)
        )
    _plan.cache_clear()
    _program.cache_clear()
    yield calls
    _plan.cache_clear()
    _program.cache_clear()


class TestProgram:
    def test_warm_bench_walk_runs_each_distinct_step_once(self, step_calls):
        # the 688 monomials of the lu-compare walks plan 2,061 steps of
        # their paths and 1,380 box traces, and 1,443 of these are distinct
        # within their degree: 1,276 matmuls and 167 einsum steps
        for sizes, m, max_degree in BENCH_WALKS:
            walk(sizes, m, max_degree)
        plans = [
            _plan(mon.perms, sizes)
            for sizes, m, max_degree in BENCH_WALKS
            for ell in range(1, max_degree + 1)
            for mon, *_ in _program(m, ell, sizes)
        ]
        traces = sum(is_box_trace(steps, k) for steps in plans for k in range(len(steps)))
        assert (len(plans), sum(map(len, plans)) - traces, traces) == (688, 2061, 1380)
        step_calls.clear()
        for sizes, m, max_degree in BENCH_WALKS:
            walk(sizes, m, max_degree)
        assert len(step_calls) == 1443
        assert sum(run.__name__ == "_matmul_step" for run in step_calls) == 1276

    @pytest.mark.parametrize("padded, plain", [((1, 1, 1, 2), (2,)), ((1, 2, 2), (2, 2))],
                             ids=["1,1,1,2", "1,2,2"])
    def test_trivial_rows_do_not_count_at_the_gate(self, padded, plain):
        # a d = 1 subsystem adds a row that holds only the identity, so its
        # walk compiles every degree that its twin without it compiles
        for ell in range(1, 7):
            program = _program(1, ell, padded)
            assert program is not None
            assert len(program) == len(_program(1, ell, plain))

    def test_separated_walk_runs_no_step_past_its_witness(self, step_calls):
        # the witness is the second of three monomials of degree 2
        dims = Dims((2, 2))
        a = OperatorTuple(dims, (np.diag([0.5, 0, 0, 0.5]).astype(complex),))
        b = OperatorTuple(dims, (np.diag([0.5, 0.5, 0, 0]).astype(complex),))
        verdict = decide_lu_equiv(a, b, max_degree=5)
        degree_1, degree_2 = _program(1, 1, dims.sizes), _program(1, 2, dims.sizes)
        mons = [mon for mon, *_ in degree_2]
        assert mons.index(verdict.witness) == 1 and len(mons) == 3
        ran = sum(len(code) for _, code, _ in degree_1 + degree_2[:2])
        assert len(step_calls) == ran
        assert ran < sum(len(code) for _, code, _ in degree_1 + degree_2)

    @pytest.mark.parametrize("sizes, m, max_degree", BENCH_WALKS)
    def test_each_register_is_dropped_after_its_last_read(self, sizes, m, max_degree):
        # each register but a monomial's value is dropped by the instruction
        # that reads it last, across all of the degree's monomials, and by
        # no other, so only what a later monomial reads stays alive
        for ell in range(1, max_degree + 1):
            program = _program(m, ell, sizes)
            code = [ins for _, segment, _ in program for ins in segment]
            last = {r: k for k, (*_, inputs, _) in enumerate(code) for r in inputs}
            dropped = [(r, k) for k, (*_, frees) in enumerate(code) for r in frees]
            outs = {out for *_, out in program}
            assert sorted(dropped) == sorted((r, k) for r, k in last.items() if r not in outs)


def worst_span_residual(sizes, m, max_degree, cap, samples=200):
    """How far the connected monomials above ``cap`` are from the span the
    capped ones generate, as the worst relative least-squares residual.

    Every connected canonical monomial up to max_degree is evaluated on
    ``samples`` random non-Hermitian tuples: trace monomials are local-GL
    invariants, so a relation that holds on these holds as a polynomial
    identity, up to rounding.  At each degree, each monomial above the cap
    is fitted against the capped monomials of that degree and the products
    of lower-degree capped ones (one column per multiset of capped
    monomials whose degrees sum to the degree).
    """
    mons = enumerate_monomials(len(sizes), m, max_degree, connected_only=True)
    kept = [mon for mon in mons if all(g <= c for g, c in zip(girth_of(mon), cap))]
    rng = np.random.default_rng(0)
    D = int(np.prod(sizes))
    stacks = [crandn(rng, samples, D, D) / np.sqrt(2 * D) for _ in range(m)]
    value = {mon: np.array(_run(mon, sizes, stacks)) for mon in mons}

    def products(total, start=0):
        # index tuples i_1 <= i_2 <= ... into ``kept`` whose degrees sum to total
        if total == 0:
            yield ()
            return
        for i in range(start, len(kept)):
            if kept[i].degree <= total:
                for rest in products(total - kept[i].degree, i):
                    yield (i, *rest)

    worst = 0.0
    for ell in range(1, max_degree + 1):
        targets = [value[mon] for mon in mons if mon.degree == ell and mon not in kept]
        if not targets:
            continue
        A = np.column_stack([np.prod([value[kept[i]] for i in f], axis=0) for f in products(ell)])
        assert A.shape[1] < samples // 2  # the fit is overdetermined
        B = np.column_stack(targets)
        X = np.linalg.lstsq(A, B, rcond=None)[0]
        residual = np.linalg.norm(A @ X - B, axis=0) / np.linalg.norm(B, axis=0)
        worst = max(worst, residual.max())
    return worst


class TestGeneratingSet:
    # the walk skips every connected monomial above generator_girth_cap on
    # the claim that each is a polynomial in the ones within it
    @pytest.mark.parametrize("sizes, m, max_degree", [((2,), 1, 6), ((2,), 2, 5), ((2, 2), 1, 5)])
    def test_capped_monomials_span_the_rest(self, sizes, m, max_degree):
        cap = generator_girth_cap(Dims(sizes))
        assert worst_span_residual(sizes, m, max_degree, cap) <= 1e-10

    # a cap one below the rule drops a generator, and the check sees it
    @pytest.mark.parametrize("sizes, m, max_degree, cap", [((2,), 3, 3, (2,)), ((2, 2), 1, 5, (2, 2))])
    def test_cap_too_small_fails(self, sizes, m, max_degree, cap):
        assert worst_span_residual(sizes, m, max_degree, cap) > 0.1


class TestRenyi:
    def test_bell(self):
        assert abs(renyi_entropy(bell_density(), Dims((2, 2)), {0}, 2) - np.log(2)) < 1e-10

    # at q = 2000, Tr rho_A^q = 2**-1999 underflows to 0.0 as a float
    @pytest.mark.parametrize("q", [3, 2000])
    def test_maximally_mixed_q3(self, q):
        rho = np.eye(4, dtype=complex) / 4
        assert abs(renyi_entropy(rho, Dims((2, 2)), {0}, q) - np.log(2)) < 1e-10

    def test_product_state_zero(self):
        rho = kron([np.diag([1.0, 0.0]), np.diag([1.0, 0.0])]).astype(complex)
        assert abs(renyi_entropy(rho, Dims((2, 2)), {1}, 2)) < 1e-10

    def test_monomial_identity(self):
        dims = Dims((2, 2))
        for seed in range(5):
            rho = random_density(dims, rank=2, seed=seed)
            ops = OperatorTuple(dims, (rho,))
            for q in (2, 3):
                for out in ({0}, {1}):
                    mon = renyi_monomial(2, out, q)
                    via_mon = np.log(eval_contract(mon, ops).real) / (1 - q)
                    direct = renyi_entropy(rho, dims, out, q)
                    assert abs(via_mon - direct) < 1e-10

    def test_monomial_shape(self):
        mon = renyi_monomial(3, {1}, 3)
        assert mon.labels == (0, 0, 0)
        assert mon.perms == ((1, 2, 0), (0, 1, 2), (1, 2, 0))

    def test_rejects_bad_tolerance(self):
        # a NaN tolerance would wave a non-Hermitian input through every check
        rho = bell_density()
        rho[0, 1] += 0.5
        with pytest.raises(ValueError):
            renyi_entropy(rho, Dims((2, 2)), {0}, 2, tol=float("nan"))

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            renyi_entropy(bell_density(), Dims((2, 2)), {0}, 1)
        with pytest.raises(TypeError):
            renyi_entropy(bell_density(), Dims((2, 2)), {0}, 2.5)

    @pytest.mark.parametrize("q", [1, 0, -2, 2.5, 2.0, "2", True, None])
    def test_monomial_rejects_bad_q(self, q):
        # q = 1 would give Tr rho, which is no Renyi quantity; a q that is no
        # integer at all is a TypeError, as for every count
        if isinstance(q, int):
            with pytest.raises(ValueError, match="q must be an integer >= 2"):
                renyi_monomial(2, [0], q)
        else:
            with pytest.raises(TypeError):
                renyi_monomial(2, [0], q)

    def test_monomial_numpy_integer_q(self):
        mon = renyi_monomial(2, [0], np.int64(3))
        assert mon == renyi_monomial(2, [0], 3)
        assert mon.n_boxes == 3

    def test_rejects_bad_subset(self):
        with pytest.raises(ValueError):
            renyi_entropy(bell_density(), Dims((2, 2)), set(), 2)
        with pytest.raises(ValueError):
            renyi_entropy(bell_density(), Dims((2, 2)), {0, 1}, 2)

    @pytest.mark.parametrize("out", [[5], [-1], [2]])
    def test_monomial_rejects_out_of_range(self, out):
        # no monomial that silently traces out nothing
        with pytest.raises(ValueError, match="out of range"):
            renyi_monomial(2, out, 2)

    @pytest.mark.parametrize("out", [[0.7], [1.9], ["0"]])
    def test_rejects_non_integer_indices(self, out):
        # a float is neither truncated nor ignored
        with pytest.raises(TypeError):
            renyi_monomial(2, out, 2)
        with pytest.raises(TypeError):
            renyi_entropy(bell_density(), Dims((2, 2)), out, 2)

    def test_numpy_integer_indices(self):
        assert renyi_monomial(3, [np.int64(1)], 3) == renyi_monomial(3, {1}, 3)
        s = renyi_entropy(bell_density(), Dims((2, 2)), [np.int64(0)], 2)
        assert abs(s - np.log(2)) < 1e-10

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=r"expected shape \(4, 4\), got \(2, 2\)"):
            renyi_entropy(np.eye(2, dtype=complex) / 2, Dims((2, 2)), {0}, 2)

    def test_rejects_non_hermitian(self):
        rho = bell_density()
        rho[0, 1] += 0.5
        with pytest.raises(ValueError, match="rho is not Hermitian within tolerance"):
            renyi_entropy(rho, Dims((2, 2)), {0}, 2)

    def test_rejects_non_density(self):
        with pytest.raises(ValueError):
            renyi_entropy(np.eye(4, dtype=complex), Dims((2, 2)), {0}, 2)  # trace 4
        bad = np.diag([2.0, -1.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            renyi_entropy(bad, Dims((2, 2)), {0}, 2)
