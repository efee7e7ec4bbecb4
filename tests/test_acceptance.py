"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np

from traceinv import (
    Dims,
    OperatorTuple,
    TraceMonomial,
    conjugate_local,
    cycle_decomposition,
    decide_lu_equiv,
    enumerate_monomials,
    eval_contract,
    eval_reference,
    eval_slocc,
    factorize,
    kron,
    partial_trace,
    random_density,
    random_local_unitary,
    random_sl2_tuple,
    renyi_entropy,
    renyi_monomial,
    slocc_degree_bound,
)

from helpers import crandn, random_mon


@contextmanager
def criterion(k, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {k} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {k} {name}: PASS")


def rel_close(a, b, tol):
    return abs(a - b) <= tol * (1 + max(abs(a), abs(b)))


def test_01_dual_engine_agreement():
    with criterion(1, "dual-engine agreement"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(200):
            n = int(rng.integers(1, 4))
            ell = int(rng.integers(1, 5))
            m = int(rng.integers(1, 3))
            dims = Dims((2,) * n)
            D = dims.total
            ops = OperatorTuple(dims, tuple(crandn(rng, D, D) for _ in range(m)))
            mon = random_mon(rng, n, m, ell)
            a = eval_reference(mon, ops)
            b = eval_contract(mon, ops)
            assert rel_close(a, b, 1e-10), (mon, a, b)
        assert time.perf_counter() - start < 10


def test_02_local_unitary_invariance():
    with criterion(2, "local-unitary invariance of every monomial"):
        rng = np.random.default_rng(102)
        dims = Dims((2, 2))
        mons = enumerate_monomials(2, 1, 4)  # every canonical class, degree <= 4
        assert len(mons) > 30
        start = time.perf_counter()
        for trial in range(100):
            rho = random_density(dims, rank=int(rng.integers(1, 5)), seed=rng)
            u = random_local_unitary(dims, seed=rng)
            sigma = conjugate_local(rho, u, dims)
            base = OperatorTuple(dims, (rho,))
            conj = OperatorTuple(dims, (sigma,))
            for mon in mons:
                va = eval_contract(mon, base)
                vb = eval_contract(mon, conj)
                assert rel_close(va, vb, 1e-9), (trial, mon, va, vb)
        assert time.perf_counter() - start < 30


def test_03_simple_tensor_factorization():
    with criterion(3, "simple-tensor values factor over rows"):
        rng = np.random.default_rng(103)
        dims = Dims((2, 2))
        for _ in range(50):
            m = int(rng.integers(1, 3))
            ell = int(rng.integers(1, 5))
            A = [crandn(rng, 2, 2) for _ in range(m)]
            B = [crandn(rng, 2, 2) for _ in range(m)]
            ops = OperatorTuple(dims, tuple(np.kron(a, b) for a, b in zip(A, B)))
            mon = random_mon(rng, 2, m, ell)
            expect = 1.0 + 0j
            for factors, p in zip((A, B), mon.perms):
                for cyc in cycle_decomposition(p):
                    acc = np.eye(2, dtype=complex)
                    for j in cyc:
                        acc = acc @ factors[mon.labels[j]]
                    expect *= np.trace(acc)
            got = eval_contract(mon, ops)
            assert rel_close(got, expect, 1e-10), (mon, got, expect)


def test_04_slocc_degree_bounds():
    with criterion(4, "SLOCC degree bounds match the closed form"):
        expected = {1: 6, 2: 24 * 2**12, 3: 96 * 3**18, 4: 384 * 4**24}
        for n, value in expected.items():
            assert slocc_degree_bound(n, m=1) == value


def test_05_slocc_invariants():
    with criterion(5, "SLOCC invariant values and SL invariance"):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        zero = np.zeros(4, dtype=complex)
        zero[0] = 1
        mon1 = TraceMonomial(labels=(0,), perms=((0,), (0,)))
        assert abs(eval_slocc(mon1, [bell]) - 1) <= 1e-12
        assert abs(eval_slocc(mon1, [zero])) <= 1e-12

        rng = np.random.default_rng(105)
        for trial in range(100):
            n = int(rng.integers(2, 4))
            count = int(rng.integers(1, 3))
            ell = int(rng.integers(1, 3))
            states = [crandn(rng, 2**n) for _ in range(count)]
            mon = random_mon(rng, n, count, ell)
            g = random_sl2_tuple(n, seed=rng)
            G = kron(g)
            a = eval_slocc(mon, states)
            b = eval_slocc(mon, [G @ v for v in states])
            assert rel_close(a, b, 1e-8), (trial, mon, a, b)


def test_06_renyi_entropy():
    with criterion(6, "Renyi entropies agree with their trace monomials"):
        dims = Dims((2, 2))
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho_bell = np.outer(bell, bell.conj())
        assert abs(renyi_entropy(rho_bell, dims, {0}, 2) - np.log(2)) <= 1e-10

        for seed in range(20):
            rho = random_density(dims, rank=2, seed=1000 + seed)
            ops = OperatorTuple(dims, (rho,))
            for q in (2, 3):
                for out in ({0}, {1}):
                    keep = [i for i in range(2) if i not in out]
                    red = partial_trace(rho, dims, keep)
                    direct = np.trace(np.linalg.matrix_power(red, q))
                    via_mon = eval_contract(renyi_monomial(2, out, q), ops)
                    assert rel_close(via_mon, direct, 1e-10), (seed, q, out)
                    h = renyi_entropy(rho, dims, out, q)
                    assert abs(h - np.log(via_mon.real) / (1 - q)) <= 1e-10


def test_07_separation_and_conjugate_stability():
    with criterion(7, "separation witness and conjugate indistinguishability"):
        dims = Dims((2, 2))
        a = OperatorTuple(dims, (np.diag([0.5, 0, 0, 0.5]).astype(complex),))
        b = OperatorTuple(dims, (np.diag([0.5, 0.5, 0, 0]).astype(complex),))
        v = decide_lu_equiv(a, b, max_degree=4)
        assert v.separated and v.witness.degree == 2
        va, vb = v.values
        assert abs(va - 0.5) <= 1e-10 and abs(vb - 1.0) <= 1e-10

        rng = np.random.default_rng(107)
        for trial in range(50):
            rho = random_density(dims, rank=int(rng.integers(1, 5)), seed=rng)
            u = random_local_unitary(dims, seed=rng)
            sigma = conjugate_local(rho, u, dims)
            verdict = decide_lu_equiv(
                OperatorTuple(dims, (rho,)), OperatorTuple(dims, (sigma,)), max_degree=4
            )
            assert not verdict.separated, (trial, verdict.witness)


def test_08_factorization_verdicts_and_witnesses():
    with criterion(8, "factorization verdicts and witness identities"):
        aligned = TraceMonomial(labels=(0,) * 4, perms=((1, 0, 3, 2), (1, 0, 3, 2)))
        misaligned = TraceMonomial(labels=(0,) * 4, perms=((1, 0, 3, 2), (2, 3, 0, 1)))
        blocked = TraceMonomial(labels=(0,) * 4, perms=((1, 2, 0, 3), (1, 0, 3, 2)))

        # independent check on the cycle-length multisets
        def splittable(mon):
            row_sums = []
            for p in mon.perms:
                lens = [len(c) for c in cycle_decomposition(p)]
                sums = set()
                for r in range(1, len(lens)):
                    for combo in itertools.combinations(lens, r):
                        sums.add(sum(combo))
                row_sums.append(sums)
            common = set.intersection(*row_sums) - {mon.n_boxes}
            return bool(common)

        for mon, expect in ((aligned, True), (misaligned, True), (blocked, False)):
            res = factorize(mon)
            assert res.reducible == expect
            assert splittable(mon) == expect

        rng = np.random.default_rng(108)
        dims = Dims((2, 2))
        for mon in (aligned, misaligned):
            res = factorize(mon)
            for _ in range(20):
                ops = OperatorTuple(dims, (crandn(rng, 4, 4),))
                whole = eval_contract(res.factored, ops)
                parts = eval_contract(res.left, ops) * eval_contract(res.right, ops)
                assert rel_close(whole, parts, 1e-9), (mon, whole, parts)


def test_09_enumeration_counts():
    with criterion(9, "enumeration counts against an exhaustive generator"):
        assert len(enumerate_monomials(1, 1, 3, connected_only=True)) == 3
        assert len(enumerate_monomials(2, 1, 2, connected_only=True)) == 4

        # independent generator: raw product listing, BFS connectivity,
        # dedup by values on random probe tuples via the reference engine
        def independent_count(n, m, max_degree):
            rng = np.random.default_rng(109)
            dims = Dims((2,) * n)
            D = dims.total
            probes = [
                OperatorTuple(dims, tuple(crandn(rng, D, D) for _ in range(m)))
                for _ in range(3)
            ]
            classes = set()
            for ell in range(1, max_degree + 1):
                for P in itertools.product(range(m), repeat=ell):
                    for sigma in itertools.product(
                        itertools.permutations(range(ell)), repeat=n
                    ):
                        reach = {0}
                        frontier = [0]
                        while frontier:
                            j = frontier.pop()
                            for p in sigma:
                                for nxt in (p[j], p.index(j)):
                                    if nxt not in reach:
                                        reach.add(nxt)
                                        frontier.append(nxt)
                        if len(reach) != ell:
                            continue
                        mon = TraceMonomial(labels=P, perms=sigma)
                        key = tuple(
                            (round(v.real, 6), round(v.imag, 6))
                            for v in (eval_reference(mon, ops) for ops in probes)
                        )
                        classes.add((ell,) + key)
            return len(classes)

        assert independent_count(1, 1, 3) == 3
        assert independent_count(2, 1, 2) == 4
