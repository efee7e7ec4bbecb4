import warnings

import numpy as np
import pytest

from traceinv import (
    Dims,
    OperatorTuple,
    TraceMonomial,
    UnsupportedSizeError,
    conjugate_local,
    decide_lu_equiv,
    eval_contract,
    fingerprint,
    kron,
    lu_degree_bound,
    random_density,
    random_local_unitary,
    renyi_entropy,
    renyi_monomial,
    slocc_degree_bound,
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


class TestFingerprint:
    def test_maximally_mixed_values(self):
        ops = OperatorTuple(Dims((2, 2)), (np.eye(4, dtype=complex) / 4,))
        fp = fingerprint(ops, max_degree=2)
        assert [m.degree for m, _ in fp.entries] == [1, 2, 2, 2]
        expect = [1.0, 0.5, 0.5, 0.25]
        for (mon, val), e in zip(fp.entries, expect):
            assert abs(val - e) < 1e-12

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

    def test_girth_filter_shrinks(self):
        ops = OperatorTuple(Dims((2,)), (random_density(Dims((2,)), seed=52),))
        narrow = fingerprint(ops, max_degree=4)
        wide = fingerprint(ops, max_degree=4, girth_filter=False)
        assert len(narrow.entries) < len(wide.entries)


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


class TestRenyi:
    def test_bell(self):
        assert abs(renyi_entropy(bell_density(), Dims((2, 2)), {0}, 2) - np.log(2)) < 1e-10

    def test_maximally_mixed_q3(self):
        rho = np.eye(4, dtype=complex) / 4
        assert abs(renyi_entropy(rho, Dims((2, 2)), {0}, 3) - np.log(2)) < 1e-10

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
        with pytest.raises(ValueError):
            renyi_entropy(bell_density(), Dims((2, 2)), {0}, 2.5)

    def test_rejects_bad_subset(self):
        with pytest.raises(ValueError):
            renyi_entropy(bell_density(), Dims((2, 2)), set(), 2)
        with pytest.raises(ValueError):
            renyi_entropy(bell_density(), Dims((2, 2)), {0, 1}, 2)

    def test_rejects_non_density(self):
        with pytest.raises(ValueError):
            renyi_entropy(np.eye(4, dtype=complex), Dims((2, 2)), {0}, 2)  # trace 4
        bad = np.diag([2.0, -1.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            renyi_entropy(bad, Dims((2, 2)), {0}, 2)
