import numpy as np
import pytest

from traceinv import (
    Dims,
    OperatorTuple,
    conjugate_local,
    is_normal,
    kron,
    partial_trace,
    random_density,
    random_local_invertible,
    random_local_unitary,
    to_net_tensor,
)
from traceinv.core import check_tol

from helpers import crandn


class TestDims:
    def test_basic(self):
        d = Dims((2, 3))
        assert d.n == 2
        assert d.total == 6
        assert tuple(d) == (2, 3)

    @pytest.mark.parametrize("sizes", [(), (0,), (2, -1)])
    def test_invalid(self, sizes):
        with pytest.raises(ValueError):
            Dims(sizes)

    @pytest.mark.parametrize("sizes", [(2.7, 2.2), (2.0,), ("2", "3"), "23"])
    def test_non_integer_sizes(self, sizes):
        # no truncation or parsing: (2.7, 2.2) would read as (2, 2)
        with pytest.raises(TypeError):
            Dims(sizes)

    def test_numpy_integer_sizes(self):
        d = Dims((np.int64(2), np.uint8(3)))
        assert d.sizes == (2, 3)
        assert all(type(x) is int for x in d.sizes)


class TestOperatorTuple:
    def test_shape_check(self):
        with pytest.raises(ValueError):
            OperatorTuple(Dims((2, 2)), (np.eye(3),))

    def test_empty(self):
        with pytest.raises(ValueError):
            OperatorTuple(Dims((2,)), ())

    def test_nonfinite(self):
        M = np.eye(2, dtype=complex)
        M[0, 0] = np.nan
        with pytest.raises(ValueError):
            OperatorTuple(Dims((2,)), (M,))
        M[0, 0], M[0, 1] = 1, complex(0, np.inf)
        with pytest.raises(ValueError, match="matrix 0 contains non-finite entries"):
            OperatorTuple(Dims((2,)), (M.T,))

    def test_transposed_matrix(self):
        # a non-contiguous matrix is kept as given, not refused
        M = crandn(np.random.default_rng(86), 2, 2)
        ops = OperatorTuple(Dims((2,)), (M.T,))
        assert np.array_equal(ops.matrices[0], M.T)

    def test_m(self):
        ops = OperatorTuple(Dims((2,)), (np.eye(2), np.zeros((2, 2))))
        assert ops.m == 2

    def test_compares_by_identity(self):
        # equal contents are not equal tuples, and comparing raises nothing
        ops, same = (OperatorTuple(Dims((2,)), (np.eye(2),)) for _ in range(2))
        assert ops == ops and ops != same
        assert {ops, ops, same} == {ops, same}


class TestKron:
    def test_entrywise(self):
        rng = np.random.default_rng(0)
        A, B = crandn(rng, 2, 2), crandn(rng, 3, 3)
        K = kron([A, B])
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    for l in range(3):
                        assert abs(K[i * 3 + k, j * 3 + l] - A[i, j] * B[k, l]) < 1e-12

    def test_single_factor(self):
        A = np.arange(4).reshape(2, 2)
        assert np.array_equal(kron([A]), A)

    def test_associative(self):
        rng = np.random.default_rng(1)
        A, B, C = (crandn(rng, 2, 2) for _ in range(3))
        assert np.allclose(kron([A, B, C]), np.kron(A, np.kron(B, C)))

    def test_empty(self):
        with pytest.raises(ValueError):
            kron([])


class TestNetTensor:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(2)
        dims = Dims((2, 3, 2))
        M = crandn(rng, 12, 12)
        assert np.array_equal(to_net_tensor(M, dims).reshape(M.shape), M)

    def test_block_structure(self):
        # kron factors land on separate axes
        rng = np.random.default_rng(3)
        A, B = crandn(rng, 2, 2), crandn(rng, 3, 3)
        T = to_net_tensor(kron([A, B]), Dims((2, 3)))
        for i in range(2):
            for j in range(2):
                assert np.allclose(T[i, :, j, :], A[i, j] * B)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            to_net_tensor(np.eye(3), Dims((2, 2)))


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(4)
        rho, tau = crandn(rng, 2, 2), crandn(rng, 3, 3)
        out = partial_trace(kron([rho, tau]), Dims((2, 3)), keep={0})
        assert np.allclose(out, rho * np.trace(tau))

    def test_bell_reduction(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        for keep in ({0}, {1}):
            assert np.allclose(partial_trace(rho, Dims((2, 2)), keep), np.eye(2) / 2)

    def test_keep_all(self):
        rng = np.random.default_rng(5)
        M = crandn(rng, 6, 6)
        assert np.allclose(partial_trace(M, Dims((2, 3)), {0, 1}), M)

    def test_trace_preserved(self):
        rng = np.random.default_rng(6)
        M = crandn(rng, 8, 8)
        out = partial_trace(M, Dims((2, 2, 2)), {1})
        assert abs(np.trace(out) - np.trace(M)) < 1e-12

    def test_three_party_entry_formula(self):
        # against the explicit index sum
        rng = np.random.default_rng(7)
        dims = Dims((2, 3, 2))
        M = crandn(rng, 12, 12)
        out = partial_trace(M, dims, {0, 2})
        for a in range(2):
            for c in range(2):
                for ap in range(2):
                    for cp in range(2):
                        expect = sum(
                            M[(a * 3 + b) * 2 + c, (ap * 3 + b) * 2 + cp] for b in range(3)
                        )
                        assert abs(out[a * 2 + c, ap * 2 + cp] - expect) < 1e-12

    def test_bad_keep(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), Dims((2, 2)), {2})
        with pytest.raises(ValueError, match="out of range"):
            partial_trace(np.eye(4), Dims((2, 2)), [-1])

    @pytest.mark.parametrize("keep", [[0.7], [1.0], ["0"]])
    def test_non_integer_keep(self, keep):
        # a float must not be truncated to a subsystem index
        with pytest.raises(TypeError):
            partial_trace(np.eye(4), Dims((2, 2)), keep)

    def test_keep_numpy_integers_and_repeats(self):
        rng = np.random.default_rng(9)
        M = crandn(rng, 6, 6)
        expect = partial_trace(M, Dims((2, 3)), {1})
        assert np.array_equal(partial_trace(M, Dims((2, 3)), [np.int64(1), 1]), expect)

    def test_keep_none(self):
        M = np.diag([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(partial_trace(M, Dims((2, 2)), []), [[10.0]])


class TestCheckTol:
    @pytest.mark.parametrize("tol", [0, 0.0, 1e-3, "1e-3", np.float64(2.5)])
    def test_accepts(self, tol):
        assert check_tol(tol) == float(tol)

    @pytest.mark.parametrize(
        "tol", ["abc", None, [1], float("nan"), float("inf"), -1, pytest.param(10**400, id="1e400")]
    )
    def test_rejects_with_name(self, tol):
        # a value float() cannot convert is named like any other bad value
        with pytest.raises(ValueError, match="^my_tol must be a finite number >= 0, got "):
            check_tol(tol, "my_tol")


class TestConjugateLocal:
    def test_identity_factors(self):
        rng = np.random.default_rng(8)
        M = crandn(rng, 4, 4)
        out = conjugate_local(M, [np.eye(2), np.eye(2)], Dims((2, 2)))
        assert np.allclose(out, M)

    def test_matches_kron_formula(self):
        rng = np.random.default_rng(9)
        dims = Dims((2, 3))
        M = crandn(rng, 6, 6)
        g = [crandn(rng, 2, 2), crandn(rng, 3, 3)]
        G = kron(g)
        assert np.allclose(conjugate_local(M, g, dims), G @ M @ np.linalg.inv(G))

    def test_trace_preserved(self):
        rng = np.random.default_rng(10)
        dims = Dims((2, 2))
        M = crandn(rng, 4, 4)
        g = random_local_invertible(dims, seed=11)
        assert abs(np.trace(conjugate_local(M, g, dims)) - np.trace(M)) < 1e-10

    def test_singular_factor(self):
        with pytest.raises(ValueError):
            conjugate_local(np.eye(4), [np.zeros((2, 2)), np.eye(2)], Dims((2, 2)))

    def test_wrong_factor_shape(self):
        with pytest.raises(ValueError, match=r"factor 1 has shape \(3, 3\), expected \(2, 2\)"):
            conjugate_local(np.eye(4), [np.eye(2), np.eye(3)], Dims((2, 2)))

    def test_wrong_factor_count(self):
        with pytest.raises(ValueError):
            conjugate_local(np.eye(4), [np.eye(4)], Dims((2, 2)))


class TestIsNormal:
    def test_hermitian(self):
        rng = np.random.default_rng(12)
        M = crandn(rng, 3, 3)
        assert is_normal(M + M.conj().T)

    def test_unitary(self):
        (u,) = random_local_unitary(Dims((4,)), seed=13)
        assert is_normal(u)

    def test_nilpotent(self):
        assert not is_normal(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_huge_diagonal(self):
        # M M^H overflows unless M is scaled first
        assert is_normal(np.diag([1e308, 5e307]))
        assert is_normal(np.diag([1.5e308j, -1e308]))

    def test_huge_nilpotent(self):
        assert not is_normal(np.array([[0, 1e300], [0, 0]], dtype=complex))

    def test_zero(self):
        assert is_normal(np.zeros((3, 3)))

    def test_tolerance_scales_with_matrix(self):
        # scaling by a power of two keeps the answer of the unscaled test
        M = np.array([[1, 1e-6], [0, 1]], dtype=complex)
        for tol in (1e-13, 1e-11):
            for k in (0, 10, 500):
                assert is_normal(M * 2.0**k, tol * 4.0**k) == is_normal(M, tol)


class TestRandomLocalUnitary:
    def test_unitarity(self):
        for seed in range(20):
            for u, d in zip(random_local_unitary(Dims((2, 3)), seed=seed), (2, 3)):
                assert np.max(np.abs(u @ u.conj().T - np.eye(d))) < 1e-12

    def test_deterministic(self):
        a = random_local_unitary(Dims((2, 2)), seed=42)
        b = random_local_unitary(Dims((2, 2)), seed=42)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_haar_first_moment(self):
        # |U_00|^2 averages to 1/d; 10^4 samples put the mean well within 0.02
        rng = np.random.default_rng(14)
        acc = 0.0
        for _ in range(10_000):
            (u,) = random_local_unitary(Dims((2,)), seed=rng)
            acc += abs(u[0, 0]) ** 2
        assert abs(acc / 10_000 - 0.5) < 0.02


class TestRandomLocalInvertible:
    def test_conditioning_and_shapes(self):
        g = random_local_invertible(Dims((2, 3, 2)), seed=15)
        assert [x.shape for x in g] == [(2, 2), (3, 3), (2, 2)]
        assert all(np.linalg.cond(x) < 50 for x in g)

    def test_deterministic(self):
        a = random_local_invertible(Dims((4,)), seed=16)
        b = random_local_invertible(Dims((4,)), seed=16)
        assert np.array_equal(a[0], b[0])

    # no condition number is below 1, so the rejection loop would never end
    @pytest.mark.parametrize("max_cond", [1.0, 0.5, float("nan")])
    def test_unreachable_max_cond(self, max_cond):
        with pytest.raises(ValueError, match="max_cond must be a number > 1"):
            random_local_invertible(Dims((2,)), seed=0, max_cond=max_cond)


class TestRandomDensity:
    def test_density_properties(self):
        rho = random_density(Dims((2, 2)), seed=17)
        assert abs(np.trace(rho) - 1) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-12

    @pytest.mark.parametrize("rank", [1, 2, 4])
    def test_rank(self, rank):
        rho = random_density(Dims((2, 2)), rank=rank, seed=18)
        eig = np.linalg.eigvalsh(rho)
        assert np.sum(eig > 1e-9) == rank

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            random_density(Dims((2,)), rank=3, seed=0)
