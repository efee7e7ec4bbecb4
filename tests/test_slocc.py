import itertools

import numpy as np
import pytest

from traceinv import (
    DUALITY,
    Dims,
    OperatorTuple,
    TraceMonomial,
    UnsupportedSizeError,
    duality_form,
    embed_state,
    eval_contract,
    eval_slocc,
    kron,
    random_sl2_tuple,
    save_pure_state,
)
from traceinv import slocc
from traceinv.cli import format_value, main

from helpers import crandn


def bell():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return v


def ghz():
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1 / np.sqrt(2)
    return v


def w_state():
    v = np.zeros(8, dtype=complex)
    v[1] = v[2] = v[4] = 1 / np.sqrt(3)
    return v


def structured_states(n):
    """GHZ, W, real, purely imaginary and random complex n-qubit vectors."""
    rng = np.random.default_rng(90 + n)
    D = 2**n
    g = np.zeros(D, dtype=complex)
    g[0] = g[-1] = 1 / np.sqrt(2)
    w = np.zeros(D, dtype=complex)
    w[[2**k for k in range(n)]] = 1 / np.sqrt(n)
    real = rng.standard_normal(D)
    return {"ghz": g, "w": w, "real": real, "imag": 1j * rng.standard_normal(D),
            "complex": crandn(rng, D)}


class TestEmbedding:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_defining_formula(self, n):
        S = duality_form(n)
        for name, v in structured_states(n).items():
            E = embed_state(v)
            assert E.shape == (2**n, 2**n)
            assert np.array_equal(E, np.outer(v, v) @ S.T), name

    def test_duality_relation(self):
        # g^T T g = det(g) T
        rng = np.random.default_rng(60)
        g = crandn(rng, 2, 2)
        assert np.allclose(g.T @ DUALITY @ g, np.linalg.det(g) * DUALITY)

    def test_rank_at_most_one(self):
        rng = np.random.default_rng(61)
        v = crandn(rng, 8)
        s = np.linalg.svd(embed_state(v), compute_uv=False)
        assert np.sum(s > 1e-10 * s[0]) == 1

    def test_trace_is_two_qubit_determinant(self):
        # for n=2 the self-pairing is twice the determinant of the
        # amplitude matrix
        rng = np.random.default_rng(62)
        v = crandn(rng, 4)
        C = v.reshape(2, 2)
        assert abs(np.trace(embed_state(v)) - 2 * np.linalg.det(C)) < 1e-12

    def test_trace_vanishes_odd_qubits(self):
        rng = np.random.default_rng(63)
        for n in (1, 3):
            v = crandn(rng, 2**n)
            assert abs(np.trace(embed_state(v))) < 1e-12

    def test_equivariance(self):
        # embed((g1 x g2) v) = (g1 x g2) embed(v) (g1 x g2)^{-1} for
        # determinant-one factors
        rng = np.random.default_rng(64)
        v = crandn(rng, 4)
        g = random_sl2_tuple(2, seed=65)
        G = kron(g)
        lhs = embed_state(G @ v)
        rhs = G @ embed_state(v) @ np.linalg.inv(G)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_bad_length(self):
        with pytest.raises(ValueError):
            embed_state(np.ones(3))
        with pytest.raises(ValueError):
            embed_state(np.ones(1))

    def test_duality_form_shape(self):
        S = duality_form(3)
        assert S.shape == (8, 8)
        assert np.allclose(S, kron([DUALITY, DUALITY, DUALITY]))

    def test_duality_form_needs_a_qubit(self):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            duality_form(0)


class TestEvalSlocc:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_is_a_size_error(self):
        # every embedded entry is finite (about 1e200), but the degree-2
        # value is not: inf would agree with any other overflow
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1e100
        mon = TraceMonomial(labels=(0, 0), perms=((1, 0), (1, 0)))
        assert np.isfinite(embed_state(v)).all()
        with pytest.raises(UnsupportedSizeError, match="overflow"):
            eval_slocc(mon, [v])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_embedding_overflow_is_a_size_error(self):
        # finite amplitudes whose products overflow: valid input, too large
        v = np.full(4, 1e160, dtype=complex)
        with pytest.raises(UnsupportedSizeError, match="overflow"):
            embed_state(v)
        with pytest.raises(UnsupportedSizeError, match="overflow"):
            eval_slocc(TraceMonomial(labels=(0,), perms=((0,), (0,))), [v])

    def test_non_finite_amplitudes_are_malformed(self, monkeypatch):
        calls = count_embeddings(monkeypatch)
        v = np.array([1, np.inf, 0, 0], dtype=complex)
        with pytest.raises(ValueError, match="state 0 has non-finite amplitudes"):
            eval_slocc(TraceMonomial(labels=(0,), perms=((0,), (0,))), [v])
        assert calls == []

    def test_bell_unit_value(self):
        mon = TraceMonomial(labels=(0,), perms=((0,), (0,)))
        assert abs(eval_slocc(mon, [bell()]) - 1) < 1e-12

    def test_product_state_zero(self):
        mon = TraceMonomial(labels=(0,), perms=((0,), (0,)))
        v = np.zeros(4, dtype=complex)
        v[0] = 1
        assert abs(eval_slocc(mon, [v])) < 1e-12

    def test_ghz_degree_two(self):
        mon = TraceMonomial(labels=(0, 0), perms=((0, 1), (0, 1), (1, 0)))
        assert abs(eval_slocc(mon, [ghz()]) - 0.5) < 1e-12

    def test_w_vanishes_through_degree_two(self):
        vw = w_state()
        for perms in itertools.product([(0, 1), (1, 0)], repeat=3):
            mon = TraceMonomial(labels=(0, 0), perms=perms)
            assert abs(eval_slocc(mon, [vw])) < 1e-12
        mon1 = TraceMonomial(labels=(0,), perms=((0,), (0,), (0,)))
        assert abs(eval_slocc(mon1, [vw])) < 1e-12

    def test_sl_invariance(self):
        rng = np.random.default_rng(66)
        for trial in range(10):
            v = crandn(rng, 4)
            g = random_sl2_tuple(2, seed=100 + trial)
            G = kron(g)
            mon = TraceMonomial(labels=(0, 0), perms=((1, 0), (0, 1)))
            a = eval_slocc(mon, [v])
            b = eval_slocc(mon, [G @ v])
            assert abs(a - b) <= 1e-8 * (1 + abs(a))

    def test_amplitude_homogeneity(self):
        # each box is quadratic in the amplitudes of its state
        rng = np.random.default_rng(67)
        v = crandn(rng, 4)
        mon = TraceMonomial(labels=(0, 0), perms=((1, 0), (1, 0)))
        lam = 1.3 - 0.4j
        a = eval_slocc(mon, [lam * v])
        b = lam**4 * eval_slocc(mon, [v])
        assert abs(a - b) <= 1e-10 * (1 + abs(b))

    def test_phase_sensitivity(self):
        # global phases scale the value: these are SL invariants, not
        # unitary ones
        mon = TraceMonomial(labels=(0,), perms=((0,), (0,)))
        v = bell()
        a = eval_slocc(mon, [v])
        b = eval_slocc(mon, [np.exp(0.7j) * v])
        assert abs(a - b) > 1e-3

    def test_multi_state_labels(self):
        rng = np.random.default_rng(68)
        u, v = crandn(rng, 4), crandn(rng, 4)
        mon = TraceMonomial(labels=(0, 1), perms=((1, 0), (1, 0)))
        val = eval_slocc(mon, [u, v])
        # swapping operands transposes nothing: same pairing both ways
        val2 = eval_slocc(mon, [v, u])
        assert abs(val - val2) < 1e-10 * (1 + abs(val))

    def test_tensor_and_list_states(self):
        # qubit counts are read before embed_state converts each state
        v = crandn(np.random.default_rng(69), 8)
        mon = TraceMonomial(labels=(0, 0), perms=((1, 0), (0, 1), (1, 0)))
        value = eval_slocc(mon, [v])
        assert eval_slocc(mon, [v.reshape(2, 2, 2)]) == value
        assert eval_slocc(mon, [list(v)]) == value
        assert eval_slocc(mon, (u for u in [v])) == value
        with pytest.raises(ValueError, match="state 1 has 2 qubits"):
            eval_slocc(mon, [v, list(v[:4])])

    def test_qubit_count_mismatch(self):
        mon = TraceMonomial(labels=(0,), perms=((0,), (0,)))
        with pytest.raises(ValueError):
            eval_slocc(mon, [np.ones(8)])

    def test_empty_states(self):
        mon = TraceMonomial(labels=(0,), perms=((0,), (0,)))
        with pytest.raises(ValueError):
            eval_slocc(mon, [])


def count_embeddings(monkeypatch):
    """Record each call of ``embed_state`` made through ``eval_slocc``."""
    calls = []
    real = slocc.embed_state
    monkeypatch.setattr(slocc, "embed_state", lambda v: calls.append(np.size(v)) or real(v))
    return calls


class TestChecksBeforeEmbedding:
    """Every input error is raised before any state is embedded, in the
    order qubit count, labels, size."""

    def test_too_many_qubits(self, monkeypatch):
        calls = count_embeddings(monkeypatch)
        mon = TraceMonomial(labels=(0,), perms=((0,),) * 8)
        with pytest.raises(UnsupportedSizeError, match="total dimension = 256"):
            eval_slocc(mon, [np.ones(256)])
        assert calls == []
        eval_slocc(TraceMonomial(labels=(0,), perms=((0,),) * 2), [bell()])
        assert calls == [4]

    def test_too_many_boxes(self, monkeypatch):
        calls = count_embeddings(monkeypatch)
        mon = TraceMonomial(labels=(0,) * 9, perms=(tuple(range(9)),) * 2)
        with pytest.raises(UnsupportedSizeError, match="boxes = 9"):
            eval_slocc(mon, [bell()])
        assert calls == []

    def test_error_order(self, monkeypatch):
        calls = count_embeddings(monkeypatch)
        big = np.ones(256)
        with pytest.raises(ValueError, match="state 0 has 8 qubits, monomial expects 7"):
            eval_slocc(TraceMonomial(labels=(0,), perms=((0,),) * 7), [big])
        with pytest.raises(ValueError, match="labels go up to 2 but only 1 matrices"):
            eval_slocc(TraceMonomial(labels=(0, 1), perms=((0, 1),) * 8), [big])
        assert calls == []

    def test_cli_exit_code(self, tmp_path, capsys, monkeypatch):
        calls = count_embeddings(monkeypatch)
        path = tmp_path / "psi8.json"
        save_pure_state(path, np.ones(256) / 16)
        code = main(["slocc-eval", "--state", str(path), "--labels", "1",
                     "--perm", ";".join(["()"] * 8)])
        assert code == 3
        assert "total dimension = 256" in capsys.readouterr().err
        assert calls == []


class TestRandomSl2:
    def test_determinant_one(self):
        for g in random_sl2_tuple(4, seed=69):
            assert abs(np.linalg.det(g) - 1) < 1e-12
            assert np.linalg.cond(g) < 50

    def test_deterministic(self):
        a = random_sl2_tuple(2, seed=70)
        b = random_sl2_tuple(2, seed=70)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_bad_n(self):
        with pytest.raises(ValueError):
            random_sl2_tuple(0)

    @pytest.mark.parametrize("max_cond", [1.0, 0.5, float("nan")])
    def test_unreachable_max_cond(self, max_cond):
        with pytest.raises(ValueError, match="max_cond must be a number > 1"):
            random_sl2_tuple(1, seed=0, max_cond=max_cond)


class TestSloccEvalOutput:
    """CLI text is that of the defining formula, signed zeros included."""

    @pytest.mark.parametrize("name", ["ghz", "w", "real", "imag", "complex"])
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_odd_qubit_trace(self, tmp_path, capsys, n, name):
        # the one-box trace of an odd-n state is zero in exact arithmetic
        v = structured_states(n)[name]
        path = tmp_path / "psi.json"
        save_pure_state(path, v)
        perm = ";".join(["()"] * n)
        assert main(["slocc-eval", "--state", str(path), "--labels", "1", "--perm", perm]) == 0
        out = capsys.readouterr().out
        mon = TraceMonomial(labels=(0,), perms=((0,),) * n)
        defining = np.outer(v, v) @ duality_form(n).T
        expect = eval_contract(mon, OperatorTuple(Dims((2,) * n), (defining,)))
        assert out == format_value(expect) + "\n"
        if name in ("ghz", "w"):
            assert out == "0.000000000000000\n"

    def test_w_degree_two_prints_positive_zero(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        save_pure_state(path, w_state())
        code = main(["slocc-eval", "--state", str(path), "--labels", "1,1",
                     "--perm", "(1 2);();(1 2)"])
        assert code == 0
        assert capsys.readouterr().out == "0.000000000000000\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_exit_code(self, tmp_path, capsys):
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1e100
        path = tmp_path / "big.json"
        save_pure_state(path, v)
        code = main(["slocc-eval", "--state", str(path), "--labels", "1,1",
                     "--perm", "(1 2);(1 2)"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflow" in captured.err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_embedding_overflow_exit_code(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        save_pure_state(path, np.full(4, 1e160, dtype=complex))
        code = main(["slocc-eval", "--state", str(path), "--labels", "1", "--perm", "();()"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflow" in captured.err
