import json

import numpy as np
import pytest

from traceinv import Dims, OperatorTuple, cli, save_operator_tuple, save_pure_state
from traceinv.cli import format_value, main


def bell_density_file(tmp_path, name="bell.json"):
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    rho = np.outer(v, v.conj())
    path = tmp_path / name
    save_operator_tuple(path, OperatorTuple(Dims((2, 2)), (rho,)))
    return str(path)


def diag_pair_files(tmp_path):
    dims = Dims((2, 2))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_operator_tuple(a, OperatorTuple(dims, (np.diag([0.5, 0, 0, 0.5]).astype(complex),)))
    save_operator_tuple(b, OperatorTuple(dims, (np.diag([0.5, 0.5, 0, 0]).astype(complex),)))
    return str(a), str(b)


def rank_one_vs_mixed_files(tmp_path):
    """A pure (rank-1) and the maximally mixed (rank-4) two-qubit state."""
    dims = Dims((2, 2))
    a = tmp_path / "pure.json"
    b = tmp_path / "mixed.json"
    save_operator_tuple(a, OperatorTuple(dims, (np.diag([1.0, 0, 0, 0]).astype(complex),)))
    save_operator_tuple(b, OperatorTuple(dims, (np.eye(4, dtype=complex) / 4,)))
    return str(a), str(b)


class TestFormatValue:
    def test_real(self):
        assert format_value(1.0) == "1.000000000000000"
        assert format_value(0.5) == "0.500000000000000"

    def test_complex(self):
        assert format_value(1 - 0.25j) == "1.000000000000000-0.250000000000000i"

    def test_tiny_imaginary_dropped(self):
        assert format_value(2.0 + 1e-15j) == "2.000000000000000"


class TestEval:
    def test_trace_of_bell(self, tmp_path, capsys):
        state = bell_density_file(tmp_path)
        code = main(["eval", "--state", state, "--labels", "1", "--perm", "();()"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1.000000000000000"

    def test_partial_purity(self, tmp_path, capsys):
        state = bell_density_file(tmp_path)
        code = main(["eval", "--state", state, "--labels", "1,1", "--perm", "(1 2);()"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.500000000000000"

    def test_engines_agree(self, tmp_path, capsys):
        state = bell_density_file(tmp_path)
        argv = ["eval", "--state", state, "--labels", "1,1", "--perm", "(1 2);(1 2)"]
        assert main(argv) == 0
        contract = capsys.readouterr().out
        assert main(argv + ["--engine", "ref"]) == 0
        assert capsys.readouterr().out == contract

    def test_row_count_mismatch(self, tmp_path, capsys):
        state = bell_density_file(tmp_path)
        code = main(["eval", "--state", state, "--labels", "1", "--perm", "()"])
        assert code == 2

    def test_missing_file(self, tmp_path, capsys):
        code = main(["eval", "--state", str(tmp_path / "nope.json"), "--labels", "1",
                     "--perm", "();()"])
        assert code == 2

    def test_bad_perm_text(self, tmp_path, capsys):
        state = bell_density_file(tmp_path)
        code = main(["eval", "--state", state, "--labels", "1", "--perm", "(1 5);()"])
        assert code == 2

    def test_einsum_subscript_envelope(self, tmp_path, capsys):
        # ten rows of six boxes, but only the d = 2 row takes subscripts
        path = tmp_path / "thin.json"
        save_operator_tuple(path, OperatorTuple(Dims((1,) * 9 + (2,)), (np.eye(2, dtype=complex),)))
        argv = ["eval", "--state", str(path), "--labels", "1,1,1,1,1,1", "--perm", ";".join(["()"] * 10)]
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == "64.000000000000000"
        assert main(argv + ["--engine", "ref"]) == 0
        assert capsys.readouterr().out.strip() == "64.000000000000000"

    def test_many_trivial_subsystems(self, tmp_path, capsys):
        # 41 subsystems would need 82 axes per box, past numpy's 64; the
        # d = 1 rows are dropped from the network instead
        path = tmp_path / "thin.json"
        M = np.diag([2.0, 3.0]).astype(complex)
        save_operator_tuple(path, OperatorTuple(Dims((1,) * 40 + (2,)), (M,)))
        argv = ["eval", "--state", str(path), "--labels", "1", "--perm", ";".join(["()"] * 41)]
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == "5.000000000000000"
        assert main(argv + ["--engine", "ref"]) == 0
        assert capsys.readouterr().out.strip() == "5.000000000000000"

    def test_envelope_exit_code(self, tmp_path, capsys):
        dims = Dims((2, 2, 2))
        path = tmp_path / "big.json"
        save_operator_tuple(path, OperatorTuple(dims, (np.eye(8, dtype=complex),)))
        code = main(["eval", "--state", str(path), "--labels", "1,1,1,1,1",
                     "--perm", "();();()", "--engine", "ref"])
        assert code == 3


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_exit_code(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        save_operator_tuple(path, OperatorTuple(Dims((1,)), (np.array([[1e308]], dtype=complex),)))
        for engine in ("contract", "ref"):
            code = main(["eval", "--state", str(path), "--labels", "1,1", "--perm", "(1 2)",
                         "--engine", engine])
            assert code == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "overflow" in captured.err


class TestCompare:
    def test_separated(self, tmp_path, capsys):
        a, b = diag_pair_files(tmp_path)
        code = main(["compare", "--a", a, "--b", b, "--max-degree", "2"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("SEPARATED degree=2")
        assert '1,1 (1 2);()' in out
        assert "a=0.500000000000000" in out
        assert "b=1.000000000000000" in out

    def test_indistinguishable(self, tmp_path, capsys):
        a, _ = diag_pair_files(tmp_path)
        code = main(["compare", "--a", a, "--b", a, "--max-degree", "3"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "INDISTINGUISHABLE_UP_TO 3"

    def test_dims_mismatch(self, tmp_path, capsys):
        a, _ = diag_pair_files(tmp_path)
        other = tmp_path / "other.json"
        save_operator_tuple(other, OperatorTuple(Dims((2,)), (np.eye(2, dtype=complex) / 2,)))
        assert main(["compare", "--a", a, "--b", str(other)]) == 2

    def test_env_tolerance_override(self, tmp_path, capsys, monkeypatch):
        a, b = diag_pair_files(tmp_path)
        monkeypatch.setenv("TRACEINV_TOL", "10.0")
        code = main(["compare", "--a", a, "--b", b, "--max-degree", "2"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "INDISTINGUISHABLE_UP_TO 2"

    def test_env_tolerance_invalid(self, tmp_path, capsys, monkeypatch):
        a, b = diag_pair_files(tmp_path)
        monkeypatch.setenv("TRACEINV_TOL", "lots")
        assert main(["compare", "--a", a, "--b", b]) == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-1"])
    def test_env_tolerance_rejected(self, tmp_path, capsys, monkeypatch, bad):
        # a NaN or infinite tolerance would call rank 1 and rank 4 alike
        a, b = rank_one_vs_mixed_files(tmp_path)
        monkeypatch.setenv("TRACEINV_TOL", bad)
        assert main(["compare", "--a", a, "--b", b, "--max-degree", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "TRACEINV_TOL" in captured.err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-1"])
    def test_explicit_tolerance_rejected(self, tmp_path, capsys, bad):
        a, b = rank_one_vs_mixed_files(tmp_path)
        assert main(["compare", "--a", a, "--b", b, "--max-degree", "4", f"--tol={bad}"]) == 2
        assert main(["compare", "--a", a, "--b", a, "--max-degree", "2", f"--tol={bad}"]) == 2
        assert capsys.readouterr().out == ""

    def test_huge_integer_in_state_file(self, tmp_path, capsys):
        # exit 1 would read as "separated"
        a, b = diag_pair_files(tmp_path)
        with open(b) as fh:
            doc = json.load(fh)
        doc["data"][0][0][0] = [10**400, 0]
        with open(b, "w") as fh:
            json.dump(doc, fh)
        assert main(["compare", "--a", a, "--b", b, "--max-degree", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "float" in captured.err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::UserWarning")
    def test_overflow_exit_code(self, tmp_path, capsys):
        # every invariant of both tuples overflows: not INDISTINGUISHABLE
        dims = Dims((2,))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_operator_tuple(a, OperatorTuple(dims, (np.diag([1e308, 1e308]).astype(complex),)))
        save_operator_tuple(b, OperatorTuple(dims, (np.diag([1e308, 1.5e308]).astype(complex),)))
        assert main(["compare", "--a", str(a), "--b", str(b), "--max-degree", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflow" in captured.err

    def test_zero_tolerance(self, tmp_path, capsys):
        a, b = rank_one_vs_mixed_files(tmp_path)
        assert main(["compare", "--a", a, "--b", a, "--max-degree", "2", "--tol", "0"]) == 0
        assert main(["compare", "--a", a, "--b", b, "--max-degree", "2", "--tol", "0"]) == 1

    def test_explicit_tol_beats_env(self, tmp_path, capsys, monkeypatch):
        a, b = diag_pair_files(tmp_path)
        monkeypatch.setenv("TRACEINV_TOL", "10.0")
        code = main(["compare", "--a", a, "--b", b, "--max-degree", "2", "--tol", "1e-10"])
        assert code == 1


class TestEnumerate:
    def test_three_lines(self, capsys):
        code = main(["enumerate", "-n", "1", "-m", "1", "--max-degree", "3", "--connected"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["1 ()", "1,1 (1 2)", "1,1,1 (1 2 3)"]

    def test_girth_cap(self, capsys):
        code = main(["enumerate", "-n", "1", "-m", "1", "--max-degree", "4",
                     "--girth-cap", "3", "--connected"])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    def test_budget_exit_code(self, capsys):
        assert main(["enumerate", "-n", "4", "-m", "3", "--max-degree", "6"]) == 3

    def test_girth_cap_below_one_exit_code(self, capsys):
        code = main(["enumerate", "-n", "2", "-m", "1", "--max-degree", "3", "--girth-cap", "0,0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "girth_cap" in captured.err


class TestBounds:
    def test_slocc(self, capsys):
        assert main(["bounds", "--slocc", "-n", "2", "-m", "1"]) == 0
        assert capsys.readouterr().out.strip() == "98304"

    def test_lu(self, capsys):
        assert main(["bounds", "--lu", "--dims", "2", "-m", "1"]) == 0
        assert capsys.readouterr().out.strip() == "48"

    def test_lu_needs_dims(self, capsys):
        assert main(["bounds", "--lu"]) == 2

    # the largest bounds that still print have 4298 (--slocc -n 281) and
    # 4295 (--lu, 585 qubits) digits; one step up passes MAX_BOUND_DIGITS
    @pytest.mark.parametrize("n, rc", [(281, 0), (282, 3)])
    def test_slocc_digit_boundary(self, capsys, n, rc):
        assert main(["bounds", "--slocc", "-n", str(n)]) == rc
        captured = capsys.readouterr()
        if rc == 0:
            assert len(captured.out.strip()) == 4298
        else:
            assert captured.out == ""
            assert "exceeds the supported limit 4300" in captured.err

    @pytest.mark.parametrize("n, rc", [(585, 0), (586, 3)])
    def test_lu_digit_boundary(self, capsys, n, rc):
        assert main(["bounds", "--lu", "--dims", ",".join(["2"] * n)]) == rc
        captured = capsys.readouterr()
        if rc == 0:
            assert len(captured.out.strip()) == 4295
        else:
            assert captured.out == ""
            assert "exceeds the supported limit 4300" in captured.err


class TestFactorize:
    def test_factors(self, capsys):
        code = main(["factorize", "--labels", "1,1,1,1", "--perm", "(1 2)(3 4);(1 3)(2 4)"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("FACTORS")
        assert "relocated: yes" in out
        assert "positions: 1,2 | 3,4" in out

    def test_irreducible(self, capsys):
        code = main(["factorize", "--labels", "1,1,1,1", "--perm", "(1 2 3);(1 2)(3 4)"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "IRREDUCIBLE"


class TestRandomAndRender:
    def test_random_density_file(self, tmp_path, capsys):
        out = tmp_path / "rho.json"
        code = main(["random", "--dims", "2,2", "--rank", "2", "--seed", "7",
                     "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_random_deterministic(self, tmp_path, capsys):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for p in (p1, p2):
            main(["random", "--dims", "2,2", "--seed", "11", "--out", str(p)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_random_pure(self, tmp_path, capsys):
        out = tmp_path / "psi.json"
        code = main(["random", "--dims", "2,2", "--kind", "pure", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        argv = ["slocc-eval", "--state", str(out), "--labels", "1", "--perm", "();()"]
        assert main(argv) == 0

    def test_random_pure_needs_qubits(self, tmp_path, capsys):
        code = main(["random", "--dims", "3", "--kind", "pure",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_render(self, tmp_path, capsys):
        out = tmp_path / "net.svg"
        code = main(["render", "--labels", "1,1,2", "--perm", "(2 3);(1 2)",
                     "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("<svg")


class TestSloccEval:
    def test_bell(self, tmp_path, capsys):
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / np.sqrt(2)
        path = tmp_path / "bell_state.json"
        save_pure_state(path, v)
        code = main(["slocc-eval", "--state", str(path), "--labels", "1", "--perm", "();()"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1.000000000000000"

    def test_needs_pure_state(self, tmp_path, capsys):
        ops_path = bell_density_file(tmp_path)
        code = main(["slocc-eval", "--state", ops_path, "--labels", "1", "--perm", "();()"])
        assert code == 2


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_internal_error_exit_code(self, monkeypatch, capsys):
        # an unexpected exception must not surface as exit 1 ("separated")
        def boom(args):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(cli, "_cmd_bounds", boom)
        assert main(["bounds", "--slocc", "-n", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "internal error: RuntimeError: wires crossed" in captured.err

    def test_out_of_memory_exit_code(self, monkeypatch, capsys):
        # a valid request too big for the machine is a size problem, not a bug
        def huge(args):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr(cli, "_cmd_random", huge)
        assert main(["random", "--dims", "100000", "--out", "never.json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: out of memory: Unable to allocate 74.5 GiB" in captured.err
