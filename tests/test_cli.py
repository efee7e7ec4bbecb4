import json
import sys
import time
import warnings

import numpy as np
import pytest

from traceinv import Dims, OperatorTuple, cli, load_state, save_operator_tuple, save_pure_state
from traceinv.cli import format_value, main

from helpers import CONJUGATE_CASES, conjugate_pair, scaled_pair


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

    def test_operator_tuple_needs_matrices(self, tmp_path, capsys):
        path = bell_density_file(tmp_path)
        with open(path) as fh:
            doc = json.load(fh)
        doc["data"] = []
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert main(["eval", "--state", path, "--labels", "1", "--perm", "();()"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: operator_tuple data must be a nonempty list of matrices\n"

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

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_entry(self, tmp_path, capsys, token):
        path = tmp_path / "ops.json"
        path.write_text(
            '{"data": [[[[1, 0], [0, 0]], [[0, 0], [%s, 0]]]], "dims": [2], '
            '"format": "traceinv-state", "kind": "operator_tuple", "version": 1}' % token
        )
        code = main(["eval", "--state", str(path), "--labels", "1", "--perm", "()"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: matrix 0: expected finite numbers, got [")

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

    def test_degree_below_one(self, tmp_path, capsys):
        a, b = diag_pair_files(tmp_path)
        assert main(["compare", "--a", a, "--b", b, "--max-degree", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: max_degree must be an integer >= 1, got 0\n"

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

    def test_dimension_envelope_before_normality_warning(self, tmp_path, capsys):
        # D = 128 is past the contraction envelope: exit 3 at the call, with
        # no "not certified normal" warning before it
        dims = Dims((8, 16))
        M = np.eye(dims.total, dtype=complex) + np.eye(dims.total, k=1)
        a = tmp_path / "a.json"
        save_operator_tuple(a, OperatorTuple(dims, (M,)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["compare", "--a", str(a), "--b", str(a), "--max-degree", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: contraction engine total dimension = 128 exceeds the supported limit 64\n"
        )

    def test_zero_tolerance(self, tmp_path, capsys):
        a, b = rank_one_vs_mixed_files(tmp_path)
        assert main(["compare", "--a", a, "--b", a, "--max-degree", "2", "--tol", "0"]) == 0
        assert main(["compare", "--a", a, "--b", b, "--max-degree", "2", "--tol", "0"]) == 1

    def test_explicit_tol_beats_env(self, tmp_path, capsys, monkeypatch):
        a, b = diag_pair_files(tmp_path)
        monkeypatch.setenv("TRACEINV_TOL", "10.0")
        code = main(["compare", "--a", a, "--b", b, "--max-degree", "2", "--tol", "1e-10"])
        assert code == 1

    @pytest.mark.parametrize("dims, m, max_degree, degree", CONJUGATE_CASES)
    def test_conjugate_pair_separated(self, tmp_path, capsys, dims, m, max_degree, degree):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path, ops in zip((a, b), conjugate_pair(dims, m)):
            save_operator_tuple(path, ops)
        argv = ["compare", "--a", str(a), "--b", str(b), "--max-degree", str(max_degree)]
        assert main(argv) == 1
        assert capsys.readouterr().out.startswith(f"SEPARATED degree={degree} ")

    @pytest.mark.parametrize("tol", ["1e-10", "1e-06"])
    @pytest.mark.parametrize("via", ["--tol", "TRACEINV_TOL"])
    def test_tolerance_boundary(self, tmp_path, capsys, monkeypatch, tol, via):
        a, below = scaled_pair(float(tol), 0.5)
        _, above = scaled_pair(float(tol), 2)
        paths = [tmp_path / name for name in ("a.json", "below.json", "above.json")]
        for path, ops in zip(paths, (a, below, above)):
            save_operator_tuple(path, ops)
        if via == "TRACEINV_TOL":
            monkeypatch.setenv("TRACEINV_TOL", tol)
            extra = []
        else:
            extra = ["--tol", tol]
        argv = ["compare", "--a", str(paths[0]), "--max-degree", "4", *extra, "--b"]
        assert main(argv + [str(paths[1])]) == 0
        assert capsys.readouterr().out == "INDISTINGUISHABLE_UP_TO 4\n"
        assert main(argv + [str(paths[2])]) == 1
        assert capsys.readouterr().out.startswith('SEPARATED degree=1 monomial="1 ()" ')


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

    def test_rows_capped_at_one_are_not_counted(self, capsys):
        # three rows hold only the identity, so this lists what one row
        # capped at 3 lists, within the budget
        code = main(["enumerate", "-n", "4", "-m", "1", "--max-degree", "6", "--girth-cap", "1,1,1,3"])
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 22

    def test_many_rows_capped_at_one(self, capsys):
        # 999 rows hold only the identity: the stabilizer chain gives them no
        # level, so they cannot pass Python's recursion limit
        cap = ",".join(["1"] * 999 + ["2"])
        assert main(["enumerate", "-n", "1000", "-m", "1", "--max-degree", "2", "--girth-cap", cap]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_single_row_degree_seven(self, capsys):
        assert main(["enumerate", "-n", "1", "-m", "2", "--max-degree", "7"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 646

    @pytest.mark.parametrize("argv, message", [
        (["-n", "1", "-m", "1", "--max-degree", "9"], "error: max_degree = 9 exceeds the supported limit 8\n"),
        (["-n", "2", "-m", "1", "--max-degree", "7"], "error: enumeration candidates"),
        # the exact count has 9.5 million bits and cannot be printed
        (["-n", "1000000", "-m", "1", "--max-degree", "6"], "error: lower bound on enumeration candidates"),
    ])
    def test_size_exit_codes(self, capsys, argv, message):
        assert main(["enumerate", *argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)

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

    @pytest.mark.parametrize("argv, message", [
        (["--lu", "--dims", "2,2", "-n", "5"], "-n applies to --slocc only"),
        (["--slocc", "-n", "2", "--dims", "2,2"], "--dims applies to --lu only"),
    ], ids=["lu", "slocc"])
    def test_option_of_the_other_mode(self, capsys, argv, message):
        assert main(["bounds", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_slocc_needs_n(self, capsys):
        assert main(["bounds", "--slocc"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --slocc needs -n\n"

    # the largest bounds that still print at Python's default int-to-string
    # limit of 4300 digits have 4298 (--slocc -n 281) and 4295 (--lu, 585
    # qubits) digits; one step up passes it
    @pytest.mark.parametrize("n, rc", [(281, 0), (282, 3)])
    def test_slocc_digit_boundary(self, capsys, n, rc):
        assert main(["bounds", "--slocc", "-n", str(n)]) == rc
        captured = capsys.readouterr()
        if rc == 0:
            assert len(captured.out.strip()) == 4298
        else:
            assert captured.out == ""
            assert "exceeds the supported limit 4300" in captured.err

    # the interpreter owns the digit limit: the CLI reads whatever it is set to
    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-string limit")
    @pytest.mark.parametrize("limit, n, rc", [(640, 60, 3), (0, 282, 0)])
    def test_digit_limit_is_the_interpreters(self, capsys, limit, n, rc):
        default = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            assert main(["bounds", "--slocc", "-n", str(n)]) == rc
        finally:
            sys.set_int_max_str_digits(default)
        captured = capsys.readouterr()
        if rc == 0:
            assert len(captured.out.strip()) == 4316
        else:
            assert captured.out == ""
            assert captured.err == (
                f"error: the digit count of the bound exceeds the supported limit {limit}\n"
            )

    # the bound at n = 10**6 has about 3.6e7 digits: it exits before the
    # exact product is built
    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="no int-to-string limit")
    def test_slocc_huge_n_exits_at_once(self, capsys):
        start = time.perf_counter()
        assert main(["bounds", "--slocc", "-n", "1000000"]) == 3
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the digit count of the bound exceeds the supported limit "
            f"{sys.get_int_max_str_digits()}\n"
        )

    @pytest.mark.parametrize("n, rc", [(585, 0), (586, 3)])
    def test_lu_digit_boundary(self, capsys, n, rc):
        assert main(["bounds", "--lu", "--dims", ",".join(["2"] * n)]) == rc
        captured = capsys.readouterr()
        if rc == 0:
            assert len(captured.out.strip()) == 4295
        else:
            assert captured.out == ""
            assert "exceeds the supported limit 4300" in captured.err

    # the bound at d = 10**9 has about 6e8 digits: it exits before the exact
    # product is built
    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="no int-to-string limit")
    def test_lu_huge_dims_exits_at_once(self, capsys, monkeypatch):
        def unbuilt(*args, **kwargs):
            raise AssertionError("the bound was built")

        monkeypatch.setattr(cli, "lu_degree_bound", unbuilt)
        assert main(["bounds", "--lu", "--dims", "1000000000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the digit count of the bound exceeds the supported limit "
            f"{sys.get_int_max_str_digits()}\n"
        )


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


class TestOptionText:
    """Each option's text is read once, and a bad value exits 2 naming the option."""

    @pytest.mark.parametrize("argv, message", [
        (["enumerate", "-n", "2", "-m", "1", "--max-degree", "3", "--girth-cap", "3,x"],
         "error: --girth-cap must be comma-separated integers, got '3,x'\n"),
        (["bounds", "--lu", "--dims", "2,x"],
         "error: --dims must be comma-separated integers, got '2,x'\n"),
        # an explicitly empty option is text that does not parse, not "no cap"
        (["enumerate", "-n", "1", "-m", "1", "--max-degree", "2", "--girth-cap", ""],
         "error: --girth-cap must be comma-separated integers, got ''\n"),
    ])
    def test_bad_integer_list(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message

    def test_bad_random_dims_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "rho.json"
        assert main(["random", "--dims", "2,2.5", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --dims must be comma-separated integers, got '2,2.5'\n"
        assert not out.exists()

    def test_digit_separator_dims_writes_nothing(self, tmp_path, capsys):
        # int() reads "1_0" as 10: a state on one 10-dimensional subsystem
        out = tmp_path / "rho.json"
        assert main(["random", "--dims", "1_0", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --dims must be comma-separated integers, got '1_0'\n"
        assert not out.exists()

    def test_digit_separator_labels(self, tmp_path, capsys):
        state = bell_density_file(tmp_path)
        assert main(["eval", "--state", state, "--labels", "1_0,1_0", "--perm", "();()"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: labels must be comma-separated integers, got '1_0,1_0'\n"

    # int() reads "1_0" as 10; each integer option rejects it in argparse
    @pytest.mark.parametrize("argv", [
        ["enumerate", "-n", "1", "-m", "1", "--max-degree", "1_0"],
        ["enumerate", "-n", "1_0", "-m", "1", "--max-degree", "2"],
        ["bounds", "--slocc", "-n", "2", "-m", "1_0"],
        ["random", "--dims", "2", "--seed", "1_0", "--out", "never.json"],
        ["random", "--dims", "2", "--rank", "\u0661", "--out", "never.json"],
        ["random", "--dims", "2", "--count", "1_0", "--out", "never.json"],
        ["compare", "--a", "a.json", "--b", "b.json", "--max-degree", "1_0"],
    ])
    def test_digit_separator_counts(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid parse_int value" in captured.err

    def test_non_numeric_tol(self, tmp_path, capsys):
        # check_tol is the one reader of --tol, so main returns 2 instead of
        # argparse raising SystemExit
        a, b = diag_pair_files(tmp_path)
        assert main(["compare", "--a", a, "--b", b, "--tol", "abc"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --tol must be a finite number >= 0, got 'abc'\n"


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

    def test_random_count_below_one(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["random", "--dims", "2", "--count", "0", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --count must be an integer >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("option, value", [("--count", "0"), ("--count", "1"), ("--rank", "9")])
    def test_random_pure_rejects_density_options(self, tmp_path, capsys, option, value):
        out = tmp_path / "psi.json"
        argv = ["random", "--dims", "2,2", "--kind", "pure", option, value, "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {option} applies to --kind density only\n"
        assert not out.exists()

    def test_random_density_count_default(self, tmp_path, capsys):
        out = tmp_path / "rho.json"
        assert main(["random", "--dims", "2", "--seed", "5", "--out", str(out)]) == 0
        assert load_state(out).m == 1

    def test_render(self, tmp_path, capsys):
        out = tmp_path / "net.svg"
        code = main(["render", "--labels", "1,1,2", "--perm", "(2 3);(1 2)",
                     "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("<svg")


#: a two-qubit pure state with one entry "X", replaced by a non-finite token
NON_FINITE_STATE = (
    '{"data": [[1, 0], [0, "X"], [0, 0], [0, 0]], "dims": [2, 2], '
    '"format": "traceinv-state", "kind": "pure_state", "version": 1}'
)


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

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_amplitude(self, tmp_path, capsys, token):
        # the error names the amplitudes, not a matrix the user never gave
        path = tmp_path / "psi.json"
        path.write_text(NON_FINITE_STATE.replace('"X"', token))
        code = main(["slocc-eval", "--state", str(path), "--labels", "1", "--perm", "();()"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: amplitude: expected finite numbers")
        assert "matrix" not in captured.err


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
