import json

import numpy as np
import pytest

from traceinv import (
    Dims,
    OperatorTuple,
    load_state,
    loads_state,
    operator_tuple_bytes,
    pure_state_bytes,
    save_operator_tuple,
    save_pure_state,
    state_bytes,
)
from traceinv.cli import main

#: ints whose nearest double rounds, beyond 2**53 and at the top of the range
BOUNDARY_INTS = [2**53 + 1, 2**64 + 3, 10**20 + 1, 10**308, -(2**70) + 1]

#: malformed [re, im] entries, and how each one is printed in the message
MALFORMED = [
    ("true", "True"),
    ('"1"', "'1'"),
    ("null", "None"),
    ("[1]", "[1]"),
    ("[1, 2, 3]", "[1, 2, 3]"),
    ("[[1], 2]", "[[1], 2]"),
    ("[true, 0]", "[True, 0]"),
    ('[0, "1"]', "[0, '1']"),
    ("[null, 0]", "[None, 0]"),
    (str(10**400), str(10**400)),
]


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def sample_ops():
    rng = np.random.default_rng(80)
    dims = Dims((2, 3))
    return OperatorTuple(dims, tuple(crandn(rng, 6, 6) for _ in range(2)))


class TestRoundTrip:
    def test_operator_tuple_values(self, tmp_path):
        ops = sample_ops()
        path = tmp_path / "ops.json"
        save_operator_tuple(path, ops)
        sf = load_state(path)
        assert sf.kind == "operator_tuple"
        assert sf.dims == ops.dims
        assert sf.operators.m == 2
        for a, b in zip(sf.operators.matrices, ops.matrices):
            assert np.array_equal(a, b)

    def test_operator_tuple_bytes_stable(self):
        raw = operator_tuple_bytes(sample_ops())
        assert state_bytes(loads_state(raw)) == raw

    def test_pure_state_values(self, tmp_path):
        rng = np.random.default_rng(81)
        v = crandn(rng, 8)
        path = tmp_path / "psi.json"
        save_pure_state(path, v)
        sf = load_state(path)
        assert sf.kind == "pure_state"
        assert sf.dims.sizes == (2, 2, 2)
        assert np.array_equal(sf.amplitudes, v)

    def test_pure_state_bytes_stable(self):
        rng = np.random.default_rng(82)
        raw = pure_state_bytes(crandn(rng, 4))
        assert state_bytes(loads_state(raw)) == raw

    def test_document_shape(self):
        doc = json.loads(operator_tuple_bytes(sample_ops()))
        assert doc["format"] == "traceinv-state"
        assert doc["version"] == 1
        assert doc["kind"] == "operator_tuple"
        assert doc["dims"] == [2, 3]
        assert len(doc["data"]) == 2
        assert len(doc["data"][0]) == 6
        assert len(doc["data"][0][0][0]) == 2  # [re, im]


def pure_state_text(pairs):
    """A pure-state document whose amplitude list is the given JSON texts."""
    n = len(pairs).bit_length() - 1
    return (
        '{"data": [' + ", ".join(pairs) + '], "dims": ' + json.dumps([2] * n)
        + ', "format": "traceinv-state", "kind": "pure_state", "version": 1}'
    )


def operator_tuple_text(matrices, dims):
    """An operator-tuple document; ``matrices`` holds rows of JSON entry texts."""
    data = ", ".join(
        "[" + ", ".join("[" + ", ".join(row) + "]" for row in M) + "]" for M in matrices
    )
    return (
        '{"data": [' + data + '], "dims": ' + json.dumps(dims)
        + ', "format": "traceinv-state", "kind": "operator_tuple", "version": 1}'
    )


def pair_texts(values):
    return [json.dumps([re, im]) for re, im in values]


class TestDecoding:
    """Both kinds decode bit-identically to complex(re, im) per entry."""

    def sample_values(self):
        rng = np.random.default_rng(83)
        floats = (rng.standard_normal(48) * 10.0 ** rng.integers(-300, 300, 48)).tolist()
        floats += [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 2.2250738585072014e-308]
        ints = BOUNDARY_INTS + [0, 1, -1, 3]
        values = floats + ints + [-x for x in ints]
        rng.shuffle(values)
        return [(values[k], values[-1 - k]) for k in range(64)]

    def test_pure_state_bit_identical(self):
        values = self.sample_values()
        v = loads_state(pure_state_text(pair_texts(values))).amplitudes
        expect = np.array([complex(re, im) for re, im in values])
        assert v.shape == (64,)
        assert np.array_equal(v.view(np.uint8), expect.view(np.uint8))

    def test_operator_tuple_bit_identical(self):
        values = self.sample_values()
        texts = pair_texts(values)
        mats = [[half[4 * r : 4 * r + 4] for r in range(4)] for half in (texts[:16], texts[16:32])]
        ops = loads_state(operator_tuple_text(mats, [2, 2])).operators
        for k, M in enumerate(ops.matrices):
            expect = np.array(
                [[complex(*values[16 * k + 4 * r + c]) for c in range(4)] for r in range(4)]
            )
            assert M.shape == (4, 4)
            assert np.array_equal(M.view(np.uint8), expect.view(np.uint8))

    def test_one_by_one_matrix(self):
        ops = loads_state(operator_tuple_text([[["[2, -0.0]"]]], [1])).operators
        assert ops.matrices[0].shape == (1, 1)
        assert np.array_equal(ops.matrices[0].view(np.uint8), np.array([[complex(2, -0.0)]]).view(np.uint8))

    @pytest.mark.parametrize("entry, shown", MALFORMED)
    def test_malformed_amplitude(self, entry, shown):
        texts = pair_texts([(0.5, 0)] * 8)
        texts[5] = entry
        with pytest.raises(ValueError) as exc:
            loads_state(pure_state_text(texts))
        assert str(exc.value) == f"amplitude: expected a [re, im] number pair, got {shown}"

    @pytest.mark.parametrize("entry, shown", MALFORMED)
    def test_malformed_matrix_entry(self, entry, shown):
        texts = pair_texts([(0.5, 0)] * 8)
        mats = [[texts[0:2], texts[2:4]], [texts[4:6], texts[6:8]]]
        mats[1][1][0] = entry
        with pytest.raises(ValueError) as exc:
            loads_state(operator_tuple_text(mats, [2]))
        assert str(exc.value) == f"matrix 1: expected a [re, im] number pair, got {shown}"

    def test_first_offending_entry_is_named(self):
        texts = pair_texts([(0.5, 0)] * 4)
        texts[1], texts[2] = "[1]", "null"
        with pytest.raises(ValueError, match=r"got \[1\]$"):
            loads_state(pure_state_text(texts))
        mats = [[texts[0:2], texts[2:4]]]
        with pytest.raises(ValueError, match=r"got \[1\]$"):
            loads_state(operator_tuple_text(mats, [2]))

    @pytest.mark.parametrize("before", [True, False])
    def test_too_large_int_against_malformed_entry(self, before):
        # whichever comes first is reported, as with a per-entry decode
        big, bad = f"[0, {10**400}]", "[1]"
        texts = pair_texts([(0.5, 0)] * 4)
        texts[1], texts[2] = (big, bad) if before else (bad, big)
        expect = "entry too large for a float" if before else "got \\[1\\]$"
        with pytest.raises(ValueError, match=expect):
            loads_state(pure_state_text(texts))
        # in a matrix, the two entries sit on different rows
        mats = [[texts[0:2], texts[2:4]]]
        with pytest.raises(ValueError, match=expect):
            loads_state(operator_tuple_text(mats, [2]))

    def test_too_large_int_in_each_kind(self):
        texts = pair_texts([(0.5, 0)] * 4)
        texts[3] = f"[{-(10**400)}, 0]"
        with pytest.raises(ValueError) as exc:
            loads_state(pure_state_text(texts))
        assert str(exc.value) == "amplitude: entry too large for a float"
        good = pair_texts([(0.5, 0)] * 4)
        mats = [[good[0:2], good[2:4]], [texts[0:2], texts[2:4]]]
        with pytest.raises(ValueError) as exc:
            loads_state(operator_tuple_text(mats, [2]))
        assert str(exc.value) == "matrix 1: entry too large for a float"


class TestDeepNesting:
    DEPTH = 100_000

    def test_loads_state(self):
        with pytest.raises(ValueError, match="nested too deeply"):
            loads_state("[" * self.DEPTH)

    def test_nested_data_field(self):
        text = '{"data": ' + "[" * self.DEPTH + "]" * self.DEPTH + "}"
        with pytest.raises(ValueError, match="nested too deeply"):
            loads_state(text)

    def test_slocc_eval_exit_code(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * self.DEPTH)
        code = main(["slocc-eval", "--state", str(path), "--labels", "1", "--perm", "()"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nested too deeply" in captured.err


class TestValidation:
    def good_doc(self):
        return json.loads(operator_tuple_bytes(sample_ops()))

    def corrupt(self, **patch):
        doc = self.good_doc()
        doc.update(patch)
        return json.dumps(doc)

    def test_not_json(self):
        with pytest.raises(ValueError):
            loads_state(b"{nope")

    def test_not_object(self):
        with pytest.raises(ValueError):
            loads_state(b"[1, 2]")

    def test_bad_format(self):
        with pytest.raises(ValueError, match="format"):
            loads_state(self.corrupt(format="other"))

    def test_bad_version(self):
        with pytest.raises(ValueError, match="version"):
            loads_state(self.corrupt(version=2))

    def test_bad_kind(self):
        with pytest.raises(ValueError, match="kind"):
            loads_state(self.corrupt(kind="ensemble"))

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            loads_state(self.corrupt(dims=[2, 0]))
        with pytest.raises(ValueError):
            loads_state(self.corrupt(dims="2,3"))

    def test_matrix_shape_mismatch(self):
        doc = self.good_doc()
        doc["data"][0] = doc["data"][0][:-1]
        with pytest.raises(ValueError):
            loads_state(json.dumps(doc))

    def test_bad_entry(self):
        doc = self.good_doc()
        doc["data"][0][0][0] = [1.0]
        with pytest.raises(ValueError, match="pair"):
            loads_state(json.dumps(doc))

    def test_huge_integer_entry(self):
        # an integer too large for a float must not escape as OverflowError
        doc = self.good_doc()
        doc["data"][0][0][0] = [10**400, 0]
        with pytest.raises(ValueError, match="float"):
            loads_state(json.dumps(doc))

    def test_pure_state_dims_must_be_qubits(self):
        doc = json.loads(pure_state_bytes(np.ones(4)))
        doc["dims"] = [4]
        with pytest.raises(ValueError):
            loads_state(json.dumps(doc))

    def test_pure_state_length(self):
        doc = json.loads(pure_state_bytes(np.ones(4)))
        doc["data"] = doc["data"][:-1]
        with pytest.raises(ValueError):
            loads_state(json.dumps(doc))

    def test_pure_state_bad_count(self):
        with pytest.raises(ValueError):
            pure_state_bytes(np.ones(3))
