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
