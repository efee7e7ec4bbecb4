"""JSON state files for operator tuples and pure states.

Layout (keys alphabetical, two-space indent, trailing newline -- dumps are
canonical, so load/save round-trips are byte identical):

    {
      "data": ...,
      "dims": [2, 2],
      "format": "traceinv-state",
      "kind": "operator_tuple" | "pure_state",
      "version": 1
    }

Complex numbers are stored as [re, im] pairs.  An operator tuple's data is
a list of row-major matrices; a pure state's data is a flat amplitude list
with dims fixed at [2]*n.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import Dims, OperatorTuple, _qubit_count

FORMAT = "traceinv-state"
VERSION = 1


@dataclass(frozen=True)
class StateFile:
    kind: str
    dims: Dims
    operators: OperatorTuple | None = None
    amplitudes: np.ndarray | None = None


def _pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _dump(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def operator_tuple_bytes(ops: OperatorTuple) -> bytes:
    data = [[[_pair(z) for z in row] for row in M] for M in ops.matrices]
    return _dump(
        {"data": data, "dims": list(ops.dims.sizes), "format": FORMAT,
         "kind": "operator_tuple", "version": VERSION}
    )


def pure_state_bytes(amplitudes) -> bytes:
    v = np.asarray(amplitudes, dtype=complex).ravel()
    n = _qubit_count(v.size)
    return _dump(
        {"data": [_pair(z) for z in v], "dims": [2] * n, "format": FORMAT,
         "kind": "pure_state", "version": VERSION}
    )


def state_bytes(sf: StateFile) -> bytes:
    if sf.kind == "operator_tuple":
        return operator_tuple_bytes(sf.operators)
    return pure_state_bytes(sf.amplitudes)


def _as_complex(pair, what):
    if (
        not isinstance(pair, list)
        or len(pair) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
    ):
        raise ValueError(f"{what}: expected a [re, im] number pair, got {pair!r}")
    try:
        return complex(pair[0], pair[1])
    except OverflowError:
        raise ValueError(f"{what}: entry too large for a float") from None


def loads_state(raw: bytes | str) -> StateFile:
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("state file must be a JSON object")
    if doc.get("format") != FORMAT:
        raise ValueError(f"unrecognized format {doc.get('format')!r}, expected {FORMAT!r}")
    if doc.get("version") != VERSION:
        raise ValueError(f"unsupported version {doc.get('version')!r}")
    kind = doc.get("kind")
    dims_raw = doc.get("dims")
    if (
        not isinstance(dims_raw, list)
        or not dims_raw
        or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims_raw)
    ):
        raise ValueError(f"dims must be a list of positive integers, got {dims_raw!r}")
    dims = Dims(tuple(dims_raw))
    data = doc.get("data")

    if kind == "operator_tuple":
        D = dims.total
        if not isinstance(data, list) or not data:
            raise ValueError("operator_tuple data must be a nonempty list of matrices")
        mats = []
        for k, M in enumerate(data):
            if not isinstance(M, list) or len(M) != D or any(
                not isinstance(row, list) or len(row) != D for row in M
            ):
                raise ValueError(f"matrix {k} is not {D}x{D}")
            mats.append(
                np.array(
                    [[_as_complex(z, f"matrix {k}") for z in row] for row in M],
                    dtype=complex,
                )
            )
        return StateFile(kind=kind, dims=dims, operators=OperatorTuple(dims, tuple(mats)))

    if kind == "pure_state":
        if any(d != 2 for d in dims.sizes):
            raise ValueError(f"pure_state dims must all be 2, got {dims.sizes}")
        if not isinstance(data, list) or len(data) != dims.total:
            raise ValueError(f"pure_state data must list {dims.total} amplitudes")
        v = np.array([_as_complex(z, "amplitude") for z in data], dtype=complex)
        return StateFile(kind=kind, dims=dims, amplitudes=v)

    raise ValueError(f"unrecognized kind {kind!r}")


def load_state(path) -> StateFile:
    with open(path, "rb") as fh:
        return loads_state(fh.read())


def save_operator_tuple(path, ops: OperatorTuple):
    with open(path, "wb") as fh:
        fh.write(operator_tuple_bytes(ops))


def save_pure_state(path, amplitudes):
    with open(path, "wb") as fh:
        fh.write(pure_state_bytes(amplitudes))
