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

Loading checks the document's structure, then decodes each matrix, or the
amplitude list, with one routine: a pass over the entries that checks each
is a pair of JSON numbers, then one numpy conversion of all of them, with
the same values bit for bit as ``complex(re, im)`` per entry.  Malformed
input raises ValueError naming the first offending entry; so do an int too
large for a float and JSON nested too deeply for the parser.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import Dims, OperatorTuple, _qubit_count

FORMAT = "traceinv-state"
VERSION = 1

_NUMBER = (int, float)  # exact JSON number types; bool is not among them


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


def _as_complex(rows, what) -> np.ndarray:
    """Decode a list of rows of [re, im] pairs into a complex array.

    Every row must already be a list.  One pass checks each entry's
    structure and exact JSON types (``json.loads`` makes only exact lists,
    ints and floats, so an exact type test also rejects bools); a single
    numpy conversion then decodes all entries, bit-identical to
    ``complex(re, im)`` per entry.  An error names the first offending
    entry, an int too large for a float included.
    """
    bad = next(
        (
            (r, c)
            for r, row in enumerate(rows)
            for c, pair in enumerate(row)
            if type(pair) is not list
            or len(pair) != 2
            or type(pair[0]) not in _NUMBER
            or type(pair[1]) not in _NUMBER
        ),
        None,
    )
    head = rows
    if bad is not None:
        # an int too large for a float before it is the first offence then
        r, c = bad
        head = [pair for row in rows[:r] for pair in row] + rows[r][:c]
    try:
        values = np.array(head, dtype=float)
    except OverflowError:
        raise ValueError(f"{what}: entry too large for a float") from None
    if bad is not None:
        pair = rows[r][c]
        raise ValueError(f"{what}: expected a [re, im] number pair, got {pair!r}")
    return values.view(complex).reshape(len(rows), -1)


def loads_state(raw: bytes | str) -> StateFile:
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError("not valid JSON: nested too deeply") from None
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
            mats.append(_as_complex(M, f"matrix {k}"))
        return StateFile(kind=kind, dims=dims, operators=OperatorTuple(dims, tuple(mats)))

    if kind == "pure_state":
        if any(d != 2 for d in dims.sizes):
            raise ValueError(f"pure_state dims must all be 2, got {dims.sizes}")
        if not isinstance(data, list) or len(data) != dims.total:
            raise ValueError(f"pure_state data must list {dims.total} amplitudes")
        v = _as_complex([data], "amplitude")[0]
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
