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

Complex numbers are stored as [re, im] pairs of finite numbers, so files
are strict JSON: saving a NaN or an infinity raises ValueError.  An
operator tuple's data is a list of row-major matrices; a pure state's data
is a flat amplitude list with dims fixed at [2]*n.  A file loads to what
it holds, an ``OperatorTuple`` or a pure state's amplitude vector, and
``load_state(path, kind)`` rejects a file of the other kind.

Loading checks the document's structure, then decodes each matrix, or the
amplitude list, with one routine: one loop over the entries in reading
order that checks each is a pair of finite JSON numbers, then one numpy
conversion of all of them, with the same values bit for bit as
``complex(re, im)`` per entry.  Malformed input raises ValueError naming
the first offending entry, whether it is not a number pair, holds an int
too large for a float or holds a non-finite value; so does JSON nested too
deeply for the parser.
"""

from __future__ import annotations

import json
from math import isfinite
from pathlib import Path

import numpy as np

from .core import Dims, OperatorTuple, _qubit_count

FORMAT = "traceinv-state"
VERSION = 1

_NUMBER = (int, float)  # exact JSON number types; bool is not among them


def _pairs(a):
    """The entries of a complex array as nested lists of [re, im] floats."""
    a = np.ascontiguousarray(a, dtype=complex)
    return a.view(float).reshape(*a.shape, 2).tolist()


def _dump(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


def operator_tuple_bytes(ops: OperatorTuple) -> bytes:
    return _dump(
        {"data": _pairs(ops.matrices), "dims": list(ops.dims.sizes), "format": FORMAT,
         "kind": "operator_tuple", "version": VERSION}
    )


def pure_state_bytes(amplitudes) -> bytes:
    v = np.asarray(amplitudes, dtype=complex).ravel()
    n = _qubit_count(v.size)
    return _dump(
        {"data": _pairs(v), "dims": [2] * n, "format": FORMAT,
         "kind": "pure_state", "version": VERSION}
    )


def state_bytes(state: OperatorTuple | np.ndarray) -> bytes:
    if isinstance(state, OperatorTuple):
        return operator_tuple_bytes(state)
    return pure_state_bytes(state)


def _as_complex(rows, what) -> np.ndarray:
    """Decode a list of rows of [re, im] pairs into a complex array.

    Every row must already be a list.  One loop reads the entries in order
    and checks each one's structure and exact JSON types (``json.loads``
    makes only exact lists, ints and floats, so an exact type test also
    rejects bools), then that both its numbers are finite as floats, so an
    error names the first offending entry, an int too large for a float
    included.  A single numpy conversion then decodes all entries,
    bit-identical to ``complex(re, im)`` per entry.
    """
    for row in rows:
        for pair in row:
            if (
                type(pair) is not list
                or len(pair) != 2
                or type(pair[0]) not in _NUMBER
                or type(pair[1]) not in _NUMBER
            ):
                raise ValueError(f"{what}: expected a [re, im] number pair, got {pair!r}")
            re, im = pair
            try:
                # both sides run, so a pair holding an int too large for a
                # float reports that, whatever else it holds
                finite = isfinite(re) & isfinite(im)
            except OverflowError:
                raise ValueError(f"{what}: entry too large for a float") from None
            if not finite:
                raise ValueError(f"{what}: expected finite numbers, got {[float(re), float(im)]!r}")
    return np.array(rows, dtype=float).view(complex).reshape(len(rows), -1)


def loads_state(raw: bytes | str) -> OperatorTuple | np.ndarray:
    """The operator tuple or the amplitude vector a state document holds."""
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
        return OperatorTuple(dims, tuple(mats))

    if kind == "pure_state":
        if any(d != 2 for d in dims.sizes):
            raise ValueError(f"pure_state dims must all be 2, got {dims.sizes}")
        if not isinstance(data, list) or len(data) != dims.total:
            raise ValueError(f"pure_state data must list {dims.total} amplitudes")
        return _as_complex([data], "amplitude")[0]

    raise ValueError(f"unrecognized kind {kind!r}")


def load_state(path, kind=None) -> OperatorTuple | np.ndarray:
    """The state file at ``path``, which must be of ``kind`` when one is given.

    The whole file is decoded first, so a malformed file reports its own
    fault before a kind mismatch."""
    with open(path, "rb") as fh:
        state = loads_state(fh.read())
    got = "operator_tuple" if isinstance(state, OperatorTuple) else "pure_state"
    if kind is not None and got != kind:
        raise ValueError(f"{path}: expected a state file of kind {kind!r}, got {got!r}")
    return state


# each save encodes before it opens the file, so a failed one leaves it as it was
def save_operator_tuple(path, ops: OperatorTuple):
    Path(path).write_bytes(operator_tuple_bytes(ops))


def save_pure_state(path, amplitudes):
    Path(path).write_bytes(pure_state_bytes(amplitudes))
