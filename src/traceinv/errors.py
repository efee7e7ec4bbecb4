"""Package-wide exception types, the size envelopes they enforce, and the
rule for integer counts."""

from operator import index

#: Cap on box count, and so on degree, for enumeration, canonical forms,
#: factorize, eval_contract and rendering.
MAX_BOXES = 8

#: Cap on raw (P, sigma) candidates visited in one enumeration call.
ENUM_BUDGET = 4_000_000

#: eval_reference visits D^ell index assignments; cap the total.
REFERENCE_ENVELOPE = 4096

#: eval_contract works on the full product space; cap its dimension.  Its
#: network names one einsum subscript per bond, at most MAX_BOXES per row with
#: d > 1, so MAX_BOXES * log2(CONTRACT_MAX_DIM) must stay within numpy's 52.
CONTRACT_MAX_DIM = 64


class UnsupportedSizeError(Exception):
    """Raised when an input is valid but exceeds the supported size envelope.

    Distinct from ValueError so callers (and the CLI exit-code mapping) can
    tell "you asked for something too big" apart from "the arguments are
    malformed".
    """


def check_size(what, value, limit):
    """Raise UnsupportedSizeError when ``value``, the quantity named by
    ``what``, exceeds ``limit``."""
    if value > limit:
        raise UnsupportedSizeError(f"{what} = {value} exceeds the supported limit {limit}")


def check_count(value, name, least=1):
    """``value`` as an int >= ``least``, else ValueError naming ``name``.

    A float, a string or None raises TypeError; numpy integers are
    returned as ints.
    """
    value = index(value)
    if value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value}")
    return value
