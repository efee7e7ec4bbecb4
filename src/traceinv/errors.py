"""Package-wide exception types and the size envelopes they enforce."""

#: Hard cap on monomial degree for enumeration / canonicalization.
MAX_DEGREE = 6

#: Cap on box count for canonical forms, factorize, eval_contract and rendering.
MAX_BOXES = 8

#: Cap on raw (P, sigma) candidates visited in one enumeration call.
ENUM_BUDGET = 4_000_000

#: eval_reference visits D^ell index assignments; cap the total.
REFERENCE_ENVELOPE = 4096

#: eval_contract works on the full product space; cap its dimension.
CONTRACT_MAX_DIM = 64

#: eval_contract names ell bonds per row with d > 1; numpy's einsum has 52 subscript letters.
#: Under the caps above that is at most 6 rows x 8 boxes = 48; kept for a larger CONTRACT_MAX_DIM.
EINSUM_MAX_SUBSCRIPTS = 52

#: Python converts an int of at most 4300 digits to a string by default; cap printed bounds.
MAX_BOUND_DIGITS = 4300


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
