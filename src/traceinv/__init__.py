"""Local-unitary trace-monomial invariants of multipartite operator tuples.

Evaluate trace monomials of density operators with two independent engines,
enumerate them under girth and degree caps, compare states invariant by
invariant to decide local-unitary equivalence, and evaluate SLOCC
invariants of n-qubit pure states through a self-dual embedding.
"""

from .core import (
    DEFAULT_TOL,
    Dims,
    OperatorTuple,
    conjugate_local,
    is_normal,
    kron,
    partial_trace,
    random_density,
    random_local_invertible,
    random_local_unitary,
    to_net_tensor,
)
from .diagram import render_svg
from .equivalence import (
    Fingerprint,
    Verdict,
    decide_lu_equiv,
    fingerprint,
    generator_girth_cap,
    lu_degree_bound,
    renyi_entropy,
    renyi_monomial,
    slocc_degree_bound,
)
from .errors import UnsupportedSizeError
from .evaluate import eval_contract, eval_reference
from .perms import (
    Factorization,
    TraceMonomial,
    canonical_form,
    cycle_decomposition,
    enumerate_monomials,
    factorize,
    format_perm,
    format_perm_tuple,
    girth_of,
    is_connected,
    parse_monomial,
    parse_perm,
    parse_perm_tuple,
    perm_from_cycles,
)
from .slocc import DUALITY, duality_form, embed_state, eval_slocc, random_sl2_tuple
from .statefile import (
    load_state,
    loads_state,
    operator_tuple_bytes,
    pure_state_bytes,
    save_operator_tuple,
    save_pure_state,
    state_bytes,
)

__version__ = "0.3.0"

__all__ = [
    "DEFAULT_TOL",
    "DUALITY",
    "Dims",
    "Factorization",
    "Fingerprint",
    "OperatorTuple",
    "TraceMonomial",
    "UnsupportedSizeError",
    "Verdict",
    "canonical_form",
    "conjugate_local",
    "cycle_decomposition",
    "decide_lu_equiv",
    "duality_form",
    "embed_state",
    "enumerate_monomials",
    "eval_contract",
    "eval_reference",
    "eval_slocc",
    "factorize",
    "fingerprint",
    "format_perm",
    "format_perm_tuple",
    "generator_girth_cap",
    "girth_of",
    "is_connected",
    "is_normal",
    "kron",
    "load_state",
    "loads_state",
    "lu_degree_bound",
    "operator_tuple_bytes",
    "parse_monomial",
    "parse_perm",
    "parse_perm_tuple",
    "partial_trace",
    "perm_from_cycles",
    "pure_state_bytes",
    "random_density",
    "random_local_invertible",
    "random_local_unitary",
    "random_sl2_tuple",
    "render_svg",
    "renyi_entropy",
    "renyi_monomial",
    "save_operator_tuple",
    "save_pure_state",
    "slocc_degree_bound",
    "state_bytes",
    "to_net_tensor",
]
