"""Local-unitary trace-monomial invariants of multipartite operator tuples.

Evaluate trace monomials of density operators with two independent engines,
enumerate them under girth and degree caps, compare states invariant by
invariant to decide local-unitary equivalence, and evaluate SLOCC
invariants of n-qubit pure states through a self-dual embedding.

Each public name is read from the module that defines it each time it is
used (PEP 562), so ``import traceinv`` and the modules that do no linear
algebra (``perms``, ``diagram``, ``errors``) do not import numpy.
"""

from importlib import import_module

__version__ = "0.3.0"

#: owning module -> the public names it defines
_PUBLIC = {
    "core": (
        "DEFAULT_TOL",
        "Dims",
        "OperatorTuple",
        "conjugate_local",
        "is_normal",
        "kron",
        "partial_trace",
        "random_density",
        "random_local_invertible",
        "random_local_unitary",
        "to_net_tensor",
    ),
    "diagram": ("render_svg",),
    "equivalence": (
        "Fingerprint",
        "Verdict",
        "decide_lu_equiv",
        "fingerprint",
        "generator_girth_cap",
        "lu_degree_bound",
        "renyi_entropy",
        "renyi_monomial",
        "slocc_degree_bound",
    ),
    "errors": ("UnsupportedSizeError",),
    "evaluate": ("eval_contract", "eval_reference"),
    "perms": (
        "Factorization",
        "TraceMonomial",
        "canonical_form",
        "cycle_decomposition",
        "enumerate_monomials",
        "factorize",
        "format_perm",
        "format_perm_tuple",
        "girth_of",
        "is_connected",
        "parse_monomial",
        "parse_perm",
        "parse_perm_tuple",
        "perm_from_cycles",
    ),
    "slocc": ("DUALITY", "duality_form", "embed_state", "eval_slocc", "random_sl2_tuple"),
    "statefile": (
        "load_state",
        "loads_state",
        "operator_tuple_bytes",
        "pure_state_bytes",
        "save_operator_tuple",
        "save_pure_state",
        "state_bytes",
    ),
}

__all__ = sorted(name for names in _PUBLIC.values() for name in names)


def __getattr__(name):
    # nothing is cached here, so a name always reads its owner's attribute
    for owner, names in _PUBLIC.items():
        if name in names:
            return getattr(import_module("." + owner, __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
