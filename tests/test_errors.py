"""The one rule for integer counts, at every public entry point that takes one."""

import numpy as np
import pytest

from traceinv import (
    Dims,
    OperatorTuple,
    decide_lu_equiv,
    duality_form,
    enumerate_monomials,
    fingerprint,
    lu_degree_bound,
    random_density,
    random_sl2_tuple,
    renyi_entropy,
    renyi_monomial,
    slocc_degree_bound,
)
from traceinv.errors import check_count

OPS = OperatorTuple(Dims((2,)), (np.eye(2) / 2,))
BELL = np.array([[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex) / 2

# (name in the message, least value, call taking the count)
COUNTS = {
    "enumerate-n": ("n", 1, lambda v: enumerate_monomials(v, 1, 1)),
    "enumerate-m": ("m", 1, lambda v: enumerate_monomials(1, v, 1)),
    "enumerate-max_degree": ("max_degree", 1, lambda v: enumerate_monomials(1, 1, v)),
    "enumerate-girth_cap": ("girth_cap entry", 1, lambda v: enumerate_monomials(1, 1, 1, (v,))),
    "lu_bound-m": ("m", 1, lambda v: lu_degree_bound((2,), m=v)),
    "slocc_bound-n": ("n", 1, lambda v: slocc_degree_bound(v)),
    "slocc_bound-m": ("m", 1, lambda v: slocc_degree_bound(1, m=v)),
    "renyi_monomial-n": ("n", 1, lambda v: renyi_monomial(v, [], 2)),
    "renyi_monomial-q": ("q", 2, lambda v: renyi_monomial(2, [0], v)),
    "renyi_entropy-q": ("q", 2, lambda v: renyi_entropy(BELL, (2, 2), [0], v)),
    "duality_form-n": ("n", 1, duality_form),
    "random_sl2_tuple-n": ("n", 1, random_sl2_tuple),
    "random_density-rank": ("rank", 1, lambda v: random_density((2,), rank=v)),
    "fingerprint-max_degree": ("max_degree", 1, lambda v: fingerprint(OPS, v)),
    "decide-max_degree": ("max_degree", 1, lambda v: decide_lu_equiv(OPS, OPS, max_degree=v)),
}


class TestCheckCount:
    def test_returns_a_plain_int(self):
        value = check_count(np.int64(3), "n")
        assert value == 3
        assert type(value) is int
        assert check_count(2, "q", least=2) == 2

    @pytest.mark.parametrize("value", [1.0, 1.5, "1", None])
    def test_non_integer_is_a_type_error(self, value):
        with pytest.raises(TypeError):
            check_count(value, "n")

    def test_below_least_names_the_count(self):
        with pytest.raises(ValueError, match=r"^q must be an integer >= 2, got 1$"):
            check_count(1, "q", least=2)


@pytest.mark.parametrize("name, least, call", COUNTS.values(), ids=COUNTS.keys())
class TestEntryPoints:
    def test_below_least(self, name, least, call):
        message = rf"^{name} must be an integer >= {least}, got {least - 1}$"
        with pytest.raises(ValueError, match=message):
            call(least - 1)

    def test_float(self, name, least, call):
        with pytest.raises(TypeError):
            call(float(least))

    def test_least_accepted(self, name, least, call):
        call(np.int64(least))
