import functools
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from traceinv import (
    Dims,
    OperatorTuple,
    TraceMonomial,
    UnsupportedSizeError,
    canonical_form,
    cycle_decomposition,
    enumerate_monomials,
    eval_contract,
    format_perm,
    format_perm_tuple,
    generator_girth_cap,
    girth_of,
    is_connected,
    parse_monomial,
    parse_perm,
    parse_perm_tuple,
    perm_from_cycles,
)
from traceinv.perms import (
    _check_listing,
    canonical_count,
    compose,
    identity_perm,
    invert_perm,
    parse_int,
)


def perms_of(size):
    return st.permutations(range(size)).map(tuple)


class TestPermBasics:
    def test_cycles_example(self):
        # (0)(1 2) and a 3-cycle
        assert cycle_decomposition((0, 2, 1)) == ((0,), (1, 2))
        assert cycle_decomposition((1, 2, 0)) == ((0, 1, 2),)

    def test_cycles_canonical_order(self):
        assert cycle_decomposition((1, 0, 3, 2)) == ((0, 1), (2, 3))

    @given(perms_of(6))
    def test_cycles_rebuild(self, p):
        assert perm_from_cycles(cycle_decomposition(p), 6) == p

    @given(perms_of(5))
    def test_inverse(self, p):
        assert compose(p, invert_perm(p)) == identity_perm(5)
        assert compose(invert_perm(p), p) == identity_perm(5)

    def test_format(self):
        assert format_perm((0, 1, 2)) == "()"
        assert format_perm((1, 0, 2)) == "(1 2)"
        assert format_perm_tuple(((1, 2, 0), (0, 2, 1))) == "(1 2 3);(2 3)"

    @given(perms_of(7))
    def test_parse_format_round_trip(self, p):
        assert parse_perm(format_perm(p), 7) == p

    def test_parse_examples(self):
        assert parse_perm("(2 3)", 3) == (0, 2, 1)
        assert parse_perm("()", 3) == (0, 1, 2)
        assert parse_perm("()(3)(1,2)( )", 4) == (1, 0, 2, 3)
        assert parse_perm_tuple("(1 2)(3 4);(1 3)(2 4)", 4) == ((1, 0, 3, 2), (2, 3, 0, 1))

    @pytest.mark.parametrize("cycles, size", [([(0, 1), (1, 2)], 3), ([(0, 1, 0)], 2)])
    def test_from_cycles_rejects_repeats(self, cycles, size):
        # a repeated position would make a non-permutation such as (1, 2, 1)
        with pytest.raises(ValueError, match="twice"):
            perm_from_cycles(cycles, size)

    @pytest.mark.parametrize("cycles, entry", [([(0, 3)], 3), ([(-1, 0)], -1)])
    def test_from_cycles_rejects_out_of_range(self, cycles, entry):
        with pytest.raises(ValueError, match=f"cycle entry {entry} out of range for size 3"):
            perm_from_cycles(cycles, 3)

    def test_parse_repeat_message_is_one_based(self):
        with pytest.raises(ValueError, match=r"position 2 repeated"):
            parse_perm("(1 2)(2 3)", 3)

    @pytest.mark.parametrize("bad", ["(1 2", "(0 1)", "(1 5)", "(1 2)(2 3)", "(1 x)"])
    def test_parse_errors(self, bad):
        with pytest.raises(ValueError):
            parse_perm(bad, 4)

    def test_parse_rejects_digit_separators(self):
        # int() would read "1_1" as 11, a valid entry on 12 positions
        with pytest.raises(ValueError, match="non-integer cycle entry"):
            parse_perm("(1_1 1)", 12)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("(1 2)(2)", r"position 2 repeated in '\(1 2\)\(2\)'"),
            ("(4)", r"cycle entry 4 out of range 1..3"),
            ("(0)", r"cycle entry 0 out of range 1..3"),
        ],
    )
    def test_parse_single_cycle_errors_are_one_based(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_perm(text, 3)


class TestParseInt:
    @pytest.mark.parametrize("text, value", [("7", 7), ("+3", 3), ("-2", -2), (" 12 ", 12), ("007", 7)])
    def test_accepts(self, text, value):
        assert parse_int(text) == value

    # int() accepts the first three; "\u0663" is an Arabic-Indic three
    @pytest.mark.parametrize("text", ["1_0", "\u0663", "\uff17", "", " ", "+", "1.0", "1e3", "0x1", "2 2"])
    def test_rejects(self, text):
        with pytest.raises(ValueError, match="invalid integer text"):
            parse_int(text)


class TestParseMonomial:
    @pytest.mark.parametrize("text", ["a,b", "1,,2", "", "1.5", "1;2", "1_0,1_0", "\u0661"])
    def test_non_integer_labels(self, text):
        with pytest.raises(ValueError, match="labels must be comma-separated integers, got"):
            parse_monomial(text, "()")

    @pytest.mark.parametrize("text", ["0", "1,0", "2,-1"])
    def test_labels_are_one_based(self, text):
        with pytest.raises(ValueError, match=f"labels are 1-based, got '{text}'"):
            parse_monomial(text, "()")


class TestTraceMonomial:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceMonomial(labels=(0, 0), perms=((0, 0),))
        with pytest.raises(ValueError):
            TraceMonomial(labels=(), perms=((0,),))
        with pytest.raises(ValueError):
            TraceMonomial(labels=(-1,), perms=((0,),))

    def test_needs_a_row(self):
        with pytest.raises(ValueError, match="monomial needs at least one subsystem row"):
            TraceMonomial(labels=(0,), perms=())

    @pytest.mark.parametrize("labels, perms", [
        ((0.7, 1.2), ((1.9, 0.3),)),   # would read as labels 1,2 and (1 2)
        ((0, 1), ((1.0, 0),)),
        ("12", ("10",)),               # would parse to labels 2,3 and (1 2)
        (("0",), ((0,),)),
    ])
    def test_non_integer_entries(self, labels, perms):
        with pytest.raises(TypeError):
            TraceMonomial(labels=labels, perms=perms)

    def test_numpy_integer_entries(self):
        mon = TraceMonomial(labels=np.array([0, 1]), perms=(np.array([1, 0], dtype=np.int8),))
        assert mon == TraceMonomial(labels=(0, 1), perms=((1, 0),))
        assert all(type(x) is int for x in mon.labels + mon.perms[0])

    def test_str(self):
        mon = TraceMonomial(labels=(0, 0, 1), perms=((0, 2, 1), (1, 0, 2)))
        assert str(mon) == "1,1,2 (2 3);(1 2)"


class TestGirth:
    def test_mixed_rows(self):
        mon = TraceMonomial(labels=(0, 0, 1), perms=((0, 2, 1), (1, 0, 2)))
        assert girth_of(mon) == (2, 2)

    def test_identity_rows(self):
        mon = TraceMonomial(labels=(0, 0), perms=((0, 1), (0, 1)))
        assert girth_of(mon) == (1, 1)

    def test_long_cycle(self):
        mon = TraceMonomial(labels=(0,) * 3, perms=((1, 2, 0), (1, 0, 2)))
        assert girth_of(mon) == (3, 2)

    def test_generator_cap(self):
        assert generator_girth_cap(Dims((2, 3, 4, 5))) == (3, 6, 16, 25)


class TestNetwork:
    def test_connected(self):
        assert is_connected(TraceMonomial(labels=(0,), perms=((0,),)))
        assert is_connected(TraceMonomial(labels=(0, 0), perms=((1, 0),)))
        assert not is_connected(TraceMonomial(labels=(0, 0), perms=((0, 1),)))
        # two 2-cycles on disjoint rows still bridge all four boxes
        assert is_connected(
            TraceMonomial(labels=(0,) * 4, perms=((1, 0, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)))
        )


class TestCanonicalForm:
    def test_idempotent(self):
        mon = TraceMonomial(labels=(1, 0, 0), perms=((2, 0, 1), (0, 2, 1)))
        c = canonical_form(mon)
        assert canonical_form(c) == c

    def test_orbit_invariant(self):
        # conjugating every row and permuting labels accordingly lands in
        # the same class
        mon = TraceMonomial(labels=(0, 1, 0), perms=((1, 2, 0), (1, 0, 2)))
        tau = (2, 0, 1)
        tau_inv = invert_perm(tau)
        other = TraceMonomial(
            labels=tuple(mon.labels[tau_inv[j]] for j in range(3)),
            perms=tuple(compose(tau, compose(p, tau_inv)) for p in mon.perms),
        )
        assert canonical_form(other) == canonical_form(mon)

    def test_value_preserved(self):
        rng = np.random.default_rng(21)
        dims = Dims((2, 2))
        mon = TraceMonomial(labels=(0, 1, 0, 1), perms=((3, 0, 2, 1), (1, 3, 0, 2)))
        c = canonical_form(mon)
        for _ in range(10):
            mats = tuple(
                rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                for _ in range(2)
            )
            ops = OperatorTuple(dims, mats)
            a, b = eval_contract(mon, ops), eval_contract(c, ops)
            assert abs(a - b) <= 1e-10 * (1 + abs(a))

    def test_envelope(self):
        with pytest.raises(UnsupportedSizeError):
            canonical_form(TraceMonomial(labels=(0,) * 9, perms=(tuple(range(9)),)))


class TestEnumerate:
    def test_single_row_connected(self):
        mons = enumerate_monomials(1, 1, 3, connected_only=True)
        assert [str(m) for m in mons] == ["1 ()", "1,1 (1 2)", "1,1,1 (1 2 3)"]

    def test_two_rows_degree_two(self):
        mons = enumerate_monomials(2, 1, 2, connected_only=True)
        assert len(mons) == 4
        assert all(m == canonical_form(m) for m in mons)

    def test_girth_cap_filters(self):
        # cap (1, 1) keeps only all-identity monomials
        mons = enumerate_monomials(2, 1, 3, girth_cap=(1, 1))
        assert all(girth_of(m) == (1, 1) for m in mons)
        assert len(mons) == 3

    def test_connected_subset(self):
        allm = enumerate_monomials(2, 1, 3)
        conn = enumerate_monomials(2, 1, 3, connected_only=True)
        assert set(conn) <= set(allm)
        assert len(conn) < len(allm)

    def test_raw_listing(self):
        raw = enumerate_monomials(1, 1, 2, canonical=False)
        assert len(raw) == 3  # identity; then both perms of two boxes
        canon = enumerate_monomials(1, 1, 2)
        assert len(canon) == 3  # same here: each class has one raw member per tau anyway

    def test_raw_larger(self):
        # at degree 3 the raw listing repeats relabeling classes
        raw = enumerate_monomials(1, 1, 3, canonical=False)
        canon = enumerate_monomials(1, 1, 3)
        assert len(raw) == 1 + 2 + 6
        assert len(canon) == 1 + 2 + 3

    def test_labels_mix(self):
        mons = enumerate_monomials(1, 2, 2, connected_only=True)
        # Tr M1, Tr M2, Tr M1^2, Tr M1 M2, Tr M2^2
        assert len(mons) == 5

    def test_degree_envelope(self):
        with pytest.raises(UnsupportedSizeError):
            enumerate_monomials(1, 1, 9)

    def test_budget(self):
        with pytest.raises(UnsupportedSizeError):
            enumerate_monomials(4, 3, 6)

    @pytest.mark.parametrize("args, message", [
        ((0, 1, 2), "n must be an integer >= 1, got 0"),
        ((2, -1, 2), "m must be an integer >= 1, got -1"),
        ((2, 1, 0), "max_degree must be an integer >= 1, got 0"),
    ])
    def test_counts_below_one(self, args, message):
        with pytest.raises(ValueError, match=message):
            enumerate_monomials(*args)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            enumerate_monomials(2, 1, 2, girth_cap=(3,))
        # caps are integers >= 1; below 1 no permutation fits and the listing is empty
        for cap in [(0, 0), (1, 0), (-1, 2)]:
            with pytest.raises(ValueError, match="girth_cap entry must be an integer >= 1"):
                enumerate_monomials(2, 1, 3, girth_cap=cap)
        with pytest.raises(TypeError):
            enumerate_monomials(2, 1, 3, girth_cap=(1.5, 2))

    def test_deterministic(self):
        a = enumerate_monomials(2, 2, 3, connected_only=True)
        b = enumerate_monomials(2, 2, 3, connected_only=True)
        assert a == b


class TestIterMonomials:
    # the listing's checks, which ``_check_listing`` owns and
    # ``enumerate_monomials`` runs before it builds anything
    @pytest.mark.parametrize("args, kwargs, error", [
        ((0, 1, 2), {}, ValueError),
        ((2, 1, 0), {}, ValueError),
        ((2, 1, 2), {"girth_cap": (3,)}, ValueError),
        ((2, 1, 3), {"girth_cap": (1.5, 2)}, TypeError),
        ((2, 1.5, 3), {}, TypeError),
        ((1.0, 1, 2), {}, TypeError),
        ((2, 1, 2.0), {}, TypeError),
        ((2, 1, "3"), {}, TypeError),
        ((1, 1, 9), {}, UnsupportedSizeError),   # MAX_BOXES
        ((4, 3, 6), {}, UnsupportedSizeError),   # ENUM_BUDGET
        # caps above 1 leave every row's ell! candidates in the count
        ((4, 3, 6), {"girth_cap": (3, 3, 3, 3)}, UnsupportedSizeError),
    ])
    def test_checks_at_the_call(self, args, kwargs, error):
        with pytest.raises(error):
            _check_listing(*args, kwargs.get("girth_cap"))

    # the budget's edge in n, where 1 + 2^n raw candidates meet degree 2, and
    # in m, where m meet degree 1; n and m are clipped near the budget
    # before the count is summed, so the edge must not move
    @pytest.mark.parametrize("args, raises", [
        ((21, 1, 2), False),
        ((22, 1, 2), True),      # 4,194,305 raw candidates
        ((1, 4_000_000, 1), False),
        ((1, 4_000_001, 1), True),
        ((2, 1, 7), True),       # past degree 6, n >= 2 meets the budget
    ])
    def test_budget_edge(self, args, raises):
        if raises:
            with pytest.raises(UnsupportedSizeError, match="enumeration candidates"):
                _check_listing(*args, None)
        else:
            _check_listing(*args, None)

    @pytest.mark.parametrize("n, m", [(10**7, 1), (1, 10**9), (10**7, 10**9)])
    def test_huge_counts_raise_without_the_exact_sum(self, n, m):
        # the exact (ell!)^n * m^ell would take minutes to build and could not
        # be printed; the message names what it did compute
        with pytest.raises(UnsupportedSizeError, match="^lower bound on enumeration candidates"):
            _check_listing(n, m, 6, None)

    def test_numpy_integer_counts(self):
        assert enumerate_monomials(np.int64(2), np.int8(1), np.int32(3)) == enumerate_monomials(2, 1, 3)


def _oracle_max_cycle(p):
    return max(len(c) for c in cycle_decomposition(p))


def _oracle_connected(mon):
    parent = list(range(mon.n_boxes))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for p in mon.perms:
        for j, pj in enumerate(p):
            parent[find(j)] = find(pj)
    return len({find(j) for j in range(mon.n_boxes)}) == 1


@functools.lru_cache(maxsize=None)
def _oracle_classes(n, m, max_degree):
    """Every relabeling class up to max_degree: raw product listing, then
    brute-force canonical_form, then dedupe."""
    classes = set()
    for ell in range(1, max_degree + 1):
        perms_ell = list(itertools.permutations(range(ell)))
        for labels in itertools.product(range(m), repeat=ell):
            for perms in itertools.product(perms_ell, repeat=n):
                classes.add(canonical_form(TraceMonomial(labels=labels, perms=perms)))
    return classes


def oracle_listing(n, m, max_degree, girth_cap=None, connected_only=False):
    keep = [
        mon
        for mon in _oracle_classes(n, m, max_degree)
        if (girth_cap is None or all(_oracle_max_cycle(p) <= c for p, c in zip(mon.perms, girth_cap)))
        and (not connected_only or _oracle_connected(mon))
    ]
    return sorted(keep, key=lambda mon: (mon.degree, mon.labels, mon.perms))


# (n, m, highest degree the brute-force oracle reaches in well under a second)
ORACLE_GRID = [
    (1, 1, 5), (1, 2, 4), (1, 3, 4),
    (2, 1, 4), (2, 2, 3), (2, 3, 3),
    (3, 1, 3), (3, 2, 3), (3, 3, 3),
]


def oracle_caps(n):
    return [None, (1,) * n, (2,) * n, (3,) * n, tuple(1 + (i % 3) for i in range(n))[::-1]]


class TestEnumerateOracle:
    @pytest.mark.parametrize("n,m,max_degree", ORACLE_GRID)
    def test_matches_brute_force(self, n, m, max_degree):
        for degree in range(1, max_degree + 1):
            for cap in oracle_caps(n):
                for connected in (False, True):
                    got = enumerate_monomials(n, m, degree, girth_cap=cap, connected_only=connected)
                    assert got == oracle_listing(n, m, degree, cap, connected), (degree, cap, connected)

    def test_raw_listing_is_product_order(self):
        perms3 = list(itertools.permutations(range(3)))
        want = [
            TraceMonomial(labels=labels, perms=perms)
            for ell, rows in ((1, [(0,)]), (2, [(0, 1), (1, 0)]), (3, perms3))
            for labels in itertools.product(range(2), repeat=ell)
            for perms in itertools.product(rows, repeat=2)
            if all(_oracle_max_cycle(p) <= 2 for p in perms)
        ]
        assert enumerate_monomials(2, 2, 3, girth_cap=(2, 2), canonical=False) == want


def _partitions(ell, largest=None):
    largest = ell if largest is None else largest
    if ell == 0:
        yield ()
        return
    for k in range(min(ell, largest), 0, -1):
        for rest in _partitions(ell - k, k):
            yield (k, *rest)


def _centralizer_order(shape):
    z = 1
    for k, a in Counter(shape).items():
        z *= k**a * math.factorial(a)
    return z


def burnside_count(n, m, max_degree):
    """Relabeling classes up to max_degree:
    sum over ell <= max_degree and partitions lambda of ell of
    m^len(lambda) * z_lambda^(n-1)."""
    return sum(
        m ** len(shape) * _centralizer_order(shape) ** (n - 1)
        for ell in range(1, max_degree + 1)
        for shape in _partitions(ell)
    )


class TestEnumerateCount:
    def test_burnside_small(self):
        assert burnside_count(1, 1, 3) == 1 + 2 + 3
        assert burnside_count(2, 1, 2) == 1 + (2 + 2)

    # one row reaches degree 8, MAX_BOXES, within the budget; the canonical
    # forms are not rechecked here, at 0.2 s each on eight boxes
    @pytest.mark.parametrize("m, max_degree, count", [(1, 8, 66), (2, 7, 646)])
    def test_single_row_past_degree_six(self, m, max_degree, count):
        mons = enumerate_monomials(1, m, max_degree)
        assert len(mons) == burnside_count(1, m, max_degree) == count
        assert len(set(mons)) == count

    def test_single_row_raw_degree_eight(self):
        # the sum of ell! over ell <= 8
        assert len(enumerate_monomials(1, 1, 8, canonical=False)) == 46_233

    @pytest.mark.parametrize("n, m, max_degree", [
        (1, 1, 6), (1, 3, 4), (2, 1, 5), (2, 2, 4), (3, 1, 4), (3, 2, 3), (4, 2, 2),
    ])
    def test_canonical_count_per_degree(self, n, m, max_degree):
        # the package's per-degree count against each degree of the listing
        degrees = Counter(mon.degree for mon in enumerate_monomials(n, m, max_degree))
        counts = [canonical_count(n, m, ell) for ell in range(1, max_degree + 1)]
        assert counts == [degrees[ell] for ell in range(1, max_degree + 1)]
        assert sum(counts) == burnside_count(n, m, max_degree)

    @pytest.mark.parametrize("n,m,max_degree", [(2, 1, 6), (3, 2, 4), (4, 1, 4)])
    def test_count_matches_burnside(self, n, m, max_degree):
        mons = enumerate_monomials(n, m, max_degree)
        assert len(mons) == burnside_count(n, m, max_degree)
        assert len(set(mons)) == len(mons)
        rng = np.random.default_rng(n * 100 + m * 10 + max_degree)
        for k in rng.choice(len(mons), size=40, replace=False):
            assert canonical_form(mons[k]) == mons[k]
