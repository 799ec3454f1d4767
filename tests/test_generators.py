from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quasikernel import Digraph, ParseError
from quasikernel.digraph import disjoint_union
from quasikernel.generators import (
    FAMILIES,
    FamilySpec,
    SplitMix64,
    c3_power,
    circulant_tournament,
    cycle,
    edgeless,
    make,
    parse_family,
    path,
    random_digraph,
    random_tournament,
    union_family,
)
from quasikernel.reductions import c3_blowup


# ---------------------------------------------------------------------------
# the word generator


def test_splitmix64_reference_vector():
    # first outputs for seed 0 from the reference implementation
    rng = SplitMix64(0)
    assert [rng.next_word() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_seed_wraps_mod_2_64():
    assert SplitMix64(1 << 64).next_word() == SplitMix64(0).next_word()


# ---------------------------------------------------------------------------
# fixed families


def test_cycle_shape():
    d = cycle(4)
    assert sorted(d.arcs()) == [(0, 1), (1, 2), (2, 3), (3, 0)]
    with pytest.raises(ValueError):
        cycle(1)


def test_path_shape():
    assert sorted(path(3).arcs()) == [(0, 1), (1, 2)]
    assert path(1).n == 1
    with pytest.raises(ValueError):
        path(0)


def test_edgeless():
    d = edgeless(5)
    assert d.rows == (0,) * 5
    with pytest.raises(ValueError):
        edgeless(-1)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_circulant_tournament_is_regular(n):
    d = circulant_tournament(n)
    half = (n - 1) // 2
    # a tournament: every unordered pair carries exactly one arc
    for u in range(n):
        assert d.rows[u].bit_count() == half
        assert d.in_rows[u].bit_count() == half
        for v in range(u + 1, n):
            assert d.rows[u] >> v & 1 != d.rows[v] >> u & 1


@pytest.mark.parametrize("n", [2, 4, 1])
def test_circulant_rejects_even_or_tiny(n):
    with pytest.raises(ValueError):
        circulant_tournament(n)


def test_c3_power_sizes_and_recursion():
    assert c3_power(0).n == 1
    assert c3_power(1).n == 3
    assert sorted(c3_power(1).arcs()) == [(0, 1), (1, 2), (2, 0)]
    two, _ = c3_blowup(c3_power(1))
    assert c3_power(2) == two
    with pytest.raises(ValueError):
        c3_power(-1)


FAMILY_ORDERS = [
    ("cycle:4", 4), ("path:3", 3), ("edgeless:0", 0), ("edgeless:5", 5), ("circulant:7", 7),
    ("c3pow:0", 1), ("c3pow:1", 3), ("c3pow:3", 27),
    ("random:6:1/3:42", 6), ("random:9:1/2:1", 9), ("random_tournament:5:7", 5),
    ("union:cycle:2,edgeless:3,c3pow:1", 8), ("union:path:1", 1),
]


@pytest.mark.parametrize("expr,order", FAMILY_ORDERS)
def test_every_family_gives_its_stated_order(expr, order):
    spec = parse_family(expr)
    assert make(spec).n == order
    if spec.kind == "union":
        assert order == sum(make(m).n for m in spec.args[0])
    if spec.kind == "c3pow":
        assert order == 3 ** spec.args[0]


def test_family_order_cases_cover_every_head():
    assert {parse_family(expr).kind for expr, _ in FAMILY_ORDERS} == set(FAMILIES)


@pytest.mark.parametrize("expr", [
    "cycle:1000000000", "path:1000000000", "edgeless:1000000000", "circulant:1000000001",
    "random:1000000000:1/2:1", "random_tournament:1000000000:1",
])
def test_oversized_orders_fail_before_any_work(expr):
    # each check runs before anything that grows with n is built or drawn
    with pytest.raises(ValueError, match=r"0\.\.63, got 100000000"):
        make(parse_family(expr))


# ---------------------------------------------------------------------------
# seeded random corpora


def test_random_digraph_frozen_golden():
    d = random_digraph(6, Fraction(1, 3), 42)
    assert sorted(d.arcs()) == [
        (0, 2), (0, 3), (0, 5), (1, 2), (2, 0), (3, 0),
        (3, 1), (3, 4), (4, 1), (4, 5), (5, 0),
    ]


def test_random_tournament_frozen_golden():
    t = random_tournament(5, 7)
    assert sorted(t.arcs()) == [
        (0, 2), (0, 3), (1, 0), (1, 2), (1, 4),
        (2, 3), (3, 1), (4, 0), (4, 2), (4, 3),
    ]


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_random_digraph_is_seed_deterministic(seed):
    a = random_digraph(5, Fraction(1, 2), seed)
    b = random_digraph(5, Fraction(1, 2), seed)
    assert a == b


def test_random_digraph_extreme_probabilities():
    assert random_digraph(4, Fraction(0), 3).rows == (0,) * 4
    full = random_digraph(4, Fraction(1), 3)
    assert len(list(full.arcs())) == 12
    with pytest.raises(ValueError):
        random_digraph(3, Fraction(3, 2), 0)


def test_random_digraph_density_sane():
    d = random_digraph(20, Fraction(1, 2), 1)
    assert 0.35 * 380 < len(list(d.arcs())) < 0.65 * 380


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_random_tournament_is_a_tournament(seed):
    t = random_tournament(4, seed)
    assert len(list(t.arcs())) == 6
    for u in range(4):
        for v in range(u + 1, 4):
            assert t.rows[u] >> v & 1 != t.rows[v] >> u & 1


# ---------------------------------------------------------------------------
# family expressions


@pytest.mark.parametrize("expr,kind,n", [
    ("cycle:5", "cycle", 5),
    ("path:2", "path", 2),
    ("edgeless:3", "edgeless", 3),
    ("circulant:7", "circulant", 7),
])
def test_parse_simple_families(expr, kind, n):
    assert parse_family(expr) == FamilySpec(kind, (n,))


def test_parse_power_and_random():
    assert parse_family("c3pow:2") == FamilySpec("c3pow", (2,))
    spec = parse_family("random:6:1/3:42")
    assert spec == FamilySpec("random", (6, Fraction(1, 3), 42))
    spec = parse_family("random_tournament:5:7")
    assert spec == FamilySpec("random_tournament", (5, 7))


def test_parse_union_and_make():
    spec = parse_family("union:cycle:2,cycle:4")
    assert spec == FamilySpec("union", ((FamilySpec("cycle", (2,)), FamilySpec("cycle", (4,))),))
    d = make(spec)
    assert d == disjoint_union(make(parse_family("cycle:2")), make(parse_family("cycle:4")))
    assert d.n == 6


@pytest.mark.parametrize("expr", [
    "mystery:3",
    "cycle",
    "cycle:x",
    "cycle:3:4",
    "random:5:0.5:1",
    "random:5:1/0:1",
    "random:5:1/2",
    "random_tournament:5",
    "union:",
    "union:union:cycle:3",
    "c3pow:x",
    # parameters are ASCII digits only: no other script, underscore or sign
    "cycle:٣",
    "random:1_0:1/2:1",
    "random:3:١/2:1",
    "cycle:+3",
    "cycle: 3",
    "random:5:1/2:-3",
    "random:5:1/2/3:1",
])
def test_parse_rejects(expr):
    with pytest.raises(ParseError):
        parse_family(expr)


def test_make_rejects_incomplete_specs():
    with pytest.raises(ValueError):
        make(FamilySpec("cycle"))
    with pytest.raises(ValueError):
        make(FamilySpec("random", (5, Fraction(1, 2))))
    with pytest.raises(ValueError):
        make(FamilySpec("mystery"))


def test_union_family_empty_is_trivial():
    assert union_family(()) == Digraph(())
