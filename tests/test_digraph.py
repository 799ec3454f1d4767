import contextlib
import copy
import dataclasses
import hashlib
import itertools
import math
import pickle
import signal
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quasikernel import (
    BudgetExceededError,
    Digraph,
    ParseError,
    enumerate_digraphs,
    iter_bits,
    mask_of,
    parse,
    vertices_of,
)
from quasikernel.digraph import (
    _lazy,
    _parity_reach,
    _ranks,
    _row_union,
    adjacency_code,
    check_partition,
    digraph_from_code,
    digraph_from_json,
    digraph_to_json,
    disjoint_union,
    dumps_json,
    induced,
    is_acyclic_set,
    is_independent,
    is_sink_free,
    loads_json,
    n_minus_closed,
    n_minus_set,
    n_plus_set,
    odd_dicycle_free,
    serialize,
    sources_not_sinks,
)
from quasikernel.generators import edgeless, random_digraph, random_tournament
from quasikernel.reductions import add_source_gadget, c3_blowup, weighted_blowup
from quasikernel.solvers import is_quasi_kernel, large_score, sharp_score

import oracles
from conftest import HOSTILE_JSON, all_digraphs, dg, least_codes, mask_to_set, set_to_mask, seeded_digraphs


def codes(n):
    return st.integers(min_value=0, max_value=(1 << (n * (n - 1))) - 1)


digraphs = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: codes(n).map(lambda c: digraph_from_code(n, c)))


# ---------------------------------------------------------------------------
# construction and validation


def test_rows_are_coerced_to_tuple():
    d = Digraph([0b10, 0b01])
    assert isinstance(d.rows, tuple)


def test_a_digraph_is_its_rows():
    assert [f.name for f in dataclasses.fields(Digraph)] == ["rows"]
    for rows in [(), (0,), (0b10, 0b01), (0b110, 0, 0b001)]:
        assert Digraph(rows).n == len(rows)
    assert Digraph([0b10, 0]) == Digraph((0b10, 0)) != Digraph((0b10, 0, 0))
    with pytest.raises(AttributeError):
        Digraph(()).n = 1


# The ids are the names these cases had when the order was a separate argument.
@pytest.mark.parametrize("rows,message", [
    pytest.param((0,) * 64, "vertex count must be in 0..63, got 64", id="64-rows1"),
    pytest.param((0b100, 0), "row 0 has bits outside 0..1", id="2-rows2"),
    pytest.param((0b01, 0), "self-loop at vertex 0", id="2-rows3"),
])
def test_bad_digraphs_rejected(rows, message):
    with pytest.raises(ValueError) as excinfo:
        Digraph(rows)
    assert str(excinfo.value) == message


# Every site that builds a digraph of a given order rejects it with one message.
@pytest.mark.parametrize("build,order", [
    pytest.param(lambda: Digraph((0,) * 64), 64, id="Digraph"),
    pytest.param(lambda: Digraph.from_arcs(64, []), 64, id="from_arcs"),
    pytest.param(lambda: disjoint_union(edgeless(32), edgeless(32)), 64, id="disjoint_union"),
    pytest.param(lambda: digraph_from_code(64, 0), 64, id="digraph_from_code"),
    pytest.param(lambda: edgeless(64), 64, id="edgeless"),
    pytest.param(lambda: random_digraph(64, Fraction(1, 2), 0), 64, id="random_digraph"),
    pytest.param(lambda: random_tournament(64, 0), 64, id="random_tournament"),
    pytest.param(lambda: add_source_gadget(edgeless(32), 1), 64, id="add_source_gadget"),
    pytest.param(lambda: weighted_blowup(edgeless(2), (32, 32)), 64, id="weighted_blowup"),
    pytest.param(lambda: c3_blowup(edgeless(22)), 66, id="c3_blowup"),
])
def test_order_above_63_rejected_with_one_message(build, order):
    with pytest.raises(ValueError) as excinfo:
        build()
    assert str(excinfo.value) == f"vertex count must be in 0..63, got {order}"


def test_digraph_from_code_checks_the_order_before_building_rows():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="vertex count must be in 0..63, got 100000"):
            digraph_from_code(10**5, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("n,arcs", [
    (2, [(0, 2)]),
    (2, [(2, 0)]),
    (2, [(1, 1)]),
    (2, [(0, 1), (0, 1)]),
    (-1, []),
])
def test_from_arcs_rejects(n, arcs):
    with pytest.raises(ValueError):
        Digraph.from_arcs(n, arcs)


def test_from_arcs_matches_rows():
    d = dg(3, [(0, 1), (2, 0), (2, 1)])
    assert d.rows == (0b010, 0, 0b011)
    assert list(d.arcs()) == [(0, 1), (2, 0), (2, 1)]


def test_arcs_are_lexicographic():
    d = dg(4, [(3, 0), (1, 2), (1, 0), (0, 3)])
    assert list(d.arcs()) == [(0, 3), (1, 0), (1, 2), (3, 0)]


@given(digraphs)
def test_in_rows_agree_with_reversed_adjacency(d):
    rad = oracles.radj_of(d)
    for v in range(d.n):
        assert mask_to_set(d.in_rows[v]) == rad[v]


# ---------------------------------------------------------------------------
# neighbourhoods


@given(digraphs, st.integers(min_value=0, max_value=(1 << 5) - 1))
def test_neighbourhood_sets_match_oracle(d, raw):
    s = raw & d.vertex_mask
    sset = mask_to_set(s)
    assert mask_to_set(n_minus_set(d, s)) == oracles.oracle_n_minus(d, sset)
    assert mask_to_set(n_minus_closed(d, s)) == oracles.oracle_n_minus_closed(d, sset)


def test_n_minus_excludes_members():
    # 0 -> 1 -> 2 plus 2 -> 1: vertex 1 is an in-neighbour of {1, 2} but a member
    d = dg(3, [(0, 1), (1, 2), (2, 1)])
    assert n_minus_set(d, mask_of([1, 2])) == mask_of([0])


def test_n_plus_set_is_exact_distance_one():
    d = dg(4, [(0, 1), (1, 2), (0, 2)])
    assert n_plus_set(d, mask_of([0])) == mask_of([1, 2])
    assert n_plus_set(d, mask_of([0, 1])) == mask_of([2])


@pytest.mark.parametrize("takes_mask", [
    n_plus_set, n_minus_set, n_minus_closed, is_independent, is_acyclic_set,
    induced, is_quasi_kernel, large_score, sharp_score,
], ids=lambda f: f.__name__)
@pytest.mark.parametrize("mask", [0b100, -1], ids=["0b100", "-1"])
def test_set_arguments_are_validated(takes_mask, mask):
    d = dg(2, [(0, 1)])
    with pytest.raises(ValueError, match="has bits outside 0..1"):
        takes_mask(d, mask)


def test_set_errors_name_the_top_vertex_not_the_mask():
    with pytest.raises(ValueError) as excinfo:
        n_plus_set(dg(2, [(0, 1)]), 1 << 1_000_000 | 1)
    assert str(excinfo.value) == "vertex set has bits outside 0..1: vertex 1000000"


@contextlib.contextmanager
def _within(seconds):
    """Raise TimeoutError inside the block once it has run for ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_negative_masks_are_rejected_not_walked():
    # a negative int has infinitely many set bits, so a bit walk never ends
    with pytest.raises(ValueError, match="negative mask"):
        list(itertools.islice(iter_bits(-1), 100))
    with _within(5), pytest.raises(ValueError, match="negative mask"):
        vertices_of(-1)


# ---------------------------------------------------------------------------
# predicates


def test_independent_and_acyclic_match_oracles_exhaustively():
    for n in range(5):
        for d in all_digraphs(n):
            for s in range(1 << n):
                sset = mask_to_set(s)
                assert is_independent(d, s) == oracles.oracle_is_independent(d, sset)
                assert is_acyclic_set(d, s) == oracles.oracle_is_acyclic(d, sset)
                assert mask_to_set(n_plus_set(d, s)) == oracles.oracle_n_plus(d, sset)
                assert mask_to_set(n_minus_set(d, s)) == oracles.oracle_n_minus(d, sset)
                assert mask_to_set(n_minus_closed(d, s)) == oracles.oracle_n_minus_closed(d, sset)


def test_sinks_and_sources():
    d = dg(4, [(0, 1), (1, 2), (3, 2)])
    assert sources_not_sinks(d) == mask_of([0, 3])
    assert not is_sink_free(d)
    assert is_sink_free(dg(2, [(0, 1), (1, 0)]))


def test_isolated_vertex_is_sink_not_source():
    d = dg(2, [(0, 1)])  # vertex 1 isolated on the out side
    assert sources_not_sinks(d) == mask_of([0])


# ---------------------------------------------------------------------------
# constructions


def test_induced_relabels_in_order():
    d = dg(4, [(0, 2), (2, 3), (3, 0), (1, 3)])
    s = mask_of([0, 2, 3])
    sub, back = induced(d, s)
    assert back == (1 << 0, 1 << 2, 1 << 3)
    assert _ranks(s) == [1 << 0, 0, 1 << 1, 1 << 2]
    assert list(sub.arcs()) == [(0, 1), (1, 2), (2, 0)]


@given(digraphs, st.integers(min_value=0, max_value=(1 << 5) - 1), st.integers(min_value=0))
def test_induced_rank_table_roundtrip(d, raw, subset):
    # a subset T of S goes to the copy's labels through the rank table and
    # comes back through the back rows, and the copy's arcs are D's arcs
    s = raw & d.vertex_mask
    t = subset & s
    sub, back = induced(d, s)
    place = _ranks(s)
    assert sub.n == len(back) == s.bit_count()
    assert [b.bit_count() for b in back] == [1] * sub.n
    assert _row_union(back, sub.vertex_mask) == s
    assert _row_union(place, s) == sub.vertex_mask
    assert _row_union(back, _row_union(place, t)) == t
    assert _row_union(place, t) == sum(1 << j for j, v in enumerate(vertices_of(s)) if t >> v & 1)
    for u in range(sub.n):
        assert _row_union(back, sub.rows[u]) == d.rows[back[u].bit_length() - 1] & s


def test_disjoint_union_shifts_second():
    a = dg(2, [(0, 1)])
    b = dg(2, [(1, 0)])
    u = disjoint_union(a, b)
    assert list(u.arcs()) == [(0, 1), (3, 2)]


@given(digraphs, digraphs)
def test_disjoint_union_order_and_arcs(a, b):
    u = disjoint_union(a, b)
    assert u.n == a.n + b.n
    assert list(u.arcs()) == [*a.arcs(), *((x + a.n, y + a.n) for x, y in b.arcs())]


# ---------------------------------------------------------------------------
# odd dicycles


def test_odd_dicycle_free_matches_cycle_enumeration():
    for d in all_digraphs(3):
        assert odd_dicycle_free(d) == (not oracles.oracle_has_odd_dicycle(d))


@given(st.integers(min_value=0, max_value=(1 << 20) - 1))
def test_odd_dicycle_free_matches_oracle_n5(code):
    d = digraph_from_code(5, code)
    assert odd_dicycle_free(d) == (not oracles.oracle_has_odd_dicycle(d))


def test_even_cycles_are_odd_free():
    assert odd_dicycle_free(dg(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    assert not odd_dicycle_free(dg(3, [(0, 1), (1, 2), (2, 0)]))


def test_two_cycle_is_even():
    assert odd_dicycle_free(dg(2, [(0, 1), (1, 0)]))


def test_parity_reach_matches_walk_oracle_exhaustively():
    for n in range(1, 5):
        for d in all_digraphs(n):
            for s in range(1, 1 << n):
                for v in iter_bits(s):
                    even, odd = _parity_reach(d.rows, s, v)
                    assert (mask_to_set(even), mask_to_set(odd)) == oracles.oracle_parity_reach(
                        d, mask_to_set(s), v)


@given(seeded_digraphs(6, 8))
@settings(max_examples=40, deadline=None)
def test_odd_dicycle_free_matches_oracle_n6_to_n8(d):
    assert odd_dicycle_free(d) == (not oracles.oracle_has_odd_dicycle(d))


# ---------------------------------------------------------------------------
# codes, enumeration, isomorphism classes


@given(digraphs)
def test_adjacency_code_roundtrip(d):
    back = digraph_from_code(d.n, adjacency_code(d))
    assert back == d and back.n == d.n


def test_code_rejects_out_of_range():
    with pytest.raises(ValueError):
        digraph_from_code(2, 4)


def _arc_code(d):
    # the packing by its definition: arc u -> v is bit u*(n-1) + v, with v
    # lowered by one above the skipped diagonal
    w = d.n - 1
    return sum(1 << (u * w + (v if v < u else v - 1)) for u, v in d.arcs())


@pytest.mark.parametrize("n", range(5))
def test_adjacency_code_is_the_arc_packing(n):
    for code, d in enumerate(all_digraphs(n)):
        assert adjacency_code(d) == _arc_code(d) == code
        assert digraph_from_code(n, code) == d


@pytest.mark.parametrize("n", range(5))
def test_enumeration_is_in_code_order_and_complete(n):
    every = [digraph_from_code(n, c) for c in range(1 << (n * (n - 1)))]
    labeled = list(enumerate_digraphs(n))
    sink_free = list(enumerate_digraphs(n, sink_free=True))
    canonical = list(enumerate_digraphs(n, canonical=True))
    sink_free_canonical = list(enumerate_digraphs(n, sink_free=True, canonical=True))
    least = [d for code, d in enumerate(every) if least_codes(n)[code] == code]
    assert labeled == every
    assert sink_free == [d for d in every if is_sink_free(d)]
    assert canonical == least
    assert sink_free_canonical == [d for d in least if is_sink_free(d)]
    assert all(d.n == n for d in every + labeled + sink_free + canonical + sink_free_canonical)


def _same_as_validated(d, validated):
    assert type(d) is Digraph
    assert vars(d) == vars(validated)  # before any lazy attribute fills in
    assert d == validated
    assert (hash(d), repr(d)) == (hash(validated), repr(validated))
    assert (d.in_rows, d.vertex_mask) == (validated.in_rows, validated.vertex_mask)
    for twin in (pickle.loads(pickle.dumps(d)), copy.copy(d)):
        assert type(twin) is Digraph and twin == d and twin.in_rows == d.in_rows


def test_lazy_attributes_are_descriptors_with_their_docstrings():
    for name, doc in (("n", "The vertex count"), ("in_rows", "Bit rows of the reversed digraph"),
                      ("vertex_mask", "Mask of all n")):
        lazy = vars(Digraph)[name]
        assert type(lazy) is _lazy and getattr(Digraph, name) is lazy
        assert lazy.__doc__.startswith(doc) and lazy.name == name


def test_lazy_attributes_compute_once_into_the_instance_dict(monkeypatch):
    calls = []
    for name in ("n", "in_rows", "vertex_mask"):
        lazy = vars(Digraph)[name]
        monkeypatch.setattr(lazy, "func", lambda d, func=lazy.func, name=name: calls.append(name) or func(d))
    for d in (Digraph((0b110, 0b001, 0b010)), next(enumerate_digraphs(3, sink_free=True))):
        calls.clear()
        before = (hash(d), repr(d), Digraph(d.rows) == d)
        assert vars(d) == {"rows": d.rows}
        first = (d.n, d.in_rows, d.vertex_mask)
        assert vars(d) == {"rows": d.rows, "n": first[0], "in_rows": first[1], "vertex_mask": first[2]}
        assert (d.n, d.in_rows, d.vertex_mask) == first and calls == ["n", "in_rows", "vertex_mask"]
        assert first == (3, Digraph(d.rows).in_rows, 0b111)
        assert (hash(d), repr(d), Digraph(d.rows) == d) == before
        for name in ("rows", "n", "in_rows", "vertex_mask"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(d, name, ())
        assert (vars(d)["n"], vars(d)["in_rows"]) == first[:2]


@pytest.mark.parametrize("n", range(5))
def test_stream_digraphs_are_indistinguishable_from_validated_ones(n):
    # the streams assemble digraphs from table rows they checked once each;
    # every such digraph must be the one Digraph(rows) builds
    for sink_free, canonical in itertools.product((False, True), repeat=2):
        for d in enumerate_digraphs(n, sink_free=sink_free, canonical=canonical):
            _same_as_validated(d, Digraph(d.rows))


def test_n5_stream_digraphs_are_indistinguishable_from_decoded_ones():
    for sink_free in (False, True):
        sample = itertools.islice(enumerate_digraphs(5, sink_free=sink_free), 0, None, 31)
        for d in sample:
            code = adjacency_code(Digraph(d.rows))  # adjacency_code(d) would fill in d's lazy n
            _same_as_validated(d, digraph_from_code(5, code))


@pytest.mark.parametrize("n", [*range(5), pytest.param(5, marks=pytest.mark.slow)])
def test_class_streams_stand_for_every_labeled_digraph(n):
    # orbit-stabiliser: a class with automorphism group Aut(D) holds
    # n!/|Aut(D)| labeled digraphs, so the classes' sizes add up to the
    # labeled stream, 2^(n(n-1)), and to the sink-free one, (2^(n-1) - 1)^n
    def labeled_total(stream):
        return sum(math.factorial(n) // oracles.oracle_automorphism_count(d) for d in stream)

    assert labeled_total(enumerate_digraphs(n, canonical=True)) == 2 ** (n * (n - 1))
    assert (labeled_total(enumerate_digraphs(n, sink_free=True, canonical=True))
            == (Fraction(2) ** (n - 1) - 1) ** n)


@pytest.mark.parametrize("n,total,sink_free_total", [
    (0, 1, 1),
    (1, 1, 0),
    (2, 4, 1),
    (3, 64, 27),
    (4, 4096, 2401),
])
def test_enumeration_counts(n, total, sink_free_total):
    assert sum(1 for _ in enumerate_digraphs(n)) == total
    assert sum(1 for _ in enumerate_digraphs(n, sink_free=True)) == sink_free_total


def _class_counts(n):
    return (sum(1 for _ in enumerate_digraphs(n, canonical=True)),
            sum(1 for _ in enumerate_digraphs(n, sink_free=True, canonical=True)))


def test_unlabeled_counts_match_the_literature():
    # numbers of digraphs on n unlabeled vertices (OEIS A000273): 1, 1, 3,
    # 16, 218; the sink-free classes are pinned by the orbit sums above
    got = [_class_counts(n) for n in range(5)]
    assert got == [(1, 1), (1, 0), (3, 1), (16, 7), (218, 126)]


@pytest.mark.slow
def test_unlabeled_counts_n5():
    # A000273 gives 9,608 classes on five vertices
    assert _class_counts(5) == (9608, 6874)


# sha256 of the n = 5 class streams: a rewrite of the stream must yield the
# same representatives in the same order
@pytest.mark.slow
@pytest.mark.parametrize("sink_free,digest", [
    (False, "c8766ad64b73c88fdf954a60654a8712bd8c410af51839672f3697fc7eaf2db2"),
    (True, "95176249335c665f2f5e0c7001a40661cb96ddbdc9d4ff21cf9bc1e71dbe4290"),
])
def test_n5_class_stream_bytes_are_pinned(sink_free, digest):
    h = hashlib.sha256()
    for d in enumerate_digraphs(5, sink_free=sink_free, canonical=True):
        h.update(serialize(d).encode())
    assert h.hexdigest() == digest


def test_enumeration_budgets():
    with pytest.raises(BudgetExceededError):
        next(enumerate_digraphs(6))
    with pytest.raises(BudgetExceededError):
        next(enumerate_digraphs(6, canonical=True))
    with pytest.raises(BudgetExceededError):
        next(enumerate_digraphs(7, canonical=True))


# ---------------------------------------------------------------------------
# text and JSON formats


def test_parse_basic_and_comments():
    text = "# a triangle\n3\n0 1\n1 2  # inline note\n\n2 0\n"
    d = parse(text)
    assert list(d.arcs()) == [(0, 1), (1, 2), (2, 0)]


@given(digraphs)
def test_serialize_parse_roundtrip(d):
    assert parse(serialize(d)) == d


MALFORMED = {
    "": "missing header line with the vertex count",
    "# only comments\n": "missing header line with the vertex count",
    "x\n": "malformed header 'x': expected a vertex count",
    "2\n0\n": "malformed arc line '0': expected 'u v'",
    "2\n0 1 2\n": "malformed arc line '0 1 2': expected 'u v'",
    "2\n0 a\n": "malformed arc line '0 a': expected two integers",
    "2\n0 2\n": "arc (0, 2) out of range for n=2",
    "2\n1 1\n": "self-loop at vertex 1",
    "2\n0 1\n0 1\n": "duplicate arc (0, 1)",
    "64\n": "vertex count must be in 0..63, got 64",
    # counts and indices are ASCII digits only
    "٣\n": "malformed header '٣': expected a vertex count",
    "+2\n": "malformed header '+2': expected a vertex count",
    "1_0\n": "malformed header '1_0': expected a vertex count",
    "3\n1 ٢\n": "malformed arc line '1 ٢': expected two integers",
    "3\n0 -1\n": "malformed arc line '0 -1': expected two integers",
}


@pytest.mark.parametrize("text", list(MALFORMED))
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == MALFORMED[text]


@given(digraphs)
def test_json_roundtrip(d):
    assert loads_json(dumps_json(d)) == d
    assert digraph_from_json(digraph_to_json(d)) == d


@pytest.mark.parametrize("obj", [
    [],
    {},
    {"n": 2},
    {"arcs": []},
    {"n": "2", "arcs": []},
    {"n": True, "arcs": []},
    {"n": 2, "arcs": {}},
    {"n": 2, "arcs": [[0]]},
    {"n": 2, "arcs": [[0, 1, 2]]},
    {"n": 2, "arcs": [[0, "1"]]},
    {"n": 2, "arcs": [[0, 2]]},
    {"n": 2, "arcs": [[1, 1]]},
    {"n": 64, "arcs": []},
])
def test_json_rejects_malformed(obj):
    with pytest.raises(ParseError):
        digraph_from_json(obj)


def test_loads_json_rejects_bad_syntax():
    for text in ("{not json", *HOSTILE_JSON):
        with pytest.raises(ParseError, match="^invalid JSON: "):
            loads_json(text)


# ---------------------------------------------------------------------------
# partitions


def test_check_partition():
    d = dg(2, [(0, 1)])
    check_partition(d, (0b01, 0b10))
    check_partition(d, [0b11, 0])
    with pytest.raises(ValueError, match="^partition parts overlap at part 1$"):
        check_partition(d, (0b01, 0b01))
    with pytest.raises(ValueError, match="^partition parts do not cover the vertex set$"):
        check_partition(d, (0b01,))
    with pytest.raises(ValueError, match="^vertex set has bits outside 0..1"):
        check_partition(d, (0b01, 0b110))


def test_mask_helpers():
    assert mask_of([0, 2, 5]) == 0b100101
    assert vertices_of(0b100101) == (0, 2, 5)
    assert set_to_mask(mask_to_set(0b1011)) == 0b1011
