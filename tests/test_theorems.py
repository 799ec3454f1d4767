import functools
import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from quasikernel import (
    Partition,
    PostconditionViolationError,
    enumerate_digraphs,
    kernel_perfect_number,
    large_qk_from_partition,
    mask_of,
    quasi_kernel_covering,
    small_qk_from_partition,
    small_qk_with_sources,
    vertices_of,
)
from quasikernel.digraph import (
    _ranks,
    _row_union,
    digraph_from_code,
    induced,
    is_acyclic_set,
    is_sink_free,
    n_minus_closed,
    n_minus_set,
    sources_not_sinks,
)
from quasikernel.generators import make, parse_family, random_digraph
from quasikernel.solvers import (
    _independent_extends,
    _is_kernel_of,
    _is_quasi_kernel_of,
    _maximalize_within,
    _min_partition_rgs,
    _underlying_rows,
    is_kernel_perfect,
    is_quasi_kernel,
)
from quasikernel import theorems
from quasikernel.theorems import SmallQkTrace, _extend_within

import oracles
from conftest import all_digraphs, dg, mask_to_set, seeded_digraphs, set_to_mask
from oracles import oracle_sources_via_blowup


sink_free_n3 = list(enumerate_digraphs(3, sink_free=True))
n4_codes = st.integers(min_value=0, max_value=(1 << 12) - 1)


def independent_partition(d):
    """Partition into independent parts (independent sets are kernel-perfect)."""
    if d.n == 0:
        return Partition(())
    _, parts = _min_partition_rgs(d.n, _independent_extends(_underlying_rows(d)), 1, d.n + 1)
    return Partition(parts)


# ---------------------------------------------------------------------------
# growing a dominating kernel-perfect set


def test_extend_grows_to_domination():
    d = dg(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    grown = _extend_within(d, mask_of([0]), d.vertex_mask)
    assert n_minus_closed(d, grown) == d.vertex_mask
    assert grown & mask_of([0]) == mask_of([0])
    # nothing absorbed may lie in N^-(p) = {3}
    assert grown & mask_of([3]) == 0


@given(n4_codes, st.integers(min_value=0, max_value=3))
@settings(max_examples=60)
def test_extend_postconditions(code, v):
    d = digraph_from_code(4, code)
    p = 1 << v
    grown = _extend_within(d, p, d.vertex_mask)
    assert grown & p == p
    assert n_minus_closed(d, grown) == d.vertex_mask
    assert (grown & ~p) & n_minus_set(d, p) == 0


# ---------------------------------------------------------------------------
# working inside a vertex subset S in the digraph's own labels
#
# The constructions grow, search and re-check within a subset S without
# building the copy induced(d, S).  Each helper must agree with the oracles
# run on that copy, for every Q: a set that leaves S is no (quasi-)kernel of
# D[S], and a path of D[S] may not step outside S.


def _subset_helpers_match_oracles_on_the_copy(d, s):
    sub, back = induced(d, s)
    place = _ranks(s)
    for q in range(1 << d.n):
        if q & ~s:
            assert not _is_quasi_kernel_of(d, q, s)
            assert not _is_kernel_of(d, q, s)
            continue
        q_sub = mask_to_set(_row_union(place, q))
        is_qk = oracles.oracle_is_qk(sub, q_sub)
        assert _is_quasi_kernel_of(d, q, s) == is_qk
        assert _is_kernel_of(d, q, s) == oracles.oracle_is_kernel(sub, q_sub)
        want = _row_union(back, set_to_mask(oracles.oracle_extend(sub, q_sub)))
        assert _extend_within(d, q, s) == want
        if is_qk:
            want = _row_union(back, set_to_mask(oracles.oracle_maximalize(sub, q_sub)))
            assert _maximalize_within(d, q, s) == want
        else:
            with pytest.raises(ValueError, match="input is not a quasi-kernel"):
                _maximalize_within(d, q, s)


def test_subset_helpers_match_oracles_exhaustively():
    for n in range(4):
        for d in all_digraphs(n):
            for s in range(1 << n):
                _subset_helpers_match_oracles_on_the_copy(d, s)


@given(n4_codes, st.integers(min_value=0, max_value=15))
@settings(max_examples=80)
def test_subset_helpers_match_oracles_n4(code, s):
    _subset_helpers_match_oracles_on_the_copy(digraph_from_code(4, code), s)


# ---------------------------------------------------------------------------
# covering quasi-kernels


def test_covering_golden(c5):
    q = quasi_kernel_covering(c5, mask_of([0]))
    assert is_quasi_kernel(c5, q)
    assert mask_of([0]) & ~n_minus_closed(c5, q) == 0
    assert q & n_minus_set(c5, mask_of([0])) == 0


def test_covering_rejects_bad_seed(c3):
    with pytest.raises(ValueError):
        quasi_kernel_covering(c3, c3.vertex_mask)


@given(n4_codes, st.integers(min_value=0, max_value=15))
@settings(max_examples=80)
def test_covering_postconditions(code, p):
    d = digraph_from_code(4, code)
    if not is_kernel_perfect(d, p):
        return
    q = quasi_kernel_covering(d, p)
    assert is_quasi_kernel(d, q)
    assert p & ~n_minus_closed(d, q) == 0
    assert q & n_minus_set(d, p) == 0


# ---------------------------------------------------------------------------
# the small-side pipeline


def test_leftover_kernel_vertices_step_into_the_remainder():
    # Sources 2 and 4 point into the 4-cycle 0 -> 1 -> 3 -> 0.  The kernel
    # {1, 2, 4} shrinks to the core {1}; of the leftover {2, 4} only 2 has an
    # arc into the remainder {2, 3, 4}, so the "otherwise" shape is {1, 2}.
    # The sources pipeline misses core vertex 3 and takes its source 2.
    d = dg(5, [(0, 1), (1, 3), (2, 3), (3, 0), (4, 0)])
    k, part = kernel_perfect_number(d)
    assert (k, part.parts) == (2, (mask_of([0, 1, 2, 4]), mask_of([3])))
    trace = small_qk_from_partition(d, part)
    assert (trace.kernel, trace.core, trace.remainder) == (mask_of([1, 2, 4]), mask_of([1]), mask_of([2, 3, 4]))
    assert (trace.branch, trace.result) == ("otherwise", mask_of([1, 2]))
    assert small_qk_with_sources(d, part).witness == mask_of([1, 2])


# The refined parts always partition V; corrupting either input of the
# refinement must trip the re-check rather than yield a witness.  A cover
# that returns a non-kernel leaves a gap, and repeated parts overlap.
@pytest.mark.parametrize("attr,fake,reason", [
    ("_cover", lambda d, p, size, w: mask_of([1]), "partition parts do not cover the vertex set"),
    ("_checked_parts", lambda d, partition, check_parts: [*partition.parts, mask_of([3])],
     "partition parts overlap at part 3"),
])
def test_small_rechecks_its_refined_parts(monkeypatch, attr, fake, reason):
    d = dg(5, [(0, 1), (1, 3), (2, 3), (3, 0), (4, 0)])
    _, part = kernel_perfect_number(d)
    monkeypatch.setattr(theorems, attr, fake)
    with pytest.raises(PostconditionViolationError,
                       match=f"^refined parts do not partition the vertex set: {reason}$"):
        small_qk_from_partition(d, part)


def test_small_golden_triangle(c3):
    k, part = kernel_perfect_number(c3)
    trace = small_qk_from_partition(c3, part)
    assert k == 2
    assert trace.result == mask_of([1])
    assert trace.branch == "otherwise"
    assert 2 * trace.result.bit_count() <= 1 * 3


def test_small_requires_sink_free():
    d = dg(2, [(0, 1)])
    with pytest.raises(ValueError):
        small_qk_from_partition(d, Partition((0b11,)), check_parts=False)


def test_small_rejects_bad_parts(c3):
    bad = Partition((c3.vertex_mask,))
    with pytest.raises(ValueError):
        small_qk_from_partition(c3, bad)


def test_small_trace_is_json_serializable(c4):
    _, part = kernel_perfect_number(c4)
    trace = small_qk_from_partition(c4, part)
    decoded = json.loads(json.dumps(trace.to_json()))
    assert decoded["result"] == list(vertices_of(trace.result))
    assert decoded["branch"] == trace.branch
    assert isinstance(trace, SmallQkTrace)


def test_small_exhaustive_n4_with_kp_partition():
    branches = set()
    for d in (d for n in range(5) for d in enumerate_digraphs(n, sink_free=True)):
        k, part = kernel_perfect_number(d)
        k = max(k, 2)
        trace = small_qk_from_partition(d, part)
        assert is_quasi_kernel(d, trace.result)
        assert k * trace.result.bit_count() <= (k - 1) * d.n
        # an empty remainder has no part to cover
        if trace.remainder == 0:
            assert (trace.branch, trace.result) == ("otherwise", trace.core)
        branches.add(trace.branch.split(":")[0])
    assert branches == {"part", "otherwise"}


@given(st.sampled_from(sink_free_n3))
def test_small_with_independent_partition(d):
    part = independent_partition(d)
    k = max(len(part.parts), 2)
    trace = small_qk_from_partition(d, part)
    assert is_quasi_kernel(d, trace.result)
    assert k * trace.result.bit_count() <= (k - 1) * d.n


# ---------------------------------------------------------------------------
# the large-side pipeline


def test_large_golden(c3):
    k, part = kernel_perfect_number(c3)
    res = large_qk_from_partition(c3, part)
    assert res.objective == n_minus_closed(c3, res.witness).bit_count()
    assert k * res.objective >= c3.n
    assert res.verified


def test_large_exhaustive_n3():
    for d in all_digraphs(3):
        k, part = kernel_perfect_number(d)
        k = max(k, 2)
        res = large_qk_from_partition(d, part)
        assert is_quasi_kernel(d, res.witness)
        assert k * res.objective >= d.n


@given(n4_codes)
@settings(max_examples=60)
def test_large_n4(code):
    d = digraph_from_code(4, code)
    k, part = kernel_perfect_number(d)
    res = large_qk_from_partition(d, part)
    assert is_quasi_kernel(d, res.witness)
    assert max(k, 2) * res.objective >= d.n


# ---------------------------------------------------------------------------
# the with-sources pipeline


def test_sources_golden():
    # two sources feeding a 2-cycle: s = 2, and the bound n - s/k bites
    d = dg(4, [(0, 1), (1, 2), (2, 1), (3, 2)])
    assert sources_not_sinks(d) == mask_of([0, 3])
    k, part = kernel_perfect_number(d)
    res = small_qk_with_sources(d, part)
    assert is_quasi_kernel(d, res.witness)
    assert k * res.witness.bit_count() <= k * d.n - 2


def test_sources_tolerates_sinks():
    # vertex 2 is a sink; 0 is a source; the pipeline must still work
    d = dg(3, [(0, 1), (1, 2)])
    k, part = kernel_perfect_number(d)
    res = small_qk_with_sources(d, part)
    assert is_quasi_kernel(d, res.witness)
    assert k * res.witness.bit_count() <= k * d.n - sources_not_sinks(d).bit_count()


def test_sources_exhaustive_n3():
    for d in all_digraphs(3):
        k, part = kernel_perfect_number(d)
        keff = max(k, 2)
        res = small_qk_with_sources(d, part)
        s = sources_not_sinks(d).bit_count()
        assert is_quasi_kernel(d, res.witness)
        assert keff * res.witness.bit_count() <= keff * d.n - s


@given(n4_codes)
@settings(max_examples=60, deadline=None)
def test_sources_n4(code):
    d = digraph_from_code(4, code)
    k, part = kernel_perfect_number(d)
    keff = max(k, 2)
    res = small_qk_with_sources(d, part)
    s = sources_not_sinks(d).bit_count()
    assert is_quasi_kernel(d, res.witness)
    assert keff * res.witness.bit_count() <= keff * d.n - s


def _assert_sources_match_blowup(d):
    _, part = kernel_perfect_number(d)
    res = small_qk_with_sources(d, part)
    assert vertices_of(res.witness) == tuple(sorted(oracle_sources_via_blowup(d, part)))


def test_sources_matches_blowup_exhaustive_n4():
    for n in range(5):
        for d in all_digraphs(n):
            if sources_not_sinks(d):
                _assert_sources_match_blowup(d)


@given(seeded_digraphs(5, 5))
@settings(max_examples=60, deadline=None)
def test_sources_matches_blowup_n5(d):
    assume(sources_not_sinks(d))
    _assert_sources_match_blowup(d)


# the blowups of these have 38 and 66 vertices
SOURCES_BEYOND_BLOWUP = ("random:8:1/4:5023932746043588245", "random:12:1/4:8959837491476124066")


@pytest.mark.parametrize("family", SOURCES_BEYOND_BLOWUP)
def test_sources_beyond_blowup_size(family):
    d = make(parse_family(family))
    k, part = kernel_perfect_number(d)
    res = small_qk_with_sources(d, part)
    keff = max(k, 2)
    assert is_quasi_kernel(d, res.witness)
    assert keff * res.witness.bit_count() <= keff * d.n - sources_not_sinks(d).bit_count()


# ---------------------------------------------------------------------------
# pinned outputs: a faster covering step must leave every witness in place


def _small_output(d, part):
    if not is_sink_free(d):
        return "-"
    return json.dumps(small_qk_from_partition(d, part, check_parts=False).to_json(), sort_keys=True)


def _large_output(d, part):
    res = large_qk_from_partition(d, part, check_parts=False)
    return f"{res.witness} {res.objective}"


def _sources_output(d, part):
    res = small_qk_with_sources(d, part, check_parts=False)
    return f"{res.witness} {res.objective}"


def _covering_output(d, part):
    return " ".join(str(quasi_kernel_covering(d, p)) for p in range(1 << d.n) if is_acyclic_set(d, p))


@functools.lru_cache(maxsize=None)
def _pin_corpus(name):
    """(digraph, kernel-perfect partition) pairs: every digraph on at most 4
    vertices, or 96 seeded random ones, 12 on each order 5..12."""
    if name == "n<=4":
        ds = [d for n in range(5) for d in all_digraphs(n)]
    else:
        ds = [random_digraph(n, p, 1000 * n + 10 * i + j) for n in range(5, 13)
              for i, p in enumerate((Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)))
              for j in range(3)]
    return tuple((d, kernel_perfect_number(d)[1]) for d in ds)


@pytest.mark.parametrize("corpus,output,digest", [
    pytest.param("n<=4", _small_output, "6a60ffe2f634a809a8e0f8c62f06c497c505f278b78aa1339a484d0170de513d",
                 id="n4-small"),
    pytest.param("n<=4", _large_output, "7fcab62d29f9236ed721bba74acc5d7e605d56a6537b513d1acd37388f94c095",
                 id="n4-large"),
    pytest.param("n<=4", _sources_output, "3018c0cecea45a495aa716b747b2b7f898018b0afd311b704abd9f8ca6985174",
                 id="n4-sources"),
    pytest.param("n<=4", _covering_output, "702f1d9e3eac488fee87aa52c425fa6b2e49e46c420b568d5389e5ca14308544",
                 id="n4-covering"),
    pytest.param("random", _small_output, "c8511bfe1f324f9bad510dd2dd8a15efb9208f26268a3a297f64c1395a3f770c",
                 id="random-small"),
    pytest.param("random", _large_output, "9b6aadafe98ab59f59d7e5ebb32fefc755d7d2c82a338a175cd5aa7c04108764",
                 id="random-large"),
    pytest.param("random", _sources_output, "256288937518f389af46dcc5211f4727e05bd62bf96a6c20bc68ae18336994ce",
                 id="random-sources"),
    pytest.param("random", _covering_output, "722fc64034302e0d26805e651bf3407e90e6c63dd8ee536776f7df50e166b88e",
                 id="random-covering"),
])
def test_theorem_outputs_are_pinned(corpus, output, digest):
    h = hashlib.sha256()
    for d, part in _pin_corpus(corpus):
        h.update((output(d, part) + "\n").encode())
    assert h.hexdigest() == digest
