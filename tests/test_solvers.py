import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quasikernel import (
    BudgetExceededError,
    Digraph,
    Partition,
    PostconditionViolationError,
    chromatic_number,
    dichromatic_number,
    find_kernel,
    heavy_independent_set,
    kernel_perfect_number,
    large_score,
    mask_of,
    max_large_quasi_kernel,
    max_sharp_quasi_kernel,
    min_quasi_kernel,
    sharp_score,
    vertices_of,
)
from quasikernel import solvers, theorems
from quasikernel.digraph import (
    _is_acyclic_rows,
    _row_union,
    digraph_from_code,
    induced,
    is_acyclic_set,
    is_independent,
    n_minus_set,
    n_plus_set,
    odd_dicycle_free,
)
from quasikernel.generators import make, parse_family, random_digraph
from quasikernel.solvers import (
    SolveResult,
    _acyclic_extends,
    _clique_bound,
    _dichromatic_bound,
    _greedy_clique,
    _greedy_colouring,
    _independent_extends,
    _induced_triangle,
    _is_kernel_of,
    _kernel_perfect_bound,
    _kernel_perfect_extends,
    _kernel_perfect_through,
    _least_kernel,
    _maximalize_within,
    _one_way_rows,
    _partition_number,
    _underlying_rows,
    check_set,
    is_kernel_perfect,
    is_quasi_kernel,
    quasi_kernels,
)

import oracles
from conftest import all_digraphs, dg, mask_to_set, set_to_mask, seeded_digraphs


n4_codes = st.integers(min_value=0, max_value=(1 << 12) - 1)
n5_codes = st.integers(min_value=0, max_value=(1 << 20) - 1)


# ---------------------------------------------------------------------------
# kernels


def test_kernel_predicates_match_oracle():
    for n in range(5):
        for d in all_digraphs(n):
            for s in range(1 << n):
                sset = mask_to_set(s)
                assert _is_kernel_of(d, s, d.vertex_mask) == oracles.oracle_is_kernel(d, sset)
                assert is_quasi_kernel(d, s) == oracles.oracle_is_qk(d, sset)


def test_find_kernel_none_on_odd_cycles(c3, c5):
    assert find_kernel(c3).witness is None
    assert find_kernel(c5).witness is None
    assert find_kernel(c3).verified


def test_find_kernel_picks_lexicographically_first(c4):
    res = find_kernel(c4)
    assert res.witness == mask_of([0, 2])
    assert res.objective == 2


@given(n4_codes)
def test_find_kernel_matches_oracle(code):
    d = digraph_from_code(4, code)
    res = find_kernel(d)
    kernels = oracles.oracle_kernels(d)
    if res.witness is None:
        assert kernels == []
    else:
        assert frozenset(vertices_of(res.witness)) in kernels
        assert res.objective == min(len(k) for k in kernels)


def _first_kernel_and_heavy_match_oracles(d):
    want = oracles.oracle_first_kernel(d)
    res = find_kernel(d)
    assert res.witness == (None if want is None else set_to_mask(want))
    assert res.objective == (0 if want is None else len(want))
    want = oracles.oracle_first_heavy(d)
    if want is None:
        with pytest.raises(PostconditionViolationError, match="potential counterexample"):
            heavy_independent_set(d)
    else:
        assert heavy_independent_set(d) == set_to_mask(want)


def test_first_kernel_and_heavy_match_oracles_exhaustively():
    for n in range(5):
        for d in all_digraphs(n):
            _first_kernel_and_heavy_match_oracles(d)


@given(seeded_digraphs(6, 9))
@settings(max_examples=40, deadline=None)
def test_first_kernel_and_heavy_match_oracles_n6_to_n9(d):
    _first_kernel_and_heavy_match_oracles(d)


def test_find_kernel_budget():
    assert find_kernel(Digraph((0,) * 32)) == SolveResult((1 << 32) - 1, 32, True)
    with pytest.raises(BudgetExceededError, match="n <= 32"):
        find_kernel(Digraph((0,) * 33))


def test_every_tournament_without_kernel_has_one_loser():
    # in a tournament a kernel is a single vertex beating everyone, i.e. an
    # in-dominating vertex; check the equivalence on all 3-vertex tournaments
    for arcs in itertools.product([(0, 1), (1, 0)], [(0, 2), (2, 0)], [(1, 2), (2, 1)]):
        d = dg(3, list(arcs))
        has = find_kernel(d).witness is not None
        wins = any(d.in_rows[v] == (d.vertex_mask ^ (1 << v)) for v in range(3))
        assert has == wins


# ---------------------------------------------------------------------------
# quasi-kernels


def _min_quasi_kernel_matches_oracle(d):
    want = set_to_mask(oracles.oracle_first_min_qk(d))
    assert min_quasi_kernel(d) == SolveResult(want, want.bit_count(), True)


def test_min_quasi_kernel_matches_oracle_exhaustively():
    for n in range(5):
        for d in all_digraphs(n):
            _min_quasi_kernel_matches_oracle(d)


@given(st.integers(min_value=6, max_value=10),
       st.sampled_from([Fraction(1, 16), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)]),
       st.integers(min_value=0, max_value=(1 << 64) - 1))
@settings(max_examples=40, deadline=None)
def test_min_quasi_kernel_matches_oracle(n, p, seed):
    _min_quasi_kernel_matches_oracle(random_digraph(n, p, seed))


def test_min_quasi_kernel_is_first_by_size_then_mask(c4):
    assert min_quasi_kernel(c4).witness == mask_of([0, 2])
    d = dg(3, [(0, 1), (2, 1)])
    # {1} dominates 0 and 2 in one step; vertex 1 is the smallest such mask
    assert min_quasi_kernel(d).witness == mask_of([1])


def test_min_quasi_kernel_pinned_at_order_30_and_32():
    # an edgeless digraph's only quasi-kernel is everything
    assert min_quasi_kernel(make(parse_family("edgeless:32"))) == SolveResult((1 << 32) - 1, 32, True)
    # a directed triangle needs exactly one of its vertices, and its least
    # vertex reaches the other two within two arcs
    triangles = dg(30, [(3 * i + j, 3 * i + (j + 1) % 3) for i in range(10) for j in range(3)])
    assert min_quasi_kernel(triangles) == SolveResult(mask_of(range(0, 30, 3)), 10, True)


def test_min_quasi_kernel_budget():
    # every other vertex has an arc into vertex 0, so {0} is found at once
    star = dg(32, [(v, 0) for v in range(1, 32)])
    assert min_quasi_kernel(star) == SolveResult(1, 1, True)
    with pytest.raises(BudgetExceededError, match="n <= 32"):
        min_quasi_kernel(dg(33, [(v, 0) for v in range(1, 33)]))


@given(n4_codes)
def test_max_large_matches_oracle(code):
    d = digraph_from_code(4, code)
    res = max_large_quasi_kernel(d)
    assert res.objective == oracles.oracle_max_large(d)
    assert res.objective == large_score(d, res.witness)


@given(n4_codes)
def test_max_sharp_matches_oracle(code):
    d = digraph_from_code(4, code)
    res = max_sharp_quasi_kernel(d)
    assert res.objective == oracles.oracle_max_sharp(d)
    assert res.objective == sharp_score(d, res.witness)


def _digraphs_of_order(lo, hi):
    return st.integers(min_value=lo, max_value=hi).flatmap(
        lambda n: st.builds(digraph_from_code, st.just(n),
                            st.integers(min_value=0, max_value=(1 << n * (n - 1)) - 1)))


def _scored_sets(d, s, undirected):
    """Every (K, N^-(K), N^+(K)) that the search scores, in order; its key
    skips them all, so it finds none."""
    got = []
    assert _least_kernel(d, s, undirected, lambda *node: got.append(node), False) is None
    return got


def _mis_matches_oracle(d):
    got = _scored_sets(d, d.vertex_mask, True)
    masks = [q for q, _, _ in got]
    assert len(masks) == len(set(masks))
    maximal = set(oracles.oracle_maximal_independent_sets(d))
    assert {frozenset(vertices_of(m)) for m in masks} == maximal
    for q, ins, outs in got:
        s = set(vertices_of(q))
        assert set(vertices_of(ins)) == oracles.oracle_n_minus(d, s)
        assert set(vertices_of(outs)) == oracles.oracle_n_plus(d, s)
    # heavy's cut drops only sets larger than the best one found: the sets
    # holding vertex c are keyed by size and the rest skipped
    for c in range(d.n):
        scored = []

        def key(q, ins, outs):
            scored.append(q)
            return q.bit_count() if q >> c & 1 else None

        best = _least_kernel(d, d.vertex_mask, True, key, True)
        assert len(scored) == len(set(scored))
        assert best == min((len(s), set_to_mask(s)) for s in maximal if c in s), c
        assert all(len(s) > best[0] for s in maximal if set_to_mask(s) not in scored), c


def test_maximal_independent_sets_match_oracle_exhaustively():
    for n in range(5):
        for d in all_digraphs(n):
            _mis_matches_oracle(d)


@given(_digraphs_of_order(6, 9))
@settings(max_examples=60, deadline=None)
def test_maximal_independent_sets_match_oracle(d):
    _mis_matches_oracle(d)


# The kernel search of a grown set runs on D[S] in D's own labels.  It must
# find what the search on the induced copy finds, mapped back: induced
# relabels S in increasing order, which keeps the (size, mask) order.
SUBSET_SIZES = (int.bit_count, lambda mask: sum((3 * v) % 4 + 1 for v in vertices_of(mask)))


@functools.lru_cache(maxsize=None)
def _oracle_kernel_masks(rows):
    """The kernels of Digraph(rows) as masks, by the oracles; cached, since
    many S induce one copy."""
    return frozenset(set_to_mask(k) for k in oracles.oracle_kernels(Digraph(rows)))


def _subset_search_matches_induced_copy(d, s):
    sub, back = induced(d, s)
    for size in SUBSET_SIZES:
        got = solvers._first_kernel(d, size, s)
        want = solvers._first_kernel(sub, lambda mask: size(_row_union(back, mask)), sub.vertex_mask)
        assert got.witness == (None if want.witness is None else _row_union(back, want.witness))
        assert (got.objective, got.verified) == (want.objective, want.verified)
    got = _scored_sets(d, s, False)
    masks = [k for k, _, _ in got]
    assert len(masks) == len(set(masks))
    assert set(masks) == {_row_union(back, k) for k in _oracle_kernel_masks(sub.rows)}
    for k, ins, outs in got:
        assert (ins, outs) == (n_minus_set(d, k), n_plus_set(d, k))


def test_subset_search_matches_induced_copy_exhaustively():
    for n in range(5):
        for d in all_digraphs(n):
            for s in range(1 << n):
                _subset_search_matches_induced_copy(d, s)


@given(seeded_digraphs(5, 9), st.integers(min_value=0, max_value=(1 << 9) - 1))
@settings(max_examples=80, deadline=None)
def test_subset_search_matches_induced_copy(d, s):
    _subset_search_matches_induced_copy(d, s & d.vertex_mask)


MAX_QK = ((max_large_quasi_kernel, oracles.oracle_large_objective),
          (max_sharp_quasi_kernel, oracles.oracle_sharp_objective))


def _max_witness_is_first_optimum(d):
    maximal = set(oracles.oracle_maximal_independent_sets(d))
    for solver, objective in MAX_QK:
        res = solver(d)
        want = oracles.oracle_first_max_qk(d, objective)
        assert frozenset(vertices_of(res.witness)) == want
        assert res.objective == objective(d, want)
        assert want in maximal
        assert res.verified


def test_max_witness_is_first_optimum_exhaustively():
    for n in range(5):
        for d in all_digraphs(n):
            _max_witness_is_first_optimum(d)


@given(_digraphs_of_order(6, 9))
@settings(max_examples=40, deadline=None)
def test_max_witness_is_first_optimum(d):
    _max_witness_is_first_optimum(d)


def test_max_large_is_the_least_kernel_exhaustively():
    # only a kernel covers every vertex in one step, so when D has one the
    # large optimum is n and its first witness the least kernel mask
    for n in range(5):
        for d in all_digraphs(n):
            kernels = oracles.oracle_kernels(d)
            if kernels:
                assert max_large_quasi_kernel(d) == SolveResult(min(map(set_to_mask, kernels)), n, True)


@pytest.mark.parametrize("family,fake", [("cycle:4", 0b0001), ("cycle:3", 0b001), ("cycle:4", 0b0011)])
def test_kernel_search_witnesses_are_rechecked(monkeypatch, family, fake):
    # {0} of the 4-cycle is no quasi-kernel, {0} of the triangle is one that
    # scores 2 < 3, and {0, 1} is not independent
    d = make(parse_family(family))
    monkeypatch.setattr(solvers, "_least_kernel", lambda d, s, undirected, key, sized: (key(fake, 0, 0), fake))
    for search in (find_kernel, lambda d: theorems._cover(d, 0b1, int.bit_count, d.vertex_mask)):
        with pytest.raises(PostconditionViolationError, match="kernel search returned a non-kernel"):
            search(d)
    # large re-checks a quasi-kernel scoring n, which is a kernel
    with pytest.raises(PostconditionViolationError, match="kernel search returned a bad large quasi-kernel"):
        max_large_quasi_kernel(d)


def test_kernel_search_budget_counts_s():
    message = "^maximal independent set enumeration budget is n <= 32$"
    wide = Digraph((0,) * 40)
    assert _scored_sets(wide, (1 << 32) - 1 << 8, False) == [((1 << 32) - 1 << 8, 0, 0)]
    with pytest.raises(BudgetExceededError, match=message):
        _scored_sets(wide, (1 << 33) - 1, False)
    for search in (find_kernel, max_large_quasi_kernel):
        with pytest.raises(BudgetExceededError, match=message):
            search(Digraph((0,) * 33))


def test_max_quasi_kernels_on_the_empty_digraph():
    d = Digraph(())
    for undirected in (False, True):
        assert _scored_sets(d, 0, undirected) == [(0, 0, 0)]
    for solver, _ in MAX_QK:
        assert solver(d) == SolveResult(0, 0, True)


def test_max_quasi_kernel_budget():
    triangles = dg(30, [(3 * i + a, 3 * i + (a + 1) % 3) for i in range(10) for a in range(3)])
    # 3^10 maximal independent sets, one vertex per triangle; vertex 3i is least
    first = mask_of(range(0, 30, 3))
    assert max_large_quasi_kernel(triangles) == SolveResult(first, 20, True)
    assert max_sharp_quasi_kernel(triangles) == SolveResult(first, 30, True)
    big = Digraph((0,) * 33)
    for solver, _ in MAX_QK:
        with pytest.raises(BudgetExceededError, match="n <= 32"):
            solver(big)


@given(n5_codes)
@settings(max_examples=40)
def test_sharp_dominates_large_objective(code):
    d = digraph_from_code(5, code)
    # |Q| + 2|N^-(Q)| >= |Q| + |N^-(Q)| pointwise, so the maxima compare too
    assert max_sharp_quasi_kernel(d).objective >= max_large_quasi_kernel(d).objective


@given(n4_codes)
def test_maximalize_yields_maximal_independent(code):
    d = digraph_from_code(4, code)
    q = min_quasi_kernel(d).witness
    m = _maximalize_within(d, q, d.vertex_mask)
    assert q & ~m == 0
    assert is_quasi_kernel(d, m)
    und = 0
    for v in vertices_of(m):
        und |= d.rows[v] | d.in_rows[v] | (1 << v)
    assert und == d.vertex_mask


def test_maximalize_rejects_non_quasi_kernel(c4):
    with pytest.raises(ValueError):
        _maximalize_within(c4, mask_of([0, 1]), c4.vertex_mask)


def _quasi_kernels_match_oracle(d):
    want = [m for m in range(1 << d.n) if oracles.oracle_is_qk(d, mask_to_set(m))]
    assert list(quasi_kernels(d)) == want


def test_quasi_kernels_enumerates_exactly():
    for n in range(5):
        for d in all_digraphs(n):
            _quasi_kernels_match_oracle(d)


@given(st.integers(min_value=6, max_value=10),
       st.sampled_from([Fraction(1, 16), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)]),
       st.integers(min_value=0, max_value=(1 << 64) - 1))
@settings(max_examples=40, deadline=None)
def test_quasi_kernels_match_oracle(n, p, seed):
    _quasi_kernels_match_oracle(random_digraph(n, p, seed))


def test_quasi_kernels_pinned_at_order_20():
    # an edgeless digraph's only quasi-kernel is everything
    assert list(quasi_kernels(make(parse_family("edgeless:20")))) == [(1 << 20) - 1]
    # a quasi-kernel of ten disjoint digons takes exactly one vertex of
    # each, so there are 2^10 = 1,024 of them
    digons = dg(20, [(2 * i + j, 2 * i + 1 - j) for i in range(10) for j in range(2)])
    want = sorted(sum(1 << 2 * i + b for i, b in enumerate(picks))
                  for picks in itertools.product((0, 1), repeat=10))
    assert list(quasi_kernels(digons)) == want


def test_quasi_kernels_rechecks_each_mask(monkeypatch, c4):
    monkeypatch.setattr(solvers, "_ordered_quasi_kernels", lambda *args: iter([mask_of([0, 1])]))
    with pytest.raises(PostconditionViolationError, match="non-quasi-kernel"):
        list(quasi_kernels(c4))


def test_quasi_kernels_star_into_a_sink_at_the_budget():
    # {0} is the only quasi-kernel, yet the search walks about 2^(n-1) nodes
    n = solvers.ENUMERATION_BUDGET
    assert list(quasi_kernels(dg(n, [(u, 0) for u in range(1, n)]))) == [1]


def test_quasi_kernels_budget():
    with pytest.raises(BudgetExceededError, match="^quasi-kernel enumeration budget is n <= 20$"):
        next(quasi_kernels(Digraph((0,) * 21)))


# ---------------------------------------------------------------------------
# kernel-perfect sets and partition numbers


@st.composite
def digraphs(draw, lo, hi):
    n = draw(st.integers(min_value=lo, max_value=hi))
    return digraph_from_code(n, draw(st.integers(min_value=0, max_value=(1 << n * (n - 1)) - 1)))


def test_is_kernel_perfect_matches_oracle():
    for d in all_digraphs(3):
        for s in range(8):
            assert is_kernel_perfect(d, s) == oracles.oracle_is_kernel_perfect(d, mask_to_set(s))


@given(digraphs(5, 6))
@settings(max_examples=30, deadline=None)
def test_is_kernel_perfect_matches_oracle_on_every_subset(d):
    for s in range(1 << d.n):
        assert is_kernel_perfect(d, s) == oracles.oracle_is_kernel_perfect(d, mask_to_set(s))


def assert_kernel_perfect_through_matches_search(d):
    """Against the has-kernel table of every subset, from ``find_kernel``,
    on D and on D shifted up 50 labels: the table is indexed by rank, so it
    must not depend on where S sits."""
    up = dg(d.n + 50, [(u + 50, w + 50) for u, w in d.arcs()])
    und = _underlying_rows(d)
    und_up = _underlying_rows(up)
    subsets = range(1 << d.n)
    has_kernel = [find_kernel(induced(d, t)[0]).witness is not None for t in subsets]
    for s in subsets[1:]:
        for v in vertices_of(s):
            want = all(has_kernel[t] for t in subsets if t & ~s == 0 and t >> v & 1)
            assert _kernel_perfect_through(d.rows, d.in_rows, und, s, v) == want
            assert _kernel_perfect_through(up.rows, up.in_rows, und_up, s << 50, v + 50) == want


def test_kernel_perfect_through_matches_search():
    for d in all_digraphs(3):
        assert_kernel_perfect_through_matches_search(d)


@given(digraphs(5, 6))
@settings(max_examples=30, deadline=None)
def test_kernel_perfect_through_matches_search_n5_n6(d):
    assert_kernel_perfect_through_matches_search(d)


def test_odd_free_digraphs_are_kernel_perfect(c4):
    assert odd_dicycle_free(c4)
    assert is_kernel_perfect(c4, c4.vertex_mask)


def test_is_kernel_perfect_on_high_labels(monkeypatch):
    # a directed triangle on the last three of 40 vertices: the check must
    # work on |S| vertices, not on masks as large as 2^39
    triangle = [(37, 38), (38, 39), (39, 37)]
    s = mask_of([37, 38, 39])
    assert not is_kernel_perfect(dg(40, triangle), s)
    assert is_kernel_perfect(dg(40, triangle + [(38, 37)]), s)
    # two sets on labels 50..54 of 55 vertices that reach rule 3's table,
    # whose int indexed by mask would need 2^55 bits: the directed 5-cycle
    # and the kernel-perfect random:5:1/3:101, whose one-way arcs cycle
    calls = []
    table = solvers._kernel_perfect_through

    def spy(rows, in_rows, und, s, u):
        calls.append(u)
        return table(rows, in_rows, und, s, u)

    monkeypatch.setattr(solvers, "_kernel_perfect_through", spy)
    cycle = [(i, (i + 1) % 5) for i in range(5)]
    for arcs, want in [(cycle, False), (list(make(parse_family("random:5:1/3:101")).arcs()), True)]:
        assert oracles.oracle_is_kernel_perfect(dg(5, arcs), set(range(5))) == want
        calls.clear()
        assert is_kernel_perfect(dg(55, [(u + 50, w + 50) for u, w in arcs]), mask_of(range(50, 55))) == want
        assert calls == [54]


def test_is_kernel_perfect_budget():
    # a complete symmetric digraph is kernel-perfect: every vertex is a kernel
    n = solvers.PARTITION_BUDGET
    d = make(parse_family(f"union:edgeless:7,random:{n}:1/1:0"))
    assert is_kernel_perfect(d, d.vertex_mask & ~0b1111111)
    with pytest.raises(BudgetExceededError, match=f"^partition search budget is n <= {n}$"):
        is_kernel_perfect(d, d.vertex_mask & ~0b111111)


def test_kernel_perfect_number_golden(c3, c4):
    k, part = kernel_perfect_number(c3)
    assert k == 2
    assert part.parts == (mask_of([0, 1]), mask_of([2]))
    k4, part4 = kernel_perfect_number(c4)
    assert k4 == 1
    assert part4.parts == (c4.vertex_mask,)


@given(n4_codes)
@settings(max_examples=60)
def test_kernel_perfect_number_matches_oracle(code):
    d = digraph_from_code(4, code)
    k, part = kernel_perfect_number(d)
    assert k == oracles.oracle_kp_number(d)
    assert sum(p.bit_count() for p in part.parts) == d.n
    for p in part.parts:
        assert is_kernel_perfect(d, p)


def test_partition_budgets():
    # a triangle needs two kernel-perfect parts and so does the circulant
    # 5-tournament; the complete symmetric 5-vertex digraph needs one
    # kernel-perfect part, but five acyclic or independent ones
    n = solvers.PARTITION_BUDGET
    d = make(parse_family("union:cycle:3,circulant:5,random:5:1/1:0"))
    assert d.n == n
    k, partition = kernel_perfect_number(d)
    assert k == 2 and all(is_kernel_perfect(d, part) for part in partition.parts)
    assert dichromatic_number(d) == chromatic_number(d) == 5
    big = Digraph((0,) * (n + 1))
    for fn in (kernel_perfect_number, chromatic_number, dichromatic_number):
        with pytest.raises(BudgetExceededError, match=f"^partition search budget is n <= {n}$"):
            fn(big)


@pytest.mark.parametrize("call,want", [
    # cycle:5's one-way arcs form a dicycle, so Duchet's test fails and the
    # k = 1 pass runs on the same one-way rows
    (lambda d: is_kernel_perfect(d, d.vertex_mask), {"_one_way_rows": 1, "_underlying_rows": 1}),
    (kernel_perfect_number, {"_one_way_rows": 1, "_underlying_rows": 1}),
    (chromatic_number, {"_underlying_rows": 1}),
    (dichromatic_number, {}),
], ids=["is_kernel_perfect", "kernel_perfect_number", "chromatic_number", "dichromatic_number"])
def test_each_row_list_is_built_once_per_call(monkeypatch, call, want):
    builds = {}
    for name in ("_one_way_rows", "_underlying_rows"):
        def counted(d, name=name, build=getattr(solvers, name)):
            builds[name] = builds.get(name, 0) + 1
            return build(d)
        monkeypatch.setattr(solvers, name, counted)
    call(make(parse_family("cycle:5")))
    assert builds == want
    # the budget refusal comes before any list is built
    builds.clear()
    with pytest.raises(BudgetExceededError, match="partition search budget"):
        call(Digraph((0,) * (solvers.PARTITION_BUDGET + 1)))
    assert builds == {}


def _kp_extends(d):
    return _kernel_perfect_extends(d, _one_way_rows(d))


def _chromatic_bound(d):
    return _clique_bound(_underlying_rows(d))


# part kind -> (oracle predicate, search predicate of D, re-check of each part)
PART_SEARCHES = {
    "kernel-perfect": (oracles.oracle_is_kernel_perfect, _kp_extends, None),
    "acyclic": (oracles.oracle_is_acyclic, _acyclic_extends, is_acyclic_set),
    "independent": (oracles.oracle_is_independent, lambda d: _independent_extends(_underlying_rows(d)),
                    is_independent),
}

# part kind -> the lower bound its number's search starts from
BOUNDS = {"kernel-perfect": _kernel_perfect_bound, "acyclic": _dichromatic_bound, "independent": _chromatic_bound}


def assert_clique_bounds(d, chromatic, dichromatic):
    """The greedy cliques of the underlying and the digon graph are cliques,
    and the bounds they give are at most the two oracle numbers."""
    arcs = set(d.arcs())
    for adj, joined in ((_underlying_rows(d), lambda u, w: (u, w) in arcs or (w, u) in arcs),
                        ([row & in_row for row, in_row in zip(d.rows, d.in_rows)],
                         lambda u, w: (u, w) in arcs and (w, u) in arcs)):
        clique = _greedy_clique(adj)
        assert clique & ~d.vertex_mask == 0
        assert all(joined(u, w) for u, w in itertools.combinations(vertices_of(clique), 2))
    assert _chromatic_bound(d) <= chromatic
    assert _dichromatic_bound(d) <= dichromatic


def assert_partitions_match_oracle(d):
    """Same k and the same first restricted-growth parts as the oracle,
    whether the search starts at k = 1 or at its lower bound."""
    got = {}
    for kind, (oracle_ok, extends, part_ok) in PART_SEARCHES.items():
        want_k, blocks = oracles.oracle_first_partition(d, oracle_ok)
        want = (want_k, tuple(set_to_mask(b) for b in blocks))
        got[kind] = _partition_number(d, kind, extends(d), 1, part_ok)
        assert got[kind] == want, kind
        assert _partition_number(d, kind, extends(d), BOUNDS[kind](d), part_ok) == want, kind
    assert_clique_bounds(d, got["independent"][0], got["acyclic"][0])
    k, parts = got["kernel-perfect"]
    assert kernel_perfect_number(d) == (k, Partition(parts))
    assert dichromatic_number(d) == got["acyclic"][0]
    assert chromatic_number(d) == got["independent"][0]


def test_clique_bounds_match_the_colouring_oracles():
    for n in range(5):
        for d in all_digraphs(n):
            assert_clique_bounds(d, oracles.oracle_chromatic(d), oracles.oracle_dichromatic(d))


@pytest.mark.parametrize("number,spec,non_clique", [
    # a bound of 3 would return 3 for both, where 2 is the answer
    (dichromatic_number, "cycle:3", 0b111),  # no digon at all
    (chromatic_number, "cycle:4", 0b111),  # 0 and 2 are not adjacent
])
def test_clique_bound_is_rechecked(monkeypatch, number, spec, non_clique):
    monkeypatch.setattr(solvers, "_greedy_clique", lambda adj: non_clique)
    with pytest.raises(PostconditionViolationError, match="not a clique"):
        number(make(parse_family(spec)))


@pytest.mark.parametrize("colouring,message", [
    # both have more parts than the answer, 2, so only the first check sees them
    ((0b0101, 0b1010, 0b0001), "overlap"),
    ((0b0011, 0b0100, 0b1000), "not independent"),  # 0 and 1 are adjacent
])
def test_greedy_colouring_is_rechecked(monkeypatch, colouring, message):
    monkeypatch.setattr(solvers, "_greedy_colouring", lambda und: colouring)
    with pytest.raises(PostconditionViolationError, match=f"greedy colouring returned .*{message}"):
        chromatic_number(make(parse_family("cycle:4")))


def test_greedy_colouring_above_the_answer_runs_the_passes_below():
    # the crown graph on 8 vertices, its sides alternating by label: 2i and
    # 2j + 1 are adjacent iff i != j.  Every degree is 3, so first fit takes
    # the vertices in label order and uses 4 colours, while the clique
    # number and the chromatic number are 2
    d = dg(8, [(2 * i, 2 * j + 1) for i in range(4) for j in range(4) if i != j])
    und = _underlying_rows(d)
    assert _greedy_colouring(und) == (0b11, 0b1100, 0b110000, 0b11000000)
    assert _clique_bound(und) == 2
    assert chromatic_number(d) == 2 == oracles.oracle_chromatic(d)


def test_partition_numbers_match_oracle_exhaustively():
    for n in range(5):
        for d in all_digraphs(n):
            assert_partitions_match_oracle(d)


@given(digraphs(5, 8))
@settings(max_examples=40, deadline=None)
def test_partition_numbers_match_oracle(d):
    assert_partitions_match_oracle(d)


@pytest.mark.parametrize("spec", ["c3pow:2", "cycle:9", "circulant:9",
                                  "random_tournament:9:1", "random_tournament:9:2",
                                  # the kernel-perfect search asks about one vertex
                                  # with two parts whose verdicts differ
                                  "random:7:1/2:147", "random:8:1/2:10"])
def test_partition_numbers_match_oracle_on_families(spec):
    assert_partitions_match_oracle(make(parse_family(spec)))


def _rule_3_forbidden(*_):
    raise AssertionError("rule 3 was consulted")


def _rule_2_forbidden(*_):
    raise AssertionError("rule 2 was consulted")


# a kernel-perfect part with an odd dicycle: 0 -> 1 -> 2 -> 0 and 1 -> 0
KP_TRIANGLE = [(0, 1), (1, 2), (2, 0), (1, 0)]


@pytest.mark.parametrize("rule,arcs", [
    ("sink", [(0, 3), (1, 3)]),
    ("source", [(3, 0), (3, 2)]),
])
def test_kernel_perfect_rule_1(monkeypatch, rule, arcs):
    d = dg(4, KP_TRIANGLE + arcs)
    assert oracles.oracle_is_kernel_perfect(d, {0, 1, 2, 3})
    monkeypatch.setattr(solvers, "_odd_strong_component", _rule_2_forbidden)
    monkeypatch.setattr(solvers, "_kernel_perfect_through", _rule_3_forbidden)
    assert _kp_extends(d)(0b0111, 3)


@pytest.mark.parametrize("n,arcs,part", [
    # odd-dicycle-free part, and the only dicycle through v = 3 is 0 1 2 3
    (4, [(0, 1), (1, 2), (2, 3), (3, 0)], 0b0111),
    # the part has an odd dicycle, but v = 4 shares only a 2-cycle with 3
    (5, KP_TRIANGLE + [(3, 4), (4, 3), (4, 0)], 0b01111),
])
def test_kernel_perfect_rule_2_odd_walk(monkeypatch, n, arcs, part):
    d = dg(n, arcs)
    v = n - 1
    assert d.rows[v] & part and d.in_rows[v] & part  # rule 1 does not apply
    assert oracles.oracle_is_kernel_perfect(d, set(range(n)))
    monkeypatch.setattr(solvers, "_kernel_perfect_through", _rule_3_forbidden)
    assert _kp_extends(d)(part, v)


# each case is settled by a certificate before rule 3's table: the first by
# the triangle reject, the other two by Duchet's acceptance
@pytest.mark.parametrize("arcs,want", [
    ([(0, 1), (1, 2), (2, 0)], False),  # closes a directed triangle
    ([(0, 1), (1, 2), (2, 0), (2, 1)], True),  # the triangle 0 1 2 has a kernel
    ([(0, 1), (1, 2), (2, 0), (0, 2)], True),
])
def test_kernel_perfect_rule_3(arcs, want):
    d = dg(3, arcs)
    assert oracles.oracle_is_kernel_perfect(d, {0, 1, 2}) == want
    assert solvers._odd_strong_component(d.rows, d.in_rows, 0b111, 2) == 0b111
    assert _kp_extends(d)(0b011, 2) == want


@pytest.mark.parametrize("n,arcs,part", [
    (3, [(0, 1), (1, 2), (2, 0)], 0b011),
    # v = 3 closes 3 -> 0 -> 1 -> 3 over the acyclic part 0 -> 1, 0 -> 2, 2 -> 1
    (4, [(0, 1), (0, 2), (2, 1), (3, 0), (1, 3), (2, 3)], 0b0111),
])
def test_kernel_perfect_triangle_reject(monkeypatch, n, arcs, part):
    d = dg(n, arcs)
    v = n - 1
    assert d.rows[v] & part and d.in_rows[v] & part  # rule 1 does not apply
    assert oracles.oracle_is_kernel_perfect(d, mask_to_set(part))
    assert not oracles.oracle_is_kernel_perfect(d, set(range(n)))
    monkeypatch.setattr(solvers, "_odd_strong_component", _rule_2_forbidden)
    monkeypatch.setattr(solvers, "_kernel_perfect_through", _rule_3_forbidden)
    assert not _kp_extends(d)(part, v)


@pytest.mark.parametrize("n,arcs", [
    (3, KP_TRIANGLE),
    (3, [(0, 1), (1, 2), (2, 0), (2, 1)]),
    # the directed 5-cycle with its arc 1 -> 2 doubled: the one-way arcs
    # 2 -> 3 -> 4 -> 0 -> 1 form a path
    (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 1)]),
])
def test_kernel_perfect_rule_3_duchet(monkeypatch, n, arcs):
    d = dg(n, arcs)
    v = n - 1
    part = d.vertex_mask ^ 1 << v
    assert oracles.oracle_is_kernel_perfect(d, set(range(n)))
    assert not _induced_triangle(d.rows, d.in_rows, part, v)
    assert solvers._odd_strong_component(d.rows, d.in_rows, d.vertex_mask, v) == d.vertex_mask
    monkeypatch.setattr(solvers, "_kernel_perfect_through", _rule_3_forbidden)
    assert _kp_extends(d)(part, v)


@pytest.mark.parametrize("n,arcs,want", [
    # a directed 5-cycle closed at v = 4: no triangle, one-way arcs that cycle
    (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], False),
    # the one-way 4-cycle 0 1 2 3 with the digon 0 2: kernel-perfect, and
    # 3 -> 0 -> 2 -> 3 is an odd dicycle that is no induced triangle
    (4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (2, 0)], True),
])
def test_kernel_perfect_rule_3_table(monkeypatch, n, arcs, want):
    d = dg(n, arcs)
    v = n - 1
    part = d.vertex_mask ^ 1 << v
    assert oracles.oracle_is_kernel_perfect(d, mask_to_set(part))
    assert oracles.oracle_is_kernel_perfect(d, set(range(n))) == want
    assert not _is_acyclic_rows(_one_way_rows(d), d.vertex_mask)
    calls = []
    table = solvers._kernel_perfect_through

    def spy(rows, in_rows, und, s, u):
        calls.append((s, u))
        return table(rows, in_rows, und, s, u)

    monkeypatch.setattr(solvers, "_kernel_perfect_through", spy)
    assert _kp_extends(d)(part, v) == want
    assert calls == [(d.vertex_mask, v)]


def test_induced_triangle_matches_a_triple_scan_exhaustively():
    for n in range(5):
        for d in all_digraphs(n):
            for s in range(1 << n):
                for v in range(n):
                    assert mask_to_set(_induced_triangle(d.rows, d.in_rows, s, v)) == (
                        oracles.oracle_induced_triangle(d, mask_to_set(s), v))


def test_one_way_acyclic_sets_are_kernel_perfect_exhaustively():
    """Duchet's theorem on every digraph with n <= 4 and every S."""
    for n in range(5):
        for d in all_digraphs(n):
            one_way = _one_way_rows(d)
            for s in range(1 << n):
                if _is_acyclic_rows(one_way, s):
                    assert oracles.oracle_is_kernel_perfect(d, mask_to_set(s))


@st.composite
def digon_heavy_digraphs(draw, lo, hi):
    """Digraphs on lo..hi vertices in which each pair is a digon with
    probability 3/7; a one-way arc mostly follows a drawn vertex order, so
    that the one-way arcs often form no dicycle, and sometimes do not."""
    n = draw(st.integers(min_value=lo, max_value=hi))
    order = draw(st.permutations(range(n)))
    arcs = []
    for i, j in itertools.combinations(range(n), 2):
        u, w = order[i], order[j]
        kind = draw(st.sampled_from(("digon", "digon", "digon", "none", "along", "along", "against")))
        if kind != "none":
            arcs += {"digon": [(u, w), (w, u)], "along": [(u, w)], "against": [(w, u)]}[kind]
    return dg(n, arcs)


@given(digon_heavy_digraphs(5, 8))
@settings(max_examples=40, deadline=None)
def test_one_way_acyclic_digraphs_are_kernel_perfect(d):
    kernel_perfect = oracles.oracle_is_kernel_perfect(d, set(range(d.n)))
    assert kernel_perfect or not _is_acyclic_rows(_one_way_rows(d), d.vertex_mask)
    assert is_kernel_perfect(d, d.vertex_mask) == kernel_perfect


def _pass_forbidden(*_):
    raise AssertionError("the k = 1 pass ran")


def test_is_kernel_perfect_accepts_by_duchet_without_a_copy(monkeypatch):
    # Duchet's test settles these before the k = 1 pass builds its predicate
    monkeypatch.setattr(solvers, "_kernel_perfect_extends", _pass_forbidden)
    # KP_TRIANGLE on the last three of 40 vertices; its one-way arcs are 1 -> 2 -> 0
    d = dg(40, [(37 + u, 37 + w) for u, w in KP_TRIANGLE])
    assert is_kernel_perfect(d, mask_of([37, 38, 39]))
    d = make(parse_family(f"random:{solvers.PARTITION_BUDGET}:1/1:0"))
    assert is_kernel_perfect(d, d.vertex_mask)
    assert is_kernel_perfect(d, 0)


@pytest.mark.parametrize("spec,lower,k", [
    ("cycle:3", 2, 2),
    ("circulant:5", 2, 2),
    ("cycle:5", 1, 2),  # an odd cycle without an induced triangle
    ("cycle:4", 1, 1),
    ("random:4:1/1:0", 1, 1),
])
def test_kernel_perfect_number_starts_at_two_on_a_triangle(monkeypatch, spec, lower, k):
    starts = []
    search = solvers._min_partition_rgs

    def spy(n, ok, start, upper):
        starts.append(start)
        return search(n, ok, start, upper)

    monkeypatch.setattr(solvers, "_min_partition_rgs", spy)
    assert kernel_perfect_number(make(parse_family(spec)))[0] == k
    assert starts == [lower]


@pytest.mark.parametrize("n,arcs,pair", [
    (3, KP_TRIANGLE, 0b110),  # 1 has two out-neighbours among the three
    (3, [(0, 1), (1, 0), (2, 0)], 0b110),  # one out-neighbour each, but 0 and 1 form a digon
    (4, [(0, 1), (1, 2), (2, 3), (3, 0)], 0b1110),  # four vertices
])
def test_kernel_perfect_bound_is_rechecked(monkeypatch, n, arcs, pair):
    monkeypatch.setattr(solvers, "_induced_triangle", lambda rows, in_rows, s, v: pair)
    with pytest.raises(PostconditionViolationError, match="not an induced directed triangle"):
        kernel_perfect_number(dg(n, arcs))


def test_odd_strong_component_matches_walk_oracle_exhaustively():
    for n in range(1, 5):
        for d in all_digraphs(n):
            for s in range(1, 1 << n):
                for v in vertices_of(s):
                    assert mask_to_set(solvers._odd_strong_component(d.rows, d.in_rows, s, v)) == (
                        oracles.oracle_odd_strong_component(d, mask_to_set(s), v))


@pytest.mark.parametrize("kind", ["kernel-perfect", "acyclic", "independent"])
def test_partition_search_rechecks_the_cover(monkeypatch, kind):
    monkeypatch.setattr(solvers, "_min_partition_rgs", lambda n, ok, lower, upper: (2, (0b011, 0b110)))
    _, extends, part_ok = PART_SEARCHES[kind]
    d = make(parse_family("cycle:3"))
    with pytest.raises(PostconditionViolationError, match="overlap"):
        _partition_number(d, kind, extends(d), 1, part_ok)


@pytest.mark.parametrize("kind", ["acyclic", "independent"])
def test_partition_search_rechecks_each_part(monkeypatch, kind):
    monkeypatch.setattr(solvers, "_min_partition_rgs", lambda n, ok, lower, upper: (1, (0b111,)))
    _, extends, part_ok = PART_SEARCHES[kind]
    d = make(parse_family("cycle:3"))
    with pytest.raises(PostconditionViolationError, match=f"not {kind}"):
        _partition_number(d, kind, extends(d), 1, part_ok)


def test_chromatic_and_dichromatic_match_oracles():
    for d in all_digraphs(3):
        assert chromatic_number(d) == oracles.oracle_chromatic(d)
        assert dichromatic_number(d) == oracles.oracle_dichromatic(d)


@given(n4_codes)
@settings(max_examples=60)
def test_number_chain_small(code):
    d = digraph_from_code(4, code)
    kp, _ = kernel_perfect_number(d)
    di = dichromatic_number(d)
    ch = chromatic_number(d)
    assert kp <= di <= ch


def test_empty_digraph_numbers():
    d = Digraph(())
    k, part = kernel_perfect_number(d)
    assert k == 0 and part.parts == ()
    assert chromatic_number(d) == 0
    assert dichromatic_number(d) == 0
    assert find_kernel(d).witness == 0
    assert min_quasi_kernel(d).witness == 0


# ---------------------------------------------------------------------------
# heavy independent sets


def test_heavy_set_on_the_greedy_defeater():
    # the digraph that breaks per-step greedy rules; see the solver docstring
    d = dg(4, [(1, 0), (0, 2), (3, 1)])
    r = heavy_independent_set(d)
    assert n_minus_set(d, r).bit_count() >= n_plus_set(d, r).bit_count()


@given(n5_codes)
@settings(max_examples=80)
def test_heavy_set_properties(code):
    d = digraph_from_code(5, code)
    r = heavy_independent_set(d)
    check_set(d, r)
    assert n_minus_set(d, r).bit_count() >= n_plus_set(d, r).bit_count()
    und = r
    for v in vertices_of(r):
        und |= d.rows[v] | d.in_rows[v]
        assert not (d.rows[v] & r)
    assert und == d.vertex_mask


def test_heavy_set_absent_at_n6():
    # every digraph on at most 5 vertices has an in-heavy maximal
    # independent set (acceptance criterion 05); this one on 6 has none
    d = dg(6, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5),
               (2, 0), (3, 2), (4, 0), (4, 1), (4, 2), (5, 2)])
    with pytest.raises(PostconditionViolationError, match="potential counterexample"):
        heavy_independent_set(d)
    maximal = oracles.oracle_maximal_independent_sets(d)
    assert maximal == [{0, 1}, {1, 2}, {3, 4, 5}]
    for s in maximal:
        assert len(oracles.oracle_n_minus(d, s)) < len(oracles.oracle_n_plus(d, s))


def test_mis_neighbourhoods_are_rechecked(monkeypatch):
    # each liar runs the real search with the caller's key on false
    # neighbourhoods, so heavy's faults go through the search it cuts
    real = solvers._least_kernel
    found = []

    def liar(claim):
        def search(d, s, undirected, key, sized):
            found.append(real(d, s, undirected, lambda q, ins, outs: key(q, *claim(d, q, ins, outs)), sized))
            return found[-1]
        return search

    # every set claims to be in-heavy: none of these three is
    heavy_free = dg(6, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5),
                        (2, 0), (3, 2), (4, 0), (4, 1), (4, 2), (5, 2)])
    monkeypatch.setattr(solvers, "_least_kernel", liar(lambda d, q, ins, outs: (d.vertex_mask, 0)))
    with pytest.raises(PostconditionViolationError, match="returned no in-heavy maximal independent set"):
        heavy_independent_set(heavy_free)
    assert found == [(2, 0b011)]  # the false claim of {0, 1}, the least of the two-vertex sets
    # a set that is not maximal
    monkeypatch.setattr(solvers, "_least_kernel",
                        lambda d, s, undirected, key, sized: (key(0, d.vertex_mask, 0), 0))
    with pytest.raises(PostconditionViolationError, match="returned no in-heavy maximal independent set"):
        heavy_independent_set(heavy_free)
    # {0} of the 4-cycle, which is no quasi-kernel, found where no kernel is
    monkeypatch.setattr(solvers, "_least_kernel",
                        lambda d, s, undirected, key, sized: (-1, 0b0001) if undirected else None)
    for solver, _ in MAX_QK:
        with pytest.raises(PostconditionViolationError, match="returned a bad witness"):
            solver(make(parse_family("cycle:4")))
    # on the directed triangle each single vertex is a quasi-kernel with one
    # in-neighbour; claiming two inflates the objective
    monkeypatch.setattr(solvers, "_least_kernel", liar(lambda d, q, ins, outs: (d.vertex_mask & ~q, outs)))
    triangle = dg(3, [(0, 1), (1, 2), (2, 0)])
    for solver, _ in MAX_QK:
        with pytest.raises(PostconditionViolationError, match="objective"):
            solver(triangle)


def test_heavy_cut_keeps_ties_to_the_least_mask():
    # the directed path 0 -> 1 -> 2 -> 3 has two least in-heavy maximal
    # independent sets, {0, 3} and {1, 3}, and the search meets the larger
    # mask first; a cut that also drops the nodes that can only tie with it
    # would return {1, 3}
    d = dg(4, [(0, 1), (1, 2), (2, 3)])
    order = [q for q, _, _ in _scored_sets(d, d.vertex_mask, True)]
    assert order.index(0b1010) < order.index(0b1001)
    assert heavy_independent_set(d) == 0b1001


def test_heavy_budget():
    assert heavy_independent_set(Digraph((0,) * 21)) == (1 << 21) - 1
    with pytest.raises(BudgetExceededError, match="n <= 32"):
        heavy_independent_set(Digraph((0,) * 33))
