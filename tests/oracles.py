"""Independent reference implementations used to cross-check the library.

Everything here works on dict-of-sets adjacency and frozensets, not on the
bitmask representation, and iterates in different orders than the library
does, so shared bugs are unlikely.
"""

from __future__ import annotations

import itertools


def adj_of(d):
    """Digraph -> {v: set(out-neighbours)} without using the row masks."""
    out = {v: set() for v in range(d.n)}
    for u, v in d.arcs():
        out[u].add(v)
    return out


def radj_of(d):
    rad = {v: set() for v in range(d.n)}
    for u, v in d.arcs():
        rad[v].add(u)
    return rad


def oracle_n_minus(d, s):
    """In-neighbours of the set s, members of s excluded."""
    rad = radj_of(d)
    return {u for v in s for u in rad[v]} - set(s)


def oracle_n_plus(d, s):
    """Out-neighbours of the set s, members of s excluded."""
    adj = adj_of(d)
    return {w for v in s for w in adj[v]} - set(s)


def oracle_n_minus_closed(d, s):
    return oracle_n_minus(d, s) | set(s)


def oracle_n_minus_minus_closed(d, s):
    step1 = oracle_n_minus_closed(d, s)
    return oracle_n_minus(d, step1) | step1


def oracle_is_independent(d, s):
    adj = adj_of(d)
    return all(not (adj[u] & set(s)) for u in s)


def oracle_is_kernel(d, s):
    return oracle_is_independent(d, s) and oracle_n_minus_closed(d, s) == set(range(d.n))


def oracle_is_qk(d, s):
    return oracle_is_independent(d, s) and oracle_n_minus_minus_closed(d, s) == set(range(d.n))


def subsets_by_size(n):
    for size in range(n + 1):
        yield from itertools.combinations(range(n), size)


def oracle_kernels(d):
    return [frozenset(s) for s in subsets_by_size(d.n) if oracle_is_kernel(d, s)]


def _first_by_size_then_mask(sets):
    """The least set by (size, sum of 2^v), or None for no sets."""
    return min(sets, key=lambda s: (len(s), sum(1 << v for v in s)), default=None)


def oracle_first_kernel(d):
    """First kernel in (size, mask) order as a frozenset, or None."""
    return _first_by_size_then_mask(oracle_kernels(d))


def oracle_first_heavy(d):
    """First maximal independent set in (size, mask) order with at least as
    many in- as out-neighbours, as a frozenset, or None."""
    adj = adj_of(d)
    heavy = [s for s in oracle_maximal_independent_sets(d)
             if len(oracle_n_minus(d, s)) >= len({w for v in s for w in adj[v]} - s)]
    return _first_by_size_then_mask(heavy)


def oracle_first_min_qk(d):
    """First quasi-kernel in (size, mask) order as a frozenset."""
    return _first_by_size_then_mask(frozenset(s) for s in subsets_by_size(d.n) if oracle_is_qk(d, s))


def oracle_large_objective(d, s):
    return len(oracle_n_minus_closed(d, s))


def oracle_sharp_objective(d, s):
    return len(s) + 2 * len(oracle_n_minus(d, s))


def oracle_max_large(d):
    best = -1
    for s in subsets_by_size(d.n):
        if oracle_is_qk(d, s):
            best = max(best, oracle_large_objective(d, s))
    return best


def oracle_max_sharp(d):
    best = -1
    for s in subsets_by_size(d.n):
        if oracle_is_qk(d, s):
            best = max(best, oracle_sharp_objective(d, s))
    return best


def oracle_first_max_qk(d, objective):
    """Quasi-kernel maximizing objective(d, s), ties to the least mask
    sum(2^v): the first optimum of an ascending walk over all masks."""
    qks = [frozenset(s) for s in subsets_by_size(d.n) if oracle_is_qk(d, s)]
    return max(qks, key=lambda s: (objective(d, s), -sum(1 << v for v in s)))


def oracle_maximal_independent_sets(d):
    """Independent sets that no further vertex can join, as frozensets."""
    vertices = set(range(d.n))
    out = []
    for s in map(set, subsets_by_size(d.n)):
        if oracle_is_independent(d, s) and not any(
                oracle_is_independent(d, s | {v}) for v in vertices - s):
            out.append(frozenset(s))
    return out


def oracle_maximalize(d, q):
    """q plus each vertex, taken in increasing order, that keeps the set
    grown so far independent."""
    grown = set(q)
    for v in range(d.n):
        if oracle_is_independent(d, grown | {v}):
            grown.add(v)
    return frozenset(grown)


def oracle_extend(d, p):
    """p plus each vertex, taken in increasing order, with no arc into the
    set grown so far."""
    adj = adj_of(d)
    grown = set(p)
    for v in range(d.n):
        if not adj[v] & grown:
            grown.add(v)
    return frozenset(grown)


def oracle_has_odd_dicycle(d):
    """Enumerate candidate vertex subsets and cyclic orders directly."""
    adj = adj_of(d)
    for size in range(1, d.n + 1):
        if size % 2 == 0:
            continue
        for vs in itertools.combinations(range(d.n), size):
            first = vs[0]
            for perm in itertools.permutations(vs[1:]):
                order = (first,) + perm
                if all(order[(i + 1) % size] in adj[order[i]] for i in range(size)):
                    return True
    return False


def _walk_ends(adj, s, v):
    """ends[L]: the vertices where the walks of exactly L arcs from v inside
    the set s end, for L = 0 .. 2|s|.  That is long enough: a shortest walk
    that reaches a vertex with a given parity meets no (vertex, parity)
    pair twice, so it has fewer than 2|s| arcs."""
    ends = [{v}]
    for _ in range(2 * len(s)):
        ends.append({w for u in ends[-1] for w in adj[u] if w in s})
    return ends


def oracle_parity_reach(d, s, v):
    """(even, odd) as sets: the vertices that walks from v inside s reach
    with an even and with an odd number of arcs."""
    ends = _walk_ends(adj_of(d), set(s), v)
    return set().union(*ends[0::2]), set().union(*ends[1::2])


def oracle_odd_strong_component(d, s, v):
    """The strong component of v in D[s] (the vertices v walks to inside s
    that walk back to v) if an odd closed walk through v stays inside s,
    else the empty set."""
    even, odd = oracle_parity_reach(d, s, v)
    if v not in odd:
        return set()
    return (even | odd) & set().union(*_walk_ends(radj_of(d), set(s), v))


def oracle_induced_triangle(d, s, v):
    """{u, w} for the least u, then the least w, in s - {v} whose only arcs
    with v are v -> u -> w -> v; the empty set if there is none."""
    arcs = set(d.arcs())
    for u, w in itertools.permutations(sorted(set(s) - {v}), 2):
        if {(v, u), (u, w), (w, v)} <= arcs and not {(u, v), (w, u), (v, w)} & arcs:
            return {u, w}
    return set()


def oracle_is_acyclic(d, s):
    """Repeatedly strip vertices with no out-neighbour inside s."""
    live = set(s)
    changed = True
    while changed and live:
        changed = False
        adj = adj_of(d)
        for v in list(live):
            if not (adj[v] & live):
                live.discard(v)
                changed = True
    return not live


def oracle_chromatic(d):
    pairs = {(u, v) for u, v in d.arcs() if u != v}
    und = {frozenset(p) for p in pairs}
    if not und:
        return 1 if d.n else 0
    for k in range(1, d.n + 1):
        for colours in itertools.product(range(k), repeat=d.n):
            if all(colours[u] != colours[v] for u, v in und):
                return k
    raise AssertionError("unreachable")


def oracle_is_kernel_perfect(d, s):
    """Every subset of s spans a digraph with a kernel (checked directly)."""
    adj = adj_of(d)
    members = sorted(s)
    for size in range(len(members) + 1):
        for sub in itertools.combinations(members, size):
            live = set(sub)
            found = False
            for k_size in range(size + 1):
                for cand in itertools.combinations(sub, k_size):
                    cset = set(cand)
                    if all(not (adj[u] & cset) for u in cset) and all(
                            v in cset or (adj[v] & cset) for v in live):
                        found = True
                        break
                if found:
                    break
            if not found:
                return False
    return True


def oracle_kp_number(d):
    """Minimum number of kernel-perfect parts, by brute partition search."""
    n = d.n
    if n == 0:
        return 0
    for k in range(1, n + 1):
        for assign in itertools.product(range(k), repeat=n):
            parts = [{v for v in range(n) if assign[v] == c} for c in range(k)]
            if all(oracle_is_kernel_perfect(d, p) for p in parts):
                return k
    raise AssertionError("single vertices are kernel-perfect")


def _growth_strings(n, k):
    """Restricted growth strings of length n >= 1 with exactly k blocks, in
    lexicographic order: s[0] = 0 and s[i] <= 1 + max(s[:i])."""
    def extend(prefix, blocks):
        if len(prefix) == n:
            if blocks == k:
                yield tuple(prefix)
            return
        for c in range(min(blocks + 1, k)):
            yield from extend(prefix + [c], max(blocks, c + 1))
    yield from extend([0], 1)


def oracle_first_partition(d, part_ok):
    """Least k such that some restricted growth string with k blocks puts
    every block through part_ok(d, block), and the first such string's
    blocks as frozensets in block order.  Singletons must pass."""
    if d.n == 0:
        return 0, ()
    verdicts = {}
    for k in range(1, d.n + 1):
        for labels in _growth_strings(d.n, k):
            blocks = tuple(frozenset(v for v in range(d.n) if labels[v] == c) for c in range(k))
            for b in blocks:
                if b not in verdicts:
                    verdicts[b] = part_ok(d, set(b))
            if all(verdicts[b] for b in blocks):
                return k, blocks
    raise AssertionError("singletons must pass part_ok")


def oracle_sources_via_blowup(d, partition):
    """The with-sources witness built as the paper states it, as a frozenset.

    Sources (in-degree 0, out-degree > 0) keep their least out-arc; the core
    (the other vertices) is blown up so that a core vertex fed by c kept arcs
    becomes an independent block of (k*t + 1)*c + 1 twins (k parts, at least
    2; t core vertices).  A quasi-kernel covering the largest blown part is
    grown to a maximal independent set and projected to the blocks it hits;
    the sources of every block its closed in-neighbourhood misses join, and
    a source then drops out if one of its arcs lands in the witness.

    Unlike the rest of this module it calls the library for the blowup, the
    covering and the maximal growth (``weighted_blowup``,
    ``large_qk_from_partition``, ``_maximalize_within``): it is the
    construction ``small_qk_with_sources`` must reproduce without building
    the blowup.  The projection and the source bookkeeping are done here.
    """
    from quasikernel import Digraph, Partition, large_qk_from_partition
    from quasikernel.reductions import weighted_blowup
    from quasikernel.solvers import _maximalize_within

    adj, rad = adj_of(d), radj_of(d)
    sources = {v for v in range(d.n) if adj[v] and not rad[v]}
    kept = {v: min(adj[v]) for v in sources}
    core = [v for v in range(d.n) if v not in sources]
    label = {v: i for i, v in enumerate(core)}
    base = Digraph.from_arcs(len(core), [(label[u], label[v]) for u in core for v in adj[u]])
    parts = list(partition.parts) + [0] * (2 - len(partition.parts))
    k, t = len(parts), len(core)
    mult = [(k * t + 1) * sum(1 for v in sources if kept[v] == a) + 1 for a in core]
    blown, bmap = weighted_blowup(base, mult)
    blown_parts = [sum(bmap.blocks[label[v]] for v in core if part >> v & 1) for part in parts]
    res = large_qk_from_partition(blown, Partition(tuple(blown_parts)), check_parts=False)
    qb = {x for x in range(blown.n) if _maximalize_within(blown, res.witness, blown.vertex_mask) >> x & 1}
    covered = oracle_n_minus_closed(blown, qb)
    blocks = [{x for x in range(blown.n) if block >> x & 1} for block in bmap.blocks]
    assert all(b <= covered or not b & covered for b in blocks), "a block is split"
    witness = {a for a, b in zip(core, blocks) if b & qb}
    witness |= {v for v in sources if not blocks[label[kept[v]]] & covered}
    return frozenset(witness - {v for v in witness & sources if adj[v] & witness})


def oracle_relabellings(d):
    """Every relabelling of d, one per permutation p of its vertices (arc
    u -> v becomes p[u] -> p[v]), each rebuilt by ``Digraph.from_arcs``."""
    from quasikernel import Digraph

    return [Digraph.from_arcs(d.n, [(p[u], p[v]) for u, v in d.arcs()])
            for p in itertools.permutations(range(d.n))]


def oracle_least_code(d):
    """Least adjacency code over all relabellings of d: the code of the
    representative its isomorphism class should have in a class stream."""
    from quasikernel.digraph import adjacency_code

    return min(adjacency_code(e) for e in oracle_relabellings(d))


def oracle_automorphism_count(d):
    """|Aut(d)|: the relabellings that give d back."""
    return sum(1 for e in oracle_relabellings(d) if e == d)
