"""Exact solvers for kernels, quasi-kernels, and partition numbers.

A kernel is an independent set K with every vertex in or one step from K
(``n_minus_closed(D, K)`` is everything).  A quasi-kernel relaxes the radius
to two steps.  Kernels can be absent (the directed triangle); quasi-kernels
always exist in a finite digraph, so an exhausted search is a bug, not a
result.

Everything here is exact, identical runs give identical output, and each
search raises ``BudgetExceededError`` above the largest order at which the
corpus of ``tests/test_budgets.py`` finishes within 2 s a call (2-vCPU VM).
One ordered search lists quasi-kernels: it branches on the vertices from the
top down, excluding before including, so it yields masks in ascending order,
and it builds only independent sets of at most a given size.  A branch is cut
when what it covers plus what the vertices below its top free vertex could
reach misses a vertex.  Enumeration takes every yield; the minimum search
tries one vertex, then caps k = 2, 3, ..., and its first yield is the least
mask of the least size.  One search finds, given a vertex set S, the kernel
K of D[S] in D's own labels with the least key of (K, N^-(K), N^+(K)), ties
to the least mask, and keeps the best as it goes.  It branches by what must
absorb each vertex: one outside K with no arc into K needs itself or an
out-neighbour in K.  D's maximal independent sets are the kernels of its
underlying graph, where the same search is Bron--Kerbosch with Tomita
pivoting.  A kernel is the large optimum when D has one.  Otherwise large,
and always sharp and heavy, search maximal independent sets Q keyed by
negated score or, for heavy, by size: the least is still the first optimum
over all masks.  Heavy's search drops every node whose set is already as
large as the best in-heavy set found; the nodes that can still tie are kept.
Large and sharp witnesses are re-scored once.
The partition numbers try k = lower, lower + 1, ... and walk
restricted-growth strings, adding the vertices in ascending order.  The two
colouring numbers start at the size of a greedy clique, re-checked pairwise
first: of the underlying graph for independent parts, of the digons for
acyclic ones.  The chromatic number also builds a first-fit colouring,
largest degree first, re-checked as a partition into independent parts;
only the passes below its size run, and it is the answer when they all
fail.  The kernel-perfect number starts at 1.  The searches test only the
parts the walk builds, one vertex at a time: a predicate says whether a
valid part plus the next vertex is still valid, and pruning is sound
because every part kind is hereditary.  Independence is one mask test and
acyclicity one reachability search.  Kernel-perfectness tries three rules
and a reject, in the order below (proofs at ``_kernel_perfect_extends``):

* rule 1 accepts if the new vertex is a sink or a source of the part: a
  kernel of each subset extends to one with it;
* the reject: the vertex closes an induced directed triangle, which has no
  kernel;
* rule 2 accepts if no odd closed walk runs through the vertex: a least
  subset without a kernel would be strongly connected and have an odd
  dicycle through it (Richardson, 1953);
* rule 3 accepts if the one-way arcs of the vertex's strong component C
  form no dicycle: then every dicycle of C has a symmetric arc, and C is
  kernel-perfect (Duchet, 1980).  Otherwise it marks the subsets of C that
  contain the vertex and have a kernel, as bits of one int indexed by rank
  in C through ``digraph._ranks``, the table that also labels D[S] copies.

The returned parts are re-checked to cover the vertex set without overlap,
and acyclic and independent parts to be of their kind.  Free vertices below
a core that fails multiply each pass below the answer; when the clique bound
is below the answer (Mycielski graphs), these passes still run, and such
inputs are PARTITION_BUDGET's worst case.

``kernel_perfect_number`` is the least k with a partition into kernel-perfect
parts; it is bounded above by the dichromatic number (acyclic parts) which is
bounded by the chromatic number of the underlying graph (independent parts).
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import (
    Digraph,
    Partition,
    _is_acyclic_rows,
    _parity_reach,
    _ranks,
    _row_union,
    check_partition,
    check_set,
    is_acyclic_set,
    is_independent,
    iter_bits,
    n_minus_closed,
    n_minus_set,
    n_plus_set,
)
from .exceptions import BudgetExceededError, PostconditionViolationError

PARTITION_BUDGET = 13
ENUMERATION_BUDGET = 20
MIN_QK_BUDGET = 32
MIS_BUDGET = 32


@dataclass(frozen=True)
class SolveResult:
    """A witness mask (None when no solution exists), its objective value,
    and a flag set only after the witness was re-checked against the
    definitional predicate."""

    witness: int | None
    objective: int
    verified: bool


# ---------------------------------------------------------------------------
# kernels


def _least_kernel(d: Digraph, s: int, undirected: bool, key, sized: bool):
    """(key, mask) of the kernel K of D[S] with the least ``key(K, N^-(K),
    N^+(K))``, neighbourhoods taken in D, ties to the least mask; kernels
    whose key is None are skipped, and None is returned if all are.  With
    ``undirected`` the kernels are those of D's underlying undirected graph
    on S = V, that is D's maximal independent sets: for large without a
    kernel, sharp and heavy.

    A node is (K, p, loose, N^-(K), N^+(K)): K is independent, p holds the
    vertices of S that may still join K, and loose those of S outside K
    that nothing in K absorbs (no arc into K; with ``undirected``, no arc to
    or from it).  A loose u must join K or be absorbed, so every kernel
    below the node holds a vertex of ``p & (absorb[u] | u)``.  The search
    branches on the smallest such set, drops a child with something loose
    and nothing left to add, and takes each branched vertex out of p for
    its later siblings.  On the underlying graph this is Bron--Kerbosch with
    Tomita--Tanaka--Takahashi pivoting (TCS 2006): loose is its P | X.
    There are at most 3^{n/3} maximal independent sets (Moon--Moser 1965),
    reached by disjoint triangles.  Each child ORs the new vertex's rows
    into the neighbourhoods; no row meets the independent K.

    ``sized`` says that a key, where not None, is |K|.  Then a node whose K
    is already as large as the best key is dropped: every kernel below it
    is larger, while the kernels that tie with the best are still met.
    """
    if s.bit_count() > MIS_BUDGET:
        raise BudgetExceededError(f"maximal independent set enumeration budget is n <= {MIS_BUDGET}")
    if not s:  # the empty set; the search below scores only nonempty sets
        score = key(0, 0, 0)
        return None if score is None else (score, 0)
    rows, in_rows = d.rows, d.in_rows
    # a loose u is absorbed by a vertex of absorb[u] in K, and v joining K
    # absorbs the vertices of freed[v]
    absorb, freed = (_underlying_rows(d),) * 2 if undirected else (rows, in_rows)
    best = None
    cap = n = len(rows)  # no node on the stack holds n vertices
    stack = [(0, s, s, 0, 0)]
    while stack:
        k, p, loose, ins, outs = stack.pop()
        if k.bit_count() >= cap:
            continue
        branch, least, probe = p, n + 1, loose
        while probe:
            low = probe & -probe
            cand = p & (absorb[low.bit_length() - 1] | low)
            size = cand.bit_count()
            if size < least:
                branch, least = cand, size
                if size <= 1:
                    break
            probe ^= low
        while branch:
            low = branch & -branch
            v = low.bit_length() - 1
            grow = p & ~(rows[v] | in_rows[v] | low)
            rest = loose & ~(freed[v] | low)
            if grow:
                stack.append((k | low, grow, rest, ins | in_rows[v], outs | rows[v]))
            elif not rest:
                score = key(k | low, ins | in_rows[v], outs | rows[v])
                if score is not None and (best is None or (score, k | low) < best):
                    best = score, k | low
                    if sized:
                        cap = score
            p ^= low
            branch ^= low
    return best


def _is_kernel_of(d: Digraph, k: int, s: int) -> bool:
    """K is a kernel of D[S]: it lies inside S, is independent, and every
    vertex of S outside it has an arc into it."""
    return is_independent(d, k) and not k & ~s and not s & ~(k | _row_union(d.in_rows, k))


def find_kernel(d: Digraph) -> SolveResult:
    """Lexicographically first kernel by (size, bit order), or None; absence
    is certified by the exhausted search, so ``verified`` is True either way."""
    return _first_kernel(d, int.bit_count, d.vertex_mask)


def _first_kernel(d: Digraph, size, s: int) -> SolveResult:
    """The kernel of D[S] least by (``size(mask)``, mask), re-checked; the
    objective is that size."""
    best = _least_kernel(d, s, False, lambda mask, ins, outs: size(mask), False)
    if best is None:
        return SolveResult(None, 0, True)
    objective, mask = best
    if not _is_kernel_of(d, mask, s):
        raise PostconditionViolationError("kernel search returned a non-kernel")
    return SolveResult(mask, objective, True)


# ---------------------------------------------------------------------------
# quasi-kernels


def is_quasi_kernel(d: Digraph, q: int) -> bool:
    """Independent and every vertex is within directed distance 2 to Q."""
    return _is_quasi_kernel_of(d, q, d.vertex_mask)


def _is_quasi_kernel_of(d: Digraph, q: int, s: int) -> bool:
    """Q is a quasi-kernel of D[S]: it lies inside S, is independent, and
    every vertex of S has a path of at most two arcs to Q in D[S], so the
    one-step set is clipped to S before the second step."""
    check_set(d, q)
    if q & ~s:
        return False
    in_rows = d.in_rows
    ins = _row_union(in_rows, q)
    if ins & q:  # an arc inside Q
        return False
    once = (q | ins) & s
    # the second step from Q is ins again, so it runs over the new vertices only
    return not s & ~(once | _row_union(in_rows, once & ~q))


def min_quasi_kernel(d: Digraph) -> SolveResult:
    """Lexicographically first minimum-size quasi-kernel: the least mask
    among the quasi-kernels of least size.

    Every finite digraph has one, so exhaustion raises (a bug signal).
    Deciding whether one of a given size exists is NP-complete (Langlois,
    Meunier, Rizzi and Vialette, WG 2022), so the search has a budget.
    """
    if d.n > MIN_QK_BUDGET:
        raise BudgetExceededError(f"minimum quasi-kernel search budget is n <= {MIN_QK_BUDGET}")
    mask = _first_min_quasi_kernel(d)
    if not is_quasi_kernel(d, mask):
        raise PostconditionViolationError("quasi-kernel search returned a bad witness")
    return SolveResult(mask, mask.bit_count(), True)


def _first_min_quasi_kernel(d: Digraph) -> int:
    """The search behind ``min_quasi_kernel``.

    Size 1 fills ``reach`` one vertex at a time and stops at the first
    vertex that reaches everything.  Then, for k = 2, 3, ..., it takes the
    first quasi-kernel with at most k vertices in ascending mask order.
    None with fewer than k exists, so the first one found has exactly k
    vertices and is the least mask of least size.
    """
    full = d.vertex_mask
    if not full:
        return 0
    reach = _reach_table(d.in_rows, full)
    if reach[-1] == full:
        return 1 << len(reach) - 1
    for k in range(2, d.n + 1):
        for q in _ordered_quasi_kernels(d.rows, d.in_rows, reach, k):
            return q
    raise AssertionError("no quasi-kernel found; digraphs always have one")


def _reach_table(in_rows, stop: int = -1) -> list[int]:
    """``reach[v]`` for v = 0, 1, ...: v and every vertex with a path of at
    most two arcs to v.  An independent Q is a quasi-kernel iff the union of
    ``reach`` over Q is everything.  The table ends early, after the first
    entry equal to ``stop``."""
    reach = []
    for v in range(len(in_rows)):
        once = in_rows[v] | 1 << v
        twice = once | _row_union(in_rows, once)
        reach.append(twice)
        if twice == stop:
            break
    return reach


def _ordered_quasi_kernels(rows, in_rows, reach: list[int], cap: int):
    """Yield every quasi-kernel with at most ``cap`` vertices (cap >= 1, or
    0 on the empty digraph) in ascending mask order.

    A depth-first search over (Q, avail, cover, room): avail holds the
    undecided vertices with no arc to or from Q, cover is the union of
    ``reach`` over Q, and Q may take room more vertices.  It branches on the
    top vertex of avail and tries excluding it first, so the masks come out
    in ascending order, and it builds only independent sets.  ``below[m]``
    is the union of ``reach`` over the vertices under m, and every vertex of
    avail lies under avail's top bit, so a node whose cover plus that union
    misses a vertex has no quasi-kernel below it.  A leaf has avail empty
    and ``below[0] = 0``, so the same test requires cover to be everything.
    """
    below = [0]
    for ball in reach:
        below.append(below[-1] | ball)
    full = below[-1]
    stack = [(0, full, 0, cap)]
    while stack:
        q, avail, cover, room = stack.pop()
        if cover | below[avail.bit_length()] != full:
            continue
        if not avail:
            yield q
            continue
        v = avail.bit_length() - 1
        bit = 1 << v
        rest = avail & ~(rows[v] | in_rows[v] | bit) if room > 1 else 0
        stack.append((q | bit, rest, cover | reach[v], room - 1))
        stack.append((q, avail ^ bit, cover, room))


def large_score(d: Digraph, q: int) -> int:
    """|n_minus_closed(D, Q)|: how much Q dominates within one step."""
    return n_minus_closed(d, q).bit_count()


def sharp_score(d: Digraph, q: int) -> int:
    """Doubled sharp objective |Q| + 2*|n_minus_set(D, Q)| (kept integral)."""
    return q.bit_count() + 2 * n_minus_set(d, q).bit_count()


def _max_quasi_kernel(d: Digraph, weight: int, score) -> SolveResult:
    """Quasi-kernel maximizing |Q| + weight * |N^-(Q)|, which must equal
    ``score(d, Q)`` on the witness; first optimum in ascending mask order.

    Only maximal independent sets are scored.  If a quasi-kernel Q has a
    vertex v with no arc to or from Q, then Q + v is independent and still
    reaches every vertex within two steps, so it is a quasi-kernel.  It
    scores strictly higher: |Q| grows while N^-(Q) keeps every member,
    since v has no arc into Q.  So every optimum is a maximal independent
    set, and the least-mask optimal one is the first optimum over all masks.
    Such a Q is a quasi-kernel iff Q, N^-(Q) and N^-(N^-(Q)) cover D.
    """
    in_rows = d.in_rows
    full = d.vertex_mask

    def negated_objective(mask: int, ins: int, outs: int) -> int | None:
        if mask | ins | _row_union(in_rows, ins) != full:
            return None
        return -(mask.bit_count() + weight * ins.bit_count())

    best = _least_kernel(d, full, True, negated_objective, False)
    if best is None:
        raise AssertionError("no quasi-kernel found; digraphs always have one")
    neg_obj, mask = best
    if not is_quasi_kernel(d, mask):
        raise PostconditionViolationError("quasi-kernel search returned a bad witness")
    if score(d, mask) != -neg_obj:
        raise PostconditionViolationError("quasi-kernel search mis-scored its witness's objective")
    return SolveResult(mask, -neg_obj, True)


def max_large_quasi_kernel(d: Digraph) -> SolveResult:
    """Quasi-kernel maximizing |n_minus_closed(D, Q)|, first optimum in mask
    order.  No Q scores above n, and an independent Q scores n iff every
    vertex outside it has an arc into it, that is iff Q is a kernel; every
    kernel is a quasi-kernel.  So if D has a kernel, its least kernel mask
    is the witness, found with every kernel keyed n; else
    ``_max_quasi_kernel`` searches.  The two re-checks of the kernel, a
    quasi-kernel (so independent) that scores n, certify it a kernel."""
    n = d.n
    best = _least_kernel(d, d.vertex_mask, False, lambda mask, ins, outs: n, False)
    if best is None:
        return _max_quasi_kernel(d, 1, large_score)
    mask = best[1]
    if not is_quasi_kernel(d, mask) or large_score(d, mask) != n:
        raise PostconditionViolationError("kernel search returned a bad large quasi-kernel")
    return SolveResult(mask, n, True)


def max_sharp_quasi_kernel(d: Digraph) -> SolveResult:
    """Quasi-kernel maximizing the doubled objective |Q| + 2|N^-(Q)|."""
    return _max_quasi_kernel(d, 2, sharp_score)


def _maximalize_within(d: Digraph, q: int, s: int) -> int:
    """Grow a quasi-kernel q of D[S] to a maximal independent set of D[S],
    adding vertices of S in increasing index order.  Any independent
    superset of a quasi-kernel is one."""
    if not _is_quasi_kernel_of(d, q, s):
        raise ValueError("input is not a quasi-kernel")
    rows = d.rows
    in_rows = d.in_rows
    for v in iter_bits(s & ~q):
        if not (rows[v] | in_rows[v]) & q:
            q |= 1 << v
    if not _is_quasi_kernel_of(d, q, s):
        raise PostconditionViolationError("maximalization broke the quasi-kernel")
    return q


def quasi_kernels(d: Digraph):
    """Yield every quasi-kernel mask in ascending numeric order, each
    re-checked against ``is_quasi_kernel`` before it is yielded.

    Not output-sensitive: the star into a sink (u -> 0 for all u >= 1) has
    one quasi-kernel yet costs about 2^(n-1) nodes, and 0 -> 1 plus u -> 0
    (u >= 2) has 2^(n-2); at n = ENUMERATION_BUDGET, about 0.3 and 1.6 s.
    """
    if d.n > ENUMERATION_BUDGET:
        raise BudgetExceededError(f"quasi-kernel enumeration budget is n <= {ENUMERATION_BUDGET}")
    reach = _reach_table(d.in_rows)
    for mask in _ordered_quasi_kernels(d.rows, d.in_rows, reach, d.n):
        if not is_quasi_kernel(d, mask):
            raise PostconditionViolationError("quasi-kernel enumeration yielded a non-quasi-kernel")
        yield mask


# ---------------------------------------------------------------------------
# growing parts one vertex at a time
#
# Each ``_*_extends(d)`` returns a predicate ok(part, v) for the partition
# searches: given that ``part`` is already a valid part and v is above all of
# its vertices, is ``part | 1 << v`` valid too?  The three kinds of part
# (independent, acyclic, kernel-perfect) are hereditary, so a set is valid
# iff adding its vertices in ascending order is accepted at every step.


def _underlying_rows(d: Digraph) -> list[int]:
    """Neighbours of each vertex in the underlying undirected graph."""
    return [row | in_row for row, in_row in zip(d.rows, d.in_rows)]


def _one_way_rows(d: Digraph) -> list[int]:
    """The arcs u -> w of D without w -> u, as out-rows."""
    return [row & ~in_row for row, in_row in zip(d.rows, d.in_rows)]


def _independent_extends(und: list[int]):
    """Independent parts, from the underlying graph's rows ``und``."""
    return lambda part, v: not und[v] & part


def _acyclic_extends(d: Digraph):
    """An acyclic part plus v has a cycle iff v reaches one of its own
    in-neighbours inside the part."""
    rows = d.rows
    in_rows = d.in_rows

    def ok(part: int, v: int) -> bool:
        back = in_rows[v] & part
        frontier = seen = rows[v] & part if back else 0
        while frontier:
            if frontier & back:
                return False
            frontier = _row_union(rows, frontier) & part & ~seen
            seen |= frontier
        return True

    return ok


def _odd_strong_component(rows, in_rows, s: int, v: int) -> int:
    """The strong component of v inside S if an odd closed walk through v
    stays inside S, else 0.

    Such a walk exists iff the component has an odd dicycle: a closed walk
    through v never leaves the component, and from v one can walk to an odd
    dicycle, around it or not, and back.
    """
    bit = 1 << v
    even, odd = _parity_reach(rows, s, v)
    if not odd & bit:
        return 0
    ahead = even | odd
    back = front = bit  # the vertices reached from v that reach v back
    while front:
        front = _row_union(in_rows, front) & ahead & ~back
        back |= front
    return back


def _kernel_perfect_through(in_rows, und, s: int, v: int) -> bool:
    """Whether every subset of S that contains v induces a subdigraph with a
    kernel.

    A set T has a kernel iff some independent K satisfies K <= T <= K +
    N^-(K), so each independent K inside S marks an interval of subsets.
    Only the sets that contain v are marked; all are marked iff
    2^(|S| - 1) are.
    The marks are the bits of one int, indexed by rank: u in S stands for
    ``place[u]`` of the rank table ``_ranks(S)``, bit i for the i-th vertex
    of S, so the int has at most 2^|S| bits whatever the labels.  An
    interval is the subset indicator of its free vertices, built by one
    shift per vertex and shifted onto K + v.
    """
    place = _ranks(s)
    bit = 1 << v
    marked = 0
    stack = [(0, s, 0, 0)]  # (independent K, vertices that may join K, N^-(K), K's rank mask)
    while stack:
        k, rest, dominated, ranked = stack.pop()
        free = dominated & s & ~k
        if k & bit or free & bit:
            free &= ~bit
            block = 1  # bit m is set for the rank index m of each subset of free
            while free:
                low = free & -free
                block |= block << place[low.bit_length() - 1]
                free ^= low
            marked |= block << (ranked | place[v])
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            stack.append((k | low, rest & ~und[u], dominated | in_rows[u], ranked | place[u]))
    return marked.bit_count() == 1 << (s.bit_count() - 1)


def _induced_triangle(rows, in_rows, s: int, v: int) -> int:
    """The mask {u, w} of the least u, then the least w, inside S with
    v -> u -> w -> v and none of u -> v, w -> u, v -> w; 0 if there is none."""
    behind = in_rows[v] & ~rows[v] & s
    if not behind:
        return 0
    ahead = rows[v] & ~in_rows[v] & s
    while ahead:
        low = ahead & -ahead
        u = low.bit_length() - 1
        hit = rows[u] & ~in_rows[u] & behind
        if hit:
            return low | hit & -hit
        ahead ^= low
    return 0


def _kernel_perfect_extends(d: Digraph, one_way: list[int]):
    """Kernel-perfect parts, tried by three rules and one reject, in the
    order rule 1, reject, rule 2, rule 3; ``one_way`` is ``_one_way_rows(d)``.

    1. v is a sink or a source of ``part | v``: accept.  Let T be any subset
       of ``part``.  If v is a sink, a kernel of T - N^-(v) plus v is a
       kernel of T + v: nothing in it has an arc to v, v has no arc at all
       into T, and N^-(v) has an arc into v.  If v is a source, take a
       kernel K of T; it is one of T + v if v has an arc into K, and else
       K + v is one, since no arc joins v and K.

    Reject: ``part | v`` holds an induced directed triangle through v
    (``_induced_triangle``).  The triangle has no kernel: each of its
    vertices has its only in-neighbour among the three.

    2. No odd closed walk through v stays inside ``part | v``: accept.
       Take a least T + v without a kernel; it contains v, since ``part``
       is kernel-perfect, and all its proper subsets have kernels.  Were it
       not strongly connected, it would have a proper strong component X
       with no arc leaving X, and a kernel K_X of X and a kernel K' of the
       rest minus N^-(K_X) would make K_X + K' a kernel of the whole: no
       arc runs from K_X to K' or from K' into K_X, and every other vertex
       has an arc into one of them.  So T + v is strongly connected, lies
       inside the strong component C of v, and has an odd dicycle by
       Richardson's theorem (1953); then C has one too, and an odd closed
       walk runs through v.  This holds whether or not ``part`` itself has
       an odd dicycle.
    3. Otherwise ``part | v`` is kernel-perfect iff C is, by the argument of
       rule 2.  C is accepted if its one-way arcs (u -> w without w -> u)
       form no dicycle: then every dicycle of C has a symmetric arc, and
       such a digraph is kernel-perfect by Duchet's theorem (1980).  Else
       ``_kernel_perfect_through`` decides.
    """
    rows = d.rows
    in_rows = d.in_rows
    und = _underlying_rows(d)

    def ok(part: int, v: int) -> bool:
        if not rows[v] & part or not in_rows[v] & part:
            return True
        if _induced_triangle(rows, in_rows, part, v):
            return False
        strong = _odd_strong_component(rows, in_rows, part | 1 << v, v)
        if not strong:
            return True
        return _is_acyclic_rows(one_way, strong) or _kernel_perfect_through(in_rows, und, strong, v)

    return ok


def is_kernel_perfect(d: Digraph, s: int) -> bool:
    """True iff every subset of S induces a subdigraph that has a kernel.

    In D's own labels: S is accepted at once when its one-way arcs form no
    dicycle (Duchet's theorem, as in ``_kernel_perfect_extends``' rule 3),
    else each vertex of S must extend the part of those below it, in the
    k = 1 pass of ``kernel_perfect_number``'s search, under its budget.
    """
    check_set(d, s)
    _check_partition_budget(s.bit_count())
    one_way = _one_way_rows(d)
    if _is_acyclic_rows(one_way, s):
        return True
    ok = _kernel_perfect_extends(d, one_way)
    return all(ok(s & (1 << v) - 1, v) for v in iter_bits(s))


# ---------------------------------------------------------------------------
# partition numbers


def _min_partition_rgs(n: int, ok, lower: int, upper: int) -> tuple[int, tuple[int, ...]] | None:
    """Least k with ``lower <= k < upper`` admitting a partition into valid
    parts, with the first witness in restricted-growth-string order; None if
    no such k does.

    ``ok(part, v)`` says whether a valid part plus the vertex v above all of
    its vertices is still valid.  Singletons must be valid (true for the
    three part kinds used here), so a pass at k = n succeeds.  Validity must
    be hereditary, which justifies pruning as soon as a growing part fails.
    Each pass is independent of the others, so starting at a ``lower`` no
    larger than the answer only skips passes that would fail.
    """
    if n == 0:
        return 0, ()
    for k in range(lower, upper):
        parts = [0] * k
        if _rgs_assign(0, 0, n, k, parts, ok):
            return k, tuple(parts)
    return None


def _rgs_assign(v: int, used: int, n: int, k: int, parts: list[int], ok) -> bool:
    if v == n:
        return used == k
    bit = 1 << v
    limit = used + 1 if used < k else k
    for j in range(limit):
        used_after = used + 1 if j == used else used
        if k - used_after > n - v - 1:
            continue
        if ok(parts[j], v):
            parts[j] |= bit
            if _rgs_assign(v + 1, used_after, n, k, parts, ok):
                return True
            parts[j] &= ~bit
    return False


def _greedy_clique(adj: list[int]) -> int:
    """The largest of the cliques grown from each seed vertex, ties to the
    first seed: a seed takes its least remaining candidate until none is
    left.  ``adj`` holds symmetric neighbour rows."""
    best = 0
    for v, row in enumerate(adj):
        clique, cand = 1 << v, row
        while cand:
            low = cand & -cand
            clique |= low
            cand &= adj[low.bit_length() - 1]
        if clique.bit_count() > best.bit_count():
            best = clique
    return best


def _clique_bound(adj: list[int]) -> int:
    """|C| for the clique C of ``_greedy_clique``, re-checked pairwise
    first: a bound above the answer would skip its pass unseen."""
    clique = _greedy_clique(adj)
    for v in iter_bits(clique):
        if clique & ~adj[v] != 1 << v:
            raise PostconditionViolationError("clique bound came from a set that is not a clique")
    return clique.bit_count()


def _check_partition_budget(n: int) -> None:
    """Refuse a partition search on more than PARTITION_BUDGET vertices."""
    if n > PARTITION_BUDGET:
        raise BudgetExceededError(f"partition search budget is n <= {PARTITION_BUDGET}")


def _check_parts(d: Digraph, kind: str, source: str, parts, part_ok) -> None:
    """Raise unless ``parts`` partition the vertex set and, when ``part_ok``
    is given, ``part_ok(d, part)`` holds for each one; ``source`` names where
    the parts came from."""
    try:
        check_partition(d, parts)
    except ValueError as e:
        raise PostconditionViolationError(f"{kind} {source} returned a bad partition: {e}") from e
    if part_ok is not None and not all(part_ok(d, part) for part in parts):
        raise PostconditionViolationError(f"{kind} {source} returned a part that is not {kind}")


def _partition_number(d: Digraph, kind: str, ok, lower: int, part_ok,
                      colouring=None) -> tuple[int, tuple[int, ...]]:
    """Least number of parts of ``kind`` covering the vertex set, with the
    parts of the first certifying partition in restricted-growth order.
    ``kind`` only names the parts in error messages.

    ``ok`` is the search's predicate and ``lower`` a certified lower bound
    on the answer, where the search starts.  ``colouring`` is a partition
    into valid parts, re-checked first; the search runs only the passes
    below its size, and it is the answer if they all fail.  Without one,
    the passes run up to k = n, which the singletons pass.  The parts found
    are re-checked before they are returned: that they partition the vertex set
    and, when ``part_ok`` is given, that ``part_ok(d, part)`` holds for each
    one.  Kernel-perfect parts are not re-checked one by one; that check is
    as exponential as the search.  Callers refuse inputs over the budget
    (``_check_partition_budget``) before they build ``ok`` or ``lower``.
    """
    upper = d.n + 1
    if colouring is not None:
        _check_parts(d, kind, "greedy colouring", colouring, part_ok)
        upper = len(colouring)
    found = _min_partition_rgs(d.n, ok, lower, upper)
    if found is None:
        if colouring is None:
            raise AssertionError("partition search fell through; singletons must satisfy the predicate")
        return len(colouring), colouring
    _check_parts(d, kind, "partition search", found[1], part_ok)
    return found


def kernel_perfect_number(d: Digraph) -> tuple[int, Partition]:
    """Least number of kernel-perfect parts covering the vertex set, with the
    first certifying partition in restricted-growth order."""
    _check_partition_budget(d.n)
    ok = _kernel_perfect_extends(d, _one_way_rows(d))
    k, parts = _partition_number(d, "kernel-perfect", ok, 1, None)
    return k, Partition(parts)


def _greedy_colouring(und: list[int]) -> tuple[int, ...]:
    """First-fit colouring of the underlying graph with rows ``und``: the
    vertices in order of decreasing degree, ties to the least label, each
    join the first part that ``_independent_extends`` accepts, else open a
    new one (Welsh and Powell, 1967).  Independence does not need v above
    the part's vertices."""
    ok = _independent_extends(und)
    parts: list[int] = []
    for v in sorted(range(len(und)), key=lambda v: -und[v].bit_count()):
        for j, part in enumerate(parts):
            if ok(part, v):
                parts[j] = part | 1 << v
                break
        else:
            parts.append(1 << v)
    return tuple(parts)


def chromatic_number(d: Digraph) -> int:
    """Chromatic number of the underlying undirected graph.  A clique of it
    needs one part per vertex, and a greedy colouring, re-checked first, is
    a partition into independent parts: only the passes from the clique's
    size up to below the colouring's run."""
    _check_partition_budget(d.n)
    und = _underlying_rows(d)
    return _partition_number(d, "independent", _independent_extends(und), _clique_bound(und),
                             is_independent, _greedy_colouring(und))[0]


def dichromatic_number(d: Digraph) -> int:
    """Least number of acyclic parts covering the vertex set.  An acyclic
    part holds at most one vertex of a clique of digons, so the search
    starts at the size of a greedy one."""
    _check_partition_budget(d.n)
    digons = [row & in_row for row, in_row in zip(d.rows, d.in_rows)]
    return _partition_number(d, "acyclic", _acyclic_extends(d), _clique_bound(digons), is_acyclic_set)[0]


# ---------------------------------------------------------------------------
# heavy independent sets


def heavy_independent_set(d: Digraph) -> int:
    """Maximal independent set with at least as many in- as out-neighbours.

    Exhaustive: returns the first maximal independent set in (cardinality,
    numeric) order with |n_minus_set| >= |n_plus_set|.  The search is capped
    at the size of the best in-heavy set found so far, so it skips the sets
    larger than that and still meets every tie.  Greedy rules that
    pick one in-heavy vertex at a time and delete its neighbourhood do not
    work; the digraph 1->0, 0->2, 3->1 defeats the natural one, because a
    later pick can feed arcs to vertices deleted earlier.

    Exhaustion raises PostconditionViolationError ("potential
    counterexample").  Every digraph on at most 5 vertices has such a set,
    but some on 6 do not: 0->3, 0->4, 0->5, 1->3, 1->4, 1->5, 2->0, 3->2,
    4->0, 4->1, 4->2, 5->2 has the maximal independent sets {0, 1}, {1, 2}
    and {3, 4, 5}, and none of them is in-heavy.
    """
    best = _least_kernel(
        d, d.vertex_mask, True,
        lambda mask, ins, outs: mask.bit_count() if ins.bit_count() >= outs.bit_count() else None, True)
    if best is None:
        raise PostconditionViolationError(
            "no in-heavy maximal independent set exists here; potential counterexample")
    mask = best[1]
    ins = n_minus_set(d, mask)
    outs = n_plus_set(d, mask)
    if (not is_independent(d, mask) or mask | ins | outs != d.vertex_mask
            or ins.bit_count() < outs.bit_count()):
        raise PostconditionViolationError("heavy search returned no in-heavy maximal independent set")
    return mask
