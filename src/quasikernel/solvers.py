"""Exact solvers for kernels, quasi-kernels, and partition numbers.

A kernel is an independent set K with every vertex in or one step from K
(``n_minus_closed(D, K)`` is everything).  A quasi-kernel relaxes the radius
to two steps.  Kernels can be absent (the directed triangle); quasi-kernels
always exist in a finite digraph, so an exhausted search is a bug, not a
result.

Everything here is exhaustive and exact, sized for a desk, and identical runs
give identical output.  The minimum searches (kernels, minimum quasi-kernels,
heavy independent sets) walk bit masks in (cardinality, numeric) order and
return the first hit.  The maximum quasi-kernel searches (large, sharp) only
score maximal independent sets, listed by Bron--Kerbosch with Tomita pivoting,
because every optimum is one; ties go to the least mask, so the witness is
still the first optimum in ascending mask order.
Subset-indexed predicate tables (independent / acyclic / has-kernel /
kernel-perfect) cost O(2^n) to O(3^n) and back the partition-number searches:
the minimum number of parts is found by trying k = 1, 2, ... and walking
restricted-growth strings, pruning on the (downward closed) part predicate.

``kernel_perfect_number`` is the least k with a partition into kernel-perfect
parts; it is bounded above by the dichromatic number (acyclic parts) which is
bounded by the chromatic number of the underlying graph (independent parts).
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import (
    Digraph,
    Partition,
    check_set,
    induced,
    is_independent,
    n_minus_closed,
    n_minus_minus_closed,
    n_minus_set,
    n_plus_set,
    odd_dicycle_free,
)
from .exceptions import BudgetExceededError, PostconditionViolationError

KERNEL_PERFECT_BUDGET = 16
PARTITION_BUDGET = 12
ENUMERATION_BUDGET = 20
MIS_BUDGET = 32


@dataclass(frozen=True)
class SolveResult:
    """A witness mask (None when no solution exists), its objective value,
    and a flag set only after the witness was re-checked against the
    definitional predicate."""

    witness: int | None
    objective: int
    verified: bool


def _masks_by_size(n: int):
    """All masks over n bits, cardinality first, numerically within."""
    yield 0
    top = 1 << n
    for k in range(1, n + 1):
        m = (1 << k) - 1
        while m < top:
            yield m
            c = m & -m
            r = m + c
            m = r | (((r ^ m) >> 2) // c)


# ---------------------------------------------------------------------------
# kernels


def is_kernel(d: Digraph, k: int) -> bool:
    """Independent and every vertex is in K or has an arc into K."""
    check_set(d, k)
    return is_independent(d, k) and n_minus_closed(d, k) == d.vertex_mask


def find_kernel(d: Digraph) -> SolveResult:
    """Lexicographically first kernel by (size, bit order), or None.

    Absence is certified by the exhausted search, so ``verified`` is True
    either way.
    """
    rows = d.rows
    in_rows = d.in_rows
    full = d.vertex_mask
    for mask in _masks_by_size(d.n):
        closed = mask
        probe = mask
        ok = True
        while probe:
            low = probe & -probe
            v = low.bit_length() - 1
            if rows[v] & mask:
                ok = False
                break
            closed |= in_rows[v]
            probe ^= low
        if ok and closed == full:
            if not is_kernel(d, mask):
                raise PostconditionViolationError("kernel search returned a non-kernel")
            return SolveResult(mask, mask.bit_count(), True)
    return SolveResult(None, 0, True)


# ---------------------------------------------------------------------------
# quasi-kernels


def is_quasi_kernel(d: Digraph, q: int) -> bool:
    """Independent and every vertex is within directed distance 2 to Q."""
    check_set(d, q)
    return is_independent(d, q) and n_minus_minus_closed(d, q) == d.vertex_mask


def _qk_raw(rows, in_rows, full, mask) -> bool:
    closed = mask
    probe = mask
    while probe:
        low = probe & -probe
        v = low.bit_length() - 1
        if rows[v] & mask:
            return False
        closed |= in_rows[v]
        probe ^= low
    if closed == full:
        return True
    twice = closed
    probe = closed
    while probe:
        low = probe & -probe
        twice |= in_rows[low.bit_length() - 1]
        probe ^= low
    return twice == full


def min_quasi_kernel(d: Digraph) -> SolveResult:
    """Lexicographically first minimum-size quasi-kernel.

    Every finite digraph has one, so exhaustion raises (a bug signal).
    A minimum quasi-kernel is in particular inclusion-minimal.
    """
    rows = d.rows
    in_rows = d.in_rows
    full = d.vertex_mask
    for mask in _masks_by_size(d.n):
        if _qk_raw(rows, in_rows, full, mask):
            if not is_quasi_kernel(d, mask):
                raise PostconditionViolationError("quasi-kernel search returned a bad witness")
            return SolveResult(mask, mask.bit_count(), True)
    raise AssertionError("no quasi-kernel found; digraphs always have one")


def large_score(d: Digraph, q: int) -> int:
    """|n_minus_closed(D, Q)|: how much Q dominates within one step."""
    return n_minus_closed(d, q).bit_count()


def sharp_score(d: Digraph, q: int) -> int:
    """Doubled sharp objective |Q| + 2*|n_minus_set(D, Q)| (kept integral)."""
    return q.bit_count() + 2 * n_minus_set(d, q).bit_count()


def _maximal_independent_sets(d: Digraph) -> list[int]:
    """Every maximal independent set of the underlying undirected graph, as
    masks in no particular order, each exactly once.

    Bron--Kerbosch on the complement with Tomita--Tanaka--Takahashi pivoting
    (TCS 2006).  There are at most 3^{n/3} such sets (Moon--Moser 1965),
    reached by disjoint triangles.
    """
    n = d.n
    if n > MIS_BUDGET:
        raise BudgetExceededError(f"maximal independent set enumeration budget is n <= {MIS_BUDGET}")
    if not n:
        return [0]  # the empty set; the search below reports only nonempty sets
    rows = d.rows
    in_rows = d.in_rows
    closed = [rows[v] | in_rows[v] | 1 << v for v in range(n)]
    out = []
    # (r, p, x): r is independent; p and x hold the vertices with no arc to
    # or from r, those still to branch on and those already branched on
    stack = [(0, d.vertex_mask, 0)]
    while stack:
        r, p, x = stack.pop()
        # every set still to report takes a vertex of p & closed[u] for each
        # u in p | x (else u could join it), so branch on the smallest one
        branch = p
        least = n + 1
        probe = p | x
        while probe:
            low = probe & -probe
            cand = p & closed[low.bit_length() - 1]
            size = cand.bit_count()
            if size < least:
                branch, least = cand, size
                if size <= 1:
                    break
            probe ^= low
        while branch:
            low = branch & -branch
            cv = closed[low.bit_length() - 1]
            p_next = p & ~cv
            x_next = x & ~cv
            if p_next:
                stack.append((r | low, p_next, x_next))
            elif not x_next:
                out.append(r | low)
            p ^= low
            x |= low
            branch ^= low
    return out


def _max_quasi_kernel(d: Digraph, score) -> SolveResult:
    """Quasi-kernel maximizing ``score(d, Q)``; first optimum in ascending
    mask order.

    Only maximal independent sets are scored.  If a quasi-kernel Q has a
    vertex v with no arc to or from Q, then Q + v is independent and still
    reaches every vertex within two steps, so it is a quasi-kernel.  It
    scores strictly higher on both objectives: v joins n_minus_closed(D, Q),
    and |Q| grows while n_minus_set(D, Q) keeps every member, since v has no
    arc into Q.  So every optimum is a maximal independent set, and the
    least-mask optimal one is the first optimum over all masks.
    """
    rows = d.rows
    in_rows = d.in_rows
    full = d.vertex_mask
    best = None
    best_obj = -1
    for mask in _maximal_independent_sets(d):
        if _qk_raw(rows, in_rows, full, mask):
            obj = score(d, mask)
            if obj > best_obj or obj == best_obj and mask < best:
                best, best_obj = mask, obj
    if best is None:
        raise AssertionError("no quasi-kernel found; digraphs always have one")
    if not is_quasi_kernel(d, best):
        raise PostconditionViolationError("quasi-kernel search returned a bad witness")
    return SolveResult(best, best_obj, True)


def max_large_quasi_kernel(d: Digraph) -> SolveResult:
    """Quasi-kernel maximizing |n_minus_closed(D, Q)|."""
    return _max_quasi_kernel(d, large_score)


def max_sharp_quasi_kernel(d: Digraph) -> SolveResult:
    """Quasi-kernel maximizing the doubled objective |Q| + 2|N^-(Q)|."""
    return _max_quasi_kernel(d, sharp_score)


def minimalize_quasi_kernel(d: Digraph, q: int) -> int:
    """Inclusion-minimal quasi-kernel inside q, removing vertices in
    decreasing index order."""
    if not is_quasi_kernel(d, q):
        raise ValueError("input is not a quasi-kernel")
    for v in range(d.n - 1, -1, -1):
        bit = 1 << v
        if q & bit:
            cand = q ^ bit
            if is_quasi_kernel(d, cand):
                q = cand
    return q


def maximalize_quasi_kernel(d: Digraph, q: int) -> int:
    """Grow q to a maximal independent set, adding vertices in increasing
    index order.  Any independent superset of a quasi-kernel is one."""
    if not is_quasi_kernel(d, q):
        raise ValueError("input is not a quasi-kernel")
    rows = d.rows
    in_rows = d.in_rows
    for v in range(d.n):
        bit = 1 << v
        if q & bit or (rows[v] | in_rows[v]) & q:
            continue
        q |= bit
    if not is_quasi_kernel(d, q):
        raise PostconditionViolationError("maximalization broke the quasi-kernel")
    return q


def quasi_kernels(d: Digraph):
    """Yield every quasi-kernel mask in ascending numeric order."""
    if d.n > ENUMERATION_BUDGET:
        raise BudgetExceededError(f"quasi-kernel enumeration budget is n <= {ENUMERATION_BUDGET}")
    rows = d.rows
    in_rows = d.in_rows
    full = d.vertex_mask
    indep = _independence_table(d)
    for mask in range(full + 1):
        if indep[mask] and _qk_raw(rows, in_rows, full, mask):
            yield mask


# ---------------------------------------------------------------------------
# subset predicate tables


def _independence_table(d: Digraph) -> bytearray:
    n = d.n
    und = [d.rows[v] | d.in_rows[v] for v in range(n)]
    table = bytearray(1 << n)
    table[0] = 1
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        table[mask] = 1 if table[rest] and not (und[low.bit_length() - 1] & rest) else 0
    return table


def _acyclic_table(d: Digraph) -> bytearray:
    n = d.n
    rows = d.rows
    table = bytearray(1 << n)
    table[0] = 1
    for mask in range(1, 1 << n):
        probe = mask
        while probe:
            low = probe & -probe
            if rows[low.bit_length() - 1] & mask == 0:
                table[mask] = table[mask ^ low]
                break
            probe ^= low
        # no vertex without out-arcs inside: a cycle lives here, leave 0
    return table


def _has_kernel_table(d: Digraph) -> bytearray:
    """table[t] == 1 iff the subdigraph induced by t has a kernel.

    T has a kernel iff some independent K satisfies K <= T <= K union
    N^-(K), so each independent K marks an interval of the subset lattice;
    marking all intervals costs at most 3^n.
    """
    n = d.n
    in_rows = d.in_rows
    indep = _independence_table(d)
    table = bytearray(1 << n)
    for k_mask in range(1 << n):
        if not indep[k_mask]:
            continue
        dominated = 0
        probe = k_mask
        while probe:
            low = probe & -probe
            dominated |= in_rows[low.bit_length() - 1]
            probe ^= low
        free = dominated & ~k_mask
        sub = free
        while True:
            table[k_mask | sub] = 1
            if not sub:
                break
            sub = (sub - 1) & free
    return table


def _kernel_perfect_table(d: Digraph) -> bytearray:
    """table[s] == 1 iff every subset of s induces a subdigraph with a kernel."""
    n = d.n
    hk = _has_kernel_table(d)
    table = bytearray(1 << n)
    table[0] = 1
    for mask in range(1, 1 << n):
        if not hk[mask]:
            continue
        probe = mask
        ok = 1
        while probe:
            low = probe & -probe
            if not table[mask ^ low]:
                ok = 0
                break
            probe ^= low
        table[mask] = ok
    return table


def is_kernel_perfect(d: Digraph, s: int) -> bool:
    """True iff every subset of S induces a subdigraph that has a kernel.

    Odd-dicycle-free induced subdigraphs are kernel-perfect (every induced
    subdigraph keeps the property and has a kernel), which settles most
    queries without touching the 2^|S| table.
    """
    check_set(d, s)
    if s.bit_count() > KERNEL_PERFECT_BUDGET:
        raise BudgetExceededError(f"kernel-perfect check budget is |S| <= {KERNEL_PERFECT_BUDGET}")
    sub, _ = induced(d, s)
    if odd_dicycle_free(sub):
        return True
    return all(_has_kernel_table(sub))


# ---------------------------------------------------------------------------
# partition numbers


def _min_partition_rgs(n: int, ok: bytearray) -> tuple[int, tuple[int, ...]]:
    """Least k admitting a partition into parts with ok[part]; first witness
    in restricted-growth-string order.

    Requires ok on all singletons (true for the three part kinds used here),
    so k = n always succeeds.  The predicate must be downward closed, which
    justifies pruning as soon as a growing part fails it.
    """
    if n == 0:
        return 0, ()
    for k in range(1, n + 1):
        parts = [0] * k
        if _rgs_assign(0, 0, n, k, parts, ok):
            return k, tuple(parts)
    raise AssertionError("partition search fell through; singletons must satisfy the predicate")


def _rgs_assign(v: int, used: int, n: int, k: int, parts: list[int], ok: bytearray) -> bool:
    if v == n:
        return used == k
    bit = 1 << v
    limit = used + 1 if used < k else k
    for j in range(limit):
        used_after = used + 1 if j == used else used
        if k - used_after > n - v - 1:
            continue
        cand = parts[j] | bit
        if ok[cand]:
            parts[j] = cand
            if _rgs_assign(v + 1, used_after, n, k, parts, ok):
                return True
            parts[j] &= ~bit
    return False


def _partition_number(d: Digraph, table) -> tuple[int, tuple[int, ...]]:
    """Least number of parts whose masks ``table(d)`` accepts, with the
    first certifying parts in restricted-growth order."""
    if d.n > PARTITION_BUDGET:
        raise BudgetExceededError(f"partition search budget is n <= {PARTITION_BUDGET}")
    return _min_partition_rgs(d.n, table(d))


def kernel_perfect_number(d: Digraph) -> tuple[int, Partition]:
    """Least number of kernel-perfect parts covering the vertex set, with the
    first certifying partition in restricted-growth order."""
    k, parts = _partition_number(d, _kernel_perfect_table)
    return k, Partition(parts, "kernel-perfect")


def chromatic_number(d: Digraph) -> int:
    """Chromatic number of the underlying undirected graph."""
    return _partition_number(d, _independence_table)[0]


def dichromatic_number(d: Digraph) -> int:
    """Least number of acyclic parts covering the vertex set."""
    return _partition_number(d, _acyclic_table)[0]


# ---------------------------------------------------------------------------
# heavy independent sets


def heavy_independent_set(d: Digraph) -> int:
    """Maximal independent set with at least as many in- as out-neighbours.

    Exhaustive: returns the first mask in (cardinality, numeric) order that
    is independent, maximal (its closed undirected neighbourhood is the whole
    vertex set), and satisfies |n_minus_set| >= |n_plus_set|.  Greedy rules
    that pick one in-heavy vertex at a time and delete its neighbourhood do
    not work; the digraph 1->0, 0->2, 3->1 defeats the natural one, because
    a later pick can feed arcs to vertices deleted earlier.

    Exhaustion raises PostconditionViolationError ("potential
    counterexample").  Every digraph on at most 5 vertices has such a set,
    but some on 6 do not: 0->3, 0->4, 0->5, 1->3, 1->4, 1->5, 2->0, 3->2,
    4->0, 4->1, 4->2, 5->2 has the maximal independent sets {0, 1}, {1, 2}
    and {3, 4, 5}, and none of them is in-heavy.
    """
    if d.n > ENUMERATION_BUDGET:
        raise BudgetExceededError(f"heavy independent set search budget is n <= {ENUMERATION_BUDGET}")
    rows = d.rows
    in_rows = d.in_rows
    full = d.vertex_mask
    for mask in _masks_by_size(d.n):
        probe = mask
        closed_und = mask
        independent = True
        while probe:
            low = probe & -probe
            v = low.bit_length() - 1
            if rows[v] & mask:
                independent = False
                break
            closed_und |= rows[v] | in_rows[v]
            probe ^= low
        if not independent or closed_und != full:
            continue
        if n_minus_set(d, mask).bit_count() >= n_plus_set(d, mask).bit_count():
            if not is_independent(d, mask):
                raise PostconditionViolationError("heavy search returned a dependent set")
            return mask
    raise PostconditionViolationError(
        "no in-heavy maximal independent set exists here; potential counterexample")
