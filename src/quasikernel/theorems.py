"""Constructive quasi-kernel bounds from kernel-perfect partitions.

Three pipelines, each returning a verified witness:

* ``quasi_kernel_covering`` -- given a kernel-perfect set P, produce a
  quasi-kernel Q with P inside ``n_minus_closed(D, Q)`` and Q disjoint from
  ``n_minus_set(D, P)``.  Method: grow P by repeatedly absorbing the
  smallest-index vertex with no out-arc into the grown set (each absorbed
  vertex is a sink of the grown induced subdigraph, which preserves
  kernel-perfectness), until every outside vertex has an arc into the grown
  set; then a kernel of the grown induced subdigraph covers the grown set in
  one step and everything else in two.

* ``small_qk_from_partition`` -- a sink-free digraph split into k >= 2
  kernel-perfect parts has a quasi-kernel of size at most (k-1)/k * n.  The
  first part is grown as above, a kernel K of the grown part is shrunk to a
  core with the same in-neighbourhood (so the core is at most half of the
  core-plus-in-neighbourhood slab), and the leftover kernel vertices plus
  the remainder of the other parts are handled by whichever is cheaper:
  covering one remaining part inside the remainder, or taking the core plus
  the leftover kernel vertices that can step into the remainder.  Both
  candidate shapes are quasi-kernels unconditionally; the branch test just
  picks the one whose size the counting argument controls.

* ``small_qk_with_sources`` -- with s source-not-sink vertices the bound
  relaxes to n - s/k.  Sources are pruned to a single out-arc and the rest,
  the core, is weighted so that a vertex fed by many sources weighs a lot.
  The heaviest part of the core is covered, ranking kernels of the grown
  part by weight: core vertices the witness's closed in-neighbourhood
  misses are exactly those whose sources must be taken wholesale.  The
  witness is finally transferred back to the unpruned digraph.

``large_qk_from_partition`` is the coverage-side counterpart: covering the
largest part yields ``n_minus_closed`` of size at least n/k.

Every construction works on its ambient vertex set W in the digraph's own
labels: all of V, the remainder outside the slab, or the sourceless core.
The grown set stays inside W and dominates W, the kernels of the grown set
come from the solvers' kernel search on it in place, and the witness is
checked as a quasi-kernel of D[W].  No induced copy is built.

The paper proves the with-sources bound on a blowup of the core, where a
vertex of weight w becomes an independent block of w twins.  Working on the
weighted core gives the same witness: twins join a grown set one after
another and a kernel or a maximal independent set holds a block whole or not
at all, and blocks are consecutive, so the blowup's (size, mask) order is
the core's (weight, mask) order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import (
    Digraph,
    Partition,
    _row_union,
    check_partition,
    check_set,
    is_sink_free,
    iter_bits,
    n_minus_closed,
    n_minus_set,
    sources_not_sinks,
    vertices_of,
)
from .exceptions import PostconditionViolationError
from .solvers import (
    SolveResult,
    _first_kernel,
    _is_quasi_kernel_of,
    _maximalize_within,
    is_kernel_perfect,
    is_quasi_kernel,
)


def _extend_within(d: Digraph, p: int, w: int) -> int:
    """Grow a kernel-perfect set p inside W until every vertex of W outside
    it has an arc into it.

    Vertices of W are absorbed one at a time, smallest index first, and a
    vertex is eligible only while it has no out-arc into the grown set -- it
    joins as a sink of the grown induced subdigraph, so kernel-perfectness is
    preserved without re-checking.  Consequently the grown set never meets
    ``n_minus_set(d, p)``.  That p is a kernel-perfect subset of W is the
    caller's precondition and is not checked here.
    """
    check_set(d, p)
    # a rejected vertex has an arc into the set, which only grows, so it stays
    # rejected and one ascending pass suffices
    rows = d.rows
    cur = p
    for v in iter_bits(w & ~p):
        if rows[v] & cur == 0:
            cur |= 1 << v
    if w & ~n_minus_closed(d, cur):
        raise PostconditionViolationError("grown set is not dominating")
    if (cur & ~p) & n_minus_set(d, p):
        raise PostconditionViolationError("grown set leaked into the in-neighbourhood of p")
    return cur


def quasi_kernel_covering(d: Digraph, p: int) -> int:
    """Quasi-kernel Q with p inside n_minus_closed(d, Q) and Q disjoint from
    n_minus_set(d, p); p must be kernel-perfect."""
    if not is_kernel_perfect(d, p):
        raise ValueError("input set is not kernel-perfect")
    return _cover(d, p, int.bit_count, d.vertex_mask)


def _cover(d: Digraph, p: int, size, w: int) -> int:
    """``quasi_kernel_covering`` on D[W] with the kernel of the grown set least
    by (``size(mask)``, mask); p must be a kernel-perfect subset of W (not
    checked)."""
    ext = _extend_within(d, p, w)
    q = _first_kernel(d, size, ext).witness
    if q is None:
        raise PostconditionViolationError("kernel-perfect grown set has no kernel; table or growth bug")
    if not _is_quasi_kernel_of(d, q, w):
        raise PostconditionViolationError("covering produced a non-quasi-kernel")
    if p & ~n_minus_closed(d, q):
        raise PostconditionViolationError("covering left part of p undominated")
    if q & n_minus_set(d, p):
        raise PostconditionViolationError("covering witness meets the in-neighbourhood of p")
    return q


@dataclass(frozen=True)
class SmallQkTrace:
    """Audit trail of small_qk_from_partition.

    kernel        -- kernel of the grown first part;
    core          -- minimal subset of the kernel with the same in-neighbourhood;
    refined_parts -- the reshuffled partition (leftover kernel vertices,
                     in-neighbourhood slab plus core, then the shrunk parts);
    remainder     -- everything outside the slab part; if it is empty, branch is
                     "part:2" at once, covering nothing, and the result is the core;
    branch        -- "part:i" when part i was covered inside the remainder,
                     "otherwise" for the core-plus-steppers shape;
    result        -- the verified quasi-kernel.
    """

    kernel: int
    core: int
    refined_parts: tuple[int, ...]
    remainder: int
    branch: str
    result: int

    def to_json(self) -> dict:
        return {
            "kernel": list(vertices_of(self.kernel)),
            "core": list(vertices_of(self.core)),
            "refined_parts": [list(vertices_of(p)) for p in self.refined_parts],
            "remainder": list(vertices_of(self.remainder)),
            "branch": self.branch,
            "result": list(vertices_of(self.result)),
        }


def _checked_parts(d: Digraph, partition: Partition, check_parts: bool) -> list[int]:
    check_partition(d, partition.parts)
    parts = list(partition.parts)
    while len(parts) < 2:
        parts.append(0)
    if check_parts:
        for i, part in enumerate(parts):
            if not is_kernel_perfect(d, part):
                raise ValueError(f"part {i} is not kernel-perfect")
    return parts


def small_qk_from_partition(d: Digraph, partition: Partition, check_parts: bool = True) -> SmallQkTrace:
    """Quasi-kernel of size <= (k-1)/k * n from k kernel-perfect parts.

    Requires a sink-free digraph: the "otherwise" shape covers a leftover
    kernel vertex by following one of its out-arcs, which must exist.
    Partitions with fewer than two parts are padded with empty parts.
    """
    if not is_sink_free(d):
        raise ValueError("construction requires a sink-free digraph (no out-degree-0 vertex)")
    parts = _checked_parts(d, partition, check_parts)
    k = len(parts)
    n = d.n

    kernel = _cover(d, parts[0], int.bit_count, d.vertex_mask)
    in_of_kernel = n_minus_set(d, kernel)
    core = kernel
    for v in reversed(vertices_of(kernel)):
        cand = core ^ (1 << v)
        if n_minus_set(d, cand) == in_of_kernel:
            core = cand

    leftover = kernel & ~core
    slab = in_of_kernel | core
    # the grown part lies in kernel | in_of_kernel (its kernel absorbs it)
    refined = [leftover, slab] + [parts[i] & ~(kernel | in_of_kernel) for i in range(1, k)]
    try:
        check_partition(d, refined)
    except ValueError as e:
        raise PostconditionViolationError(f"refined parts do not partition the vertex set: {e}") from e
    remainder = d.vertex_mask & ~slab

    branch = "otherwise"
    result = None
    w_size = remainder.bit_count()
    for i in range(2, k + 1):
        part_i = refined[i]
        if k * (n_minus_set(d, part_i) & leftover).bit_count() >= w_size:
            q_w = _cover(d, part_i, int.bit_count, remainder)
            result = q_w | (core & ~n_minus_set(d, q_w))
            branch = f"part:{i}"
            break
    if result is None:
        # the leftover kernel vertices with an arc into the remainder
        result = core | (leftover & _row_union(d.in_rows, remainder))

    if not is_quasi_kernel(d, result):
        raise PostconditionViolationError("construction produced a non-quasi-kernel")
    if k * result.bit_count() > (k - 1) * n:
        raise PostconditionViolationError(
            f"witness of size {result.bit_count()} exceeds (k-1)/k * n for k={k}, n={n}; "
            "potential counterexample")
    return SmallQkTrace(kernel, core, tuple(refined), remainder, branch, result)


def large_qk_from_partition(d: Digraph, partition: Partition, check_parts: bool = True) -> SolveResult:
    """Quasi-kernel whose n_minus_closed has size >= n/k: cover the largest
    part (first largest on ties)."""
    return _cover_largest(d, _checked_parts(d, partition, check_parts), int.bit_count, d.vertex_mask)


def _cover_largest(d: Digraph, parts: list[int], weigh, w: int) -> SolveResult:
    """Cover the heaviest of k parts of W by ``weigh(mask)`` (first on ties)
    in D[W]; the objective, the weight of ``n_minus_closed`` in W, is at
    least 1/k of W's."""
    k = len(parts)
    q = _cover(d, max(parts, key=weigh), weigh, w)
    objective = weigh(n_minus_closed(d, q) & w)
    total = weigh(w)
    if k * objective < total:
        raise PostconditionViolationError(
            f"coverage {objective} below {total}/k for k={k}; potential counterexample")
    return SolveResult(q, objective, True)


def small_qk_with_sources(d: Digraph, partition: Partition, check_parts: bool = True) -> SolveResult:
    """Quasi-kernel of size <= n - s/k where s counts source-not-sink
    vertices; sinks are allowed.

    Pipeline: keep one out-arc per source (the smallest-index one); weigh a
    vertex of the sourceless core fed by c sources C*c + 1 with C = k*t + 1
    (t = core size); take a quasi-kernel covering the heaviest part of the
    core, ranking kernels by weight, and grow it to a maximal independent
    set; every core vertex it fails to reach in one step gets its sources
    instead.  C is large enough that the counting argument closes by
    integrality, and the result transfers to the unpruned digraph after
    dropping sources whose restored arcs land in the witness.
    """
    parts = _checked_parts(d, partition, check_parts)
    k = len(parts)
    n = d.n

    source_mask = sources_not_sinks(d)
    s = source_mask.bit_count()
    core_mask = d.vertex_mask & ~source_mask
    t = core_mask.bit_count()

    pruned_rows = list(d.rows)
    for v in iter_bits(source_mask):
        row = pruned_rows[v]
        pruned_rows[v] = row & -row
    d0 = Digraph(pruned_rows)

    weights = [(k * t + 1) * (row & source_mask).bit_count() + 1 for row in d0.in_rows]

    def weigh(mask: int) -> int:
        return sum(weights[v] for v in iter_bits(mask))

    core_parts = [part & core_mask for part in parts]
    q_core = _maximalize_within(d0, _cover_largest(d0, core_parts, weigh, core_mask).witness, core_mask)
    missed = core_mask & ~n_minus_closed(d0, q_core)

    # every missed core vertex takes the sources that feed it
    witness0 = q_core | (n_minus_set(d0, missed) & source_mask)
    if not is_quasi_kernel(d0, witness0):
        raise PostconditionViolationError("core witness plus sources fails on the pruned digraph")

    drop = 0
    for v in iter_bits(witness0 & source_mask):
        if d.rows[v] & witness0 & ~(1 << v):
            drop |= 1 << v
    witness = witness0 & ~drop
    if not is_quasi_kernel(d, witness):
        raise PostconditionViolationError("witness fails on the original digraph")
    if k * witness.bit_count() > k * n - s:
        raise PostconditionViolationError(
            f"witness of size {witness.bit_count()} exceeds n - s/k for k={k}, n={n}, s={s}; "
            "potential counterexample")
    return SolveResult(witness, witness.bit_count(), True)
