"""Gadgets and blowups that move quasi-kernel bounds between conjecture
variants, plus the matching-split transfer.

The three constructions:

* source gadget   -- attach C fresh in-degree-0 vertices to every base
  vertex, each with the single arc into its base vertex.  Any quasi-kernel
  of the gadget digraph must swallow all C copies above every base vertex it
  fails to dominate within one step, which converts "large closed
  in-neighbourhood" statements into "small quasi-kernel" statements.
* weighted blowup -- replace vertex a by an independent block of n_a copies
  and every arc by all block-to-block arcs.  Blocks are interchangeable, so
  a maximal quasi-kernel uses each block all-or-nothing, and its one-step
  coverage is block-aligned too.
* triangle blowup -- blocks are directed triangles (copy0 -> copy1 ->
  copy2 -> copy0).  A triangle forces every quasi-kernel to pick exactly one
  copy per dominated block, which doubles-up into the sharp objective: the
  blowup satisfies |N^-(Q')| = |Q| + 3|N^-(Q)| for the projected Q.

``matching_split`` decomposes a minimal quasi-kernel for the
with-sources-to-sink-free transfer, and ``qk_via_ii_oracle`` runs that
transfer end to end against any solver asserted to satisfy the with-sources
bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .digraph import (
    Digraph,
    _row_union,
    check_order,
    induced,
    is_sink_free,
    iter_bits,
    n_minus_set,
    sources_not_sinks,
    vertices_of,
)
from .exceptions import OracleContractError, PostconditionViolationError
from .solvers import SolveResult, is_quasi_kernel, min_quasi_kernel


@dataclass(frozen=True)
class BlowupMap:
    """A blowup-style construction: the base digraph, the blown digraph, and
    one block mask per base vertex (blocks partition the blown vertex set;
    for the source gadget a block is the base vertex plus its copies)."""

    kind: str  # "source-gadget" | "weighted" | "c3"
    base: Digraph
    blown: Digraph
    blocks: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "base_n": self.base.n,
            "blown_n": self.blown.n,
            "blocks": [list(vertices_of(b)) for b in self.blocks],
        }


def add_source_gadget(d: Digraph, c: int) -> tuple[Digraph, BlowupMap]:
    """Attach c new sources to every vertex, each with one arc into it.

    New vertices are numbered n + v*c + j for copy j of base vertex v.
    """
    if c < 1:
        raise ValueError(f"gadget multiplicity must be >= 1, got {c}")
    n = d.n
    check_order(n * (c + 1))
    rows = list(d.rows)
    blocks = []
    for v in range(n):
        block = 1 << v
        for j in range(c):
            rows.append(1 << v)
            block |= 1 << (n + v * c + j)
        blocks.append(block)
    blown = Digraph(rows)
    return blown, BlowupMap("source-gadget", d, blown, tuple(blocks))


def weighted_blowup(d: Digraph, multiplicities) -> tuple[Digraph, BlowupMap]:
    """Independent blocks of the given sizes; arcs copied block-to-block.

    Copies of base vertex v get consecutive labels starting at the sum of the
    earlier multiplicities, so all-1 multiplicities reproduce d exactly.
    """
    mult = tuple(multiplicities)
    if len(mult) != d.n:
        raise ValueError(f"expected {d.n} multiplicities, got {len(mult)}")
    if any(m < 1 for m in mult):
        raise ValueError("multiplicities must be >= 1")
    check_order(sum(mult))
    blocks = []
    offset = 0
    for m in mult:
        blocks.append(((1 << m) - 1) << offset)
        offset += m
    rows = []
    for row, m in zip(d.rows, mult):
        rows.extend([_row_union(blocks, row)] * m)
    blown = Digraph(rows)
    return blown, BlowupMap("weighted", d, blown, tuple(blocks))


def c3_blowup(d: Digraph) -> tuple[Digraph, BlowupMap]:
    """The weighted blowup by 3 plus a directed triangle 3v -> 3v+1 -> 3v+2
    -> 3v inside each block.  The blown digraph is always sink-free."""
    wide, wmap = weighted_blowup(d, (3,) * d.n)
    blown = Digraph([row | 1 << (u - u % 3 + (u + 1) % 3) for u, row in enumerate(wide.rows)])
    return blown, BlowupMap("c3", d, blown, wmap.blocks)


def project_blowup_qk(bmap: BlowupMap, qprime: int) -> int:
    """Project a quasi-kernel of the blown digraph to the base: take every
    base vertex whose block is hit.  For triangle blowups a hit block is hit
    exactly once (two copies of a triangle are never independent)."""
    if bmap.kind == "source-gadget":
        raise ValueError("projection is defined for weighted and c3 blowups only")
    if not is_quasi_kernel(bmap.blown, qprime):
        raise ValueError("input is not a quasi-kernel of the blown digraph")
    q = 0
    for v, block in enumerate(bmap.blocks):
        hit = block & qprime
        if hit:
            if bmap.kind == "c3" and hit.bit_count() != 1:
                raise PostconditionViolationError("independent set hit a triangle block twice")
            q |= 1 << v
    if not is_quasi_kernel(bmap.base, q):
        raise PostconditionViolationError("projection of a quasi-kernel is not one")
    return q


@dataclass(frozen=True)
class MatchingSplit:
    """Decomposition of a minimal quasi-kernel Q of a sink-free digraph.

    n_set is N^-(Q) and m_set the rest of the vertex set.  The matching
    greedily pairs each n_set vertex (in index order) with its smallest
    still-unmatched out-neighbour in Q; q1 is the matched part of Q and q2
    the rest.  Minimality forces every n_set vertex to keep an arc into q1,
    and every q2 vertex to have all its out-arcs inside m_set -- so q2
    becomes a set of sources after deleting Q's neighbourhood.  Both facts
    are asserted at construction.
    """

    q: int
    n_set: int
    m_set: int
    q1: int
    q2: int
    matching: tuple[tuple[int, int], ...]


def matching_split(d: Digraph, q: int) -> MatchingSplit:
    if not is_sink_free(d):
        raise ValueError("matching split needs a sink-free digraph")
    if not is_quasi_kernel(d, q):
        raise ValueError("input is not a quasi-kernel")
    for v in iter_bits(q):
        if is_quasi_kernel(d, q ^ (1 << v)):
            raise ValueError("input quasi-kernel is not inclusion-minimal")
    rows = d.rows
    n_set = n_minus_set(d, q)
    m_set = d.vertex_mask & ~(q | n_set)
    matched = 0
    pairs = []
    for u in iter_bits(n_set):
        free = rows[u] & q & ~matched
        if free:
            v = (free & -free).bit_length() - 1
            pairs.append((u, v))
            matched |= 1 << v
    q1 = matched
    q2 = q & ~q1
    if n_set & ~n_minus_set(d, q1):
        raise PostconditionViolationError(
            "an N^-(Q) vertex lost all arcs into the matched part; "
            "minimality argument violated")
    for x in iter_bits(q2):
        if rows[x] & ~m_set or not rows[x]:
            raise PostconditionViolationError(
                "an unmatched quasi-kernel vertex has an arc outside m_set")
    return MatchingSplit(q, n_set, m_set, q1, q2, tuple(pairs))


def qk_via_ii_oracle(d: Digraph, alpha: Fraction,
                     oracle: Callable[[Digraph], SolveResult] | None = None) -> SolveResult:
    """Sink-free quasi-kernel of size <= n/(1+alpha) from a with-sources
    solver.

    The oracle must return, on any digraph, a quasi-kernel of size at most
    n' - alpha * s' where s' counts its source-not-sink vertices; this is
    checked on every call and violations raise OracleContractError.

    Split a minimum quasi-kernel Q of d via matching_split; on the
    subdigraph induced by q2 and m_set the q2 vertices are sources, so the
    oracle bound discounts them.  The two candidates -- Q itself, and the
    oracle's witness completed with the un-dominated part of q1 -- cannot
    both be large, and the smaller one satisfies the stated bound.
    """
    if not is_sink_free(d):
        raise ValueError("this transfer needs a sink-free digraph")
    if type(alpha) is not Fraction:
        alpha = Fraction(alpha)
    num, den = alpha.numerator, alpha.denominator
    if not 0 < num <= den:  # 0 < alpha <= 1, as den > 0
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if oracle is None:  # the exact minimum quasi-kernel
        oracle = min_quasi_kernel

    q = min_quasi_kernel(d).witness
    split = matching_split(d, q)
    sub, back = induced(d, split.q2 | split.m_set)
    ores = oracle(sub)
    witness = ores.witness
    if witness is None or witness & ~sub.vertex_mask or not is_quasi_kernel(sub, witness):
        raise OracleContractError("oracle returned a non-quasi-kernel")
    s_sub = sources_not_sinks(sub).bit_count()
    if den * witness.bit_count() > den * sub.n - num * s_sub:
        raise OracleContractError(
            f"oracle witness of size {witness.bit_count()} breaks the declared "
            f"bound on n={sub.n}, s={s_sub}, alpha={alpha}")
    qp = _row_union(back, witness)
    cand = qp | (split.q1 & ~n_minus_set(d, qp))
    if not is_quasi_kernel(d, cand):
        raise PostconditionViolationError("completed oracle witness is not a quasi-kernel")
    result = min((q, cand), key=lambda m: (m.bit_count(), m))
    if (den + num) * result.bit_count() > den * d.n:
        raise PostconditionViolationError(
            f"transfer produced a quasi-kernel of size {result.bit_count()} > "
            f"n/(1+alpha) on n={d.n}; potential counterexample")
    return SolveResult(result, result.bit_count(), True)
