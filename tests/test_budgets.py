"""Each solver budget is the largest order at which a pinned adversarial
corpus finishes, and one vertex more raises ``BudgetExceededError``.

``corpus(n)`` holds digraphs on exactly n >= 8 vertices that are hard for
one search or another:

* complete symmetric digraphs: each vertex of a subset is a kernel of it.
  They once made the kernel-perfect check mark every subset; having no
  one-way arcs, they are now accepted at once by Duchet's theorem;
* an odd-cycle blowup: the directed 5-cycle with complete symmetric blocks.
  It has no induced directed triangle and its one-way arcs form dicycles,
  so the kernel-perfect search reaches rule 3's subset table;
* disjoint triangles and digons: the Moon--Moser extremes for maximal
  independent sets and quasi-kernels;
* circulant and random tournaments;
* Mycielski graphs (triangle-free, high chromatic number) in an acyclic and
  a parity orientation;
* random digraphs with arc probability 1/8, 1/4 and 1/2;
* padded cores: isolated vertices or a sparse random digraph on the low
  labels, then a complete symmetric digraph on six; and isolated vertices,
  then the Groetzsch graph M4 in the parity orientation.  A colouring pass
  below the answer exhausts every placement of the low vertices before the
  core fails.  The complete symmetric core is a clique, so the colouring
  searches start at their answer; M4 has clique number 2 and chromatic
  number 4, so its failing passes stay, and it sets the chromatic search's
  worst case.

The quasi-kernel searches also get the enumeration's two worst known inputs
(``ENUMERATION_EXTREMES``), and ``is_kernel_perfect`` also checks each member
moved to the top labels of a digraph on 63 vertices.

The budgets were set so that every call finishes within 2 s on a 2-vCPU VM.
The slow test allows each call ``CEILING_S``, so that a slower machine still
passes while a search that stops finishing does not.
"""

from __future__ import annotations

import time

import pytest

from quasikernel import (
    BudgetExceededError,
    Digraph,
    PostconditionViolationError,
    chromatic_number,
    dichromatic_number,
    find_kernel,
    heavy_independent_set,
    kernel_perfect_number,
    max_large_quasi_kernel,
    max_sharp_quasi_kernel,
    min_quasi_kernel,
)
from quasikernel import solvers
from quasikernel.digraph import _is_acyclic_rows
from quasikernel.generators import make, parse_family
from quasikernel.solvers import is_kernel_perfect, quasi_kernels

from conftest import dg

CEILING_S = 20.0

SEEDS = (1, 2, 3)


def _union(*members: str) -> str:
    return "union:" + ",".join(members)


def corpus(n: int) -> dict[str, Digraph]:
    """Every corpus member on n vertices, by name."""
    triangles, rest = divmod(n, 3)
    if rest == 1:
        triangles, rest = triangles - 1, 4
    members = {
        "complete symmetric": f"random:{n}:1/1:0",
        "triangles and digons": _union(*["cycle:3"] * triangles, *["cycle:2"] * (rest // 2)),
        "digons": _union(*["cycle:2"] * (n // 2 - n % 2), *["cycle:3"] * (n % 2)),
        "circulant tournament": f"circulant:{n}" if n % 2 else _union(f"circulant:{n - 1}", "edgeless:1"),
        "isolated then complete": _union(f"edgeless:{n - 6}", "random:6:1/1:0"),
        "sparse then complete": _union(f"random:{n - 6}:1/8:1", "random:6:1/1:0"),
    }
    for seed in SEEDS:
        members[f"random tournament {seed}"] = f"random_tournament:{n}:{seed}"
    for p in ("1/8", "1/4", "1/2"):
        for seed in SEEDS:
            members[f"random p={p} {seed}"] = f"random:{n}:{p}:{seed}"
    members = {name: make(parse_family(expr)) for name, expr in members.items()}
    members["odd-cycle blowup"] = odd_cycle_blowup(n)
    for k in (4, 5):
        members[f"mycielski M{k} acyclic"] = mycielski(k, n, False)
        members[f"mycielski M{k} parity"] = mycielski(k, n, True)
    pad = max(n - 11, 0)
    members["isolated then mycielski M4 parity"] = dg(
        n, [(u + pad, w + pad) for u, w in mycielski(4, n - pad, True).arcs()])
    return members


def odd_cycle_blowup(n: int) -> Digraph:
    """The directed 5-cycle with each vertex blown up into a complete
    symmetric block of n // 5 or n // 5 + 1 consecutive labels, and an arc
    from each vertex to each vertex of the next block."""
    sizes = [n // 5 + (i < n % 5) for i in range(5)]
    blocks = [range(sum(sizes[:i]), sum(sizes[:i + 1])) for i in range(5)]
    return dg(n, [(u, w) for i, block in enumerate(blocks) for u in block
                  for w in [*block, *blocks[(i + 1) % 5]] if u != w])


def mycielski_edges(k: int) -> list[tuple[int, int]]:
    """Edges of the Mycielski graph M_k: M_2 = K_2, M_3 = C_5, M_4 the
    Groetzsch graph on 11 vertices, M_5 on 23.  M_k on m vertices gives
    M_(k+1) shadows m..2m-1 of its vertices and an apex 2m."""
    m, edges = 2, [(0, 1)]
    for _ in range(k - 2):
        edges = (edges + [(m + u, w) for u, w in edges] + [(m + w, u) for u, w in edges]
                 + [(m + u, 2 * m) for u in range(m)])
        m = 2 * m + 1
    return edges


def mycielski(k: int, n: int, parity: bool) -> Digraph:
    """M_k on its first n vertices, or padded with isolated vertices to n.
    Each edge points up from its lower end, or down when ``parity`` is set
    and the ends' sum is odd."""
    arcs = []
    for u, w in mycielski_edges(k):
        lo, hi = sorted((u, w))
        if hi < n:
            arcs.append((hi, lo) if parity and (lo + hi) % 2 else (lo, hi))
    return dg(n, arcs)


# the star into a sink has one quasi-kernel, {0}, yet the ordered search
# walks about 2^(n-1) nodes; 0 -> 1 plus u -> 0 has 2^(n-2) quasi-kernels
ENUMERATION_EXTREMES = {
    "star into a sink": lambda n: dg(n, [(u, 0) for u in range(1, n)]),
    "star into an arc": lambda n: dg(n, [(0, 1)] + [(u, 0) for u in range(2, n)]),
}


def _all_quasi_kernels(d):
    return list(quasi_kernels(d))


def _is_kernel_perfect(d):
    return is_kernel_perfect(d, d.vertex_mask)


def _is_kernel_perfect_at_the_top(d):
    """``is_kernel_perfect`` on D moved to the top labels of 63 vertices:
    rule 3's table is indexed by rank inside S, so high labels cost nothing."""
    pad = 63 - d.n
    return is_kernel_perfect(dg(63, [(u + pad, w + pad) for u, w in d.arcs()]), d.vertex_mask << pad)


def _heavy(d):
    try:
        return heavy_independent_set(d)
    except PostconditionViolationError:  # no in-heavy maximal independent set
        return None


# budget name -> the searches it gates
SEARCHES = {
    "PARTITION_BUDGET": (kernel_perfect_number, dichromatic_number, chromatic_number, _is_kernel_perfect,
                         _is_kernel_perfect_at_the_top),
    "MIS_BUDGET": (find_kernel, max_large_quasi_kernel, max_sharp_quasi_kernel, _heavy),
    "MIN_QK_BUDGET": (min_quasi_kernel,),
    "ENUMERATION_BUDGET": (_all_quasi_kernels,),
}


def inputs(budget: str, n: int) -> dict[str, Digraph]:
    members = corpus(n)
    if budget in ("MIN_QK_BUDGET", "ENUMERATION_BUDGET"):
        members.update((name, build(n)) for name, build in ENUMERATION_EXTREMES.items())
    return members


def test_corpus_members_have_the_stated_order():
    for n in (8, 13, 20):
        for name, d in inputs("ENUMERATION_BUDGET", n).items():
            assert d.n == n, name
    assert len(mycielski_edges(4)) == 20 and len(mycielski_edges(5)) == 71
    assert chromatic_number(mycielski(4, 11, True)) == 4
    loose = corpus(13)["isolated then mycielski M4 parity"]
    assert solvers._clique_bound(solvers._underlying_rows(loose)) == 2 and chromatic_number(loose) == 4
    blowup = corpus(13)["odd-cycle blowup"]
    assert not any(solvers._induced_triangle(blowup.rows, blowup.in_rows, blowup.vertex_mask, v)
                   for v in range(blowup.n))
    assert not _is_acyclic_rows(solvers._one_way_rows(blowup), blowup.vertex_mask)


@pytest.mark.slow
@pytest.mark.parametrize("budget", sorted(SEARCHES))
def test_corpus_finishes_at_each_budget(budget):
    n = getattr(solvers, budget)
    for name, d in inputs(budget, n).items():
        for search in SEARCHES[budget]:
            start = time.perf_counter()
            search(d)
            took = time.perf_counter() - start
            assert took < CEILING_S, f"{search.__name__} on {name} (n = {n}) took {took:.2f} s"
    over = make(parse_family(f"edgeless:{n + 1}"))
    for search in SEARCHES[budget]:
        with pytest.raises(BudgetExceededError, match=f"n <= {n}$"):
            search(over)
