"""Acceptance gate: twelve exact criteria covering the solvers, the
constructive partition theorems, the reduction gadgets, and the sweep
harness.  Every test prints one greppable verdict line of the form

    [acceptance] criterion NN name: PASS/FAIL (detail)

and then asserts the verdict, so a red test always comes with the printed
context.  All arithmetic is exact; the only tolerances are wall-clock
budgets stated per criterion.  Run with ``pytest -s tests/test_acceptance.py``
to see the verdict lines on a green run; add ``-m slow`` (or ``-m ''``) for
the extended order-5 sweep.
"""

import itertools
import time
from fractions import Fraction

import pytest

from quasikernel import (
    ConjectureSpec,
    chromatic_number,
    dichromatic_number,
    enumerate_digraphs,
    find_kernel,
    heavy_independent_set,
    kernel_perfect_number,
    large_qk_from_partition,
    max_sharp_quasi_kernel,
    min_quasi_kernel,
    qk_via_ii_oracle,
    quasi_kernel_covering,
    small_qk_from_partition,
    sweep,
)
from quasikernel.digraph import (
    disjoint_union,
    is_acyclic_set,
    is_independent,
    is_sink_free,
    n_minus_closed,
    n_minus_set,
    n_plus_set,
    odd_dicycle_free,
)
from quasikernel.generators import SplitMix64, make, parse_family, random_digraph
from quasikernel.reductions import add_source_gadget, c3_blowup, project_blowup_qk
from quasikernel.solvers import is_quasi_kernel, quasi_kernels

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
BASE_SEED = 20260819


def _verdict(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] criterion {num:02d} {name}: "
          f"{'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# ---------------------------------------------------------------------------


def test_criterion_01_half_is_sharp():
    t0 = time.perf_counter()
    two = make(parse_family("cycle:2"))
    four = make(parse_family("cycle:4"))
    both = disjoint_union(two, four)
    sizes = tuple(min_quasi_kernel(d).objective for d in (two, four, both))
    elapsed = time.perf_counter() - t0
    ok = sizes == (1, 2, 3) and all(
        2 * s == d.n for s, d in zip(sizes, (two, four, both))) and elapsed < 1.0
    assert _verdict(1, "half_is_sharp", ok,
                    f"min sizes {sizes} on n=2,4,6, {elapsed * 1000:.0f} ms")


def test_criterion_02_exhaustive_sweep_n4():
    t0 = time.perf_counter()
    small = sweep(enumerate_digraphs(4, sink_free=True),
                  ConjectureSpec("small", HALF, sink_free_version=True),
                  "labeled:n=4:sink_free")
    large = sweep(enumerate_digraphs(4), ConjectureSpec("large", HALF), "labeled:n=4")
    sharp = sweep(enumerate_digraphs(4), ConjectureSpec("sharp", HALF), "labeled:n=4")
    elapsed = time.perf_counter() - t0
    fails = len(small.failures) + len(large.failures) + len(sharp.failures)
    ok = (small.count == 2401 and large.count == 4096 and sharp.count == 4096
          and fails == 0 and elapsed < 60.0)
    assert _verdict(2, "exhaustive_sweep_n4", ok,
                    f"counts {small.count}/{large.count}/{sharp.count}, "
                    f"{fails} failures, {elapsed:.1f} s")


@pytest.mark.slow
def test_criterion_02_extended_sweep_n5():
    t0 = time.perf_counter()
    small = sweep(enumerate_digraphs(5, sink_free=True),
                  ConjectureSpec("small", HALF, sink_free_version=True),
                  "labeled:n=5:sink_free")
    large = sweep(enumerate_digraphs(5), ConjectureSpec("large", HALF), "labeled:n=5")
    sharp = sweep(enumerate_digraphs(5), ConjectureSpec("sharp", HALF), "labeled:n=5")
    elapsed = time.perf_counter() - t0
    fails = len(small.failures) + len(large.failures) + len(sharp.failures)
    ok = (small.count == 759375 and large.count == 1048576
          and sharp.count == 1048576 and fails == 0)
    assert _verdict(2, "extended_sweep_n5", ok,
                    f"counts {small.count}/{large.count}/{sharp.count}, "
                    f"{fails} failures, {elapsed:.0f} s")


def _sink_free_randoms(count, orders, seed):
    """Deterministic rejection stream: bump the seed until sink-free."""
    sizes = itertools.cycle(orders)
    made = 0
    while made < count:
        d = random_digraph(next(sizes), THIRD, seed)
        seed += 1
        if is_sink_free(d):
            made += 1
            yield d


def test_criterion_03_partition_theorems():
    branches = set()
    violations = 0
    checked = 0

    def run_one(d):
        nonlocal violations
        kp, partition = kernel_perfect_number(d)
        k = max(kp, 2)
        trace = small_qk_from_partition(d, partition, check_parts=False)
        branches.add(trace.branch.split(":")[0])
        small_ok = (is_quasi_kernel(d, trace.result)
                    and k * trace.result.bit_count() <= (k - 1) * d.n)
        res = large_qk_from_partition(d, partition, check_parts=False)
        large_ok = (is_quasi_kernel(d, res.witness)
                    and k * res.objective >= d.n
                    and res.objective == n_minus_closed(d, res.witness).bit_count())
        violations += not (small_ok and large_ok)

    for n in range(5):
        for d in enumerate_digraphs(n, sink_free=True):
            run_one(d)
            checked += 1
    exhaustive = checked
    for d in _sink_free_randoms(1000, range(2, 11), BASE_SEED):
        run_one(d)
        checked += 1

    ok = violations == 0 and branches == {"part", "otherwise"}
    assert _verdict(3, "partition_theorems", ok,
                    f"{exhaustive} exhaustive + 1000 random digraphs, "
                    f"{violations} violations, branches {sorted(branches)}")


def test_criterion_04_covering_pairs():
    rng = SplitMix64(BASE_SEED)
    sizes = itertools.cycle(range(2, 9))
    violations = 0
    for _ in range(500):
        d = random_digraph(next(sizes), THIRD, rng.next_word())
        p = 0
        for _attempt in range(4):  # rejection sampling, then greedy peel
            p = rng.next_word() & d.vertex_mask
            if is_acyclic_set(d, p):
                break
        while not is_acyclic_set(d, p):
            p &= p - 1
        q = quasi_kernel_covering(d, p)
        good = (is_quasi_kernel(d, q)
                and p & ~n_minus_closed(d, q) == 0
                and q & n_minus_set(d, p) == 0)
        violations += not good
    assert _verdict(4, "covering_pairs", violations == 0,
                    f"500 seeded (digraph, acyclic set) pairs, {violations} violations")


def test_criterion_05_heavy_independent_sets():
    t0 = time.perf_counter()
    violations = 0
    checked = 0
    for n in range(6):
        for d in enumerate_digraphs(n):
            w = heavy_independent_set(d)
            checked += 1
            maximal = all(w >> v & 1 or not is_independent(d, w | 1 << v)
                          for v in range(n))
            in_w = n_minus_set(d, w).bit_count()
            out_w = n_plus_set(d, w).bit_count()
            good = (is_independent(d, w) and maximal and in_w >= out_w
                    and w.bit_count() + 2 * in_w >= n)
            violations += not good
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and checked == 1 + 1 + 4 + 64 + 4096 + 1048576 and elapsed < 300.0
    assert _verdict(5, "heavy_independent_sets", ok,
                    f"{checked} digraphs, {violations} violations, {elapsed:.0f} s")


def test_criterion_06_triangle_blowup_recurrence():
    base, _ = kernel_perfect_number(make(parse_family("c3pow:1")))
    once, _ = kernel_perfect_number(make(parse_family("c3pow:2")))
    ok = base == 2 and once == 3 and once == -(-3 * base // 2)
    assert _verdict(6, "triangle_blowup_recurrence", ok,
                    f"kp 3 -> {base}, kp 9 -> {once}, ceil(1.5*{base}) = {-(-3 * base // 2)}")


def test_criterion_07_triangle_blowup_identity():
    violations = 0
    checked = 0
    for n in range(4):
        for d in enumerate_digraphs(n):
            blown, bmap = c3_blowup(d)
            for qp in quasi_kernels(blown):
                q = project_blowup_qk(bmap, qp)
                lhs = n_minus_set(blown, qp).bit_count()
                rhs = q.bit_count() + 3 * n_minus_set(d, q).bit_count()
                violations += lhs != rhs
                checked += 1
    assert _verdict(7, "triangle_blowup_identity", violations == 0,
                    f"{checked} blowup quasi-kernels over all digraphs n <= 3, "
                    f"{violations} violations")


def test_criterion_08_source_gadget_inequality():
    rng = SplitMix64(BASE_SEED)
    sizes = itertools.cycle(range(1, 5))
    violations = 0
    checked = 0
    for _ in range(200):
        d = random_digraph(next(sizes), THIRD, rng.next_word())
        for c in (1, 2, 3):
            blown, _ = add_source_gadget(d, c)
            for qp in quasi_kernels(blown):
                covered = n_minus_closed(d, qp & d.vertex_mask).bit_count()
                violations += c * (d.n - covered) > qp.bit_count()
                checked += 1
    assert _verdict(8, "source_gadget_inequality", violations == 0,
                    f"{checked} gadget quasi-kernels over 200 seeded digraphs "
                    f"x c in 1..3, {violations} violations")


def test_criterion_09_transfer_with_brute_oracle():
    violations = 0
    checked = 0
    for n in range(6):
        for d in enumerate_digraphs(n, sink_free=True):
            res = qk_via_ii_oracle(d, HALF)
            good = (res.verified and is_quasi_kernel(d, res.witness)
                    and 3 * res.witness.bit_count() <= 2 * d.n)
            violations += not good
            checked += 1
    ok = violations == 0 and checked == 1 + 0 + 1 + 27 + 2401 + 759375
    assert _verdict(9, "transfer_with_brute_oracle", ok,
                    f"{checked} sink-free digraphs n <= 5, {violations} violations")


def test_criterion_10_odd_free_kernels():
    violations = 0
    odd_free = 0
    for n in range(6):
        for d in enumerate_digraphs(n):
            if odd_dicycle_free(d):
                odd_free += 1
                violations += find_kernel(d).witness is None
    assert _verdict(10, "odd_free_kernels", violations == 0,
                    f"{odd_free} odd-dicycle-free digraphs n <= 5, "
                    f"{violations} without a kernel")


def test_criterion_11_eulerian_tournament_sharpness():
    objectives = {}
    for n in (3, 5, 7):
        d = make(parse_family(f"circulant:{n}"))
        objectives[n] = max_sharp_quasi_kernel(d).objective
    ok = all(obj == n for n, obj in objectives.items())
    assert _verdict(11, "eulerian_tournament_sharpness", ok,
                    f"doubled sharp objectives {objectives}")


def test_criterion_12_partition_number_chain():
    violations = 0
    checked = 0
    for n in range(5):
        for d in enumerate_digraphs(n):
            kp, _ = kernel_perfect_number(d)
            dichromatic = dichromatic_number(d)
            chromatic = chromatic_number(d)
            good = kp <= dichromatic <= chromatic and kp <= (chromatic + 1) // 2
            violations += not good
            checked += 1
    assert _verdict(12, "partition_number_chain", violations == 0,
                    f"{checked} digraphs n <= 4, {violations} chain violations")
