"""Regenerate ``perfbench/expected.json``, the outputs the benchmark compares
against: sweep reports for the n=4 streams and for every n=5 shard, and the
solve results for the default seed.

    python3 perfbench/record.py

Takes a few minutes: it checks every digraph of order 5 once.  Run it only
when an intended change to the library's outputs has been made and tested.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import workloads  # noqa: E402
from workloads import HALF, SHARDS, Sweep, codes_digest, frac  # noqa: E402

from quasikernel import digraph, harness  # noqa: E402


def _summary(min_slack, extremal) -> dict:
    return {"min_slack": frac(min_slack), "extremal_count": len(extremal),
            "extremal_sha256": codes_digest(extremal)}


def _full_sweeps() -> dict:
    out = {}
    for task, n, variant, sink_free, canonical in Sweep.FULL:
        spec = harness.ConjectureSpec(variant, HALF, sink_free_version=variant == "small")
        report = harness.sweep(digraph.enumerate_digraphs(n, sink_free=sink_free, canonical=canonical),
                               spec, task)
        out[task] = _summary(report.min_slack, report.extremal)
    return out


def _sharded(variant: str, sink_free: bool) -> list[dict]:
    """The report of every shard from one pass over the stream, keeping
    harness.sweep's rule for the slack minimizers."""
    spec = harness.ConjectureSpec(variant, HALF, sink_free_version=variant == "small")
    best = [None] * SHARDS
    extremal = [[] for _ in range(SHARDS)]
    for i, d in enumerate(digraph.enumerate_digraphs(5, sink_free=sink_free)):
        j = i % SHARDS
        rec = harness.check(d, spec)
        if not rec.passed:
            raise SystemExit(f"bound failure on {rec.to_json()}; not recording")
        sl = harness.slack(rec, spec)
        if best[j] is None or sl < best[j]:
            best[j], extremal[j] = sl, [rec]
        elif sl == best[j]:
            extremal[j].append(rec)
    return [_summary(best[j], extremal[j]) for j in range(SHARDS)]


def _odd_free_counts() -> list[int]:
    counts = [0] * SHARDS
    for i, d in enumerate(digraph.enumerate_digraphs(5)):
        counts[i % SHARDS] += digraph.odd_dicycle_free(d)
    return counts


def _solve() -> dict:
    workloads.load_expected = lambda: {"solve": {}}  # the file is being rewritten
    workload = workloads.Solve(workloads.DEFAULT_SEED,
                               os.path.join(ROOT, ".perfbench", "work", "record"))
    out = {}
    for key, (i, alg) in zip(workload.keys(), workload.requests):
        objective, witness = workloads._solve(alg, workload.instances[i][1])
        out[key] = [objective, workloads._jsonable(witness)]
    return out


def main() -> None:
    expected = {
        "default_seed": workloads.DEFAULT_SEED,
        "shards": SHARDS,
        "sweep": {
            "n4": _full_sweeps(),
            "n5": {"n5.large": _sharded("large", False), "n5.small": _sharded("small", True),
                   "odd_free": _odd_free_counts()},
        },
        "solve": _solve(),
    }
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
