"""Layered benchmark for the quasikernel package.

    python3 perfbench/run.py --workload {sweep,solve,pipeline} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/`` and
the witness oracles from ``tests/oracles.py``.  One process, one thread, a
closed loop: the next item starts only after the previous one returned.

The timed phase repeats whole passes over the workload's inputs (at least
the workload's ``MIN_PASSES``, then while the next pass is expected to end
within ``--seconds``), so every run measures the same mix of items.  Times
are taken at the reference speed of ``gauge.py``: a fixed loop interleaved
with the items measures how much the machine's other tenants slow this
process down, window by window, and each window's work is divided by that
factor.  An item's latency is its median over the passes; the latency
percentiles are taken over these, and ``items_per_s`` divides the items of
one pass by the median pass time (for sweep that includes the enumeration
of the digraphs a shard skips).  ``setup_s`` is the import plus the median
of ``SETUP_REPS`` builds of the inputs, also at the reference speed.
Outputs are checked after the timed phase; every mismatch
counts as a failed item.  The last stdout line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics untraced (``--trace 0``), the per-layer
metrics traced (``--trace 1``).  Each run also writes a result file under
``.perfbench/results/`` recording the seed, Python version, git revision and
``nproc``; a traced run writes its spans under ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPS = 7
CLI_PROCESS_REPS = 5


def _git_revision() -> str:
    """HEAD of ``ROOT/.git`` read from disk; 'unknown' outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _timed(workload, rec, seconds: float, passes: int | None = None) -> tuple[list[float], float]:
    """Run whole passes: exactly ``passes`` of them, or at least the
    workload's ``MIN_PASSES`` and then while the next one is expected to end
    within ``seconds``.  Returns the work time of each pass at the reference
    speed (ns) and the peak resident memory (MB) at the end of the first
    one: later passes only add outputs kept for the checks, so their number
    must not move the figure."""
    gauge = rec.gauge
    times = []
    start = perf_counter()
    while True:
        first = gauge.window
        gauge.resume()
        workload.run_pass(rec)
        gauge.tick(close=True)
        times.append(gauge.span_ns(first, gauge.window))
        if len(times) == 1:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = perf_counter() - start
        if passes is not None:
            if len(times) == passes:
                return times, rss_mb
        elif len(times) >= workload.MIN_PASSES and elapsed + elapsed / len(times) > seconds:
            return times, rss_mb


def _per_item_ms(rec, passes: int) -> list[float]:
    """Median latency of each item over the passes, at the reference speed.
    Every pass runs the same items in the same order."""
    k = len(rec.latencies_ns) // passes
    ref = [rec.gauge.reference_ns(ns, w) for ns, w in zip(rec.latencies_ns, rec.windows)]
    return [statistics.median(ref[j::k]) / 1e6 for j in range(k)]


def _check(workload, outputs: list, passes: int, fails) -> int:
    """Check the first pass's outputs in full and every later pass against
    the first (the library is deterministic).  Returns the items attempted."""
    k = len(outputs) // passes
    first = outputs[:k]
    attempted = workload.check(first, fails)
    for p in range(1, passes):
        differ = sum(1 for a, b in zip(first, outputs[p * k:(p + 1) * k]) if a != b)
        if differ:
            fails.add(f"pass {p + 1}: {differ} outputs differ from the first pass", differ)
    return attempted * passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "solve", "pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (os.path.isfile(os.path.join(ROOT, "src", "quasikernel", "__init__.py"))
            and os.path.isfile(os.path.join(ROOT, "tests", "oracles.py"))):
        print(f"perfbench: {ROOT} has no src/quasikernel or tests/oracles.py", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    from gauge import Gauge

    gauge = Gauge(active=not args.trace)
    gauge.resume()
    import workloads  # imports the whole library and the oracles
    gauge.tick(close=True)
    import_s = gauge.span_ns(0, 1) / 1e9
    from spans import Tracer, layer_metrics, quantile

    cls = {"sweep": workloads.Sweep, "solve": workloads.Solve,
           "pipeline": workloads.Pipeline}[args.workload]
    make_args = (os.path.join(OUT, "work", f"{args.workload}-{args.seed}"),) \
        if args.workload == "solve" else ()

    setup_times = []
    workload = None
    for _ in range(SETUP_REPS):
        gauge.resume()
        built = cls(args.seed, *make_args)
        built.warm_up()
        gauge.tick(close=True)
        setup_times.append(gauge.span_ns(gauge.window - 1, gauge.window) / 1e9)
        workload = workload or built
    setup_s = import_s + statistics.median(setup_times)

    fails = workloads.Failures()
    rec = workloads.Recorder(gauge)
    # a traced run needs one untraced pass to set against the traced one
    times, rss_mb = _timed(workload, rec, args.seconds, 1 if args.trace else None)
    attempted = _check(workload, rec.outputs, len(times), fails)

    if not args.trace:
        lat_ms = _per_item_ms(rec, len(times))
        done_share = 1 - fails.count / attempted
        metrics = {
            "setup_s": (setup_s, "s"),
            "items_per_s": (len(lat_ms) * done_share / (statistics.median(times) / 1e9), "1/s"),
            "item_ms_p50": (quantile(lat_ms, 0.5), "ms"),
            "item_ms_p90": (quantile(lat_ms, 0.9), "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    else:
        # same seed and passes as the untraced phase above, now with spans;
        # the inputs are built again so corpus building shows in the generators layer
        tracer = Tracer()
        tracer.install()
        try:
            traced_workload = cls(args.seed, *make_args)
            traced = workloads.Recorder(gauge, tracer)
            traced_times, _ = _timed(traced_workload, traced, 0, len(times))
        finally:
            tracer.uninstall()
        attempted += _check(traced_workload, traced.outputs, len(traced_times), fails)
        cli_ms = (workload.process_ms(CLI_PROCESS_REPS, ROOT)
                  if args.workload == "solve" else [])
        metrics = layer_metrics(tracer.spans, cli_ms, sum(traced_times) / sum(times))
        tracer.write(os.path.join(OUT, "traces", f"{args.workload}-seed{args.seed}.jsonl.gz"))

    result = {
        "correct": fails.count == 0,
        "attempted": attempted,
        "failed": fails.count,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "pass_reference_s": [t / 1e9 for t in times],
        "slowdown_median": statistics.median(gauge.factors),
        "setup_parts_s": {"import": import_s, "builds": setup_times},
        "python": platform.python_version(), "git_revision": _git_revision(),
        "nproc": len(os.sched_getaffinity(0)), "failures": fails.messages, "result": result,
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1)
    for message in fails.messages:
        print(f"perfbench: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
