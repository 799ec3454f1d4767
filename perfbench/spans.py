"""In-memory spans around calls into the quasikernel modules.

Nothing under ``src/`` knows about tracing.  A traced run replaces the public
functions named in ``TRACED`` with thin wrappers in every module namespace
that binds them, so calls made by the benchmark and calls the library makes
internally (say ``find_kernel`` inside ``small_qk_with_sources``) both open a
span.  ``uninstall`` puts the original functions back.

A span is the tuple ``(id, parent, item, name, start_ns, end_ns, extra)``,
where ``item`` groups all spans of one benchmark item and ``extra`` is the
vertex count of the first argument (-1 when it has none).  Digraph streams
are too long for one span per element, so a stream gets one span whose
``extra`` is a dict with the stream parameters, ``busy_ns`` (time spent
inside ``next()``) and ``yielded`` (digraphs produced).  A ``harness.sweep``
span's ``extra`` is ``{"checked": report.count}``.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import statistics
from time import perf_counter_ns

MODULES = ("digraph", "generators", "solvers", "theorems", "reductions", "harness", "cli")

# layer -> public functions that get a span in traced runs
TRACED = {
    "generators": ("make", "random_digraph", "random_tournament"),
    "solvers": ("min_quasi_kernel", "max_large_quasi_kernel", "max_sharp_quasi_kernel",
                "find_kernel", "kernel_perfect_number", "dichromatic_number",
                "chromatic_number", "heavy_independent_set"),
    "theorems": ("small_qk_from_partition", "large_qk_from_partition",
                 "small_qk_with_sources", "quasi_kernel_covering"),
    "reductions": ("qk_via_ii_oracle", "c3_blowup", "add_source_gadget"),
    "harness": ("sweep",),
    "cli": ("main",),
}
STREAM = "digraph.enumerate"


def _sweep_note(report) -> dict:
    return {"checked": report.count}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.item = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin_item(self) -> None:
        self.item += 1

    def wrap(self, name: str, fn, note=None):
        """``fn`` with a span around every call; ``note(result)`` may replace
        the vertex count in the span's last slot with a dict of counts."""
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            extra = getattr(args[0], "n", -1) if args else -1
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    extra = note(result)
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[sid] = (sid, parent, self.item, name, t0, t1, extra)

        traced.__wrapped__ = fn
        return traced

    def stream(self, it, info: dict):
        """Yield from ``it``, timing only the work done inside ``next()``.

        A generator body first runs at the first ``next()``, so the parent is
        the span that consumes the stream, not the one that created it.
        """
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        item = self.item
        busy = 0
        yielded = 0
        start = perf_counter_ns()
        it = iter(it)
        try:
            while True:
                t0 = perf_counter_ns()
                try:
                    d = next(it)
                except StopIteration:
                    busy += perf_counter_ns() - t0
                    return
                busy += perf_counter_ns() - t0
                yielded += 1
                yield d
        finally:
            self.spans[sid] = (sid, parent, item, STREAM, start, perf_counter_ns(),
                               dict(info, busy_ns=busy, yielded=yielded))

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"quasikernel.{m}") for m in MODULES]
        modules.append(importlib.import_module("quasikernel"))
        replace = {}
        for layer, names in TRACED.items():
            home = importlib.import_module(f"quasikernel.{layer}")
            for name in names:
                fn = getattr(home, name)
                note = _sweep_note if (layer, name) == ("harness", "sweep") else None
                replace[id(fn)] = (fn, self.wrap(f"{layer}.{name}", fn, note))
        enum = importlib.import_module("quasikernel.digraph").enumerate_digraphs

        def enumerate_traced(n, sink_free=False, canonical=False):
            info = {"n": n, "sink_free": sink_free, "canonical": canonical}
            return self.stream(enum(n, sink_free=sink_free, canonical=canonical), info)

        replace[id(enum)] = (enum, enumerate_traced)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, parent, item, name, t0, t1, extra in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "item": item, "name": name,
                                     "start_ns": t0, "end_ns": t1, "extra": extra}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics derived from the spans


def quantile(values, q: float) -> float:
    """Quantile q (0.5: median, 0.9: p90) on a grid of hundredths; 0.0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[round(q * 100) - 1])


def _codes_scanned(info: dict) -> int:
    """Adjacency codes a canonical stream walks, computed from its
    parameters rather than counted: the labeled (or sink-free) stream size."""
    n = info["n"]
    if info["sink_free"]:
        return ((1 << (n - 1)) - 1) ** n if n > 1 else 0
    return 1 << (n * (n - 1))


def layer_metrics(spans: list[tuple], cli_process_ms: list[float], overhead_ratio: float) -> dict:
    """Every per-layer metric, keyed by name, as ``(value, unit)``."""
    by_name: dict[str, list[tuple]] = {}
    children_ns = [0] * len(spans)
    for sp in spans:
        by_name.setdefault(sp[3], []).append(sp)
        if sp[1] >= 0:
            own = sp[6]["busy_ns"] if sp[3] == STREAM else sp[5] - sp[4]
            children_ns[sp[1]] += own
    out: dict[str, tuple[float, str]] = {}

    def durations(name):
        return [(sp[5] - sp[4]) for sp in by_name.get(name, ())]

    def top_level_busy(name):
        """Span time of ``name`` not nested inside another ``name`` span."""
        ids = {sp[0] for sp in by_name.get(name, ())}
        return sum(sp[5] - sp[4] for sp in by_name.get(name, ()) if sp[1] not in ids)

    streams = by_name.get(STREAM, ())
    busy = sum(sp[6]["busy_ns"] for sp in streams)
    yielded = sum(sp[6]["yielded"] for sp in streams)
    out["digraph.enumerate.busy_s"] = (busy / 1e9, "s")
    out["digraph.enumerate.yielded"] = (yielded, "count")
    out["digraph.enumerate.us_per_digraph"] = (busy / 1e3 / yielded if yielded else 0.0, "us")

    canonical = [sp for sp in streams if sp[6]["canonical"]]
    classes = sum(sp[6]["yielded"] for sp in canonical)
    scanned = sum(_codes_scanned(sp[6]) for sp in canonical)
    out["digraph.canonical.accept_ratio"] = (classes / scanned if scanned else 0.0, "ratio")
    out["digraph.canonical.scanned_computed"] = (scanned, "count")

    gen = [sp for name in TRACED["generators"] for sp in by_name.get(f"generators.{name}", ())]
    gen_ids = {sp[0] for sp in gen}
    top = [sp for sp in gen if sp[1] not in gen_ids]
    out["generators.calls"] = (len(top), "count")
    out["generators.busy_s"] = (sum(sp[5] - sp[4] for sp in top) / 1e9, "s")

    sweeps = by_name.get("harness.sweep", ())
    sweep_ids = {sp[0] for sp in sweeps}
    sweep_ns = sum(sp[5] - sp[4] for sp in sweeps)
    self_ns = sweep_ns - sum(children_ns[sp[0]] for sp in sweeps)
    checked = sum(sp[6]["checked"] for sp in sweeps if isinstance(sp[6], dict))
    swept = sum(sp[6]["yielded"] for sp in streams if sp[1] in sweep_ids)
    enumerating = sum(sp[6]["busy_ns"] for sp in streams if sp[1] in sweep_ids)
    out["harness.sweep.busy_s"] = (sweep_ns / 1e9, "s")
    out["harness.sweep.self_s"] = (self_ns / 1e9, "s")
    out["harness.checks"] = (checked, "count")
    out["harness.us_per_check"] = ((sweep_ns - enumerating) / 1e3 / checked if checked else 0.0, "us")
    out["harness.shard_ratio"] = (checked / swept if swept else 0.0, "ratio")

    for fn in TRACED["solvers"]:
        name = f"solvers.{fn}"
        spans_fn = by_name.get(name, ())
        total = top_level_busy(name)
        masks = sum(1 << sp[6] for sp in spans_fn if isinstance(sp[6], int) and sp[6] >= 0)
        out[f"{name}.calls"] = (len(spans_fn), "count")
        out[f"{name}.busy_s"] = (total / 1e9, "s")
        out[f"{name}.ms_p50"] = (quantile(durations(name), 0.5) / 1e6, "ms")
        out[f"{name}.ns_per_mask"] = (total / masks if masks else 0.0, "ns")

    for fn in TRACED["theorems"]:
        name = f"theorems.{fn}"
        out[f"{name}.calls"] = (len(by_name.get(name, ())), "count")
        out[f"{name}.busy_s"] = (top_level_busy(name) / 1e9, "s")
        out[f"{name}.ms_p90"] = (quantile(durations(name), 0.9) / 1e6, "ms")

    for fn in TRACED["reductions"]:
        name = f"reductions.{fn}"
        out[f"{name}.calls"] = (len(by_name.get(name, ())), "count")
        out[f"{name}.busy_s"] = (top_level_busy(name) / 1e9, "s")

    mains = by_name.get("cli.main", ())
    out["cli.main.calls"] = (len(mains), "count")
    out["cli.main.busy_s"] = (sum(sp[5] - sp[4] for sp in mains) / 1e9, "s")
    out["cli.overhead_ms_p50"] = (
        quantile([sp[5] - sp[4] - children_ns[sp[0]] for sp in mains], 0.5) / 1e6, "ms")
    out["cli.process_ms_p50"] = (quantile(cli_process_ms, 0.5), "ms")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
