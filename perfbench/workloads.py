"""The three workloads: ``sweep``, ``solve`` and ``pipeline``.

Each workload class builds its inputs from the seed in ``__init__`` and
exercises every code path once on tiny inputs in ``warm_up`` (together the
set-up the benchmark times), runs one closed-loop pass over its inputs in
``run_pass`` and, after the timed phase, verifies the outputs of one pass
in ``check``: each mismatch goes to a ``Failures`` counter, and ``check``
returns the number of items the pass attempted.  Library functions are
always looked up as module attributes at call time, so the wrappers a
traced run installs see every call.

Witnesses are re-checked with the dict-of-sets predicates in
``tests/oracles.py``, which share no code with the library.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter_ns

import oracles
import quasikernel.cli as cli
import quasikernel.digraph as digraph
import quasikernel.generators as generators
import quasikernel.harness as harness
import quasikernel.reductions as reductions
import quasikernel.solvers as solvers
import quasikernel.theorems as theorems
from quasikernel.exceptions import PostconditionViolationError

HALF = Fraction(1, 2)
DEFAULT_SEED = 1
# n=5 sweeps check shard (seed mod SHARDS) of each full stream.  Odd, so that
# every shard samples all arc patterns: with 32 a shard fixed the five lowest
# arc bits, and shards differed in structure (609 to 13592 of their 32768
# digraphs odd-dicycle-free), which moved item_ms_p50 from seed to seed.
SHARDS = 31
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def vset(mask: int) -> set[int]:
    return set(digraph.vertices_of(mask))


def frac(f: Fraction | None) -> str | None:
    return None if f is None else f"{f.numerator}/{f.denominator}"


def codes_digest(records) -> str:
    codes = sorted(int(r.code_hex, 16) for r in records)
    return hashlib.sha256(",".join(map(str, codes)).encode()).hexdigest()


def shard_size(total: int, shard_count: int, shard_index: int) -> int:
    return total // shard_count + (shard_index < total % shard_count)


@dataclass(frozen=True)
class Raised:
    """An item's exception, kept as its repr so that passes compare equal."""

    text: str


class Recorder:
    """Per-item latencies, the gauge window each fell in, and the outputs a
    timed phase produced.  The gauge ticks after every item."""

    def __init__(self, gauge, tracer=None) -> None:
        self.gauge = gauge
        self.tracer = tracer
        self.latencies_ns: list[int] = []
        self.windows: list[int] = []
        self.outputs: list = []

    def begin_item(self) -> None:
        if self.tracer is not None:
            self.tracer.begin_item()

    def item(self, fn, *args):
        """Run one item; an exception becomes its output instead of escaping."""
        self.begin_item()
        t0 = perf_counter_ns()
        try:
            out = fn(*args)
        except Exception as e:  # counted as a failed item by check()
            out = Raised(repr(e))
        self.record(perf_counter_ns() - t0)
        return out

    def record(self, latency_ns: int) -> None:
        self.latencies_ns.append(latency_ns)
        self.windows.append(self.gauge.window)
        self.gauge.tick()


class Failures:
    """Mismatch counter that keeps the first few messages for the result file."""

    def __init__(self) -> None:
        self.count = 0
        self.messages: list[str] = []

    def add(self, message: str, count: int = 1) -> None:
        self.count += count
        if len(self.messages) < 50:
            self.messages.append(message)


# ---------------------------------------------------------------------------
# sweep


def _feed(stream, shard_count: int, shard_index: int, rec: Recorder, keep: list | None):
    """Pass ``stream`` through, timing what the consumer does with each
    digraph of the shard (the check), and keeping those digraphs."""
    i = 0
    for d in stream:
        if i % shard_count == shard_index:
            if keep is not None:
                keep.append(d)
            rec.begin_item()
            t0 = perf_counter_ns()
            yield d
            rec.record(perf_counter_ns() - t0)
        else:
            yield d
        i += 1


class Sweep:
    """Exhaustive conjecture sweeps at alpha = 1/2 through harness.sweep, plus
    the per-digraph scans of acceptance criteria 05, 09 and 10 over the
    same n=5 shards."""

    MIN_PASSES = 2  # a pass enumerates 1.8 M digraphs: 11 to 15 s

    # (task, n, variant, sink-free stream, canonical stream)
    FULL = (
        ("n4.small", 4, "small", True, False),
        ("n4.sources", 4, "sources", False, False),
        ("n4.large", 4, "large", False, False),
        ("n4.sharp", 4, "sharp", False, False),
        ("n4.large.canonical", 4, "large", False, True),
    )
    COUNTS = {"n4.small": 2401, "n4.sources": 4096, "n4.large": 4096, "n4.sharp": 4096,
              "n4.large.canonical": 218, "n5.large": 1 << 20, "n5.small": 15 ** 5}

    def __init__(self, seed: int) -> None:
        self.shard = seed % SHARDS
        self.expected = load_expected()["sweep"]

    def warm_up(self) -> None:
        for _, _, variant, sink_free, canonical in self.FULL:
            spec = harness.ConjectureSpec(variant, HALF, sink_free_version=variant == "small")
            harness.sweep(digraph.enumerate_digraphs(3, sink_free=sink_free, canonical=canonical),
                          spec, "warm-up")
        for d in digraph.enumerate_digraphs(3, sink_free=True):
            _heavy(d)
            self._odd_free_kernel(d)
            reductions.qk_via_ii_oracle(d, HALF)

    @staticmethod
    def _odd_free_kernel(d):
        if digraph.odd_dicycle_free(d):
            return solvers.find_kernel(d).witness
        return False  # not odd-dicycle-free: no kernel claim to check

    def _sweep(self, rec: Recorder, task: str, n: int, variant: str, sink_free: bool,
               canonical: bool, shard_count: int, shard_index: int, keep: list | None):
        spec = harness.ConjectureSpec(variant, HALF, sink_free_version=variant == "small")
        stream = digraph.enumerate_digraphs(n, sink_free=sink_free, canonical=canonical)
        try:
            report = harness.sweep(_feed(stream, shard_count, shard_index, rec, keep), spec,
                                   task, shard_count=shard_count, shard_index=shard_index)
        except Exception as e:  # counted as failed items by check()
            report = Raised(repr(e))
        rec.outputs.append((task, report))

    def _scan(self, rec: Recorder, task: str, fn, digraphs) -> None:
        rec.outputs.append((task, [(d, rec.item(fn, d)) for d in digraphs]))

    def run_pass(self, rec: Recorder) -> None:
        for task, n, variant, sink_free, canonical in self.FULL:
            self._sweep(rec, task, n, variant, sink_free, canonical, 1, 0, None)
        labeled: list = []
        sink_free5: list = []
        self._sweep(rec, "n5.large", 5, "large", False, False, SHARDS, self.shard, labeled)
        self._sweep(rec, "n5.small", 5, "small", True, False, SHARDS, self.shard, sink_free5)
        self._scan(rec, "heavy", _heavy, labeled)
        self._scan(rec, "odd_free_kernel", self._odd_free_kernel, labeled)
        self._scan(rec, "qk_via_ii_oracle", lambda d: reductions.qk_via_ii_oracle(d, HALF),
                   sink_free5)

    def check(self, outputs: list, fails: Failures) -> int:
        attempted = 0
        n5 = self.expected["n5"]
        for task, out in outputs:
            if task in self.COUNTS:
                sharded = task.startswith("n5.")
                want_count = (shard_size(self.COUNTS[task], SHARDS, self.shard)
                              if sharded else self.COUNTS[task])
                want = n5[task][self.shard] if sharded else self.expected["n4"][task]
                attempted += want_count
                self._check_report(task, out, want_count, want, fails)
            else:
                attempted += len(out)
                check = {"heavy": _check_heavy, "odd_free_kernel": _check_odd_free_kernel,
                         "qk_via_ii_oracle": _check_transfer}[task]
                bad = sum(1 for d, res in out if not check(d, res))
                if bad:
                    fails.add(f"sweep {task}: {bad} outputs failed their oracle check", bad)
                if task == "odd_free_kernel":
                    odd_free = sum(1 for _, res in out if res is not False)
                    if odd_free != n5["odd_free"][self.shard]:
                        fails.add(f"sweep odd_free count {odd_free} != {n5['odd_free'][self.shard]}")
        return attempted

    @staticmethod
    def _check_report(task, report, want_count, want, fails: Failures) -> None:
        if isinstance(report, Raised):
            fails.add(f"sweep {task} raised {report!r}", want_count)
            return
        if report.count != want_count:
            fails.add(f"sweep {task}: count {report.count} != {want_count}",
                      max(1, abs(report.count - want_count)))
        if report.failures:
            fails.add(f"sweep {task}: {len(report.failures)} bound failures", len(report.failures))
        got = {"min_slack": frac(report.min_slack), "extremal_count": len(report.extremal),
               "extremal_sha256": codes_digest(report.extremal)}
        for key, value in got.items():
            if value != want[key]:
                fails.add(f"sweep {task}: {key} {value} != recorded {want[key]}")


def _heavy(d):
    """heavy_independent_set, or None where the library reports that no
    in-heavy maximal independent set exists (it raises, by design: such a
    digraph is a counterexample worth reporting, not a library fault)."""
    try:
        return solvers.heavy_independent_set(d)
    except PostconditionViolationError:
        return None


def _is_heavy(d, s: set[int]) -> bool:
    """Maximal independent with at least as many in- as out-neighbours."""
    if not oracles.oracle_is_independent(d, s):
        return False
    if not all(v in s or not oracles.oracle_is_independent(d, s | {v}) for v in range(d.n)):
        return False
    adj = oracles.adj_of(d)
    ins = len(oracles.oracle_n_minus(d, s))
    return ins >= len({v for u in s for v in adj[u]} - s) and len(s) + 2 * ins >= d.n


def _check_heavy(d, w) -> bool:
    if isinstance(w, Raised):
        return False
    if w is None:
        return not any(_is_heavy(d, set(c)) for c in oracles.subsets_by_size(d.n))
    return _is_heavy(d, vset(w))


def _check_odd_free_kernel(d, k) -> bool:
    if k is False:
        return oracles.oracle_has_odd_dicycle(d)
    return k is not None and not isinstance(k, Raised) and oracles.oracle_is_kernel(d, vset(k))


def _check_transfer(d, res) -> bool:
    if isinstance(res, Raised):
        return False
    return res.verified and oracles.oracle_is_qk(d, vset(res.witness)) and 3 * res.objective <= 2 * d.n


# ---------------------------------------------------------------------------
# solve

QK_ALGS = ("min", "large", "sharp", "kernel")
ORACLE_KP_MAX = 6
PARTITION_ALGS = ("kp", "dichromatic", "chromatic", "heavy")


def _solve(alg: str, d):
    """(objective, witness mask or None) of one exact solve request."""
    if alg == "min":
        res = solvers.min_quasi_kernel(d)
    elif alg == "large":
        res = solvers.max_large_quasi_kernel(d)
    elif alg == "sharp":
        res = solvers.max_sharp_quasi_kernel(d)
    elif alg == "kernel":
        res = solvers.find_kernel(d)
    elif alg == "kp":
        k, partition = solvers.kernel_perfect_number(d)
        return k, partition.parts
    elif alg == "dichromatic":
        return solvers.dichromatic_number(d), None
    elif alg == "chromatic":
        return solvers.chromatic_number(d), None
    else:
        w = _heavy(d)
        return (None, None) if w is None else (w.bit_count(), w)
    return res.objective, res.witness


class Solve:
    """Single exact solve requests on seeded random and fixed family
    instances, a fixed subset of them through ``qk solve`` in-process.

    Random instances have n = 14..18: with n = 16..20 a pass took 8 to 12 s,
    so a run held only two or three repeats of each request.  The n=12
    instances are cheap and numerous (``SMALL_PER_P`` per arc probability) so
    that the median request sits in a dense part of the latency distribution:
    with 10 per probability it moved by 13 % (interquartile range over
    median) from seed to seed, with 30 by 8 %.
    ``PER_P`` gives the instances per arc probability of each larger order:
    n=16 has ten so that the 90th percentile falls inside the dense mass of
    their large/sharp requests at P = 1/4 and 1/3 rather than on its sparse
    upper edge, where it jumped from one seed to the next, and n=18 has two because its
    requests (a kernel search without a kernel takes up to 0.2 s) dominate
    the pass time, and so ``items_per_s``."""

    PROBS = ("1/8", "1/4", "1/3", "1/2")
    FAMILIES = ("edgeless:14", "path:16", "cycle:16", "circulant:15", "union:cycle:8,cycle:8")
    SMALL_FAMILIES = ("edgeless:12", "path:12", "cycle:12", "circulant:11", "union:cycle:5,cycle:7")
    # requests also sent through ``qk solve``: (first instance whose spec starts so, alg)
    CLI = (("random:14:", "min"), ("random:14:", "large"), ("edgeless:14", "kernel"),
           ("cycle:16", "sharp"))
    MIN_PASSES = 3  # a pass takes 4 to 7 s
    SMALL_PER_P = 30
    PER_P = {14: 1, 15: 1, 16: 10, 17: 1, 18: 2}

    def __init__(self, seed: int, workdir: str) -> None:
        rng = generators.SplitMix64(seed)
        big = [f"random:{n}:{p}:{rng.next_word() >> 32}" for n, count in self.PER_P.items()
               for p in self.PROBS for _ in range(count)]
        big += [f"random_tournament:{n}:{rng.next_word() >> 32}" for n in (16, 18)]
        big += list(self.FAMILIES)
        small = [f"random:12:{p}:{rng.next_word() >> 32}"
                 for _ in range(self.SMALL_PER_P) for p in self.PROBS]
        small += [f"random_tournament:12:{rng.next_word() >> 32}" for _ in range(2)]
        small += list(self.SMALL_FAMILIES)
        specs = big + small
        self.instances = [(spec, generators.make(generators.parse_family(spec))) for spec in specs]
        self.requests = [(i, alg) for i in range(len(big)) for alg in QK_ALGS]
        self.requests += [(i, alg) for i in range(len(big), len(self.instances))
                          for alg in QK_ALGS + PARTITION_ALGS]
        self.cli_files = {}
        os.makedirs(workdir, exist_ok=True)
        self.cli = [(next(i for i, spec in enumerate(specs) if spec.startswith(prefix)), alg)
                    for prefix, alg in self.CLI]
        for i, _ in self.cli:
            path = os.path.join(workdir, f"instance{i}.dg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(digraph.serialize(self.instances[i][1]))
            self.cli_files[i] = path
        recorded = load_expected()["solve"]
        self.recorded = {key: recorded[key] for key in self.keys() if key in recorded}

    def warm_up(self) -> None:
        for alg in QK_ALGS + PARTITION_ALGS:
            _solve(alg, generators.make(generators.parse_family("cycle:5")))
        self._cli("min", self.cli_files[self.cli[0][0]])

    def keys(self):
        return [f"{self.instances[i][0]}|{alg}" for i, alg in self.requests]

    @staticmethod
    def _cli(alg: str, path: str):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["solve", "--alg", alg, "--input", path, "--format", "json"])
        if code != 0:
            raise RuntimeError(f"qk solve exited with {code}")
        payload = json.loads(out.getvalue())
        return payload["objective"], digraph.mask_of(payload["witness"] or ())

    def run_pass(self, rec: Recorder) -> None:
        for i, alg in self.requests:
            rec.outputs.append((i, alg, rec.item(_solve, alg, self.instances[i][1])))
        for i, alg in self.cli:
            rec.outputs.append((i, "cli:" + alg, rec.item(self._cli, alg, self.cli_files[i])))

    def check(self, outputs: list, fails: Failures) -> int:
        direct = {}
        for i, alg, out in outputs:
            if not alg.startswith("cli:"):
                direct[(i, alg)] = out
        for i, alg, out in outputs:
            spec, d = self.instances[i]
            if isinstance(out, Raised):
                fails.add(f"solve {spec} {alg} raised {out!r}")
                continue
            if alg.startswith("cli:"):
                want = direct.get((i, alg[4:]))
                if isinstance(want, tuple) and out != (want[0], want[1] or 0):
                    fails.add(f"solve {spec} {alg}: cli output {out} != direct {want}")
                continue
            if not _check_solve(alg, d, *out):
                fails.add(f"solve {spec} {alg}: output {out} failed its oracle check")
            want = self.recorded.get(f"{spec}|{alg}")
            if want is not None and [out[0], _jsonable(out[1])] != want:
                fails.add(f"solve {spec} {alg}: {out} != recorded {want}")
        for i in {i for i, alg in direct if alg == "kp"}:
            chain = [direct[(i, alg)] for alg in ("kp", "dichromatic", "chromatic")]
            if all(isinstance(c, tuple) for c in chain) and not chain[0][0] <= chain[1][0] <= chain[2][0]:
                fails.add(f"solve {self.instances[i][0]}: kp <= dichromatic <= chromatic broken")
        return len(outputs)

    def process_ms(self, reps: int, root: str) -> list[float]:
        """Wall time of whole ``python -m quasikernel.cli solve`` processes."""
        i, alg = self.cli[0]
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        out = []
        for _ in range(reps):
            t0 = perf_counter_ns()
            subprocess.run([sys.executable, "-m", "quasikernel.cli", "solve", "--alg", alg,
                            "--input", self.cli_files[i]], cwd=root, env=env, check=True,
                           stdout=subprocess.DEVNULL, timeout=60)
            out.append((perf_counter_ns() - t0) / 1e6)
        return out


def _jsonable(witness):
    if witness is None or isinstance(witness, int):
        return witness
    return list(witness)  # partition parts


def _kernel_perfect_part(d, part: set[int]) -> bool:
    """Acyclic parts are kernel-perfect; other parts of at most
    ``ORACLE_KP_MAX`` vertices go through the exponential oracle on the
    induced subdigraph.  Larger cyclic parts cannot be checked in time and
    rest on the recorded values and the kp <= dichromatic <= chromatic chain."""
    if oracles.oracle_is_acyclic(d, part) or len(part) > ORACLE_KP_MAX:
        return True
    label = {v: i for i, v in enumerate(sorted(part))}
    sub = digraph.Digraph.from_arcs(
        len(part), [(label[u], label[v]) for u, v in d.arcs() if u in label and v in label])
    return oracles.oracle_is_kernel_perfect(sub, set(range(len(part))))


def _check_solve(alg: str, d, objective, witness) -> bool:
    if alg in ("min", "large", "sharp"):
        s = vset(witness)
        if not oracles.oracle_is_qk(d, s):
            return False
        if alg == "min":
            return objective == len(s)
        if alg == "large":
            return objective == len(oracles.oracle_n_minus_closed(d, s))
        return objective == len(s) + 2 * len(oracles.oracle_n_minus(d, s))
    if alg == "kernel":
        return witness is None or (oracles.oracle_is_kernel(d, vset(witness))
                                   and objective == witness.bit_count())
    if alg == "kp":
        parts = [vset(p) for p in witness]
        covers = sorted(v for p in parts for v in p) == list(range(d.n))
        return covers and len(parts) == objective and all(_kernel_perfect_part(d, p) for p in parts)
    if alg == "heavy":
        return _check_heavy(d, witness)
    return 1 <= objective <= d.n  # dichromatic / chromatic: checked against kp in pipeline


# ---------------------------------------------------------------------------
# pipeline

PROBS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))


class Pipeline:
    """Seeded random digraphs with n in 5..12 taken through the partition
    numbers and every constructive theorem that applies, and n <= 4 bases
    through the triangle blowup and the source gadget.

    ``small_qk_with_sources`` runs on a fixed quota of n=5 digraphs per pass,
    ``SOURCES_PER_S`` for each number s of sources in 1..3, drawn from the
    seeded stream by rejection.  Its time depends on s and is heavy-tailed
    (up to about 0.3 s at n=5 and 9 s at n=6), so an unstratified share
    would swing a pass by tens of percent from one seed to the next, and
    n=6 inputs would not fit a run at all.  Even the quota's six items take
    0.06 to 0.7 s from seed to seed, so ``DIGRAPHS`` is large enough to
    dilute that swing in the pass time."""

    DIGRAPHS = 2400
    MIN_PASSES = 3
    BLOWUP_EVERY = 4
    SOURCES_PER_S = 2

    def __init__(self, seed: int) -> None:
        rng = generators.SplitMix64(seed ^ 0x5EED5EED)
        quota = [1 + j % 3 for j in range(3 * self.SOURCES_PER_S)]
        self.items = []
        for i in range(self.DIGRAPHS):
            n = 5 + i % 8
            d = generators.random_digraph(n, PROBS[i % 3], rng.next_word())
            with_sources = n == 5 and i // 8 < len(quota)
            while with_sources and digraph.sources_not_sinks(d).bit_count() != quota[i // 8]:
                d = generators.random_digraph(n, PROBS[i % 3], rng.next_word())
            p = rng.next_word() & d.vertex_mask
            while not digraph.is_acyclic_set(d, p):
                p &= p - 1
            base = None
            if i % self.BLOWUP_EVERY == 0:
                base = generators.random_digraph(2 + i // self.BLOWUP_EVERY % 3, Fraction(1, 3),
                                                 rng.next_word())
            self.items.append((d, p, base, with_sources))

    def warm_up(self) -> None:
        for d in digraph.enumerate_digraphs(3):
            _chain(d, 0, None, bool(digraph.sources_not_sinks(d)))
        _chain(d, 0, d, False)

    def run_pass(self, rec: Recorder) -> None:
        for item in self.items:
            rec.outputs.append((item, rec.item(_chain, *item)))

    def check(self, outputs: list, fails: Failures) -> int:
        for (d, p, base, _), out in outputs:
            if isinstance(out, Raised):
                fails.add(f"pipeline {digraph.dumps_json(d)} raised {out!r}")
                continue
            for stage in _check_chain(d, p, base, out):
                fails.add(f"pipeline {digraph.dumps_json(d)}: {stage} failed its check")
        return len(outputs)


def _chain(d, p, base, with_sources: bool) -> dict:
    out = {}
    kp, partition = solvers.kernel_perfect_number(d)
    out["kp"] = (kp, partition)
    out["dichromatic"] = solvers.dichromatic_number(d)
    out["chromatic"] = solvers.chromatic_number(d)
    out["heavy"] = _heavy(d)
    if digraph.is_sink_free(d):
        out["small"] = theorems.small_qk_from_partition(d, partition, check_parts=False).result
        out["transfer"] = reductions.qk_via_ii_oracle(d, HALF)
    out["large"] = theorems.large_qk_from_partition(d, partition, check_parts=False)
    if with_sources:
        out["sources"] = theorems.small_qk_with_sources(d, partition, check_parts=False).witness
    out["covering"] = theorems.quasi_kernel_covering(d, p)
    if base is not None:
        blown, bmap = reductions.c3_blowup(base)
        out["c3"] = [(qp, reductions.project_blowup_qk(bmap, qp))
                     for qp in solvers.quasi_kernels(blown)]
        c = 1 + base.n % 2
        gadget, _ = reductions.add_source_gadget(base, c)
        out["gadget"] = (c, list(solvers.quasi_kernels(gadget)), gadget)
        out["c3_blown"] = blown
    return out


def _check_chain(d, p, base, out) -> list[str]:
    """Names of the stages whose output fails its exact check."""
    bad = []
    n = d.n
    kp, partition = out["kp"]
    k = max(kp, 2)
    parts = [vset(q) for q in partition.parts]
    if not (sorted(v for q in parts for v in q) == list(range(n)) and len(parts) == kp
            and kp <= out["dichromatic"] <= out["chromatic"] and kp <= (out["chromatic"] + 1) // 2):
        bad.append("partition numbers")
    if not _check_heavy(d, out["heavy"]):
        bad.append("heavy")
    if "small" in out:
        q = vset(out["small"])
        if not (oracles.oracle_is_qk(d, q) and k * len(q) <= (k - 1) * n):
            bad.append("small_qk_from_partition")
        if not _check_transfer(d, out["transfer"]):
            bad.append("qk_via_ii_oracle")
    res = out["large"]
    q = vset(res.witness)
    if not (oracles.oracle_is_qk(d, q) and k * res.objective >= n
            and res.objective == len(oracles.oracle_n_minus_closed(d, q))):
        bad.append("large_qk_from_partition")
    if "sources" in out:
        q = vset(out["sources"])
        s = digraph.sources_not_sinks(d).bit_count()
        if not (oracles.oracle_is_qk(d, q) and k * len(q) <= k * n - s):
            bad.append("small_qk_with_sources")
    q = vset(out["covering"])
    ps = vset(p)
    if not (oracles.oracle_is_qk(d, q) and ps <= oracles.oracle_n_minus_closed(d, q)
            and not q & oracles.oracle_n_minus(d, ps)):
        bad.append("quasi_kernel_covering")
    if base is not None:
        blown = out["c3_blown"]
        for qp, qb in out["c3"]:
            lhs = len(oracles.oracle_n_minus(blown, vset(qp)))
            if not (oracles.oracle_is_qk(base, vset(qb))
                    and lhs == len(vset(qb)) + 3 * len(oracles.oracle_n_minus(base, vset(qb)))):
                bad.append("c3_blowup identity")
                break
        c, qks, gadget = out["gadget"]
        for qp in qks:
            covered = len(oracles.oracle_n_minus_closed(base, vset(qp & base.vertex_mask)))
            if not oracles.oracle_is_qk(gadget, vset(qp)) or c * (base.n - covered) > qp.bit_count():
                bad.append("source gadget inequality")
                break
    return bad
