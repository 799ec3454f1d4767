"""Brute-force conjecture checking: per-digraph checks, corpus sweeps with
deterministic sharding, associative report merging, and extremal tracking.

Four bound variants over a probe ratio alpha = p/q (exact rational):

* small   -- min quasi-kernel size <= (1-alpha) n, sink-free corpora only;
* sources -- min quasi-kernel size <= n - alpha s, s = #source-not-sink;
* large   -- max over quasi-kernels of |n_minus_closed| >= alpha n;
* sharp   -- max over quasi-kernels of |Q| + 2|n_minus_set(Q)| >= alpha n,
             tracked doubled so everything stays integral.

All pass/fail decisions are exact integer cross-multiplications.  Slack is
the margin to the bound normalized by n (n = 0 digraphs never enter the
extremal race); a sweep ranks it as an integer pair (numerator, positive
denominator) by cross-multiplication and reports the least as a Fraction.
A sweep formats a CheckRecord (adjacency code, hex string, Fraction bound)
only for a digraph its report keeps: every one under keep_records, else
the failures and each digraph that sets or ties the least slack so far.
For alpha <= 1/2 the small and large bounds cannot both fail on one
digraph, and the sweep enforces that as a bug trap.
"""

from __future__ import annotations

import functools
import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from .digraph import (
    Digraph,
    _clip,
    _decimal,
    adjacency_code,
    digraph_from_code,
    is_sink_free,
    sources_not_sinks,
    vertices_of,
)
from .exceptions import ParseError, PostconditionViolationError
from .solvers import SolveResult, max_large_quasi_kernel, max_sharp_quasi_kernel, min_quasi_kernel

HARNESS_VERSION = "1"


class _Variant(NamedTuple):
    """A bound: the solver that computes the objective, whether the bound
    caps it from above, and the count alpha multiplies."""

    solver: Callable[[Digraph], SolveResult]
    minimise: bool
    scale: Callable[[Digraph], int]


# small is sources with s = n; sharp is large against the doubled 2n.  The
# solver lambdas look the solvers up at call time, so rebinding a module
# attribute takes effect.
_VARIANTS = {
    "small": _Variant(lambda d: min_quasi_kernel(d), True, lambda d: d.n),
    "sources": _Variant(lambda d: min_quasi_kernel(d), True,
                        lambda d: sources_not_sinks(d).bit_count()),
    "large": _Variant(lambda d: max_large_quasi_kernel(d), False, lambda d: d.n),
    "sharp": _Variant(lambda d: max_sharp_quasi_kernel(d), False, lambda d: 2 * d.n),
}
VARIANTS = tuple(_VARIANTS)


def parse_alpha(text: str) -> Fraction:
    """Exact 'P/Q' only; decimals and bare integers are rejected."""
    try:
        num, den = map(_decimal, text.strip().split("/"))
    except ValueError:
        raise ParseError(f"alpha must be an exact fraction 'P/Q', got {_clip(text)!r}") from None
    if den == 0:
        raise ParseError("alpha denominator must be nonzero")
    alpha = Fraction(num, den)
    if not 0 < alpha <= 1:
        raise ParseError(f"alpha must be in (0, 1], got {_clip(str(alpha))}")
    return alpha


@dataclass(frozen=True)
class ConjectureSpec:
    """Which bound to check at which ratio; small only makes sense on
    sink-free corpora, and the flag restricts checks for any variant."""

    variant: str
    alpha: Fraction
    sink_free_version: bool = False

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        alpha = Fraction(self.alpha)
        object.__setattr__(self, "alpha", alpha)
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if self.variant == "small" and not self.sink_free_version:
            raise ValueError("the small variant is stated for sink-free digraphs only")


@dataclass(frozen=True)
class CheckRecord:
    """One digraph's outcome; the adjacency code replays the exact labeled
    digraph, so the witness stays meaningful."""

    n: int
    code_hex: str
    objective: int
    bound: Fraction
    passed: bool
    witness: int | None

    def digraph(self) -> Digraph:
        return digraph_from_code(self.n, int(self.code_hex, 16))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "adjacency_hex": self.code_hex,
            "objective": self.objective,
            "bound": _frac_str(self.bound),
            "passed": self.passed,
            "witness": None if self.witness is None else list(vertices_of(self.witness)),
        }


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def check(d: Digraph, spec: ConjectureSpec) -> CheckRecord:
    """Exact pass/fail of one bound on one digraph."""
    return _record(d, *_decision(spec)(d))


def _decision(spec: ConjectureSpec) -> Callable[[Digraph], tuple[SolveResult, int, int, int]]:
    """The spec read once, for check and sweep alike: for a digraph, the
    solver's result, the bound as limit / den, and the signed margin of
    den * objective over limit, nonnegative iff the check passes."""
    solver, minimise, scale = _VARIANTS[spec.variant]
    num, den = spec.alpha.numerator, spec.alpha.denominator
    sink_free = spec.sink_free_version

    def decide(d: Digraph) -> tuple[SolveResult, int, int, int]:
        if sink_free and not is_sink_free(d):
            raise ValueError("spec is for sink-free digraphs but the input has a sink")
        res = solver(d)
        if minimise:  # objective <= n - alpha * scale
            limit = den * d.n - num * scale(d)
            return res, limit, den, limit - den * res.objective
        limit = num * scale(d)  # objective >= alpha * scale
        return res, limit, den, den * res.objective - limit

    return decide


def _record(d: Digraph, res: SolveResult, limit: int, den: int, margin: int) -> CheckRecord:
    return CheckRecord(d.n, format(adjacency_code(d), "x"), res.objective, _bound(limit, den),
                       margin >= 0, res.witness)


# Checks at one alpha that share n and the count alpha multiplies share their
# bound, so records take one immutable Fraction per (limit, den) pair.
_bound = functools.lru_cache(maxsize=1024)(Fraction)


def slack(record: CheckRecord, spec: ConjectureSpec) -> Fraction | None:
    """Margin to the bound, normalized by n; nonnegative iff the check
    passed.  None on the empty digraph."""
    if record.n == 0:
        return None
    bound = record.bound
    diff = record.objective * bound.denominator - bound.numerator
    if _VARIANTS[spec.variant].minimise:
        diff = -diff
    return Fraction(diff, bound.denominator * record.n)


@dataclass(frozen=True)
class Report:
    """Aggregate of one or more sweep shards over a fixed corpus and spec."""

    corpus: str
    spec: ConjectureSpec
    shard_count: int
    shard_ids: tuple[int, ...]
    count: int
    failures: tuple[CheckRecord, ...]
    min_slack: Fraction | None
    extremal: tuple[CheckRecord, ...]
    records: tuple[CheckRecord, ...]

    def to_json(self) -> dict:
        return {
            "version": HARNESS_VERSION,
            "corpus": self.corpus,
            "conjecture": {
                "variant": self.spec.variant,
                "alpha": _frac_str(self.spec.alpha),
                "sink_free_version": self.spec.sink_free_version,
            },
            "shard_count": self.shard_count,
            "shard_ids": list(self.shard_ids),
            "count": self.count,
            "failures": [r.to_json() for r in self.failures],
            "min_slack": None if self.min_slack is None else _frac_str(self.min_slack),
            "extremal": [r.to_json() for r in self.extremal],
            "records": [r.to_json() for r in self.records],
        }


def sweep(digraphs: Iterable[Digraph], spec: ConjectureSpec, corpus: str,
          shard_count: int = 1, shard_index: int = 0,
          keep_records: bool = False) -> Report:
    """Check every digraph whose enumeration index is ``shard_index`` modulo
    ``shard_count``.  Shards of the same deterministic stream are disjoint
    and merge_reports reassembles them exactly.
    """
    # islice takes a step of at most sys.maxsize
    if not 1 <= shard_count <= sys.maxsize or not 0 <= shard_index < shard_count:
        raise ValueError(f"bad shard {_clip(f'{shard_index}/{shard_count}')}")
    decide = _decision(spec)
    count = 0
    failures: list[CheckRecord] = []
    min_num = min_den = None  # the least slack so far, as min_num / min_den
    extremal: list[CheckRecord] = []
    records: list[CheckRecord] = []
    for d in itertools.islice(digraphs, shard_index, None, shard_count):
        res, limit, den, margin = decide(d)
        count += 1
        # a digraph kept in several roles shares one record
        rec = _record(d, res, limit, den, margin) if keep_records or margin < 0 else None
        if keep_records:
            records.append(rec)
        if margin < 0:
            failures.append(rec)
            _assert_small_large_disjunction(d, spec)
        n = d.n
        if n:  # slack = margin / (den * n), unreduced
            scaled = den * n
            if min_num is None or margin * min_den < min_num * scaled:
                min_num, min_den = margin, scaled
                extremal = [rec or _record(d, res, limit, den, margin)]
            elif margin * min_den == min_num * scaled:
                extremal.append(rec or _record(d, res, limit, den, margin))
    min_sl = None if min_num is None else Fraction(min_num, min_den)
    return Report(corpus, spec, shard_count, (shard_index,), count,
                  tuple(failures), min_sl, tuple(extremal), tuple(records))


def _assert_small_large_disjunction(d: Digraph, spec: ConjectureSpec) -> None:
    """For alpha <= 1/2 a digraph cannot break both the small and the large
    bound: a minimum quasi-kernel larger than (1-alpha) n dominates itself,
    which is already alpha n coverage.  Observed double failure means a
    solver bug, so it raises instead of reporting."""
    if spec.alpha > Fraction(1, 2) or spec.variant not in ("small", "large"):
        return
    if spec.variant == "small":
        other = ConjectureSpec("large", spec.alpha)
    elif is_sink_free(d):
        other = ConjectureSpec("small", spec.alpha, sink_free_version=True)
    else:
        return
    if _decision(other)(d)[3] < 0:
        raise PostconditionViolationError(
            "small and large bounds both failed; impossible for alpha <= 1/2")


def merge_reports(a: Report, b: Report) -> Report:
    """Associative shard merge; corpus, spec, and shard_count must match."""
    if a.corpus != b.corpus or a.spec != b.spec or a.shard_count != b.shard_count:
        raise ValueError("reports come from different sweeps")
    overlap = set(a.shard_ids) & set(b.shard_ids)
    if overlap:
        raise ValueError(f"shards {sorted(overlap)} appear in both reports")
    if a.min_slack is None:
        min_sl, extremal = b.min_slack, b.extremal
    elif b.min_slack is None or a.min_slack < b.min_slack:
        min_sl, extremal = a.min_slack, a.extremal
    elif b.min_slack < a.min_slack:
        min_sl, extremal = b.min_slack, b.extremal
    else:
        min_sl, extremal = a.min_slack, a.extremal + b.extremal
    return Report(a.corpus, a.spec, a.shard_count, a.shard_ids + b.shard_ids,
                  a.count + b.count, a.failures + b.failures, min_sl, extremal,
                  a.records + b.records)


def report_to_csv(report: Report) -> str:
    """One row per checked digraph; requires a sweep with keep_records."""
    if report.count and not report.records:
        raise ValueError("CSV export needs a sweep run with keep_records=True")
    lines = ["adjacency_hex,n,objective,bound_num,bound_den,pass"]
    for rec in report.records:
        lines.append(
            f"{rec.code_hex},{rec.n},{rec.objective},"
            f"{rec.bound.numerator},{rec.bound.denominator},{int(rec.passed)}")
    return "\n".join(lines) + "\n"
