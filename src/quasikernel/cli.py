"""Command line front end.

Subcommands: solve, check, sweep, gen, kp, reduce.  Input digraphs are read
from --input (default stdin) in the line format or, when the payload starts
with '{', the JSON format.  Exit codes: 0 success / bound holds, 2 check or
sweep found bound failures, 1 any error; a closed stdout pipe exits 1
with nothing on stderr.  Identical invocations print
byte-identical output.  The argument parser is built once per process, on
first use; subcommand handlers and solvers are looked up at call time, so
rebinding a module attribute still takes effect.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import harness
from .digraph import (
    Digraph,
    _clip,
    _decimal,
    digraph_to_json,
    enumerate_digraphs,
    loads_json,
    mask_of,
    n_minus_closed,
    parse,
    serialize,
    vertices_of,
)
from .exceptions import (
    BudgetExceededError,
    OracleContractError,
    ParseError,
    PostconditionViolationError,
)
from .generators import FAMILIES, family_usage, make, parse_family
from .reductions import add_source_gadget, c3_blowup, weighted_blowup
from .solvers import (
    find_kernel,
    heavy_independent_set,
    kernel_perfect_number,
    max_large_quasi_kernel,
    max_sharp_quasi_kernel,
    min_quasi_kernel,
)
from .theorems import (
    large_qk_from_partition,
    quasi_kernel_covering,
    small_qk_from_partition,
    small_qk_with_sources,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 1 for usage errors (2 is reserved for bound
    failures) and long tokens clipped in its messages."""

    def error(self, message):
        raise _UsageError(message)

    def parse_args(self, args=None, namespace=None):
        args, extra = self.parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(map(_clip, extra))}")
        return args

    def _check_value(self, action, value):
        # a clipped token is no choice either; its message leaves out the
        # list of choices, which would make it over 200 bytes for --alg
        if action.choices is not None and value not in action.choices and _clip(value) != value:
            raise argparse.ArgumentError(action, f"invalid choice: {_clip(value)!r}")
        super()._check_value(action, value)


def _format_set(mask: int) -> str:
    return "{" + ", ".join(str(v) for v in vertices_of(mask)) + "}"


def _read_digraph(path: str) -> Digraph:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            if isinstance(e.filename, str):
                e.filename = _clip(e.filename)
            raise
    if text.lstrip().startswith("{"):
        return loads_json(text)
    return parse(text)


def _parse_set(text: str, n: int) -> int:
    text = text.strip()
    if not text:
        return 0
    try:
        vertices = [_decimal(tok.strip()) for tok in text.split(",")]
    except ValueError:
        raise ParseError(f"bad vertex list {_clip(text)!r}: expected comma-separated integers") from None
    if max(vertices) >= n:  # before mask_of shifts by a huge index
        raise ValueError(f"vertex set has bits outside 0..{n - 1}: vertex {_clip(str(max(vertices)))}")
    return mask_of(vertices)


def _solved(res):
    return res.witness, res.objective, None


def _sized(mask: int, trace=None):
    return mask, mask.bit_count(), trace


def _partition(d: Digraph):
    return kernel_perfect_number(d)[1]


def _solve_heavy(d: Digraph, args):
    witness = heavy_independent_set(d)
    return witness, n_minus_closed(d, witness).bit_count(), None


def _solve_partition_small(d: Digraph, args):
    trace = small_qk_from_partition(d, _partition(d), check_parts=False)
    return _sized(trace.result, trace.to_json())


# --alg name -> solver returning (witness, objective, trace JSON or None).
# Every solver verifies its witness before returning.  The lambdas look the
# library functions up at call time, so rebinding a module attribute works.
SOLVERS = {
    "min": lambda d, args: _solved(min_quasi_kernel(d)),
    "large": lambda d, args: _solved(max_large_quasi_kernel(d)),
    "sharp": lambda d, args: _solved(max_sharp_quasi_kernel(d)),
    "kernel": lambda d, args: _solved(find_kernel(d)),
    "heavy": _solve_heavy,
    "partition-small": _solve_partition_small,
    "partition-large": lambda d, args: _solved(
        large_qk_from_partition(d, _partition(d), check_parts=False)),
    "partition-sources": lambda d, args: _solved(
        small_qk_with_sources(d, _partition(d), check_parts=False)),
    "covering": lambda d, args: _sized(quasi_kernel_covering(d, _parse_set(args.set, d.n))),
}


def _cmd_solve(args) -> int:
    d = _read_digraph(args.input)
    witness, objective, trace_json = SOLVERS[args.alg](d, args)
    if args.format == "json":
        payload = {
            "witness": None if witness is None else list(vertices_of(witness)),
            "size": 0 if witness is None else witness.bit_count(),
            "objective": objective,
            "verified": witness is not None,
        }
        if trace_json is not None and args.trace:
            payload["trace"] = trace_json
        print(json.dumps(payload, separators=(",", ":")))
    else:
        if witness is None:
            print("witness: none")
        else:
            print(f"witness: {_format_set(witness)}")
            print(f"size: {witness.bit_count()}")
            print(f"objective: {objective}")
            print("verified: true")
        if trace_json is not None and args.trace:
            print(f"trace: {json.dumps(trace_json, separators=(',', ':'))}")
    return 0


def _spec(args) -> harness.ConjectureSpec:
    return harness.ConjectureSpec(args.conjecture, harness.parse_alpha(args.alpha),
                                  sink_free_version=args.conjecture == "small" or args.sink_free)


def _cmd_check(args) -> int:
    d = _read_digraph(args.input)
    rec = harness.check(d, _spec(args))
    if args.format == "json":
        print(json.dumps(rec.to_json(), separators=(",", ":")))
    else:
        print(f"result: {'PASS' if rec.passed else 'FAIL'}")
        print(f"objective: {rec.objective}")
        print(f"bound: {rec.bound.numerator}/{rec.bound.denominator}")
        print(f"witness: {_format_set(rec.witness) if rec.witness is not None else 'none'}")
    return 0 if rec.passed else 2


def _cmd_sweep(args) -> int:
    spec = _spec(args)
    stream = enumerate_digraphs(args.n, sink_free=spec.sink_free_version, canonical=args.canonical)
    corpus = f"labeled:n={args.n}" + (":sink_free" if spec.sink_free_version else "") + (
        ":canonical" if args.canonical else "")
    keep = args.records or args.format == "csv"
    report = harness.sweep(stream, spec, corpus, shard_count=args.shards,
                           shard_index=args.shard, keep_records=keep)
    if args.format == "csv":
        sys.stdout.write(harness.report_to_csv(report))
    else:
        print(json.dumps(report.to_json(), separators=(",", ":")))
    return 0 if not report.failures else 2


def _cmd_gen(args) -> int:
    sys.stdout.write(serialize(make(parse_family(args.family))))
    return 0


def _cmd_kp(args) -> int:
    d = _read_digraph(args.input)
    k, partition = kernel_perfect_number(d)
    if args.format == "json":
        print(json.dumps({"kp": k, "partition": [list(vertices_of(p)) for p in partition.parts]},
                         separators=(",", ":")))
    else:
        print(f"kp: {k}")
        print("partition: " + " | ".join(_format_set(p) for p in partition.parts))
    return 0


def _cmd_reduce(args) -> int:
    d = _read_digraph(args.input)
    kind, sep, param = args.kind.partition(":")
    if kind == "gadget":
        blown, bmap = add_source_gadget(d, _positive_int(param, "gadget"))
    elif kind == "wblowup":
        blown, bmap = weighted_blowup(d, (_positive_int(param, "wblowup"),) * d.n)
    elif kind == "c3blowup":
        if sep:
            raise _UsageError("c3blowup takes no parameter")
        blown, bmap = c3_blowup(d)
    else:
        raise _UsageError(f"unknown reduction kind {_clip(args.kind)!r}")
    if args.format == "json":
        print(json.dumps({"digraph": digraph_to_json(blown), "map": bmap.to_json()}, separators=(",", ":")))
    else:
        for v, block in enumerate(bmap.blocks):
            print(f"# block {v}: {_format_set(block)}")
        sys.stdout.write(serialize(blown))
    return 0


# subcommand -> handler.  The lambdas look the handlers up at call time, as
# SOLVERS does, since the parser that names the subcommands is kept.
_COMMANDS = {
    "solve": lambda args: _cmd_solve(args),
    "check": lambda args: _cmd_check(args),
    "sweep": lambda args: _cmd_sweep(args),
    "gen": lambda args: _cmd_gen(args),
    "kp": lambda args: _cmd_kp(args),
    "reduce": lambda args: _cmd_reduce(args),
}


def _positive_int(token: str, kind: str) -> int:
    try:
        value = _decimal(token)
    except ValueError:
        raise _UsageError(f"{kind} needs an integer parameter, got {_clip(token)!r}") from None
    if value < 1:
        raise _UsageError(f"{kind} parameter must be >= 1, got {value}")
    return value


def _count(token: str) -> int:
    """argparse type for a count or index, with ``_decimal``'s message."""
    try:
        return _decimal(token)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


@functools.cache
def _build_parser() -> _Parser:
    """The ``qk`` parser, built once per process on first use.  It holds no
    handler: ``main`` dispatches on the subcommand through ``_COMMANDS``."""
    parser = _Parser(prog="qk", description="quasi-kernel solvers and conjecture sweeps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one solver on one digraph")
    p.add_argument("--alg", choices=tuple(SOLVERS), required=True)
    p.add_argument("--input", default="-", help="digraph file, '-' for stdin")
    p.add_argument("--set", default="", help="vertex list for --alg covering, e.g. 0,2")
    p.add_argument("--trace", action="store_true", help="emit the partition-small audit trace")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("check", help="check one bound on one digraph")
    p.add_argument("--conjecture", choices=harness.VARIANTS, required=True)
    p.add_argument("--alpha", required=True, help="exact ratio P/Q")
    p.add_argument("--sink-free", action="store_true")
    p.add_argument("--input", default="-")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("sweep", help="check a bound over all digraphs of a given order")
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--conjecture", choices=harness.VARIANTS, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--sink-free", action="store_true")
    p.add_argument("--canonical", action="store_true")
    p.add_argument("--shards", type=_count, default=1)
    p.add_argument("--shard", type=_count, default=0)
    p.add_argument("--records", action="store_true", help="keep one record per digraph")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("gen", help="emit a named family digraph")
    p.add_argument("--family", required=True, help=" ".join(map(family_usage, FAMILIES)))

    p = sub.add_parser("kp", help="kernel-perfect partition number with certificate")
    p.add_argument("--input", default="-")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("reduce", help="apply a gadget or blowup")
    p.add_argument("--kind", required=True, help="gadget:C | wblowup:C | c3blowup")
    p.add_argument("--input", default="-")
    p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a reader that went away shows here, not at exit
        return code
    except BrokenPipeError:
        # Like a filter, stop quietly.  Pointing stdout's descriptor at
        # devnull keeps the interpreter's final flush of what is still
        # buffered from printing an error of its own.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (_UsageError, ParseError, ValueError, BudgetExceededError, OSError) as e:
        print(f"qk: error: {e}", file=sys.stderr)
        return 1
    except (PostconditionViolationError, OracleContractError) as e:
        print(f"qk: verification error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # argparse --help
        code = e.code
        return code if isinstance(code, int) else 0


if __name__ == "__main__":
    sys.exit(main())
