import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from quasikernel import cli, kernel_perfect_number, mask_of, parse
from quasikernel.digraph import _clip, digraph_to_json, serialize, sources_not_sinks
from quasikernel.generators import make, parse_family
from quasikernel.solvers import SolveResult, is_quasi_kernel
from quasikernel.cli import main

from conftest import HOSTILE_JSON, dg


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def c4_file(tmp_path, c4):
    path = tmp_path / "c4.dg"
    path.write_text(serialize(c4))
    return str(path)


@pytest.fixture
def c3_file(tmp_path, c3):
    path = tmp_path / "c3.dg"
    path.write_text(serialize(c3))
    return str(path)


# ---------------------------------------------------------------------------
# pinned runs: tests/qk_pins.json holds one case a line, {"family", "argv",
# "code", "stdout", "stderr"}; the family's digraph (none when null) is qk's
# stdin.  CI replays the same file through the installed qk script.  A case
# refused at its arguments, before qk reads stdin, has a null family: in CI a
# piped-in qk gen could find the pipe closed and add its own error to stderr.

PINS = [json.loads(line) for line in
        (Path(__file__).parent / "qk_pins.json").read_text(encoding="utf-8").splitlines()]


def _pin_id(case):
    """``alg-family-format`` for solve, and ``command-values-family-format``
    for the other commands; ``--set`` lists stay out of the id, a sweep's
    ``--records`` goes in as ``records`` (it changes the report, not the
    values), and a long token is clipped as an error message shows it."""
    argv = case["argv"]
    words = ["records" if w == "--records" else _clip(w) for prev, w in zip(["", *argv], argv)
             if (w == "--records" or not w.startswith("--")) and prev not in ("--format", "--set")]
    if words[0] == "solve":
        del words[0]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    return "-".join([*words, *filter(None, [case["family"]]), fmt])


def run_pin(capsys, monkeypatch, case):
    family = case["family"]
    stdin = "" if family is None else serialize(make(parse_family(family)))
    return run(capsys, case["argv"], stdin=stdin, monkeypatch=monkeypatch)


def test_pin_ids_are_unique():
    assert len({_pin_id(case) for case in PINS}) == len(PINS)


def test_ci_replays_the_pin_table_and_pins_no_output_inline():
    workflow = (Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    assert "tests/qk_pins.json" in workflow
    assert not re.search(r"\)\s+-\s+<<", workflow), "a `diff <(qk ...) - <<EOF` pin belongs in tests/qk_pins.json"
    assert not re.search(r"\bdiff\s+<\(\s*qk\b", workflow), "a `diff <(qk ...)` pin belongs in tests/qk_pins.json"
    assert not re.search(r"\bgrep\s+-qx?\b", workflow), "a `grep -q` of qk output belongs in tests/qk_pins.json"


@pytest.mark.parametrize("case", PINS, ids=map(_pin_id, PINS))
def test_solve_golden(capsys, monkeypatch, case):
    assert run_pin(capsys, monkeypatch, case) == (case["code"], case["stdout"], case["stderr"])


def test_solve_min_text(capsys, c4_file):
    code, out, err = run(capsys, ["solve", "--alg", "min", "--input", c4_file])
    assert code == 0 and err == ""
    assert out == "witness: {0, 2}\nsize: 2\nobjective: 2\nverified: true\n"


def test_solve_min_stdin(capsys, monkeypatch, c4):
    code, out, _ = run(capsys, ["solve", "--alg", "min"],
                       stdin=serialize(c4), monkeypatch=monkeypatch)
    assert code == 0
    assert "witness: {0, 2}" in out


def test_solve_reads_json_payload(capsys, monkeypatch, c4):
    payload = json.dumps(digraph_to_json(c4))
    code, out, _ = run(capsys, ["solve", "--alg", "min"],
                       stdin=payload, monkeypatch=monkeypatch)
    assert code == 0
    assert "witness: {0, 2}" in out


def test_solve_json_format(capsys, c4_file):
    code, out, _ = run(capsys, ["solve", "--alg", "large", "--input", c4_file,
                                "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj == {"witness": [0, 2], "size": 2, "objective": 4, "verified": True}


def test_solve_heavy(capsys, c4_file):
    code, out, _ = run(capsys, ["solve", "--alg", "heavy", "--input", c4_file,
                                "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["verified"] is True and obj["size"] >= 1


def test_covering_rejects_a_huge_index_in_one_short_line(capsys, c4_file):
    code, out, err = run(capsys, ["solve", "--alg", "covering", "--set", "0,100000000",
                                  "--input", c4_file])
    assert (code, out) == (1, "")
    assert err == "qk: error: vertex set has bits outside 0..3: vertex 100000000\n"
    assert len(err.encode()) < 200


@pytest.mark.parametrize("alg", ["partition-large", "partition-sources"])
def test_solve_partition_variants(capsys, c4, c4_file, alg):
    code, out, _ = run(capsys, ["solve", "--alg", alg, "--input", c4_file,
                                "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    mask = sum(1 << v for v in obj["witness"])
    assert is_quasi_kernel(c4, mask)


def test_solve_rejects_unknown_alg(capsys, c4_file):
    code, _, err = run(capsys, ["solve", "--alg", "nope", "--input", c4_file])
    assert code == 1 and err.startswith("qk: error:")


# ---------------------------------------------------------------------------
# check


def test_check_sink_free_spec_rejects_sinky_input(capsys, tmp_path):
    path = tmp_path / "p.dg"
    path.write_text(serialize(dg(2, [(0, 1)])))
    code, _, err = run(capsys, ["check", "--conjecture", "small",
                                "--alpha", "1/2", "--input", str(path)])
    assert code == 1 and err.startswith("qk: error:")
    code, _, err = run(capsys, ["check", "--conjecture", "large", "--sink-free",
                                "--alpha", "1/2", "--input", str(path)])
    assert code == 1 and err.startswith("qk: error:")
    code, _, _ = run(capsys, ["check", "--conjecture", "large",
                              "--alpha", "1/2", "--input", str(path)])
    assert code == 0


def test_check_rejects_decimal_alpha(capsys, c4_file):
    code, _, err = run(capsys, ["check", "--conjecture", "large",
                                "--alpha", "0.5", "--input", c4_file])
    assert code == 1 and err.startswith("qk: error:")


# ---------------------------------------------------------------------------
# sweep


def test_sweep_shards_partition_the_corpus(capsys):
    total = 0
    for shard in range(3):
        code, out, _ = run(capsys, ["sweep", "--n", "3", "--conjecture", "small",
                                    "--alpha", "1/2", "--shards", "3",
                                    "--shard", str(shard)])
        assert code == 0
        total += json.loads(out)["count"]
    assert total == 27


# sha256 of n = 4 sweep reports: a change to how fast a sweep runs must not
# move a byte of what it prints
@pytest.mark.parametrize("args,digest", [
    pytest.param(["small", "--sink-free", "--records"],
                 "22b0d113510c4d0fe47e49a673cb5750efa6b9424694ee9548ae4dc5479268b7", id="small-sink-free-json"),
    pytest.param(["small", "--sink-free", "--format", "csv"],
                 "2e339a47932c2f2a148d4b214bdf094b853f0909bc1c967a214581377f5ba540", id="small-sink-free-csv"),
    pytest.param(["sources", "--records"],
                 "f2f51fd5d83a996ce0b02836a9c23e71676ef91a3c3584e42fa05345fad8e942", id="sources-json"),
    pytest.param(["sources", "--format", "csv"],
                 "104d616f6d73042af4573ad2d3018ef5f6917bd994de883cf68a050389d04115", id="sources-csv"),
    pytest.param(["large", "--records"],
                 "e00ffd7e02e0cfbad6bb63d15804eac6958f8e5bb905ff3c22ee8592e865d857", id="large-json"),
    pytest.param(["large", "--format", "csv"],
                 "344431dc8bd94985153454fa6c06feca93819e2abce18e7b71cd22a38b14761b", id="large-csv"),
    pytest.param(["sharp", "--records"],
                 "6e6b319d8a6d7b0bf692102b99a7d276bd675f3d7ea141e11b543a0f3baa797e", id="sharp-json"),
    pytest.param(["sharp", "--format", "csv"],
                 "d6b6ea01e0f5cea55904455883e7bd0c332fc590c4c1cf395363529fbf77f651", id="sharp-csv"),
    pytest.param(["large", "--canonical", "--records"],
                 "62eceba572298e2ffbb8ef63133865a103c6716d601541ca3432bd68f05f65bf", id="large-canonical-json"),
    pytest.param(["large", "--canonical", "--format", "csv"],
                 "cb05d5e447e58697f4987960af046bb7f520bc75154375da4823a5a1325135b8", id="large-canonical-csv"),
])
def test_sweep_n4_report_bytes_are_pinned(capsys, args, digest):
    code, out, err = run(capsys, ["sweep", "--n", "4", "--alpha", "1/2", "--conjecture", *args])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sweep_rejects_bad_shard(capsys):
    code, _, err = run(capsys, ["sweep", "--n", "2", "--conjecture", "large",
                                "--alpha", "1/2", "--shards", "2", "--shard", "2"])
    assert code == 1 and err.startswith("qk: error:")


def test_sweep_rejects_a_shard_count_beyond_sys_maxsize(capsys):
    count = str(sys.maxsize + 1)
    code, out, err = run(capsys, ["sweep", "--n", "2", "--conjecture", "large",
                                  "--alpha", "1/2", "--shards", count])
    assert (code, out, err) == (1, "", f"qk: error: bad shard 0/{count}\n")


@pytest.mark.parametrize("flag,extra", [
    ("--n", []),
    ("--shards", ["--n", "2"]),
    ("--shard", ["--n", "2"]),
])
def test_sweep_rejects_non_decimal_counts(capsys, flag, extra):
    code, out, err = run(capsys, ["sweep", *extra, flag, "x", "--conjecture", "large",
                                  "--alpha", "1/2"])
    assert code == 1 and out == ""
    assert err == f"qk: error: argument {flag}: 'x' is not a decimal integer\n"
    assert "_decimal" not in err


# ---------------------------------------------------------------------------
# gen / kp / reduce


def test_gen_roundtrip(capsys, c4):
    code, out, _ = run(capsys, ["gen", "--family", "cycle:4"])
    assert code == 0
    assert parse(out) == c4


def test_gen_rejects_bad_family(capsys):
    code, _, err = run(capsys, ["gen", "--family", "moebius:5"])
    assert code == 1 and err.startswith("qk: error:")


C4_TEXT = "4\n0 1\n1 2\n2 3\n3 0\n"


# counts, indices and parameters are ASCII digits only: no other script,
# underscore or sign
@pytest.mark.parametrize("argv,stdin", [
    (["gen", "--family", "cycle:٣"], ""),
    (["gen", "--family", "random:1_0:1/2:1"], ""),
    (["gen", "--family", "random:3:١/2:1"], ""),
    (["gen", "--family", "cycle:+3"], ""),
    (["gen", "--family", "random:5:1/2:-3"], ""),
    (["sweep", "--n", "٢", "--conjecture", "large", "--alpha", "1/2"], ""),
    (["sweep", "--n", "+2", "--conjecture", "large", "--alpha", "1/2"], ""),
    (["sweep", "--n", "2", "--conjecture", "large", "--alpha", "1/2", "--shards", "1_0"], ""),
    (["sweep", "--n", "2", "--conjecture", "large", "--alpha", "1/2", "--shard", "٠"], ""),
    (["solve", "--alg", "covering", "--set", "٠"], C4_TEXT),
    (["solve", "--alg", "covering", "--set", "0,+1"], C4_TEXT),
    (["solve", "--alg", "min"], "٣\n"),
    (["solve", "--alg", "min"], "3\n1 ٢\n"),
])
def test_non_ascii_or_signed_integers_are_errors(capsys, monkeypatch, argv, stdin):
    code, out, err = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
    assert (code, out) == (1, "") and err.startswith("qk: error:")


# An error shows a long input token clipped, so a hostile token cannot flood
# stderr.  5,000 digits are over Python's int conversion limit and fail as
# text; 4,000 digits parse, and the number they give is clipped instead.
DIGITS = "9" * 5000
NUMBER = "2" * 4000


@pytest.mark.parametrize("argv,stdin", [
    pytest.param(["gen", "--family", f"cycle:{DIGITS}"], "", id="family"),
    pytest.param(["check", "--conjecture", "large", "--alpha", f"1/{DIGITS}"], C4_TEXT, id="alpha"),
    pytest.param(["solve", "--alg", "min"], f"{DIGITS}\n", id="header"),
    pytest.param(["solve", "--alg", "min"], f"2\n0 {DIGITS}\n", id="arc-line"),
    pytest.param(["solve", "--alg", "covering", "--set", f"1,x{DIGITS}"], C4_TEXT, id="vertex-list"),
    pytest.param(["reduce", "--kind", f"mystery{DIGITS}"], C4_TEXT, id="reduce-kind"),
    pytest.param(["sweep", "--n", f"x{DIGITS}", "--conjecture", "large", "--alpha", "1/2"], "", id="count"),
    pytest.param(["solve", "--alg", "min"], f'{{"n": 2, "arcs": [["{DIGITS}", 1]]}}', id="json-arc"),
    pytest.param(["gen", "--family", f"edgeless:{NUMBER}"], "", id="order"),
    pytest.param(["gen", "--family", f"circulant:{NUMBER}"], "", id="circulant"),
    pytest.param(["gen", "--family", f"random:3:{NUMBER}/1:0"], "", id="probability"),
    pytest.param(["check", "--conjecture", "large", "--alpha", f"{NUMBER}/1"], C4_TEXT, id="alpha-value"),
    pytest.param(["solve", "--alg", "min"], f"{NUMBER}\n", id="header-value"),
    pytest.param(["solve", "--alg", "min"], f"2\n0 {NUMBER}\n", id="arc-value"),
    pytest.param(["solve", "--alg", "covering", "--set", NUMBER], C4_TEXT, id="vertex-value"),
    pytest.param(["sweep", "--n", "2", "--conjecture", "large", "--alpha", "1/2", "--shards", NUMBER],
                 "", id="shards"),
    pytest.param(["solve", "--alg", "x" * 5000], C4_TEXT, id="alg-choice"),
    pytest.param(["kp", "--format", "z" * 5000], C4_TEXT, id="format-choice"),
    pytest.param(["gen", "--family", "cycle:3", "w" * 5000], "", id="extra-argument"),
    pytest.param(["kp", "--input", "y" * 5000], "", id="input-path"),
])
def test_errors_clip_long_input_tokens(capsys, monkeypatch, argv, stdin):
    code, out, err = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
    assert (code, out) == (1, "")
    assert err.startswith("qk: error: ") and err.count("\n") == 1 and len(err.encode()) < 200
    assert "characters]" in err


# argparse's own messages and the OSError text show a short token whole; how
# argparse lists the choices differs between Python versions
@pytest.mark.parametrize("argv,message", [
    (["solve", "--alg", "bogus"], "argument --alg: invalid choice: 'bogus' (choose from "),
    (["kp", "--format", "zz"], "argument --format: invalid choice: 'zz' (choose from "),
    (["gen", "--family", "cycle:3", "w", "v"], "unrecognized arguments: w v\n"),
    (["kp", "--input", "no/such/file"], "[Errno 2] No such file or directory: 'no/such/file'\n"),
])
def test_errors_show_short_tokens_whole(capsys, monkeypatch, tmp_path, argv, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, argv, stdin="", monkeypatch=monkeypatch)
    assert (code, out) == (1, "")
    assert err.startswith(f"qk: error: {message}") and err.endswith("\n") and err.count("\n") == 1


def test_gen_into_solve_pipeline(capsys, monkeypatch):
    code, out, _ = run(capsys, ["gen", "--family", "circulant:5"])
    assert code == 0
    code, out, _ = run(capsys, ["solve", "--alg", "sharp", "--format", "json"],
                       stdin=out, monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["objective"] == 5


@pytest.mark.parametrize("kind", ["gadget", "gadget:0", "gadget:x", "gadget:١",
                                  "wblowup:-3", "wblowup:+2", "c3blowup:5", "c3blowup:", "shrink:2"])
def test_reduce_rejects_bad_kind(capsys, c3_file, kind):
    code, _, err = run(capsys, ["reduce", "--kind", kind, "--input", c3_file])
    assert code == 1 and err.startswith("qk: error:")


# ---------------------------------------------------------------------------
# shared plumbing


def test_missing_input_file(capsys):
    code, _, err = run(capsys, ["solve", "--alg", "min", "--input", "/no/such/file"])
    assert code == 1 and err.startswith("qk: error:")


def test_malformed_input(capsys, tmp_path):
    bad = tmp_path / "bad.dg"
    bad.write_text("three vertices please\n")
    code, _, err = run(capsys, ["solve", "--alg", "min", "--input", str(bad)])
    assert code == 1 and err.startswith("qk: error:")
    for text in HOSTILE_JSON:
        bad.write_text(text)
        code, out, err = run(capsys, ["kp", "--input", str(bad)])
        assert (code, out) == (1, "") and err.startswith("qk: error: invalid JSON: ")


# the sources theorem's blowups of these have 38 and 66 vertices
@pytest.mark.parametrize("family", ["random:8:1/4:5023932746043588245",
                                    "random:12:1/4:8959837491476124066"])
def test_solve_partition_sources_beyond_blowup_size(capsys, tmp_path, family):
    d = make(parse_family(family))
    path = tmp_path / "d.dg"
    path.write_text(serialize(d))
    code, out, _ = run(capsys, ["solve", "--alg", "partition-sources", "--input", str(path),
                                "--format", "json"])
    assert code == 0
    witness = mask_of(json.loads(out)["witness"])
    k = max(kernel_perfect_number(d)[0], 2)
    assert is_quasi_kernel(d, witness)
    assert k * witness.bit_count() <= k * d.n - sources_not_sinks(d).bit_count()


def test_no_command_is_usage_error(capsys):
    code, _, err = run(capsys, [])
    assert code == 1 and err.startswith("qk: error:")


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == 0
    assert "solve" in out and "sweep" in out


def test_repeat_invocations_are_byte_identical(capsys, c4_file):
    argv = ["solve", "--alg", "partition-small", "--input", c4_file,
            "--trace", "--format", "json"]
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first == second


def test_parser_is_built_once_per_process(capsys, c4_file):
    cli._build_parser.cache_clear()
    for argv in (["solve", "--alg", "min", "--input", c4_file], ["gen", "--family", "cycle:3"],
                 ["kp", "--input", c4_file], ["solve", "--alg", "nope"], ["--help"]):
        run(capsys, argv)
    assert cli._build_parser.cache_info().misses == 1


def _is_small(case):
    """A case on at most seven vertices, or a sweep of order at most 4: an
    order-5 sweep checks up to 2^20 digraphs, seconds a run."""
    argv = case["argv"]
    if argv[0] == "sweep":
        return int(argv[argv.index("--n") + 1]) <= 4
    return case["family"] is None or make(parse_family(case["family"])).n <= 7


SMALL_PINS = list(filter(_is_small, PINS))


@pytest.mark.parametrize("before", [
    ["solve", "--alg", "nope"],  # a usage error inside a subparser
    ["solve", "--alg", "min", "--bogus"],  # one left over after parsing
    ["--help"],
    ["solve", "--help"],
])
def test_usage_errors_and_help_leave_the_parser_as_it_was(capsys, monkeypatch, before):
    assert len(SMALL_PINS) > 40
    for case in SMALL_PINS:
        assert run(capsys, before)[0] in (0, 1)
        got = run_pin(capsys, monkeypatch, case)
        assert got == (case["code"], case["stdout"], case["stderr"]), _pin_id(case)


def test_rebinding_a_solver_or_a_handler_after_the_first_call_takes_effect(capsys, monkeypatch, c4_file):
    argv = ["solve", "--alg", "min", "--input", c4_file, "--format", "json"]
    assert run(capsys, argv)[:2] == (0, '{"witness":[0,2],"size":2,"objective":2,"verified":true}\n')
    monkeypatch.setattr(cli, "min_quasi_kernel", lambda d: SolveResult(0b1, 7, True))
    assert run(capsys, argv)[:2] == (0, '{"witness":[0],"size":1,"objective":7,"verified":true}\n')
    monkeypatch.setattr(cli, "_cmd_solve", lambda args: 5)
    assert run(capsys, argv) == (5, "", "")


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "quasikernel.cli",
                           "gen", "--family", "cycle:3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert parse(proc.stdout).n == 3


def test_closed_stdout_exits_one_without_a_message(capsys, monkeypatch, tmp_path):
    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    path = tmp_path / "stdout"
    with open(path, "wb") as f:
        monkeypatch.setattr("sys.stdout", ClosedPipe(f.fileno()))
        code = main(["gen", "--family", "cycle:3"])
        os.write(f.fileno(), b"late")  # the descriptor now points at devnull
    assert code == 1
    assert capsys.readouterr().err == ""
    assert path.read_bytes() == b""


def test_reader_closing_the_pipe_early_is_not_an_error():
    # 22 kB of output: the first block written meets the closed pipe
    proc = subprocess.Popen([sys.executable, "-m", "quasikernel.cli",
                             "gen", "--family", "random:63:1/1:0"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")
