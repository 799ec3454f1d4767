import hashlib
import io
import json
import subprocess
import sys

import pytest

from quasikernel import kernel_perfect_number, mask_of, parse
from quasikernel.digraph import digraph_to_json, serialize, sources_not_sinks
from quasikernel.generators import make, parse_family
from quasikernel.solvers import is_quasi_kernel
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
# solve


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


def test_solve_kernel_present_and_absent(capsys, c4_file, c3_file):
    code, out, _ = run(capsys, ["solve", "--alg", "kernel", "--input", c4_file])
    assert code == 0 and "witness: {0, 2}" in out

    code, out, _ = run(capsys, ["solve", "--alg", "kernel", "--input", c3_file])
    assert code == 0
    assert out == "witness: none\n"

    code, out, _ = run(capsys, ["solve", "--alg", "kernel", "--input", c3_file,
                                "--format", "json"])
    assert json.loads(out) == {"witness": None, "size": 0, "objective": 0,
                               "verified": False}


def test_solve_heavy(capsys, c4_file):
    code, out, _ = run(capsys, ["solve", "--alg", "heavy", "--input", c4_file,
                                "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["verified"] is True and obj["size"] >= 1


def test_solve_covering(capsys, c4_file, c3_file):
    code, out, _ = run(capsys, ["solve", "--alg", "covering", "--set", "0,1",
                                "--input", c4_file, "--format", "json"])
    assert code == 0
    assert json.loads(out)["verified"] is True
    # the full triangle is not kernel-perfect, so the seed is rejected
    code, _, err = run(capsys, ["solve", "--alg", "covering", "--set", "0,1,2",
                                "--input", c3_file])
    assert code == 1 and err.startswith("qk: error:")


def test_covering_rejects_a_huge_index_in_one_short_line(capsys, c4_file):
    code, out, err = run(capsys, ["solve", "--alg", "covering", "--set", "0,100000000",
                                  "--input", c4_file])
    assert (code, out) == (1, "")
    assert err == "qk: error: vertex set has bits outside 0..3: vertex 100000000\n"
    assert len(err.encode()) < 200


def test_solve_partition_small_trace(capsys, c4_file):
    code, out, _ = run(capsys, ["solve", "--alg", "partition-small",
                                "--input", c4_file, "--trace"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("witness: {")
    trace_line = [l for l in lines if l.startswith("trace: ")]
    assert len(trace_line) == 1
    trace = json.loads(trace_line[0][len("trace: "):])
    assert trace["branch"].startswith(("part:", "otherwise"))
    assert sorted(trace) == ["branch", "core", "kernel", "refined_parts",
                             "remainder", "result"]

    code, out, _ = run(capsys, ["solve", "--alg", "partition-small",
                                "--input", c4_file, "--trace", "--format", "json"])
    assert json.loads(out)["trace"]["result"] == [0, 2]


def test_solve_partition_small_needs_sink_free(capsys, tmp_path):
    path = tmp_path / "p.dg"
    path.write_text(serialize(make(parse_family("path:3"))))
    code, _, err = run(capsys, ["solve", "--alg", "partition-small",
                                "--input", str(path)])
    assert code == 1 and err.startswith("qk: error:")


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
# solve: exact stdout and exit code of every --alg

GOLDEN_FLAGS = {"covering": ["--set", "0,1"], "partition-small": ["--trace"]}

# (alg, family, format, exit code, stdout); random:7 has a sink, which
# partition-small rejects, and the tournament has no kernel
SOLVE_GOLDEN = [
    ("min", "cycle:4", "text", 0,
     'witness: {0, 2}\nsize: 2\nobjective: 2\nverified: true\n'),
    ("min", "cycle:4", "json", 0,
     '{"witness":[0,2],"size":2,"objective":2,"verified":true}\n'),
    ("min", "random:7:1/3:5", "text", 0,
     'witness: {0, 2}\nsize: 2\nobjective: 2\nverified: true\n'),
    ("min", "random:7:1/3:5", "json", 0,
     '{"witness":[0,2],"size":2,"objective":2,"verified":true}\n'),
    ("min", "random_tournament:6:3", "text", 0,
     'witness: {0}\nsize: 1\nobjective: 1\nverified: true\n'),
    ("min", "random_tournament:6:3", "json", 0,
     '{"witness":[0],"size":1,"objective":1,"verified":true}\n'),
    ("large", "cycle:4", "text", 0,
     'witness: {0, 2}\nsize: 2\nobjective: 4\nverified: true\n'),
    ("large", "cycle:4", "json", 0,
     '{"witness":[0,2],"size":2,"objective":4,"verified":true}\n'),
    ("large", "random:7:1/3:5", "text", 0,
     'witness: {0, 1, 2}\nsize: 3\nobjective: 7\nverified: true\n'),
    ("large", "random:7:1/3:5", "json", 0,
     '{"witness":[0,1,2],"size":3,"objective":7,"verified":true}\n'),
    ("large", "random_tournament:6:3", "text", 0,
     'witness: {0}\nsize: 1\nobjective: 5\nverified: true\n'),
    ("large", "random_tournament:6:3", "json", 0,
     '{"witness":[0],"size":1,"objective":5,"verified":true}\n'),
    # no kernel on the first two, so large runs the maximal-independent-set
    # search; the third has kernels, and large takes the least kernel mask
    ("large", "random_tournament:16:1", "text", 0,
     'witness: {5}\nsize: 1\nobjective: 12\nverified: true\n'),
    ("large", "random_tournament:16:1", "json", 0,
     '{"witness":[5],"size":1,"objective":12,"verified":true}\n'),
    ("large", "cycle:15", "text", 0,
     'witness: {0, 2, 4, 6, 8, 10, 12}\nsize: 7\nobjective: 14\nverified: true\n'),
    ("large", "cycle:15", "json", 0,
     '{"witness":[0,2,4,6,8,10,12],"size":7,"objective":14,"verified":true}\n'),
    ("large", "random:16:1/4:3", "text", 0,
     'witness: {1, 5, 6, 7, 10}\nsize: 5\nobjective: 16\nverified: true\n'),
    ("large", "random:16:1/4:3", "json", 0,
     '{"witness":[1,5,6,7,10],"size":5,"objective":16,"verified":true}\n'),
    ("sharp", "cycle:4", "text", 0,
     'witness: {0, 2}\nsize: 2\nobjective: 6\nverified: true\n'),
    ("sharp", "cycle:4", "json", 0,
     '{"witness":[0,2],"size":2,"objective":6,"verified":true}\n'),
    ("sharp", "random:7:1/3:5", "text", 0,
     'witness: {0, 1, 2}\nsize: 3\nobjective: 11\nverified: true\n'),
    ("sharp", "random:7:1/3:5", "json", 0,
     '{"witness":[0,1,2],"size":3,"objective":11,"verified":true}\n'),
    ("sharp", "random_tournament:6:3", "text", 0,
     'witness: {0}\nsize: 1\nobjective: 9\nverified: true\n'),
    ("sharp", "random_tournament:6:3", "json", 0,
     '{"witness":[0],"size":1,"objective":9,"verified":true}\n'),
    ("kernel", "cycle:4", "text", 0,
     'witness: {0, 2}\nsize: 2\nobjective: 2\nverified: true\n'),
    ("kernel", "cycle:4", "json", 0,
     '{"witness":[0,2],"size":2,"objective":2,"verified":true}\n'),
    ("kernel", "cycle:3", "text", 0,
     'witness: none\n'),
    ("kernel", "cycle:3", "json", 0,
     '{"witness":null,"size":0,"objective":0,"verified":false}\n'),
    ("kernel", "random:7:1/3:5", "text", 0,
     'witness: {0, 1, 2}\nsize: 3\nobjective: 3\nverified: true\n'),
    ("kernel", "random:7:1/3:5", "json", 0,
     '{"witness":[0,1,2],"size":3,"objective":3,"verified":true}\n'),
    ("kernel", "random_tournament:6:3", "text", 0,
     'witness: none\n'),
    ("kernel", "random_tournament:6:3", "json", 0,
     '{"witness":null,"size":0,"objective":0,"verified":false}\n'),
    ("kernel", "random_tournament:16:1", "text", 0,
     'witness: none\n'),
    ("kernel", "random_tournament:16:1", "json", 0,
     '{"witness":null,"size":0,"objective":0,"verified":false}\n'),
    ("kernel", "cycle:15", "text", 0,
     'witness: none\n'),
    ("kernel", "cycle:15", "json", 0,
     '{"witness":null,"size":0,"objective":0,"verified":false}\n'),
    # the least kernel by size; large above takes the least by mask
    ("kernel", "random:16:1/4:3", "text", 0,
     'witness: {4, 5, 8, 11}\nsize: 4\nobjective: 4\nverified: true\n'),
    ("kernel", "random:16:1/4:3", "json", 0,
     '{"witness":[4,5,8,11],"size":4,"objective":4,"verified":true}\n'),
    ("heavy", "cycle:4", "text", 0,
     'witness: {0, 2}\nsize: 2\nobjective: 4\nverified: true\n'),
    ("heavy", "cycle:4", "json", 0,
     '{"witness":[0,2],"size":2,"objective":4,"verified":true}\n'),
    ("heavy", "random:7:1/3:5", "text", 0,
     'witness: {1, 3}\nsize: 2\nobjective: 6\nverified: true\n'),
    ("heavy", "random:7:1/3:5", "json", 0,
     '{"witness":[1,3],"size":2,"objective":6,"verified":true}\n'),
    ("heavy", "random_tournament:6:3", "text", 0,
     'witness: {0}\nsize: 1\nobjective: 5\nverified: true\n'),
    ("heavy", "random_tournament:6:3", "json", 0,
     '{"witness":[0],"size":1,"objective":5,"verified":true}\n'),
    ("partition-small", "cycle:4", "text", 0,
     'witness: {0, 2}\nsize: 2\nobjective: 2\nverified: true\ntrace: {"kernel":[0,2],"core":[0,2],"refined_parts":[[],[0,1,2,3],[]],"remainder":[],"branch":"part:2","result":[0,2]}\n'),
    ("partition-small", "cycle:4", "json", 0,
     '{"witness":[0,2],"size":2,"objective":2,"verified":true,"trace":{"kernel":[0,2],"core":[0,2],"refined_parts":[[],[0,1,2,3],[]],"remainder":[],"branch":"part:2","result":[0,2]}}\n'),
    ("partition-small", "random:7:1/3:5", "text", 1,
     ''),
    ("partition-small", "random:7:1/3:5", "json", 1,
     ''),
    ("partition-small", "random_tournament:6:3", "text", 0,
     'witness: {0}\nsize: 1\nobjective: 1\nverified: true\ntrace: {"kernel":[0],"core":[0],"refined_parts":[[],[0,1,2,3,4],[5]],"remainder":[5],"branch":"otherwise","result":[0]}\n'),
    ("partition-small", "random_tournament:6:3", "json", 0,
     '{"witness":[0],"size":1,"objective":1,"verified":true,"trace":{"kernel":[0],"core":[0],"refined_parts":[[],[0,1,2,3,4],[5]],"remainder":[5],"branch":"otherwise","result":[0]}}\n'),
    ("partition-large", "cycle:4", "text", 0,
     'witness: {0, 2}\nsize: 2\nobjective: 4\nverified: true\n'),
    ("partition-large", "cycle:4", "json", 0,
     '{"witness":[0,2],"size":2,"objective":4,"verified":true}\n'),
    ("partition-large", "random:7:1/3:5", "text", 0,
     'witness: {0, 1, 2}\nsize: 3\nobjective: 7\nverified: true\n'),
    ("partition-large", "random:7:1/3:5", "json", 0,
     '{"witness":[0,1,2],"size":3,"objective":7,"verified":true}\n'),
    ("partition-large", "random_tournament:6:3", "text", 0,
     'witness: {0}\nsize: 1\nobjective: 5\nverified: true\n'),
    ("partition-large", "random_tournament:6:3", "json", 0,
     '{"witness":[0],"size":1,"objective":5,"verified":true}\n'),
    ("partition-sources", "cycle:4", "text", 0,
     'witness: {0, 2}\nsize: 2\nobjective: 2\nverified: true\n'),
    ("partition-sources", "cycle:4", "json", 0,
     '{"witness":[0,2],"size":2,"objective":2,"verified":true}\n'),
    ("partition-sources", "random:7:1/3:5", "text", 0,
     'witness: {0, 1, 2}\nsize: 3\nobjective: 3\nverified: true\n'),
    ("partition-sources", "random:7:1/3:5", "json", 0,
     '{"witness":[0,1,2],"size":3,"objective":3,"verified":true}\n'),
    ("partition-sources", "random_tournament:6:3", "text", 0,
     'witness: {0}\nsize: 1\nobjective: 1\nverified: true\n'),
    ("partition-sources", "random_tournament:6:3", "json", 0,
     '{"witness":[0],"size":1,"objective":1,"verified":true}\n'),
    ("covering", "cycle:4", "text", 0,
     'witness: {0, 2}\nsize: 2\nobjective: 2\nverified: true\n'),
    ("covering", "cycle:4", "json", 0,
     '{"witness":[0,2],"size":2,"objective":2,"verified":true}\n'),
    ("covering", "random:7:1/3:5", "text", 0,
     'witness: {0, 1, 2}\nsize: 3\nobjective: 3\nverified: true\n'),
    ("covering", "random:7:1/3:5", "json", 0,
     '{"witness":[0,1,2],"size":3,"objective":3,"verified":true}\n'),
    ("covering", "random_tournament:6:3", "text", 0,
     'witness: {5}\nsize: 1\nobjective: 1\nverified: true\n'),
    ("covering", "random_tournament:6:3", "json", 0,
     '{"witness":[5],"size":1,"objective":1,"verified":true}\n'),
]


@pytest.mark.parametrize("alg,family,fmt,code,stdout", SOLVE_GOLDEN,
                         ids=[f"{a}-{f}-{m}" for a, f, m, _, _ in SOLVE_GOLDEN])
def test_solve_golden(capsys, tmp_path, alg, family, fmt, code, stdout):
    path = tmp_path / "d.dg"
    path.write_text(serialize(make(parse_family(family))))
    got_code, out, _ = run(capsys, ["solve", "--alg", alg, "--input", str(path),
                                    "--format", fmt] + GOLDEN_FLAGS.get(alg, []))
    assert (got_code, out) == (code, stdout)


# ---------------------------------------------------------------------------
# check


def test_check_pass_text(capsys, c4_file):
    code, out, _ = run(capsys, ["check", "--conjecture", "small",
                                "--alpha", "1/2", "--input", c4_file])
    assert code == 0
    assert out == "result: PASS\nobjective: 2\nbound: 2/1\nwitness: {0, 2}\n"


def test_check_fail_exits_two(capsys, c4_file):
    code, out, _ = run(capsys, ["check", "--conjecture", "small",
                                "--alpha", "1/1", "--input", c4_file])
    assert code == 2
    assert out.startswith("result: FAIL")


def test_check_json(capsys, c4_file):
    code, out, _ = run(capsys, ["check", "--conjecture", "sharp",
                                "--alpha", "1/2", "--input", c4_file,
                                "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True and obj["n"] == 4


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


def test_sweep_small_n3(capsys):
    code, out, _ = run(capsys, ["sweep", "--n", "3", "--conjecture", "small",
                                "--alpha", "1/2"])
    assert code == 0
    obj = json.loads(out)
    assert obj["corpus"] == "labeled:n=3:sink_free"
    assert obj["count"] == 27
    assert obj["failures"] == []
    assert obj["min_slack"] == "1/6"


def test_sweep_failures_exit_two(capsys):
    code, out, _ = run(capsys, ["sweep", "--n", "3", "--conjecture", "small",
                                "--alpha", "1/1"])
    assert code == 2
    assert json.loads(out)["failures"]


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, ["sweep", "--n", "2", "--conjecture", "large",
                                "--alpha", "1/2", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "adjacency_hex,n,objective,bound_num,bound_den,pass"
    assert len(lines) == 5  # four labeled digraphs on two vertices
    assert all(line.endswith(",1") for line in lines[1:])


def test_sweep_shards_partition_the_corpus(capsys):
    total = 0
    for shard in range(3):
        code, out, _ = run(capsys, ["sweep", "--n", "3", "--conjecture", "small",
                                    "--alpha", "1/2", "--shards", "3",
                                    "--shard", str(shard)])
        assert code == 0
        total += json.loads(out)["count"]
    assert total == 27


def test_sweep_canonical(capsys):
    code, out, _ = run(capsys, ["sweep", "--n", "3", "--conjecture", "large",
                                "--alpha", "1/3", "--canonical"])
    assert code == 0
    obj = json.loads(out)
    assert obj["corpus"] == "labeled:n=3:canonical"
    assert obj["count"] == 16


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


def test_kp_text_and_json(capsys, c3_file):
    code, out, _ = run(capsys, ["kp", "--input", c3_file])
    assert code == 0
    assert out == "kp: 2\npartition: {0, 1} | {2}\n"
    code, out, _ = run(capsys, ["kp", "--input", c3_file, "--format", "json"])
    assert json.loads(out) == {"kp": 2, "partition": [[0, 1], [2]]}


def test_reduce_c3blowup_text(capsys, c3_file):
    code, out, _ = run(capsys, ["reduce", "--kind", "c3blowup",
                                "--input", c3_file])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# block 0: {0, 1, 2}"
    blown = parse(out)  # comment lines are legal in the digraph format
    assert blown.n == 9


def test_reduce_gadget_json(capsys, c3_file):
    code, out, _ = run(capsys, ["reduce", "--kind", "gadget:2",
                                "--input", c3_file, "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["digraph"]["n"] == 9
    assert obj["map"]["kind"] == "source-gadget"
    assert obj["map"]["blocks"][0] == [0, 3, 4]


def test_reduce_wblowup(capsys, c3_file):
    code, out, _ = run(capsys, ["reduce", "--kind", "wblowup:2",
                                "--input", c3_file, "--format", "json"])
    assert code == 0
    assert json.loads(out)["digraph"]["n"] == 6


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


def test_solve_min_over_budget(capsys, tmp_path):
    path = tmp_path / "edgeless33.dg"
    path.write_text(serialize(make(parse_family("edgeless:33"))))
    code, out, err = run(capsys, ["solve", "--alg", "min", "--input", str(path)])
    assert (code, out) == (1, "")
    assert err == "qk: error: minimum quasi-kernel search budget is n <= 32\n"


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


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "quasikernel.cli",
                           "gen", "--family", "cycle:3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert parse(proc.stdout).n == 3
