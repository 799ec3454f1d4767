import ast
import io
import os
import re
import shlex
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import quasikernel
from quasikernel.cli import main

ROOT = Path(__file__).resolve().parents[1]

# the entry points README and its library example use, the exceptions the
# API raises, and Partition, which callers build for the theorems
PUBLIC = [
    "BudgetExceededError", "ConjectureSpec", "Digraph", "OracleContractError", "ParseError",
    "Partition", "PostconditionViolationError", "chromatic_number", "dichromatic_number",
    "enumerate_digraphs", "find_kernel", "heavy_independent_set", "iter_bits",
    "kernel_perfect_number", "large_qk_from_partition", "large_score", "mask_of",
    "max_large_quasi_kernel", "max_sharp_quasi_kernel", "merge_reports", "min_quasi_kernel",
    "parse", "qk_via_ii_oracle", "quasi_kernel_covering", "sharp_score",
    "small_qk_from_partition", "small_qk_with_sources", "sweep", "vertices_of",
]


def test_public_names_resolve_once_and_star_import():
    names = quasikernel.__all__
    assert sorted(names) == PUBLIC
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(quasikernel, n)] == []
    namespace = {}
    exec("from quasikernel import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    exec(blocks[0], {})


def _readme_cli_examples() -> list[tuple[list[list[str]], list[str]]]:
    """Each ``qk`` line of README's shell block as (argv of each pipeline
    stage, the ``# `` lines that follow it, which are its stdout)."""
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    [block] = [b for b in blocks if b.startswith("qk ")]
    examples = []
    for line in block.splitlines():
        if line.startswith("qk "):
            command = re.sub(r"\s+#.*$", "", line).removeprefix("qk ")
            examples.append(([shlex.split(stage) for stage in command.split("| qk ")], []))
        elif line.startswith("# "):
            examples[-1][1].append(line.removeprefix("# "))
    return examples


def test_readme_cli_examples_run(capsys, monkeypatch):
    examples = _readme_cli_examples()
    assert len(examples) == 8
    assert sum(1 for _, shown in examples if shown) == 3
    for stages, shown in examples:
        out = None
        for argv in stages:
            if out is not None:
                monkeypatch.setattr("sys.stdin", io.StringIO(out))
            assert main(argv) == 0, argv
            out = capsys.readouterr().out
        if shown:
            assert out == "".join(f"{line}\n" for line in shown), stages


def _unread_imports(path: Path) -> list[str]:
    """Names a module imports and never reads, other than ``__future__``
    features and the names it lists in ``__all__``."""
    tree = ast.parse(path.read_text(), str(path))
    imported, read, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - read - exported)


def test_every_import_is_read():
    paths = [*ROOT.glob("src/quasikernel/*.py"), *ROOT.glob("tests/*.py")]
    unread = {p.relative_to(ROOT).as_posix(): names for p in paths if (names := _unread_imports(p))}
    assert unread == {}


def _names_and_definitions(path: Path) -> tuple[set[str], list[str]]:
    """The names a module reads or imports, and the functions it defines."""
    tree = ast.parse(path.read_text(), str(path))
    named, defined = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.alias):
            named.add(node.asname or node.name)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.FunctionDef):
            defined.append(node.name)
    return named, defined


def test_order_limit_and_row_union_live_in_one_module():
    scans = {p.relative_to(ROOT).as_posix(): _names_and_definitions(p)
             for p in [*ROOT.glob("src/quasikernel/*.py"), *ROOT.glob("tests/*.py")]}
    assert [p for p, (named, _) in scans.items() if "MAX_VERTICES" in named] == ["src/quasikernel/digraph.py"]
    assert [p for p, (_, defined) in scans.items() for name in defined if name == "_row_union"] == [
        "src/quasikernel/digraph.py"]


def _readers(path: Path) -> dict[str, list[str]]:
    """For each name read as a variable or an attribute, or imported, the
    dotted names of the functions (or ``<module>``) whose bodies do so."""
    found = defaultdict(list)

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if scope == "<module>" else f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Attribute):
                found[child.attr].append(scope)
            elif isinstance(child, ast.Name):
                found[child.id].append(scope)
            elif isinstance(child, ast.alias):
                for name in {child.name, child.asname} - {None}:
                    found[name].append(scope)
            visit(child, scope)

    visit(ast.parse(path.read_text(), str(path)), "<module>")
    return found


def _readers_of(path: Path, name: str) -> list[str]:
    return _readers(path).get(name, [])


def test_unchecked_construction_stays_in_the_stream():
    # Digraph._from_checked_rows skips the row checks, so only the stream,
    # whose rows come from tables it checked once each, may call it; every
    # input reader and construction keeps the validating constructor
    paths = [*ROOT.glob("src/quasikernel/*.py"), *ROOT.glob("tests/*.py"), *ROOT.glob("perfbench/*.py")]
    readers = {p.relative_to(ROOT).as_posix(): scopes for p in paths
               if (scopes := _readers_of(p, "_from_checked_rows"))}
    assert readers == {"src/quasikernel/digraph.py": ["enumerate_digraphs"]}


def test_induced_copies_stay_where_a_table_or_a_contract_needs_them():
    # the solvers and constructions work on D[S] in D's own labels, and rule
    # 3's table is indexed by rank inside S; only the oracle contract, which
    # takes a Digraph, needs the relabelled copy
    paths = sorted(ROOT.glob("src/quasikernel/*.py"))
    readers = {p.name: scopes for p in paths if (scopes := _readers_of(p, "induced"))}
    assert readers == {"reductions.py": ["<module>", "qk_via_ii_oracle"]}


def test_one_rank_table_relabels_every_vertex_set():
    # _ranks is the one encoding of "label S by rank": the copy's rows and
    # rule 3's table read it, and no second mapping between the labels of D
    # and of D[S] is defined
    paths = sorted(ROOT.glob("src/quasikernel/*.py"))
    readers = {p.name: scopes for p in paths if (scopes := _readers_of(p, "_ranks"))}
    assert readers == {"digraph.py": ["induced"], "solvers.py": ["<module>", "_kernel_perfect_through"]}
    defined = {p.name: _names_and_definitions(p)[1] for p in paths}
    assert [(name, fn) for name, fns in defined.items() for fn in fns
            if fn in ("compress_set", "expand_set")] == []


def test_every_definition_is_read_or_exported():
    # a module-level def or class that only tests call is dead API: tests
    # call its real twin instead.  A function's reads of itself do not count
    sources = [*ROOT.glob("src/quasikernel/*.py"), *ROOT.glob("perfbench/*.py")]
    reads = {p: _readers(p) for p in sources}
    unread = []
    for path in ROOT.glob("src/quasikernel/*.py"):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in quasikernel.__all__:
                continue
            if not any(p != path or scope != node.name and not scope.startswith(f"{node.name}.")
                       for p in sources for scope in reads[p].get(node.name, [])):
                unread.append(f"{path.name}: {node.name}")
    assert unread == []


PLANTED_FAILURES = """\
import warnings

from hypothesis import given, strategies as st

import quasikernel.solvers


def test_deprecation_from_the_package():
    warnings.warn_explicit("planted", DeprecationWarning, quasikernel.solvers.__file__, 1,
                           module="quasikernel.solvers")


@given(st.integers(min_value=0, max_value=3))
def test_falsified(x):
    assert x < 2
"""


def test_warnings_stay_errors_and_hypothesis_reports_survive(tmp_path):
    # conftest pre-imports hypothesis's patching module with one third-party
    # DeprecationWarning ignored; under -W error a DeprecationWarning raised
    # in quasikernel's code must still fail its test, and a failing @given
    # test must still print its falsifying example
    (tmp_path / "test_planted.py").write_text(PLANTED_FAILURES)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-W", "error", "-p", "conftest",
                          "-p", "no:cacheprovider", "test_planted.py"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "DeprecationWarning: planted" in out
    assert "Falsifying example: test_falsified(" in out
    assert "2 failed" in out
