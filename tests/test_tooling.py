"""Guards on the benchmark's view of the package.

The benchmark tracer in perfbench/tracing.py wraps library functions by
module path and attribute name, and the workloads in perfbench/workloads.py
read `verify`'s constants table; the benchmark's own self-tests run outside
this suite.  Here the tracer module is loaded read-only, without touching its
state, and the workloads module is only parsed, so a renamed or deleted name
fails a test in this suite too.  Every name a package module imports is
used there or is a tracer call site, and importing the library leaves
multiprocessing out.  The per-cell search table of scripts/search_nodes.py
gets a smoke run and pinned counts, and the garbage-collector probe
scripts/gc_probe.py and the per-phase table of scripts/extend_cells.py a
smoke run.  The frontends state each rule once: every CLI option
parses into the `RunConfig` field of its name, `VerifyScope` takes its
settings from fields of the same names, and `verify` catches budget
exhaustion in one helper.  A search limit and its running count travel
together, as one `NodeBudget`, and a census record holds its cotype census
as its one count.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path
from dataclasses import fields
from types import ModuleType, SimpleNamespace

import subring_census
from subring_census import enumeration
from subring_census.cli import RunConfig, build_parser
from subring_census.counting import CensusRecord, CountLedger, multiplicative_extend
from subring_census.enumeration import (
    EnumSpec,
    enumerate_irreducible,
    enumerate_subrings,
    visit_subrings,
)
from subring_census.verify import VerifyScope

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
TRACING = PERFBENCH / "tracing.py"
SRC = Path(subring_census.__file__).resolve().parent
WORKLOADS = PERFBENCH / "workloads.py"


def _load_tracing():
    # compiled from its text, so no bytecode cache is written next to it
    module = ModuleType("perfbench_tracing_guard")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_call_sites_resolve():
    tracing = _load_tracing()
    layers = {path.split(".")[0] for path, *_ in tracing.CALL_SITES}
    lib = SimpleNamespace(
        **{name: importlib.import_module(f"subring_census.{name}") for name in layers}
    )
    missing = [
        f"{path}.{attr}"
        for path, attr, *_ in tracing.CALL_SITES
        if not callable(getattr(tracing._site(lib, path), attr, None))
    ]
    assert missing == []


def test_src_imports_are_used():
    # a name imported only for the tracer to wrap is one of its call sites
    call_sites = {(path, attr) for path, attr, *_ in _load_tracing().CALL_SITES}
    unused = []
    for module in sorted(SRC.glob("*.py")):
        if module.name == "__init__.py":
            continue
        tree = ast.parse(module.read_text(), str(module))
        imported = [
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{module.stem}.{name}"
            for name in imported
            if name not in used and (module.stem, name) not in call_sites
        ]
    assert unused == []


def test_sieve_names_outside_call_sites_resolve():
    # Tracer.installed also wraps analytics.iter_primes and analytics._sieve,
    # and the constants workload empties analytics._sieve_cache before a pass
    text = TRACING.read_text()
    assert '("analytics", "iter_primes"' in text and '("analytics", "_sieve"' in text
    analytics = importlib.import_module("subring_census.analytics")
    assert callable(analytics.iter_primes) and callable(analytics._sieve)
    assert isinstance(analytics._sieve_cache, bytearray)


def test_cli_dests_are_run_config_fields():
    # config_from_args passes every parsed dest to RunConfig by name
    (commands,) = build_parser()._subparsers._group_actions
    dests = {commands.dest} | {
        action.dest
        for sp in commands.choices.values()
        for action in sp._actions
        if action.dest != "help"
    }
    assert dests - {f.name for f in fields(RunConfig)} == set()


def test_verify_scope_settings_are_run_config_fields():
    # cmd_verify builds the scope from the RunConfig fields of the same names
    settings = {f.name for f in fields(VerifyScope)} - {"ledger"}
    assert settings - {f.name for f in fields(RunConfig)} == set()


def test_verify_catches_budget_exhaustion_in_one_helper():
    tree = ast.parse((SRC / "verify.py").read_text())
    catching = {"BudgetExceededError", "RuntimeError", "Exception", "BaseException"}
    handlers = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
        and (node.type is None or catching & {getattr(n, "id", "") for n in ast.walk(node.type)})
    ]
    (helper,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_check"]
    assert len(handlers) == 1 and handlers[0] in list(ast.walk(helper))


def test_search_limit_travels_only_as_a_node_budget():
    # a limit passed apart from its running count could be checked, or
    # shared, differently at each entry point
    for fn in (
        visit_subrings,
        enumerate_subrings,
        enumerate_irreducible,
        CountLedger.census,
        multiplicative_extend,
    ):
        params = inspect.signature(fn).parameters
        assert "budget" in params and not {"node_budget", "counter"} & set(params), fn
    assert not {"node_budget", "counter"} & {f.name for f in fields(EnumSpec)}
    assert not hasattr(enumeration, "check_search")


def test_census_record_holds_only_the_cotype_census():
    # f, g and h are computed from the cotypes when a record is built; a
    # stored count beside them could disagree with them
    assert [f.name for f in fields(CensusRecord) if f.init] == [
        "n", "p", "e", "cotype_counts", "mode", "rules", "engine_version"
    ]
    assert not hasattr(CensusRecord, "validate")


def _class_constant(path: Path, cls: str, name: str):
    """The literal assigned to name in the body of class cls, read from source."""
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for stmt in node.body:
                targets = getattr(stmt, "targets", ())
                if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                    return ast.literal_eval(stmt.value)
    raise AssertionError(f"no literal {cls}.{name} in {path.name}")


def test_constants_workload_ids_resolve():
    # the constants-small workload unpacks QUOTED_CONSTANTS[id] as a
    # (value, tolerance, kind) triple and calls compute_constant(id)
    verify = importlib.import_module("subring_census.verify")
    analytics = importlib.import_module("subring_census.analytics")
    ids = _class_constant(WORKLOADS, "ConstantsSmall", "IDS")
    assert ids
    for name in ids:
        quoted, tol, kind = verify.QUOTED_CONSTANTS[name]
        assert isinstance(quoted, float) and isinstance(tol, float) and kind in ("abs", "rel")
        assert isinstance(verify.compute_constant(name), analytics.BoundedValue), name


def test_search_nodes_script_counts_the_cell():
    src = str(Path(subring_census.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "search_nodes.py"), "4,2,6", "--diagonals"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    (cell,) = json.loads(done.stdout.splitlines()[-1])
    assert (cell["m"], cell["p"], cell["j"]) == (4, 2, 6)
    assert cell["matrices"] == len(enumerate_irreducible(4, 2, 6))
    assert cell["nodes"] == sum(d["nodes"] for d in cell["diagonals"]) > cell["matrices"]
    # one block-entry test per support-block entry reached with its
    # prefix placed, counted by the script's wrapper
    assert cell["entry_tests"] == sum(d["entry_tests"] for d in cell["diagonals"]) == 65
    assert cell["us_per_node"] > 0


def test_search_nodes_script_pins():
    # nodes, entry tests and matrices of cells up to G_7: a faster search
    # must visit exactly the same tree
    src = str(Path(subring_census.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    pins = {
        (4, 2, 10): (1945, 447, 767),
        (4, 3, 7): (947, 198, 382),
        (5, 2, 9): (9211, 3357, 2955),
        (6, 2, 8): (9709, 4634, 2555),
        (7, 2, 8): (6711, 4086, 1323),
    }
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "search_nodes.py")]
        + [",".join(map(str, cell)) for cell in pins],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    got = {
        (c["m"], c["p"], c["j"]): (c["nodes"], c["entry_tests"], c["matrices"])
        for c in json.loads(done.stdout.splitlines()[-1])
    }
    assert got == pins


def test_closed_form_audit_script_prints_its_summary():
    src = str(Path(subring_census.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "closed_form_audit.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == [
        "28 cells differ from the displayed closed forms",
        "0 cells differ from formula_h",
    ]


def test_gc_probe_script_reports_one_pass():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "gc_probe.py"), "--passes", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["passes"] == 1
    assert len(report["per_pass"]["collections"]) == 3


def test_extend_cells_script_splits_a_small_extension():
    src = str(Path(subring_census.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "extend_cells.py"), "3", "100"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "35 cells"  # the prime powers up to 100
    report = json.loads(done.stdout.splitlines()[-1])
    assert (report["n"], report["limit"], report["cells"]) == (3, 100, 35)
    phases = {row["phase"]: row for row in report["phases"]}
    assert list(phases) == ["search", "build", "append", "read", "rest"]
    # every cell is searched, built and appended cold; the replay only reads
    for name in ("search", "build", "append"):
        assert phases[name]["cold_ms"] > 0 and phases[name]["replay_ms"] == 0
    assert phases["read"]["replay_ms"] > 0
    assert all(row["us_per_cell"] >= 0 for name, row in phases.items() if name != "rest")
    # one write per census that searched (a G_3 block at each of 4, 8, 9, 16,
    # 25, 27, 32, 49, 64 and 81), and one for the prime cells held after 81
    assert report["writes"] == {"cold": 11, "replay": 0}
    assert done.stdout.splitlines()[-2] == "11 log writes cold, 0 in the replay"


def test_library_import_leaves_multiprocessing_out():
    # no library module imports multiprocessing; every search runs serially
    src = str(Path(subring_census.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, subring_census.counting, subring_census.verify; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
