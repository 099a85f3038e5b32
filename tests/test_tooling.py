"""Repository hygiene: every import in the package is used, the event
kinds the machine emits and the kinds its observers read agree, the
committed script still runs, every name the benchmark wraps exists, and
every committed benchmark record holds the numbers BENCHMARK.json asks
for."""

import ast
import dataclasses
import functools
import importlib.util
import inspect
import json
import textwrap
from collections.abc import Iterable
from pathlib import Path

import pytest

import scvm.cli
import scvm.driver
import scvm.machine
from scvm.asm import assemble
from scvm.checkers import (
    CHECKER_ORDER,
    CheckerRegistry,
    FmtChecker,
    LocksetChecker,
    NullChecker,
    UserChecker,
    make_checkers,
)
from scvm.machine import (
    EVENT_KINDS,
    HEAP_BASE,
    SYS_LOCK,
    Event,
    Machine,
    MachineState,
    Scheduler,
    ThreadContext,
    load,
)
from scvm.shadow import ShadowState

ROOT = Path(__file__).resolve().parent.parent
# __init__.py is exempt: its imports are the package's re-exports.
MODULES = sorted(p for p in (ROOT / "src" / "scvm").glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names a module imports but never mentions again."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    src = "import os, sys\nfrom a.b import c as d, e\nfrom __future__ import annotations\nprint(sys, e)"
    assert unused_imports(src) == ["d", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str) -> set:
    """The top-level names of the modules a module imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_imported_modules_are_found():
    src = "import os.path, sys as s\nfrom tempfile import mkstemp\nfrom .cli import main"
    assert imported_modules(src) == {"os", "sys", "tempfile"}


def test_no_module_imports_tempfile():
    # Every trace goes to stdout as it is made; nothing waits on disk.
    for path in (ROOT / "src" / "scvm").glob("*.py"):
        assert "tempfile" not in imported_modules(path.read_text()), path.name


def memos(namespace: dict) -> dict:
    """name -> each functools LRU wrapper in a namespace or in a class
    defined there."""
    found = {}
    for name, obj in namespace.items():
        if isinstance(obj, type):
            found.update(memos({f"{name}.{k}": v for k, v in vars(obj).items()}))
        elif isinstance(obj, functools._lru_cache_wrapper):
            found[name] = obj
    return found


def test_memos_are_found():
    class C:
        m = functools.cache(abs)

    ns = {"f": functools.lru_cache(maxsize=4)(abs), "C": C, "g": abs, "n": 1}
    assert set(memos(ns)) == {"f", "C.m"}


def test_every_memo_is_bounded():
    """No guest can exhaust host memory through a memo: every functools
    cache in scvm, and each per-read-set compile cache that _compiler
    returns, has a finite maxsize."""
    found = {}
    for path in MODULES:
        if path.stem != "__main__":  # importing it runs the CLI
            module = importlib.import_module(f"scvm.{path.stem}")
            found.update({f"{path.stem}.{n}": f for n, f in memos(vars(module)).items()})
    for reads in (frozenset(), frozenset(EVENT_KINDS)):
        found[f"machine._compiler({len(reads)} kinds)"] = scvm.machine._compiler(reads)
    assert {"machine._decode", "machine._fmt_head", "machine._fmt_code_src"} <= set(found)
    assert [name for name, f in found.items() if f.cache_info().maxsize is None] == []


def emitted_kinds(source: str) -> set:
    """The kinds in every `emit("<kind>", ...)` call of a module."""
    return {
        node.args[0].value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "emit"
        and isinstance(node.args[0], ast.Constant)
    }


def test_emitted_kinds_are_found():
    assert emitted_kinds('emit("a", x=1)\nother("b")\nemit("c")') == {"a", "c"}


def test_event_kinds_are_exactly_the_emitted_ones():
    emitted = emitted_kinds((ROOT / "src" / "scvm" / "machine.py").read_text())
    assert len(set(EVENT_KINDS)) == len(EVENT_KINDS)  # a repeat would deliver twice
    assert emitted == set(EVENT_KINDS)


def test_emit_parameters_are_the_event_fields_after_the_stamp():
    """emit builds each Event positionally, so a parameter out of
    Event's field order would put a value in the wrong field."""
    (code,) = (c for c in Machine.run.__code__.co_consts
               if getattr(c, "co_name", None) == "emit")
    params = code.co_varnames[: code.co_argcount]
    fields = [f.name for f in dataclasses.fields(Event)]
    assert fields[:7] == ["kind", "step", "tid", "pc", "mode", "iflag", "locks_held"]
    assert params[0] == "kind"
    assert list(params[1:]) == fields[7:]
    assert not code.co_flags & (inspect.CO_VARARGS | inspect.CO_VARKEYWORDS)
    (emit,) = (n for n in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(Machine.run))))
               if isinstance(n, ast.FunctionDef) and n.name == "emit")
    (call,) = (n for n in ast.walk(emit) if isinstance(n, ast.Call)
               and isinstance(n.func, ast.Name) and n.func.id == "Event")
    assert [a.id for a in call.args[7:] if isinstance(a, ast.Name)] == fields[7:]
    assert len(call.args) == len(fields) and not call.keywords


def string_literals(source: str) -> set:
    """Every str constant of a module, f-string pieces included."""
    return {
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def test_string_literals_are_found():
    assert string_literals('x = "a"\ny = f"b{x}"\nz = 3\n"""doc"""') == {"a", "b", "doc"}


def test_scheduler_kinds_are_listed_only_in_machine():
    """SchedulerPolicy owns the kinds: any other module that spells one
    out, or names SEEDED_RANDOM (a list of kinds needs it; a default
    needs only ROUND_ROBIN), keeps a second list that can drift."""
    kinds = set(scvm.machine.SCHEDULER_KINDS)
    assert kinds == {"round-robin", "seeded-random"}
    listed = set()
    for path in sorted((ROOT / "src" / "scvm").glob("*.py")):
        source = path.read_text()
        names = {n.id for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Name)}
        if kinds & string_literals(source) or "SEEDED_RANDOM" in names:
            listed.add(path.name)
    assert listed == {"machine.py"}


def scopes_of(source: str, match) -> list:
    """The dotted class/function scope of every node `match` accepts
    ("<module>" at the top level)."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name])
                continue
            if match(child):
                sites.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return sites


def call_sites(source: str, callee: str) -> list:
    """The scope of every call of `callee`, by bare name or as an attribute."""
    return scopes_of(source, lambda node: isinstance(node, ast.Call) and callee in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def machine_state_reads(source: str) -> list:
    """The scope of every `<x>.state.threads`, and of every `state` read
    off a name or attribute called `machine`."""
    def reads(node):
        if not isinstance(node, ast.Attribute):
            return False
        owner = node.value
        if node.attr == "threads":
            return isinstance(owner, ast.Attribute) and owner.attr == "state"
        return node.attr == "state" and "machine" in (getattr(owner, "id", None),
                                                      getattr(owner, "attr", None))

    return scopes_of(source, reads)


def test_call_sites_are_found():
    src = "T()\nclass A:\n    def f(self):\n        return m.T(lambda: T())\ndef g(): U()"
    assert call_sites(src, "T") == ["<module>", "A.f", "A.f"]


def test_machine_state_reads_are_found():
    src = ("def f(m, machine):\n    return m.state.threads, machine.state, m.state\n"
           "class A:\n    def g(self):\n        st = self.machine.state\n        return st.threads")
    assert machine_state_reads(src) == ["f", "f", "A.g"]


def test_only_the_lockset_build_and_fmt_read_machine_state_outside_machine():
    """Only machine.py knows the thread table.  The lockset reads the
    image bounds and the stack tops once, when built, and learns every
    later stack from its SPAWN event; fmt scans guest memory at PRINTF
    (the benchmark's bytes-scanned counter reads the same memory)."""
    sites = {(path.name, site) for path in sorted((ROOT / "src" / "scvm").glob("*.py"))
             if path.name != "machine.py" for site in machine_state_reads(path.read_text())}
    assert sites == {("checkers.py", "LocksetChecker.__init__"),
                     ("checkers.py", "FmtChecker.on_event")}


def test_type_objects_are_minted_only_by_fresh():
    """Every tagged object comes from ShadowState.fresh, which the
    benchmark's mint counter patches; only the untagged singleton is
    built directly."""
    sites = [(path.name, site) for path in sorted((ROOT / "src" / "scvm").glob("*.py"))
             for site in call_sites(path.read_text(), "TypeObject")]
    assert sorted(sites) == [("shadow.py", "ShadowState.__init__"), ("shadow.py", "ShadowState.fresh")]


def test_warnings_are_stamped_only_by_warning_at():
    """A checker's warning carries its event's tid, pc and step because
    Warning.at stamps every one; only report.parse builds one directly."""
    sites = [(path.name, site) for path in sorted((ROOT / "src" / "scvm").glob("*.py"))
             for site in call_sites(path.read_text(), "Warning")]
    assert sorted(sites) == [("checkers.py", "Warning.at"), ("report.py", "parse")]


def test_observers_read_only_known_kinds():
    assert set(ShadowState.on_event.kinds) <= set(EVENT_KINDS)
    assert set(CheckerRegistry.dispatch.kinds) <= set(EVENT_KINDS)


def test_registry_reads_every_kind_a_shipped_plugin_reads():
    """A plugin kind missing from dispatch.kinds would never reach the
    plugin in a live run."""
    plugins = make_checkers(CHECKER_ORDER, load(assemble("HALT")), ShadowState())
    assert [p.name for p in plugins] == list(CHECKER_ORDER)
    for plugin in plugins:
        assert set(plugin.kinds) <= set(CheckerRegistry.dispatch.kinds), plugin.name


def test_demo_aliasing_script_succeeds(capsys):
    path = ROOT / "scripts" / "demo_aliasing.py"
    spec = importlib.util.spec_from_file_location("demo_aliasing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main() == 0
    assert "checked twin: 0 warning(s); unchecked twin: 1 warning(s)" in capsys.readouterr().out


def test_benchmark_patched_names_exist():
    """The benchmark's traced pass wraps these by name and skips any
    that is missing, so a rename would read 0 in a per-layer metric
    instead of failing."""
    patched = [
        (Machine, "run"), (Scheduler, "pick"), (scvm.machine, "decode"),
        (ShadowState, "on_event"), (ShadowState, "fresh"), (CheckerRegistry, "dispatch"),
        *((cls, "on_event") for cls in (NullChecker, UserChecker, FmtChecker, LocksetChecker)),
        (scvm.cli, "analyze"), (scvm.driver, "load"), (scvm.cli, "serialize"),
    ]
    for owner, attr in patched:
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr)
    machine = load(assemble("HALT"))
    plugins = make_checkers(CHECKER_ORDER, machine, ShadowState())
    (fmt,) = (p for p in plugins if p.name == "fmt")
    assert fmt.machine.state.memory is machine.state.memory  # its bytes-scanned counter
    # The plugin wrapper takes list(...) of what on_event returns, so an
    # event that raises no warning must still give an iterable.
    quiet = dict(step=0, tid=0, pc=0, mode="user", iflag=True, locks_held=frozenset({1}),
                 addr=HEAP_BASE, width=4, sysno=SYS_LOCK, args=(1, 0, 0, 0))
    for plugin in plugins:
        for kind in plugin.kinds:
            out = plugin.on_event(Event(kind=kind, **quiet))
            assert isinstance(out, Iterable) and list(out) == [], (plugin.name, kind)


# The state fields the benchmark reads: `state_digest` and the
# guests' `state_failures` (bench/harness.py, bench/guests.py), the
# traced pass's pick wrapper and `_words_tracked` (bench/layers.py).
BENCH_READS = {
    ThreadContext: ("regs", "pc", "zflag", "mode", "alive", "stack_base", "stack_top"),
    MachineState: ("memory", "output", "step_count", "halted", "fault", "threads", "current",
                   "image_origin", "image_end"),
}


def test_benchmark_read_state_fields_exist():
    """A state field the benchmark reads is gone only with a crash of the
    benchmark, which the tests here would not see."""
    for cls, names in BENCH_READS.items():
        fields = {f.name for f in dataclasses.fields(cls)}
        assert set(names) <= fields, (cls.__name__, sorted(set(names) - fields))


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_is_a_benchmark_record():
    assert BENCH_RECORDS


@pytest.mark.parametrize("path", BENCH_RECORDS, ids=lambda p: p.name)
def test_benchmark_record_names_every_end_to_end_metric(path):
    """A BENCH_<n>.json holds, for every workload of BENCHMARK.json, the
    median and quartiles of every end-to-end metric on the parent and on
    the change, and each claim's paired runs."""
    record = json.loads(path.read_text())
    metrics = [m["name"] for m in BENCHMARK["end_to_end"]]
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        for side in ("parent", "change"):
            numbers = record["workloads"][workload][side]
            for name in metrics:
                stats = numbers[name]
                assert stats["q1"] <= stats["median"] <= stats["q3"], (workload, side, name)
    for claim in record["claims"]:
        assert claim["metric"] in metrics
        assert claim["workload"] in record["workloads"]
        assert claim["pairs"]
        for pair in claim["pairs"]:
            assert isinstance(pair["parent"], (int, float))
            assert isinstance(pair["change"], (int, float))
