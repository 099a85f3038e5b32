"""Repository hygiene: every import in the package is used, test
modules share code only through the shared test modules, the event
kinds the machine emits and the kinds its observers read agree, the
committed script still runs, every name the benchmark wraps exists, the
benchmark's own copies of the event kinds and plugins match the
package's, and every committed benchmark record holds the numbers
BENCHMARK.json asks for."""

import ast
import dataclasses
import functools
import importlib.util
import inspect
import json
import re
from collections.abc import Iterable
from pathlib import Path

import pytest

import scvm.cli
import scvm.driver
import scvm.machine
from scvm.asm import assemble
from scvm.checkers import (
    CHECKER_ORDER,
    PLUGINS,
    CheckerRegistry,
    FmtChecker,
    LocksetChecker,
    NullChecker,
    UserChecker,
    make_checkers,
)
from scvm.isa import Opcode
from scvm.machine import (
    EVENT_FIELDS,
    EVENT_KINDS,
    HEAP_BASE,
    LINES,
    SYS_LOCK,
    SYSCALL_NAMES,
    Event,
    Machine,
    MachineState,
    Scheduler,
    ThreadContext,
    load,
)
from scvm.shadow import ShadowState

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "scvm").glob("*.py"))


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


def test_test_modules_share_code_only_through_shared_modules():
    """A test module imports no other test module, and no module under
    tests/ imports a _private name from another: what two modules share
    lives in helpers.py, families.py or ref_machine.py."""
    local = {path.stem for path in (ROOT / "tests").glob("*.py")}
    found = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found += [(path.stem, a.name, None) for a in node.names if a.name in local]
            elif isinstance(node, ast.ImportFrom) and node.module in local:
                found += [(path.stem, node.module, a.name) for a in node.names]
    shared = {"helpers", "families", "ref_machine"}
    assert [(importer, module, name) for importer, module, name in found
            if module not in shared or (name or "").startswith("_")] == []


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
    cache in scvm (the per-opcode-and-read-set handler factories and the
    per-word line templates among them), and each per-read-set compile
    cache that _compiler returns, a trace's read set with LINES too,
    has a finite maxsize, and so does the block cache."""
    found = {}
    for path in MODULES:
        if path.stem != "__main__":  # importing it runs the CLI
            module = importlib.import_module(f"scvm.{path.stem}")
            found.update({f"{path.stem}.{n}": f for n, f in memos(vars(module)).items()})
    spliced = frozenset({*EVENT_KINDS, LINES} - {"reg-write", "compare"}) | {
        ("reg-write", ShadowState.on_event), ("compare", ShadowState.on_event)}
    for reads in (frozenset(), frozenset(EVENT_KINDS), frozenset({*EVENT_KINDS, LINES}), spliced):
        found[f"machine._compiler({len(reads)} kinds, {reads is spliced} spliced)"] = (
            scvm.machine._compiler(reads))
    assert {"machine._decode", "machine._line_text", "machine._fmt_code_src",
            "machine._fmt_stamp", "machine._event_text", "machine._handler_factory",
            "shadow._fmt_tags"} <= set(found)
    assert [name for name, f in found.items() if f.cache_info().maxsize is None] == []
    # The handler factories' cache holds every (opcode, kinds read) pair,
    # LINES among each entry's kinds, read or not, and each other kind
    # unread, read or spliced (one owner's rules), so no run evicts a
    # factory and compiles it with `exec` again.
    assert all(LINES in kinds for kinds in scvm.machine._HANDLER_KINDS.values())
    assert scvm.machine._handler_factory.cache_info().maxsize >= sum(
        2 * 3 ** (len(kinds) - 1) for kinds in scvm.machine._HANDLER_KINDS.values())
    # The block cache, machine._BLOCKS, is a plain dict with one bound
    # across all read sets: at most _BLOCK_PCS pcs, each with at most
    # _BLOCK_VARIANTS blocks of any read sets (tests/test_machine.py holds
    # guests to it).
    assert isinstance(scvm.machine._BLOCKS, dict)
    assert 0 < scvm.machine._BLOCK_PCS * scvm.machine._BLOCK_VARIANTS <= 1024
    # format_event's renderers, compiled from _line_text, keep no memo of
    # their own: each one they call is a module global of machine, so the
    # scan above found it.
    renderers = list(scvm.machine._RENDERERS.values())
    assert all(f.__closure__ is None for f in renderers)
    called = {n for f in renderers for n in f.__code__.co_names}
    assert {n for n in called if isinstance(getattr(scvm.machine, n, None),
                                            functools._lru_cache_wrapper)} == {
        "_fmt_code_src", "_fmt_stamp"}


def test_the_code_table_defines_every_opcode_and_every_syscall():
    """machine._CODE_TEXT has an entry for each opcode and one keyed
    (SYS, n) for each syscall number n, and no other: a SYS_* constant
    with no entry would fault as an unknown syscall."""
    assert set(scvm.machine._CODE_TEXT) == set(Opcode) | {(Opcode.SYS, n) for n in SYSCALL_NAMES}


def table_events(table: dict = scvm.machine._CODE_TEXT) -> list:
    """(kind, keyword names) of every (kind, keyword text) event part of
    a table of code templates, by default machine._CODE_TEXT, from which
    both compilers build every event the machine emits."""
    return [(part[0], {k.arg for k in ast.parse(f"f({part[1]})", mode="eval").body.keywords})
            for parts in table.values() for part in parts if isinstance(part, tuple)]


def test_emitted_kinds_are_found():
    table = {"OP": (("d", "x={rd}, y=r[{rs}] & 3"), "r[{rd}] = 0", ("e", ""))}
    assert table_events(table) == [("d", {"x", "y"}), ("e", set())]


def test_event_kinds_are_exactly_the_emitted_ones():
    emitted = {kind for kind, _ in table_events()}
    assert len(set(EVENT_KINDS)) == len(EVENT_KINDS)  # a repeat would deliver twice
    assert emitted == set(EVENT_KINDS)


def test_each_emit_call_passes_its_kinds_fields():
    """Each table event passes every field its kind's EVENT_FIELDS
    lists, bar the optional ones, and no other: the trace renders only
    those."""
    for kind, keywords in table_events():
        fields = EVENT_FIELDS[kind]
        assert {f for f in fields if not f.endswith("?")} <= keywords, kind
        assert keywords <= {f.rstrip("?") for f in fields}, kind


def test_no_event_is_built_with_20_arguments():
    """CPython 3.11 keeps every freed 20-item tuple on a free list that
    only gc.collect() empties, so a call with 20 positional arguments
    holds on to its tuple's memory.  machine.py calls Event nowhere but
    in _event_text's templates, and none of them, under the word stamp
    or the block stamp, passes 20 arguments (LOCK's and UNLOCK's end at
    the 20th field, `lock`)."""
    tree = ast.parse((ROOT / "src" / "scvm" / "machine.py").read_text())
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name) and n.func.id == "Event"]
    counts = set()
    for part in (part for parts in scvm.machine._CODE_TEXT.values() for part in parts
                 if isinstance(part, tuple)):
        for stamp in (scvm.machine._WORD_STAMP, scvm.machine._BLOCK_STAMP):
            text = scvm.machine._event_text(*part).replace("{stamp}", stamp)
            call = ast.parse(text, mode="eval").body
            assert call.func.id == "Event" and not call.keywords, text
            assert len(call.args) != 20, text
            counts.add(len(call.args))
    assert 21 in counts  # the lock events, padded


def test_every_event_part_has_a_line_that_compiles_in_a_word_and_a_block():
    """Both compilers splice an event's trace line into the code: its
    _line_text between the word's head and its stamp (_LINE).  For every
    event part of every _CODE_TEXT entry, under a handler's slots and
    under a block's, the head and the line are each one f-string that
    compiles; no line builds a ('mem', ...) source or tests `is None`,
    and each renders an access's width at compile time; and a block's
    renders each field the code word fixes (a register, the opcode, a
    literal source) at compile time."""
    machine = scvm.machine
    for key, parts in machine._CODE_TEXT.items():
        op = key[0] if isinstance(key, tuple) else key
        word = dict(rd="rd", rs="rs", rt="rt", imm="imm", next="pc + 8")
        block = dict(rd=1, rs=2, rt=3, imm=0x40, next=0x18)
        for fixed, head in ((word, machine._WORD_LEAD[0]),
                            (block, machine._BLOCK_HEAD.format(k=1, pc=0x10))):
            slots = machine._opcode_slots(op) | fixed
            for kind, keywords in (part for part in parts if isinstance(part, tuple)):
                text = machine._line_text(kind, keywords.format(**slots))
                for line in (head.removeprefix("head = "), machine._LINE.format(text=text)):
                    assert isinstance(ast.parse(line, mode="eval").body, ast.JoinedStr), line
                    compile(line, "<line>", "eval")
                assert not re.search(r"\('mem'|is None|_fmt_code_src", text), text
                if "{width}" in keywords:
                    assert re.search(rf"(width=|:){slots['width']} ", text), text
                if fixed is block:
                    assert not re.search(r"\{(\d|'|True|None|\('(imm|reg|binop)')", text), text


def test_every_idle_kinds_includes_syscall():
    """Only a `syscall` event can wake an observer, so one idle on no
    `syscall` would never wake: every `idle_kinds` in scvm lists it."""
    found = [(path.name, ast.literal_eval(node.value)) for path in MODULES
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assign)
             and any(getattr(target, "attr", None) == "idle_kinds" for target in node.targets)]
    assert found
    assert [(name, kinds) for name, kinds in found if "syscall" not in kinds] == []


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
    observe, _ = scvm.cli._trace_out()  # --trace events: lines, and no Event
    assert observe.kinds == (LINES,)
    assert LINES not in EVENT_KINDS


def test_only_the_walk_builds_an_events_code():
    """machine._walk is the one emission loop: it alone turns an event
    part into its Event template (_event_text) and, beside format_event's
    renderers, into its line (_line_text), so no compiler delivers an
    event or a line of its own."""
    source = (ROOT / "src" / "scvm" / "machine.py").read_text()
    assert call_sites(source, "_event_text") == ["_walk"]
    assert sorted(set(call_sites(source, "_line_text"))) == ["_renderer", "_walk"]
    # Only the walk splices an observer's rule text, through _splice, the
    # one reader of the text and its binds.
    assert call_sites(source, "_splice") == ["_walk"]
    assert scopes_of(source, lambda node: isinstance(node, ast.Attribute) and node.attr in (
        "rules", "binds") or isinstance(node, ast.Constant) and node.value == "binds") == [
        "_splice", "_splice"]


def rule_texts() -> dict:
    """Each of the shadow's rule texts and binds, by where it is, as code
    with every {field} a name of its own: `_<field>`, `_src<i>`."""
    names = {f.name: f"_{f.name}" for f in dataclasses.fields(Event)}
    names |= {"src": [f"_src{i}" for i in range(4)], "reader": "_reader"}
    rules, binds = ShadowState.on_event.rules, ShadowState.on_event.binds
    texts = {("reg-write", kind): text for kind, text in rules["reg-write"].items()}
    texts[("compare",)] = rules["compare"]
    texts |= {("bind", name): f"{name} = {expr}" for name, expr in binds.items()}
    return {where: ast.parse(text.format(**names)) for where, text in texts.items()}


def test_no_shadow_rule_reads_the_machine():
    """A spliced rule runs inside a code word, beside the word's own
    registers (r), memory (m), state (st) and thread (t): it reads none
    of them, only cells, the shadow, the word's constants and what its
    Event would carry, which keeps a replay of the Events equal to a
    live run.  Each name it reads is a field, a bind or one it sets."""
    texts = rule_texts()
    assert {where[0] for where in texts} == {"reg-write", "compare", "bind"}
    assert {where[1] for where in texts if where[0] == "reg-write"} == {
        "imm", "reg", "mem", "binop", "syscall"}
    binds = set(ShadowState.on_event.binds)
    for where, tree in texts.items():
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        assert not names & {"r", "m", "st", "t"}, where
        own = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
               and isinstance(n.ctx, ast.Store)}
        assert {n for n in names if not n.startswith("_")} <= binds | own | {"range"}, where


def attribute_stores(source: str, attr: str) -> list:
    """The line of every assignment to an attribute named attr, by `x.attr
    = ...` (a tuple target's too) or by setattr with a literal name."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.ctx, ast.Store)
            or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr"
            and len(node.args) > 1 and getattr(node.args[1], "value", None) == attr)


def test_attribute_stores_are_found():
    src = "f.lines = 1\na.kinds, g.lines = 2, 3\nsetattr(h, 'lines', 4)\nx = f.lines\nf.lines()"
    assert attribute_stores(src, "lines") == [1, 2, 3]


def test_no_observer_is_given_a_lines_attribute():
    """An observer reads lines by listing LINES in its `kinds`; the
    machine reads no `lines` attribute, so a stale `fn.lines = True`
    would silently make a line reader an all-kinds reader of Events."""
    paths = [*MODULES, *sorted((ROOT / "tests").glob("*.py"))]
    assert [(path.name, line) for path in paths
            for line in attribute_stores(path.read_text(), "lines")] == []


def test_registry_reads_every_kind_a_shipped_plugin_reads():
    """A plugin kind missing from dispatch.kinds would never reach the
    plugin in a live run."""
    plugins = make_checkers(CHECKER_ORDER, load(assemble("HALT")), ShadowState())
    assert [p.name for p in plugins] == list(CHECKER_ORDER)
    for plugin in plugins:
        assert set(plugin.kinds) <= set(CheckerRegistry.dispatch.kinds), plugin.name


def script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demo_aliasing_script_succeeds(capsys):
    assert script("demo_aliasing").main() == 0
    assert "checked twin: 0 warning(s); unchecked twin: 1 warning(s)" in capsys.readouterr().out


def test_fuzz_counts_script_counts_a_family():
    line = script("fuzz_counts").count("waiting", seeds=[0], examples=2)
    assert line.startswith("waiting: 4 runs, steps median "), line


def test_bench_pairs_script_judges_a_claim():
    """A claim holds at its ratio of the parent's median, with at least 9
    of 10 pairs won (ties count for neither side) and a median gap wider
    than the parent's interquartile range."""
    judge = script("bench_pairs").judge
    pairs = [{"parent": 100 + i, "change": 120 + i} for i in range(10)]
    verdict = judge(pairs, "higher", 1.15)
    assert (verdict["met"], verdict["won"], verdict["parent_iqr"]) == (True, 10, 4.5)
    assert not judge(pairs, "higher", 1.25)["met"]
    assert not judge([{**p, "change": p["parent"]} if i < 2 else p
                      for i, p in enumerate(pairs)], "higher", 1.0)["met"]
    swapped = [{"parent": p["change"], "change": p["parent"]} for p in pairs]
    assert judge(swapped, "lower", 0.85)["met"]
    assert not judge(swapped, "higher", 0.85)["met"]


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


def test_no_plugin_on_event_is_a_generator():
    """A plugin returns its warnings, `()` when quiet: a generator would
    allocate a frame on every event it is handed, quiet or not."""
    for cls in PLUGINS:
        assert not inspect.isgeneratorfunction(cls.on_event), cls.name


def top_level_value(source: str, name: str) -> ast.expr:
    """The expression a module assigns to `name` at its top level."""
    (value,) = (node.value for node in ast.parse(source).body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == [name])
    return value


def test_top_level_values_are_found():
    src = "A = (1, 2)\nB, C = 3, 4\ndef f():\n    A = 5\nD = {'x': f}"
    assert ast.literal_eval(top_level_value(src, "A")) == (1, 2)
    assert ast.dump(top_level_value(src, "D")) == ast.dump(ast.parse("{'x': f}").body[0].value)


def test_the_benchmarks_copies_of_the_kinds_and_plugins_match():
    """bench/layers.py keeps its own EVENT_KINDS, which its per-kind event
    counters and events_per_step sum, and its own PLUGINS, whose on_event
    the traced pass wraps: a kind or a checker added here alone would be
    left out of both without a failure.  Read from the file, not
    imported, since the tests import nothing from bench/."""
    source = (ROOT / "bench" / "layers.py").read_text()
    assert ast.literal_eval(top_level_value(source, "EVENT_KINDS")) == EVENT_KINDS
    plugins = top_level_value(source, "PLUGINS")
    assert [ast.literal_eval(k) for k in plugins.keys] == list(CHECKER_ORDER)
    assert [v.id for v in plugins.values] == [cls.__name__ for cls in PLUGINS]


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
