"""Traced pass: per-layer time and deterministic counts, taken from outside.

scvm itself records nothing.  While a wrapped sample runs, this module
replaces public callables with timing wrappers and restores them after:

    Machine.run, Scheduler.pick       machine time, final state, picks, switches
    scvm.machine.decode               decode calls
    ShadowState.on_event, .fresh      shadow time, recorded event stream
    CheckerRegistry.dispatch          registry time (plugins included)
    <plugin>.on_event                 per-checker time, generator consumed
    scvm.cli.analyze, scvm.driver.load, scvm.cli.serialize   phase spans

A hook whose target no longer exists is skipped, and its numbers read 0.
Per-call costs of decode, Event construction, format_event, a fresh
ShadowState, serialize and diff come from replaying the recorded stream
(and the report, parsed back) with the wrappers removed.  Untraced `scvm check` samples alternate with
the wrapped ones, so the pass also reports what the wrappers cost.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import statistics
import time
from collections import Counter

import scvm.cli
import scvm.driver
import scvm.machine
from scvm.asm import assemble, read_image
from scvm.checkers import (
    ALL_RULES,
    CheckerRegistry,
    FmtChecker,
    LocksetChecker,
    NullChecker,
    UserChecker,
)
from scvm.corpus import CorpusEntry, run_entry, shipped_dir
from scvm.isa import INSTR_SIZE, MEMORY_SIZE, decode
from scvm.machine import (
    CSTR_CAP,
    HEAP_BASE,
    HEAP_LIMIT,
    SYS_LOCK,
    SYS_PRINTF,
    Event,
    Machine,
    Scheduler,
    format_event,
    load,
)
from scvm.report import diff, parse, serialize
from scvm.shadow import ShadowState

import harness
from calib import RefClock

ns = time.perf_counter_ns

EVENT_KINDS = (
    "fetch", "reg-read", "reg-write", "mem-read", "mem-write", "binop", "compare",
    "branch", "syscall", "lock", "unlock", "spawn", "thread-exit", "mode-change",
    "iflag-change",
)
PLUGINS = {"null": NullChecker, "user": UserChecker, "fmt": FmtChecker,
           "lockset": LocksetChecker}
_MEM = ("mem-read", "mem-write")


def acts_on(name: str, e: Event) -> bool:
    """Whether the event is one the plugin reads: memory accesses for
    null, user and lockset; PRINTF syscalls for fmt."""
    if name == "fmt":
        return e.kind == "syscall" and e.sysno == SYS_PRINTF
    return e.kind in _MEM


class Tracer:
    """Spans kept in memory: id, parent id, name, start and end (ns)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._ids = itertools.count(1)
        self._t0 = ns()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = ns()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans.append({"id": sid, "parent": parent, "name": name,
                               "start_ns": start - self._t0, "end_ns": ns() - self._t0})


class Probe:
    """Installs the timing wrappers; accumulates per unit run."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list = []
        self.clear()

    def clear(self):
        self.ns: Counter = Counter()
        self.n: Counter = Counter()
        self.events: list = []
        self.run_result = None

    def _patch(self, owner, attr, fn):
        if hasattr(owner, attr):
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, fn)

    def __enter__(self):
        p, tr = self, self.tracer
        orig_run, orig_pick = Machine.run, Scheduler.pick
        orig_decode = getattr(scvm.machine, "decode", None)
        orig_shadow, orig_fresh = ShadowState.on_event, ShadowState.fresh
        orig_dispatch = CheckerRegistry.dispatch
        orig_analyze = getattr(scvm.cli, "analyze", None)
        orig_load = getattr(scvm.driver, "load", None)
        orig_serialize = getattr(scvm.cli, "serialize", None)

        def run(machine, *a, **kw):
            with tr.span("machine.run"):
                t = ns()
                p.run_result = orig_run(machine, *a, **kw)
                p.ns["run"] += ns() - t
            return p.run_result

        def pick(sched, state):
            cur = state.current
            t = ns()
            tid = orig_pick(sched, state)
            p.ns["pick"] += ns() - t
            p.n["picks"] += 1
            p.n["switches"] += tid is not None and tid != cur
            return tid

        def decode_(raw):
            p.n["decode"] += 1
            return orig_decode(raw)

        def shadow_on_event(shadow, e):
            p.events.append(e)
            t = ns()
            orig_shadow(shadow, e)
            p.ns["shadow"] += ns() - t

        def fresh(shadow, *a, **kw):
            p.n["fresh"] += 1
            return orig_fresh(shadow, *a, **kw)

        def dispatch(registry, e):
            t = ns()
            orig_dispatch(registry, e)
            p.ns["dispatch"] += ns() - t

        def analyze(image, config=None):
            with tr.span("driver.analyze"):
                return orig_analyze(image, config)

        def load_(image, policy=None):
            with tr.span("machine.load"):
                return orig_load(image, policy)

        def serialize_(*a, **kw):
            with tr.span("report.serialize"):
                return orig_serialize(*a, **kw)

        self._patch(Machine, "run", run)
        self._patch(Scheduler, "pick", pick)
        self._patch(scvm.machine, "decode", decode_)
        self._patch(ShadowState, "on_event", shadow_on_event)
        self._patch(ShadowState, "fresh", fresh)
        self._patch(CheckerRegistry, "dispatch", dispatch)
        self._patch(scvm.cli, "analyze", analyze)
        self._patch(scvm.driver, "load", load_)
        self._patch(scvm.cli, "serialize", serialize_)
        for name, cls in PLUGINS.items():
            self._patch(cls, "on_event", self._plugin_wrapper(name, cls.on_event))
        return self

    def _plugin_wrapper(self, name, orig):
        p = self

        def on_event(plugin, e):
            t = ns()
            out = list(orig(plugin, e))
            p.ns[name] += ns() - t
            if name == "fmt" and e.kind == "syscall" and e.sysno == SYS_PRINTF:
                p.n["fmt_bytes"] += _scan_length(plugin.machine.state.memory, e.args[0])
            return out

        return on_event

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


def _scan_length(memory, addr: int) -> int:
    """Bytes the fmt checker reads for a PRINTF at addr: up to and
    including the NUL, capped like the checker's scan."""
    chunk = memory[addr : min(addr + CSTR_CAP, MEMORY_SIZE)]
    nul = chunk.find(0)
    return nul + 1 if nul >= 0 else len(chunk)


def _words_tracked(events, state) -> int:
    """Distinct 4-byte words in the image and heap segments, outside
    every thread's stack, that memory events touched."""
    stacks = [(t.stack_base, t.stack_top) for t in state.threads.values()]
    words = {w for e in events if e.kind in _MEM
             for w in range(e.addr & ~3, e.addr + e.width, 4)}
    return sum(
        1 for w in words
        if (state.image_origin <= w < state.image_end or HEAP_BASE <= w < HEAP_LIMIT)
        and not any(lo <= w < hi for lo, hi in stacks)
    )


@dataclasses.dataclass
class UnitTrace:
    unit: harness.Unit
    events: list
    warnings: list  # parsed back from the report
    image_sha256: str


def wrapped_sample(wl, probe: Probe, oracle, refs):
    """Every unit once through `scvm check` with the wrappers on.
    Returns (per-layer times, deterministic counters, unit traces)."""
    tot_ns, tot_n = Counter(), Counter()
    traces = []
    counters = Counter()
    for unit in wl.units:
        probe.clear()
        with probe.tracer.span(f"unit.{unit.name}"):
            with probe.tracer.span("asm.assemble"):
                assemble(unit.source)
            sink = harness.DigestSink()
            with probe.tracer.span("cli.main"), contextlib.redirect_stdout(sink):
                t = ns()
                code = scvm.cli.main(unit.argv("check"))
                tot_ns["cli"] += ns() - t
        result = probe.run_result
        harness.check_sample(oracle, unit, "check", code, result, sink, refs)
        meta, warnings = parse(sink.report)
        tot_ns.update(probe.ns)
        tot_n.update(probe.n)
        traces.append(UnitTrace(unit, probe.events, warnings, meta["image_sha256"]))
        counters["machine.steps"] += result.state.step_count
        kinds = Counter(e.kind for e in probe.events)
        for k in EVENT_KINDS:
            counters[f"machine.events.{k}"] += kinds[k]
        counters["machine.lock_blocks"] += sum(
            1 for e in probe.events if e.kind == "syscall" and e.sysno == SYS_LOCK
        ) - kinds["lock"]
        rules = Counter(w.rule for w in warnings)
        for rule in ALL_RULES:
            counters[f"checkers.warnings.{rule}"] += rules[rule]
        counters["checkers.lockset.words_tracked"] += _words_tracked(probe.events, result.state)
        for name in PLUGINS:
            counters[f"_useful.{name}"] += sum(1 for e in probe.events if acts_on(name, e))
    counters["isa.decode_calls"] = tot_n["decode"]
    counters["machine.sched.picks"] = tot_n["picks"]
    counters["machine.sched.switches"] = tot_n["switches"]
    counters["shadow.fresh_calls"] = tot_n["fresh"]
    counters["checkers.fmt.bytes_scanned"] = tot_n["fmt_bytes"]

    steps = counters["machine.steps"]
    times = {  # µs per guest step, except where the name says otherwise
        "machine.step_self_us": (tot_ns["run"] - tot_ns["shadow"] - tot_ns["dispatch"]
                                 - tot_ns["pick"]) / steps / 1e3,
        "machine.sched.pick_us": tot_ns["pick"] / steps / 1e3,
        "shadow.on_event_us": tot_ns["shadow"] / steps / 1e3,
        "checkers.registry.dispatch_us": tot_ns["dispatch"] / steps / 1e3,
    }
    for name in PLUGINS:
        times[f"checkers.{name}.on_event_us"] = tot_ns[name] / steps / 1e3
    times["cli.overhead_ms"] = (tot_ns["cli"] - tot_ns["run"]) / 1e6
    times["_check_steps_per_s"] = steps / (tot_ns["cli"] / 1e9)
    return times, counters, traces


def _median_time(fn, passes: int = 3) -> float:
    """Median reference-host ns of `passes` calls of fn()."""
    clock = RefClock()
    times = []
    for _ in range(passes):
        t = ns()
        fn()
        times.append((ns() - t) * clock.scale())
    return statistics.median(times)


def replays(traces) -> dict:
    """Per-call costs over the recorded streams, wrappers removed."""
    events = [e for tr in traces for e in tr.events]
    raws = []
    for tr in traces:
        mem = bytearray(MEMORY_SIZE)
        image = read_image(tr.unit.image_path)
        mem[image.origin : image.end] = image.payload
        raws += [bytes(mem[e.pc : e.pc + INSTR_SIZE]) for e in tr.events if e.kind == "fetch"]
    fields = [f.name for f in dataclasses.fields(Event)]
    base = fields[:7]  # the fields every emitted Event sets
    kwargs = [{f: getattr(e, f) for f in fields if f in base or getattr(e, f) is not None}
              for e in events]

    def decode_all():
        for raw in raws:
            decode(raw)

    def build_all():
        for kw in kwargs:
            Event(**kw)

    def format_all():
        for e in events:
            format_event(e)

    def shadow_all():
        for tr in traces:
            s = ShadowState()
            for e in tr.events:
                s.on_event(e)

    def shadow_init_all():
        for _ in traces:
            ShadowState()

    reports = [(tr.warnings, tr.image_sha256, tr.unit.policy) for tr in traces]

    def serialize_all():
        for args in reports:
            serialize(*args)

    def diff_all():
        for tr in traces:
            diff(tr.warnings, tr.unit.manifest, tr.unit.symbols)

    n_ev = len(events)
    return {
        "isa.decode_us": _median_time(decode_all) / len(raws) / 1e3,
        "machine.event.build_us": _median_time(build_all) / n_ev / 1e3,
        "report.format_event_us": _median_time(format_all) / n_ev / 1e3,
        "shadow.replay_us_per_event":
            (_median_time(shadow_all) - _median_time(shadow_init_all)) / n_ev / 1e3,
        "report.serialize_us": _median_time(serialize_all) / 1e3,
        "report.diff_us": _median_time(diff_all) / 1e3,
    }


def setup_parts(wl, reps: int = harness.SETUP_REPS) -> dict:
    """Median ms per pass over the units of assemble, load and ShadowState()."""
    parts = {"asm.assemble_ms": [], "machine.load_ms": [], "shadow.init_ms": []}
    clock = RefClock()
    for _ in range(reps):
        a = b = c = 0
        for u in wl.units:
            t0 = ns()
            image = assemble(u.source)
            t1 = ns()
            load(image, u.policy)
            t2 = ns()
            ShadowState()
            t3 = ns()
            a, b, c = a + t1 - t0, b + t2 - t1, c + t3 - t2
        scale = clock.scale()
        for key, v in zip(parts, (a, b, c)):
            parts[key].append(v * scale / 1e6)
    return {k: statistics.median(v) for k, v in parts.items()}


def entry_ms(wl, reps: int = 3) -> float:
    """Median over reps of the mean ms of corpus.run_entry per unit."""
    directory = wl.corpus_dir or shipped_dir()
    entries = [CorpusEntry(u.name, directory / f"{u.name}.s", directory / f"{u.name}.manifest")
               for u in wl.units]
    return _median_time(lambda: [run_entry(e) for e in entries], reps) / len(entries) / 1e6


def traced_run(wl, seconds: float, oracle, out) -> dict:
    """Per-layer metrics.  Rounds alternate an untraced `scvm check`
    sample with a wrapped one until `seconds` have passed; then one
    trace-mode sample, the replays and the set-up parts follow."""
    tracer = Tracer()
    refs: dict = {}
    untraced, layer_samples, counter_sets = [], [], []
    with harness.capture_runs() as results:  # warm-up
        harness.cli_sample(wl, "check", oracle, refs, results)
    harness.freeze_heap()
    clock = RefClock()
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < harness.MIN_ROUNDS or time.perf_counter() < deadline:
        with harness.capture_runs() as results:
            dt, steps = harness.cli_sample(wl, "check", oracle, refs, results)
        untraced.append(steps / (dt * clock.scale()))
        with tracer.span("sample"), Probe(tracer) as probe:
            layers, counters, traces = wrapped_sample(wl, probe, oracle, refs)
        scale = clock.scale()
        layer_samples.append({k: v / scale if k == "_check_steps_per_s" else v * scale
                              for k, v in layers.items()})
        counter_sets.append(counters)
        rounds += 1
    oracle.expect(all(c == counter_sets[0] for c in counter_sets),
                  "deterministic counters differ between repetitions")
    counters = counter_sets[0]

    trace_bytes = cells = 0
    with harness.capture_runs() as results:
        for unit in wl.units:
            results.clear()
            _, code, sink = harness.cli_call(unit, "trace")
            harness.check_sample(oracle, unit, "trace", code, results.pop(), sink, refs)
            trace_bytes += sink.chars
            cells += sink.shadow_cells

    metrics = {k: statistics.median(s[k] for s in layer_samples) for k in layer_samples[0]}
    traced = metrics.pop("_check_steps_per_s")
    metrics.update(replays(traces))
    metrics.update(setup_parts(wl))
    metrics["corpus.entry_ms"] = entry_ms(wl)

    n_events = sum(counters[f"machine.events.{k}"] for k in EVENT_KINDS)
    for name in PLUGINS:
        counters[f"checkers.{name}.useful_ratio"] = counters.pop(f"_useful.{name}") / n_events
    counters["machine.events_per_step"] = n_events / counters["machine.steps"]
    counters["machine.sched.switch_ratio"] = (
        counters["machine.sched.switches"] / counters["machine.sched.picks"])
    counters["shadow.cells_written"] = cells
    counters["report.trace_bytes"] = trace_bytes
    untraced_med = statistics.median(untraced)
    metrics.update({
        "bench.untraced_check_steps_per_s": untraced_med,
        "bench.traced_check_steps_per_s": traced,
        "bench.tracing_overhead_pct": (untraced_med / traced - 1) * 100,
    })
    metrics.update(counters)

    harness.write_json(out / f"spans-{wl.name}-{wl.seed}.json", tracer.spans)
    harness.write_json(out / f"counters-{wl.name}-{wl.seed}.json",
                       {k: counters[k] for k in sorted(counters)})
    print(f"# traced pass: {rounds} rounds, {len(tracer.spans)} spans; "
          f"check {untraced_med:.0f} steps/s untraced, {traced:.0f} traced")
    return {name: (metrics[name], unit) for name, unit in PER_LAYER.items()}


#: Every per-layer metric, in report order, with its unit.  Times are in
#: reference-host units (see calib.py).
PER_LAYER = {
    "isa.decode_us": "us/call",
    "isa.decode_calls": "count",
    "machine.steps": "count",
    "machine.step_self_us": "us/step",
    "machine.events_per_step": "event/step",
    **{f"machine.events.{k}": "count" for k in EVENT_KINDS},
    "machine.event.build_us": "us/event",
    "machine.sched.pick_us": "us/step",
    "machine.sched.picks": "count",
    "machine.sched.switches": "count",
    "machine.sched.switch_ratio": "ratio",
    "machine.lock_blocks": "count",
    "shadow.on_event_us": "us/step",
    "shadow.replay_us_per_event": "us/event",
    "shadow.fresh_calls": "count",
    "shadow.cells_written": "count",
    "checkers.registry.dispatch_us": "us/step",
    **{f"checkers.{n}.on_event_us": "us/step" for n in PLUGINS},
    **{f"checkers.{n}.useful_ratio": "ratio" for n in PLUGINS},
    "checkers.lockset.words_tracked": "count",
    "checkers.fmt.bytes_scanned": "count",
    **{f"checkers.warnings.{r}": "count" for r in ALL_RULES},
    "report.format_event_us": "us/event",
    "report.trace_bytes": "B",
    "report.serialize_us": "us",
    "report.diff_us": "us",
    "asm.assemble_ms": "ms",
    "machine.load_ms": "ms",
    "shadow.init_ms": "ms",
    "corpus.entry_ms": "ms",
    "cli.overhead_ms": "ms",
    "bench.untraced_check_steps_per_s": "1/s",
    "bench.traced_check_steps_per_s": "1/s",
    "bench.tracing_overhead_pct": "%",
}
