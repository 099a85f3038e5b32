"""Timed passes, correctness oracle and memory pass of the benchmark.

A workload is a list of `Unit`s: one generated guest (alu_loop,
lock_threads, taint_copy) or the sixteen shipped corpus entries
(corpus).  Every timed sample runs each unit once through
`scvm.cli.main`, in process, and its time is the sum over units of the
`cli.main` calls alone.  Nothing inside scvm is wrapped while timing,
except `Machine.run`, whose result is kept so that the oracle can check
the final machine state after the clock has stopped.  Timed code writes
no files: stdout, where `scvm check` prints its report, goes to an
in-memory sink, because on a shared host file-write latency drifts by
tens of percent and no CPU calibration can remove that.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import random
import statistics
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import scvm.cli
from scvm.asm import ProgramImage, assemble, write_image
from scvm.checkers import CHECKER_ORDER, make_checkers
from scvm.corpus import discover, run_corpus, shipped_dir
from scvm.machine import Machine, SchedulerPolicy, load
from scvm.report import REPORT_VERSION, Manifest, parse, parse_manifest
from scvm.shadow import ShadowState

import guests
from calib import RefClock

MODES = ("run", "check", "trace", "corpus")
END_TO_END = {
    "run_steps_per_s": "1/s",
    "check_steps_per_s": "1/s",
    "trace_steps_per_s": "1/s",
    "corpus_s": "s",
    "setup_s": "s",
    "check_peak_mb": "MB",
    "trace_peak_mb": "MB",
}
MIN_ROUNDS = 3
SETUP_REPS = 25


@dataclass
class Unit:
    """One image the benchmark runs, with everything the oracle needs."""

    name: str
    source: str
    manifest_text: str
    manifest: Manifest
    symbols: dict
    image_path: Path
    guest: guests.Guest | None = None  # None for shipped corpus entries

    @property
    def policy(self) -> SchedulerPolicy:
        return self.manifest.policy

    @property
    def headline(self) -> Counter:
        return Counter(e.rule for e in self.manifest.expects)

    def exit_status(self, mode: str) -> int:
        """What `scvm` must return: 3 when check writes warnings."""
        return 3 if mode != "run" and self.headline else 0

    def argv(self, mode: str) -> list:
        p = self.policy
        cmd = "run" if mode == "run" else "check"
        argv = [cmd, str(self.image_path), "--sched", p.kind,
                "--seed", str(p.seed), "--quantum", str(p.quantum)]
        if mode == "trace":
            argv += ["--trace", "events", "--trace", "shadow"]
        return argv

    def state_failures(self, state) -> list:
        if self.guest is not None:
            return self.guest.state_failures(state)
        if not state.halted or state.fault is not None:
            return [f"did not halt cleanly: {state.fault}"]
        return []


@dataclass
class Workload:
    name: str
    seed: int
    units: list
    corpus_dir: Path | None  # None: the shipped corpus


def build_workload(name: str, seed: int, out: Path) -> Workload:
    """Generate the workload's inputs from the seed and write its images
    (and, for guests, a one-entry corpus directory) under `out`."""
    work = out / f"{name}-{seed}"
    img_dir = work / "img"
    img_dir.mkdir(parents=True, exist_ok=True)
    if name == "corpus":
        pairs = [(e.name, e.source.read_text(), e.manifest.read_text(), None)
                 for e in discover(shipped_dir())]
        random.Random(seed).shuffle(pairs)
        corpus_dir = None
    else:
        g = guests.GENERATORS[name](seed)
        pairs = [(g.name, g.source, g.manifest_text(), g)]
        corpus_dir = work / "corpus"
        corpus_dir.mkdir(exist_ok=True)
        (corpus_dir / f"{g.name}.s").write_text(g.source)
        (corpus_dir / f"{g.name}.manifest").write_text(g.manifest_text())
    units = []
    for uname, source, mtext, guest in pairs:
        image = assemble(source)
        path = img_dir / f"{uname}.img"
        write_image(image, path)
        units.append(Unit(
            name=uname,
            source=source,
            manifest_text=mtext,
            manifest=parse_manifest(mtext, source=uname),
            symbols=image.symbols,
            image_path=path,
            guest=guest,
        ))
    return Workload(name, seed, units, corpus_dir)


# -- correctness oracle ------------------------------------------------


class Oracle:
    """Counts correctness checks attempted and failed; keeps the first
    few failure descriptions."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


def state_digest(state) -> str:
    h = hashlib.sha256()
    h.update(bytes(state.memory))
    h.update(bytes(state.output))
    h.update(repr((state.step_count, state.halted, str(state.fault))).encode())
    for tid in sorted(state.threads):
        t = state.threads[tid]
        h.update(repr((tid, t.regs, t.pc, t.zflag, t.mode, t.alive)).encode())
    return h.hexdigest()


def check_report(oracle: Oracle, unit: Unit, text: str, refs: dict) -> None:
    """Headline warnings equal the generator's count, and the report is
    byte-identical to every earlier report of the same unit."""
    _, warnings = parse(text)
    got = Counter(w.rule for w in warnings)
    oracle.expect(got == unit.headline,
                  f"{unit.name}: warnings {dict(got)} != expected {dict(unit.headline)}")
    digest = hashlib.sha256(text.encode()).hexdigest()
    ref = refs.setdefault((unit.name, "report"), digest)
    oracle.expect(digest == ref, f"{unit.name}: report differs from an earlier run")


def check_sample(oracle: Oracle, unit: Unit, mode: str, code: int, result,
                 sink: "DigestSink", refs: dict) -> None:
    """All checks on one `cli.main` call: exit status, final state
    against the generator, state equal across modes (non-interference),
    report and trace equal across repetitions (determinism)."""
    want = unit.exit_status(mode)
    oracle.expect(code == want, f"{unit.name} {mode}: exit {code}, want {want}")
    problems = unit.state_failures(result.state)
    oracle.expect(not problems, f"{unit.name} {mode}: {problems[:3]}")
    digest = state_digest(result.state)
    ref = refs.setdefault((unit.name, "state"), digest)
    oracle.expect(digest == ref, f"{unit.name} {mode}: final state differs from other modes")
    if mode != "run":
        check_report(oracle, unit, sink.report, refs)
    if mode == "trace":
        digest = sink.hexdigest()
        ref = refs.setdefault((unit.name, "trace"), digest)
        oracle.expect(digest == ref, f"{unit.name}: trace differs from an earlier run")


# -- samples -------------------------------------------------------------


class DigestSink:
    """Stand-in for stdout: hashes and counts the trace lines, and keeps
    the report, which `scvm check` writes in one call after them."""

    _REPORT_HEAD = f"# {REPORT_VERSION}"

    def __init__(self):
        self._h = hashlib.sha256()
        self.chars = 0
        self.shadow_cells = 0
        self.report = ""

    def write(self, s: str) -> int:
        if s.startswith(self._REPORT_HEAD):
            self.report = s
            return len(s)
        self._h.update(s.encode())
        self.chars += len(s)
        if s.startswith("cell "):
            self.shadow_cells += 1
        return len(s)

    def flush(self):
        pass

    def hexdigest(self) -> str:
        return self._h.hexdigest()


@contextlib.contextmanager
def capture_runs():
    """Keep the RunResult of every `Machine.run` call."""
    results = []
    orig = Machine.run

    def run(machine, *args, **kwargs):
        result = orig(machine, *args, **kwargs)
        results.append(result)
        return result

    Machine.run = run
    try:
        yield results
    finally:
        Machine.run = orig


def cli_call(unit: Unit, mode: str):
    """One timed `cli.main` call, stdout to a sink: (seconds, exit code, sink)."""
    sink = DigestSink()
    argv = unit.argv(mode)
    with contextlib.redirect_stdout(sink):
        t0 = time.perf_counter()
        code = scvm.cli.main(argv)
        dt = time.perf_counter() - t0
    return dt, code, sink


def cli_sample(wl: Workload, mode: str, oracle: Oracle, refs: dict, results: list):
    """Every unit once in `mode`: (seconds, guest steps)."""
    total, steps = 0.0, 0
    for unit in wl.units:
        results.clear()
        dt, code, sink = cli_call(unit, mode)
        total += dt
        result = results.pop()
        steps += result.state.step_count
        check_sample(oracle, unit, mode, code, result, sink, refs)
    return total, steps


def corpus_sample(wl: Workload, oracle: Oracle):
    """One `run_corpus()` pass over the workload's corpus: (seconds, 0)."""
    t0 = time.perf_counter()
    result = run_corpus(wl.corpus_dir)
    dt = time.perf_counter() - t0
    oracle.expect(result.all_passed, f"run_corpus failed:\n{result.format_table()}")
    return dt, 0


def setup_once(units) -> float:
    """Source and manifest text to the first guest step: assemble, image
    container round-trip (in memory), load, ShadowState(), make_checkers."""
    t0 = time.perf_counter()
    for u in units:
        manifest = parse_manifest(u.manifest_text, source=u.name)
        image = ProgramImage.from_bytes(assemble(u.source).to_bytes())
        machine = load(image, manifest.policy)
        shadow = ShadowState()
        make_checkers(CHECKER_ORDER, machine, shadow)
    return time.perf_counter() - t0


def freeze_heap() -> None:
    """Move every object alive now (modules, benchmark state) out of the
    collector's reach, so a full collection inside a timed call costs
    what it would in a fresh `scvm` process, not what this one holds."""
    gc.collect()
    gc.freeze()


def setup_samples(wl: Workload) -> list:
    """SETUP_REPS set-up times of all units, in reference-host seconds."""
    clock = RefClock()
    return [setup_once(wl.units) * clock.scale() for _ in range(SETUP_REPS)]


def peak_mb(wl: Workload, mode: str, oracle: Oracle) -> float:
    """Largest tracemalloc peak over the units' `cli.main` calls."""
    peak = 0
    for unit in wl.units:
        gc.collect()
        tracemalloc.start()
        try:
            _, code, _ = cli_call(unit, mode)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        oracle.expect(code == unit.exit_status(mode),
                      f"{unit.name} {mode} (tracemalloc): exit {code}")
    return peak / 2**20


def summary(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} median={q2:.6g} q1={q1:.6g} q3={q3:.6g}"


# -- the untraced run ------------------------------------------------------


def timed_run(wl: Workload, seconds: float, oracle: Oracle, out: Path) -> dict:
    """End-to-end metrics, tracing off.  Rounds rotate through the four
    modes until `seconds` have passed; each sample's host time is kept
    and scaled to reference-host time (see calib.py)."""
    refs: dict = {}
    host = {m: [] for m in MODES}
    ref = {m: [] for m in MODES}
    steps = {}

    def sample(mode):
        if mode == "corpus":
            return corpus_sample(wl, oracle)
        return cli_sample(wl, mode, oracle, refs, results)

    t_start = time.perf_counter()
    with capture_runs() as results:
        for mode in MODES:  # warm-up; also fixes the reference digests
            sample(mode)
        freeze_heap()
        clock = RefClock()
        t_timed = time.perf_counter()
        deadline = t_timed + seconds
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            for k in range(len(MODES)):
                if rounds >= MIN_ROUNDS and time.perf_counter() >= deadline:
                    break
                mode = MODES[(rounds + k) % len(MODES)]
                dt, steps[mode] = sample(mode)
                host[mode].append(dt)
                ref[mode].append(dt * clock.scale())
            rounds += 1
    t_setup = time.perf_counter()
    setup = setup_samples(wl)
    t_mem = time.perf_counter()
    check_mb = peak_mb(wl, "check", oracle)
    trace_mb = peak_mb(wl, "trace", oracle)
    print(f"# phases: warm-up {t_timed - t_start:.2f} s, timed {t_setup - t_timed:.2f} s "
          f"({rounds} rounds), setup {t_mem - t_setup:.2f} s, "
          f"memory {time.perf_counter() - t_mem:.2f} s")

    def rate(mode):
        return statistics.median(steps[mode] / t for t in ref[mode])

    values = {
        "run_steps_per_s": rate("run"),
        "check_steps_per_s": rate("check"),
        "trace_steps_per_s": rate("trace"),
        "corpus_s": statistics.median(ref["corpus"]),
        "setup_s": statistics.median(setup),
        "check_peak_mb": check_mb,
        "trace_peak_mb": trace_mb,
    }
    for mode in MODES:
        print(f"# {mode} seconds/sample: reference-host {summary(ref[mode])}; "
              f"host {summary(host[mode])}")
    print(f"# setup seconds: reference-host {summary(setup)}")
    write_json(out / f"samples-{wl.name}-{wl.seed}.json",
               {"rounds": rounds, "steps": steps, "host_s": host, "reference_s": ref,
                "setup_reference_s": setup})
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
