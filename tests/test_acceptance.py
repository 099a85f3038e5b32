"""Acceptance gate: the behaviors this analysis stack promises.

Each test covers one criterion, asserts exact counts (no tolerances),
and prints a single ACCEPTANCE PASS/FAIL line (visible under -s, and
in failure output otherwise).
"""

import contextlib
import dataclasses
import functools
import hashlib
import io
import os
import random
import re
import tempfile
import time
from collections import Counter

import pytest
from hypothesis import Phase

from scvm.asm import assemble, write_image
from scvm.checkers import (
    RULE_FMT_TAINTED,
    RULE_NULL_DEREF,
    RULE_RACE,
    RULE_USER_IRQOFF,
    RULE_USER_READ,
    RULE_USER_WRITE,
    LocksetChecker,
)
from scvm.cli import main
from scvm.corpus import discover, run_corpus, run_entry, shipped_dir
from scvm.driver import RunConfig, analyze
from scvm.isa import Opcode
from scvm.machine import (
    EVENT_KINDS,
    HEAP_BASE,
    ROUND_ROBIN,
    SEEDED_RANDOM,
    SYSCALL_NAMES,
    Event,
    SchedulerPolicy,
    format_event,
    load,
)
from scvm.report import REPORT_VERSION, serialize

from families import FAMILIES, over_family
from helpers import (
    analysis_outputs,
    brute_force_first_empty,
    corpus_names,
    corpus_source,
    full_delivery,
    live_and_replayed,
    races_and_lockset_warnings,
    registry_warnings,
)


def criterion(label):
    """Print the criterion's ACCEPTANCE line, its label formatted with the
    test's parameters; a test may return a note, which the PASS line
    carries in parentheses."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(**params):
            try:
                note = fn(**params)
            except BaseException:
                print(f"ACCEPTANCE FAIL: {label.format(**params)}")
                raise
            print(f"ACCEPTANCE PASS: {label.format(**params)}" + (f" ({note})" if note else ""))

        return wrapper

    return deco


@functools.lru_cache(maxsize=None)
def entry(name):
    """(EntryResult, symbol table) for one shipped corpus entry."""
    matches = [e for e in discover(shipped_dir()) if e.name == name]
    assert matches, f"corpus entry {name} missing"
    result = run_entry(matches[0])
    symbols = assemble(matches[0].source.read_text()).symbols
    return result, symbols


def rules(result):
    return [w.rule for w in result.warnings]


@criterion("indirection: checked alias clean, unchecked twin warns once")
def test_indirection_correctness():
    checked, _ = entry("aliased_check")
    assert checked.warnings == []

    buggy, symbols = entry("aliased_check_bug")
    assert rules(buggy) == [RULE_USER_WRITE]
    assert buggy.warnings[0].pc == symbols["wsite"]


@criterion("poll bug: read check alone does not license the write")
def test_poll_bug_class():
    result, symbols = entry("poll_bug")
    assert rules(result) == [RULE_USER_WRITE]
    assert rules(result).count(RULE_USER_READ) == 0
    assert result.warnings[0].pc == symbols["wsite"]


@criterion("interrupts-off: checked user deref under CLI still warns")
def test_irq_off_rule():
    result, symbols = entry("irq_off")
    assert rules(result) == [RULE_USER_IRQOFF]
    assert result.warnings[0].pc == symbols["wsite"]


@criterion("null rule: unchecked ALLOC/OPEN deref warns, checked twins quiet")
def test_null_check_rule():
    for name in ("null_deref", "fd_null"):
        result, symbols = entry(name)
        assert rules(result) == [RULE_NULL_DEREF], name
        assert result.warnings[0].pc == symbols["dsite"], name
    for name in ("null_deref_clean", "null_alias_clean", "fd_null_clean"):
        result, _ = entry(name)
        assert result.warnings == [], name


@criterion("taint flow: network bytes warn, literals don't, copies keep taint")
def test_taint_flow():
    tainted, symbols = entry("fmt_taint")
    assert rules(tainted) == [RULE_FMT_TAINTED]
    assert tainted.warnings[0].pc == symbols["psite"]

    clean, _ = entry("fmt_clean")
    assert clean.warnings == []

    copied, symbols = entry("fmt_copy")
    assert rules(copied) == [RULE_FMT_TAINTED]
    assert copied.warnings[0].pc == symbols["psite"]  # fires on the copy


@criterion("lockset equals brute-force reference on 1000 random traces, with and without grace")
def test_lockset_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(0xACCE97)
    for _ in range(1000):
        n_threads = rng.randint(1, 3)
        n_locks = rng.randint(1, 4)
        n_words = rng.randint(1, 8)
        n_events = rng.randint(1, 200)
        trace = []
        events = []
        for idx in range(n_events):
            word = 4 * rng.randrange(n_words)
            held = frozenset(
                l for l in range(1, n_locks + 1) if rng.random() < 0.5
            )
            tid = rng.randrange(n_threads)
            trace.append((word, tid, held))
            events.append(
                Event(
                    kind=rng.choice(["mem-read", "mem-write"]),
                    step=idx,
                    tid=tid,
                    pc=8 * idx,
                    mode="user",
                    iflag=True,
                    locks_held=held,
                    addr=word,
                    width=4,
                )
            )
        for grace in (False, True):
            expect = brute_force_first_empty(trace, grace)
            got = registry_warnings([LocksetChecker(None, tracked="all", grace=grace)], events)
            assert {w.address for w in got} == set(expect), grace
            assert {w.address: w.step for w in got} == expect, grace
    assert time.monotonic() - started < 30


@criterion("race corpus: disjoint locks warn once, consistent lock quiet")
def test_race_corpus():
    seeded, symbols = entry("race_seeded")
    assert seeded.manifest.policy.kind == "round-robin"
    assert seeded.manifest.policy.quantum == 1
    assert rules(seeded) == [RULE_RACE]
    assert seeded.warnings[0].pc == symbols["wsite"]

    clean, _ = entry("race_clean")
    assert clean.warnings == []


# Two workers write one heap word under disjoint locks.  Main ALLOCs the
# word before it spawns them and neither worker syncs with the other, so
# no lock or spawn edge orders the two stores under any schedule.  Each
# worker raises a done flag at 0x4000 or 0x4004, outside every tracked
# segment, and main spins until both are up.
RACE_CONCURRENT = """
start:   MOVI r0, 4
         SYS 1               ; ALLOC: the shared word, at HEAP_BASE
         MOVI r0, worker_a
         MOVI r1, 0xF000
         SYS 48              ; SPAWN worker A
         MOVI r0, worker_b
         MOVI r1, 0xF400
         SYS 48              ; SPAWN worker B
         MOVI r3, 0x4000
wait_a:  LD r2, [r3+0]
         CMPI r2, 0
         BEQ wait_a
wait_b:  LD r2, [r3+4]
         CMPI r2, 0
         BEQ wait_b
         HALT

worker_a: MOVI r0, 1
         SYS 49              ; LOCK 1
         MOVI r1, 0x8000
         MOVI r2, 7
         ST [r1+0], r2
         MOVI r0, 1
         SYS 50              ; UNLOCK 1
         MOVI r3, 0x4000
         MOVI r2, 1
         ST [r3+0], r2
         SYS 52

worker_b: MOVI r0, 2
         SYS 49              ; LOCK 2: disjoint from lock 1
         MOVI r1, 0x8000
         MOVI r2, 9
         ST [r1+0], r2
         MOVI r0, 2
         SYS 50              ; UNLOCK 2
         MOVI r3, 0x4004
         MOVI r2, 1
         ST [r3+0], r2
         SYS 52
"""

RACE_SWEEP_GUESTS = ("race_clean", "race_seeded", "single_thread_lockless")
RACE_SWEEP_POLICIES = tuple(SchedulerPolicy(SEEDED_RANDOM, quantum, seed)
                            for seed in range(4) for quantum in range(1, 4))


@criterion("happens-before: every racing tracked word is a lockset warning")
def test_happens_before_races_are_lockset_warnings():
    """Two unordered accesses share no lock, since a shared lock's
    UNLOCK -> LOCK edge would order them (Eraser's argument), so each
    race empties the lockset of its word.  Runs: the corpus under its
    manifests' policies, and a seeded-random sweep of the race guests.
    The fuzz images run the same check in test_fuzz.py.  Warnings that
    are not races are counted, not gated."""
    runs = [(e.name, assemble(e.source.read_text()), run_entry(e).manifest.policy)
            for e in discover(shipped_dir())]
    guests = {name: assemble(corpus_source(name)) for name in RACE_SWEEP_GUESTS}
    guests["race_concurrent"] = assemble(RACE_CONCURRENT)
    runs += [(name, image, policy) for name, image in guests.items()
             for policy in RACE_SWEEP_POLICIES]
    warnings = not_races = 0
    for name, image, policy in runs:
        races, warned, outcome = races_and_lockset_warnings(image, policy)
        assert outcome == "halt", (name, policy)
        assert races <= warned, (name, policy)
        if name == "race_concurrent":
            assert races == warned == {HEAP_BASE}, policy
        warnings += len(warned)
        not_races += len(warned - races)
    assert len(runs) == len(corpus_names()) + 4 * len(RACE_SWEEP_POLICIES)
    return f"{not_races} of {warnings} lockset warnings over {len(runs)} runs are not races"


@pytest.mark.parametrize("family", FAMILIES)
@criterion("fuzz coverage: what the {family} images reach (counted, not gated)")
def test_fuzz_family_coverage(family):
    """Over 40 images of the family drawn without randomness, so the
    counts repeat, each run under both schedulers: run length, fault
    reasons (numbers elided) by count, and the opcodes, syscalls and
    event kinds that no run reached."""
    steps, faults, seen = [], Counter(), set()

    def observe(e):  # a fetch's op names its opcode, a syscall's sysno its number
        seen.update((e.kind, e.op, e.sysno))

    @over_family(family, 40, derandomize=True, database=None, phases=[Phase.generate])
    def run(image, policy, step_limit):
        machine = load(image, policy)
        machine.add_observer(observe)
        state = machine.run(step_limit).state
        steps.append(state.step_count)
        if state.fault:
            faults[re.sub(r"0x[0-9A-F]+|\d+", "N", state.fault.reason)] += 1

    run()
    steps.sort()
    unreached = [op.name for op in Opcode if op.name not in seen]
    unreached += [f"SYS {name}" for n, name in SYSCALL_NAMES.items() if n not in seen]
    unreached += [kind for kind in EVENT_KINDS if kind not in seen]
    reasons = ", ".join(f"{n} {reason}" for reason, n in faults.most_common())
    return (f"{len(steps)} runs, steps median {steps[len(steps) // 2]} "
            f"p90 {steps[len(steps) * 9 // 10]}; {sum(faults.values())} faults: {reasons or '-'}; "
            f"never reached: {', '.join(unreached) or '-'}")


# main SPAWNs a child whose stack lies in the heap, below 0x8400, and
# the child writes the word just under its stack top.
HEAP_STACK = """
main:  MOVI r0, child
       MOVI r1, 0x8400
       SYS 48
       MOVI r2, 1
       MOVI r2, 2
       MOVI r2, 3
       HALT
child: ST [r6-4], r0
       SYS 52
"""


@criterion("replay: a recorded event stream replays to the live run's warnings")
def test_replayed_streams_give_the_live_warnings():
    """The shadow and the null, user and lockset checkers read only
    events once built, so replaying a run's stream through fresh ones
    gives its warnings.  Runs: the corpus under its manifests' policies
    and under seeded-random quantum 2 seed 7, and a child whose stack is
    in the heap.  The sharing fuzz images run the same check in
    test_fuzz.py."""
    runs = [(e.name, assemble(e.source.read_text()), policy)
            for e in discover(shipped_dir())
            for policy in (run_entry(e).manifest.policy, SchedulerPolicy(SEEDED_RANDOM, 2, 7))]
    runs.append(("heap_stack", assemble(HEAP_STACK), SchedulerPolicy()))
    warnings = 0
    for name, image, policy in runs:
        live, replayed = live_and_replayed(image, policy)
        assert replayed == live.warnings, (name, policy)
        warnings += len(replayed)
    # The child ran its write to 0x83FC, on its own stack, so no warning.
    assert 1 not in live.state.threads and live.state.next_tid == 2
    assert live.warnings == []
    assert len(runs) == 2 * len(corpus_names()) + 1
    return f"{warnings} warnings over {len(runs)} runs"


@criterion("determinism: repeated runs give byte-identical reports and traces")
def test_determinism():
    started = time.monotonic()
    for e in discover(shipped_dir()):
        image = assemble(e.source.read_text())
        policy = run_entry(e).manifest.policy
        outputs = []
        for _ in range(2):
            events = []
            result = analyze(
                image, RunConfig(policy=policy, observers=(events.append,))
            )
            report = serialize(result.warnings, result.image_sha256, policy)
            trace = "\n".join(format_event(ev) for ev in events)
            outputs.append((report.encode(), trace.encode()))
        assert outputs[0] == outputs[1], e.name
    assert time.monotonic() - started < 10


def _cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@criterion("non-interference: checkers do not change the machine; a bare run matches")
def test_non_interference():
    started = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        for e in discover(shipped_dir()):
            image = assemble(e.source.read_text())
            policy = run_entry(e).manifest.policy
            with_checkers = analyze(image, RunConfig(policy=policy))
            without = analyze(image, RunConfig(checkers=(), policy=policy))
            assert with_checkers.state == without.state, e.name
            assert without.warnings == []

            # A machine with no observers builds no events; it must still
            # end where the analyzed run ends, under either scheduler.
            path = os.path.join(tmp, f"{e.name}.img")
            write_image(image, path)
            for kind in (ROUND_ROBIN, SEEDED_RANDOM):
                p = dataclasses.replace(policy, kind=kind)
                bare = load(image, p).run()
                full = analyze(image, RunConfig(policy=p))
                assert bare.state == full.state, (e.name, kind)
                assert bare.outcome == full.outcome, (e.name, kind)
                flags = [path, "--sched", kind, "--seed", str(p.seed),
                         "--quantum", str(p.quantum), "--trace", "events"]
                run_out = _cli_stdout(["run", *flags])
                check_out = _cli_stdout(["check", *flags, "--checkers", "",
                                         "--report", os.devnull])
                assert run_out == check_out, (e.name, kind)
    assert time.monotonic() - started < 10


# sha256 of every golden_traces() record, taken before the interpreter
# compiled code words into handlers and before the combined trace
# interleaved its lines, so that trace is hashed through
# _events_then_shadow.  A refactor of the machine must not change a
# byte of what the CLI prints.
GOLDEN_TRACES_SHA256 = "7a087659bfcbe29217fd422c028cb29a9ce1b5d375b765ba8ba69000ab72dd5d"
# sha256 of the same records as printed, each event line followed by the
# shadow lines its processing emitted.
GOLDEN_INTERLEAVED_SHA256 = "add972442523501fa5177019498ba74a064566b975550fa9d6f1e5c9e8f89603"

GOLDEN_POLICIES = (
    ("--sched", ROUND_ROBIN),
    ("--sched", SEEDED_RANDOM, "--seed", "5", "--quantum", "2"),
)
COMBINED_TRACE = ("check", "--trace", "events", "--trace", "shadow")
GOLDEN_COMMANDS = (
    ("run", "--trace", "events"),
    COMBINED_TRACE,
    ("check",),
)


def golden_traces():
    """Command, exit status and stdout of each GOLDEN_COMMANDS line on
    every corpus entry under each of GOLDEN_POLICIES: (command, label,
    code, stdout)."""
    with tempfile.TemporaryDirectory() as tmp:
        for e in discover(shipped_dir()):
            path = os.path.join(tmp, f"{e.name}.img")
            write_image(assemble(e.source.read_text()), path)
            for flags in GOLDEN_POLICIES:
                for command, *extra in GOLDEN_COMMANDS:
                    argv = [command, path, *flags, *extra]
                    code, out = _cli_stdout(argv)
                    yield (command, *extra), " ".join([e.name, command, *flags, *extra]), code, out


def _events_then_shadow(out: str) -> str:
    """A combined trace's stdout as a stable partition: its event lines in
    order, then its shadow lines in order, then the report."""
    lines = out.splitlines(keepends=True)
    head = lines.index(f"# {REPORT_VERSION}\n")
    trace = sorted(lines[:head], key=lambda line: line.startswith(("cell ", "object ")))
    return "".join(trace + lines[head:])


@criterion("golden traces: CLI traces and reports match the pinned bytes")
def test_golden_traces():
    digest, interleaved = hashlib.sha256(), hashlib.sha256()
    n = 0
    for command, label, code, out in golden_traces():
        parent_order = _events_then_shadow(out) if command == COMBINED_TRACE else out
        digest.update(f"{label}\n{code}\n{len(parent_order)}\n{parent_order}".encode())
        interleaved.update(f"{label}\n{code}\n{len(out)}\n{out}".encode())
        n += 1
    assert n == len(corpus_names()) * len(GOLDEN_POLICIES) * len(GOLDEN_COMMANDS)
    assert digest.hexdigest() == GOLDEN_TRACES_SHA256
    assert interleaved.hexdigest() == GOLDEN_INTERLEAVED_SHA256


@criterion("filtered delivery: observers that read only their kinds analyze alike")
def test_filtered_delivery_equals_full_delivery():
    for e in discover(shipped_dir()):
        image = assemble(e.source.read_text())
        policy = run_entry(e).manifest.policy
        for kind in (ROUND_ROBIN, SEEDED_RANDOM):
            config = RunConfig(policy=dataclasses.replace(policy, kind=kind))
            filtered = analysis_outputs(image, config)
            with full_delivery() as seen:
                full = analysis_outputs(image, config)
            assert "fetch" in seen, (e.name, kind)
            assert filtered == full, (e.name, kind)


@criterion("known false positive: sanitized copy warns and is documented")
def test_known_false_positive_documentation():
    result, symbols = entry("fmt_sanitized")
    assert rules(result) == [RULE_FMT_TAINTED]
    assert result.warnings[0].pc == symbols["psite"]
    assert [e.false_positive for e in result.manifest.expects] == [True]

    tally = run_corpus().tally()
    assert tally["expected_false_positives"] == 2
    assert tally["expected_true_positives"] == 8


@criterion("full corpus gate: shipped corpus exits 0")
def test_full_corpus_gate():
    started = time.monotonic()
    assert main(["corpus"]) == 0
    assert time.monotonic() - started < 60
