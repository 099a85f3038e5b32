"""The interpreter against the reference interpreter (tests/ref_machine.py),
run differentially: the differential testing that found bugs in Bochs
and QEMU (Martignoni et al., "Testing CPU emulators", ISSTA 2009).

Each image runs once in the reference, which builds every event, and
then through `Machine.run` once per read set: bare, the shadow's
kinds, the checker registry's, each plugin's, and every kind.  Each run
must end in the reference's outcome and architectural state, and its
observer must receive exactly the reference's events of the kinds it
reads.  So must one more run, whose second observer takes the trace
line of every kind: it must get format_event of each reference event,
ahead of that event if the first observer reads its kind.  The runs
share the interpreter's per-read-set handler caches and its block
cache, as the runs of one process do.  Every run runs straight-line
code in blocks once a pc is hot, which the short fuzz runs seldom make
one; so each image runs once more under each read set with a block
built at a pc's first dispatch, and a one-thread round-robin run that
starts at a block opcode must have run a block under each.

Families: the shipped corpus under its manifest policies and under
seeded-random quantum 2 seed 7, the random, sharing, waiting and
self-rewriting families of tests/families.py under both schedulers,
and directed guests: each opcode and syscall word by word, up to its
fault too; each instruction that ends a slice at every phase of one; a
load's or a store's fault, a step limit, a slice's end and a store into
its own code inside a block; a hot loop of calls and one that turns
interrupts off and on in a trap; and blocks under a read set against
runs without blocks: an observer idle in a hot loop, `analyze` and a
traced `check`.
"""

import contextlib
import hashlib
import io
from unittest import mock

import pytest

import scvm.machine
from scvm.asm import assemble
from scvm.checkers import PLUGINS, CheckerRegistry
from scvm.cli import main
from scvm.driver import analyze
from scvm.isa import Opcode
from scvm.machine import (
    EVENT_KINDS,
    HEAP_BASE,
    LINES,
    ROUND_ROBIN,
    SCHEDULER_KINDS,
    SEEDED_RANDOM,
    SYSCALL_NAMES,
    SchedulerPolicy,
    format_event,
    load,
)
from scvm.report import parse_manifest
from scvm.shadow import ShadowState

from families import over_family
from helpers import corpus_manifest_text, corpus_names, corpus_source
from ref_machine import machine_view, run_reference

# Each distinct read set once, bare first and every kind last.
READ_SETS = tuple(dict.fromkeys([
    frozenset(),
    frozenset(ShadowState.on_event.kinds),
    frozenset(CheckerRegistry.dispatch.kinds),
    *(frozenset(cls.kinds) for cls in PLUGINS),
    frozenset(EVENT_KINDS),
]))


# The opcodes a block may hold, by the names fetch events carry.
BLOCK_OPS = {"MOVI", "MOV", "LD", "LDB", "ST", "STB", "ADD", "SUB", "MUL", "AND", "OR", "XOR",
             "CMP", "CMPI", "BEQ", "BNE", "JMP", "CALL", "RET"}


@contextlib.contextmanager
def blocks_counted(hot):
    """Runs that build a block at a pc's hot-th dispatch; yields a list
    whose one item counts the steps that blocks ran."""
    ran = [0]
    block_at = scvm.machine._block_at

    def counted(*args):
        block = block_at(*args)
        if block is None:
            return None

        def run(*args):
            steps = block(*args)
            ran[0] += steps
            return steps

        return run

    with mock.patch.object(scvm.machine, "_HOT", hot), \
            mock.patch.object(scvm.machine, "_block_at", counted):
        yield ran


@contextlib.contextmanager
def no_blocks():
    """Runs that dispatch every word through its handler."""
    with mock.patch.object(scvm.machine, "_block_at", lambda *args: None):
        yield


def run_reading(image, policy, kinds, step_limit):
    """(outcome, architectural state, events got) of a run of image whose
    one observer reads kinds, with no observer for no kinds."""
    machine = load(image, policy)
    got = []
    if kinds:
        def observe(e):
            got.append(e)

        if kinds != frozenset(EVENT_KINDS):  # every kind: an observer that names none
            observe.kinds = tuple(kinds)
        machine.add_observer(observe)
    result = machine.run(step_limit)
    return result.outcome, machine_view(result.state), got


def run_with_lines(image, policy, step_limit):
    """(outcome, architectural state, what its observers got, in order)
    of a run of image whose observer of Events reads the shadow's kinds
    and whose observer registered after it takes the line of every kind."""
    machine = load(image, policy)
    got = []

    def observe(e):
        got.append(e)

    def take(line):
        got.append(line)

    observe.kinds, take.kinds = ShadowState.on_event.kinds, (LINES,)
    machine.add_observer(observe)
    machine.add_observer(take)
    result = machine.run(step_limit)
    return result.outcome, machine_view(result.state), got


def with_lines(events):
    """What run_with_lines's observers get of events: each one's line,
    then the event itself if the shadow reads its kind."""
    kinds = ShadowState.on_event.kinds
    return [x for e in events for x in (format_event(e), e)[: 2 if e.kind in kinds else 1]]


def assert_runs_like_the_reference(image, policy, step_limit):
    """Each read set's run, and a run with a line observer, with blocks
    built at the hot threshold and then at a pc's first dispatch, against
    the reference; returns the fewest steps that blocks ran in a run of
    one read set of the second kind."""
    outcome, ref = run_reference(image, policy, step_limit)
    want = ref.view()
    ran = []
    for hot in (scvm.machine._HOT, 1):
        for kinds in READ_SETS:
            with blocks_counted(hot) as steps:
                got_outcome, view, got = run_reading(image, policy, kinds, step_limit)
            where = (hot, sorted(kinds))
            assert got_outcome == outcome, where
            assert view == want, where
            assert got == [e for e in ref.events if e.kind in kinds], where
            if hot == 1:
                ran.append(steps[0])
        with blocks_counted(hot):
            got = run_with_lines(image, policy, step_limit)
        assert got == (outcome, want, with_lines(ref.events)), (hot, "lines")
    # One thread under round-robin has a slice with room for two steps at
    # every step but the last, so a block opcode at the first dispatch of
    # the entry must start a block, under every read set.
    first = next((e.op for e in ref.events if e.kind == "fetch"), None)
    if policy.kind == ROUND_ROBIN and first in BLOCK_OPS and ref.step_count > 1 and not any(
            e.kind == "spawn" for e in ref.events):
        assert min(ran), "no block ran"
    return min(ran)


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_entries_run_like_the_reference(name):
    image = assemble(corpus_source(name))
    for policy in (parse_manifest(corpus_manifest_text(name)).policy,
                   SchedulerPolicy(SEEDED_RANDOM, 2, 7)):
        assert_runs_like_the_reference(image, policy, 100_000)


@over_family("random", 100)
def test_random_images_run_like_the_reference(image, policy, step_limit):
    assert_runs_like_the_reference(image, policy, step_limit)


@over_family("sharing", 100)
def test_sharing_images_run_like_the_reference(image, policy, step_limit):
    assert_runs_like_the_reference(image, policy, step_limit)


@over_family("waiting", 30)
def test_waiting_images_run_like_the_reference(image, policy, step_limit):
    assert_runs_like_the_reference(image, policy, step_limit)


@over_family("self-rewriting", 100)
def test_images_that_rewrite_their_code_run_like_the_reference(image, policy, step_limit):
    assert_runs_like_the_reference(image, policy, step_limit)


# Each entry of the code table, every opcode and each syscall number,
# run word by word, after a prelude that puts a heap address in r2 and
# values in r3 and r4: a case named for its opcode or syscall alone, for
# the trap or worker it runs in, or for the syscall that ends it, or
# that says it halts, halts, and a case named for a fault faults at its
# last word (a byte access is never unaligned) or, for a RET, at the next.
WORD_PRELUDE = f"MOVI r2, {HEAP_BASE}\nMOVI r3, 0x12345678\nMOVI r4, 3\n"
WORD_CASES = {
    "MOVI": "MOVI r1, -5",
    "MOV": "MOV r1, r3\nMOV r3, r3",
    "LD": "ST [r2+4], r3\nLD r1, [r2+4]\nLD r2, [r2+4]",
    "LDB": "ST [r2], r3\nLDB r1, [r2+3]\nLDB r2, [r2]",
    "ST": "ST [r2+8], r3\nST [r2-4], r2",
    "STB": "STB [r2+9], r3\nSTB [r2+9], r2",
    **{op: f"{op} r1, r3, r4\n{op} r3, r3, r3" for op in ("ADD", "SUB", "MUL", "AND", "OR", "XOR")},
    "CMP": "CMP r3, r4\nCMP r3, r3",
    "CMPI": "CMPI r4, 3\nCMPI r4, -3",
    "BEQ": "CMP r3, r4\nBEQ end\nCMP r3, r3\nBEQ end\nMOVI r1, 1",
    "BNE": "CMP r3, r3\nBNE end\nCMP r3, r4\nBNE end\nMOVI r1, 1",
    "JMP": "JMP end\nMOVI r1, 1",
    "LD unmapped": "LD r1, [r2+0x7FFE]",
    "LD unmapped, wrapped": "LD r1, [r2-0x8004]",
    "LD unaligned": "MOVI r1, 7\nLD r1, [r2+2]",
    "LDB unmapped": "LDB r1, [r2+0x8000]",
    "ST unmapped": "ST [r2+0x7FFD], r3",
    "ST unaligned": "ST [r2+1], r3",
    "STB unmapped": "STB [r2+0x8000], r3",
    "CALL": "CALL f\nJMP end\nf: MOV r1, r7\nRET",
    "RET": "MOVI r7, end\nRET\nMOVI r1, 1",
    "RET to a misaligned r7": "MOVI r7, end\nADD r7, r7, r4\nRET",
    "CLI in user mode": "CLI",
    "STI in user mode": "MOVI r0, trap\nSYS 18\nSYS 16\nSTI\ntrap: CLI\nSYS 17",
    "CLI in a KCALL trap": "MOVI r0, trap\nSYS 18\nSYS 16\nJMP end\ntrap: CLI\nSYS 17",
    "STI in a KCALL trap": "MOVI r0, trap\nSYS 18\nSYS 16\nJMP end\ntrap: CLI\nSTI\nSYS 17",
    "HALT in a spawned worker": "MOVI r0, worker\nMOVI r1, 0xF000\nSYS 48\nJMP end\n"
                                "worker: HALT",
    "SYS ALLOC": "MOVI r0, 5\nSYS 1\nMOVI r0, 0\nSYS 1",
    "SYS ALLOC past HEAP_LIMIT halts": "MOVI r0, 0x6000\nSYS 1\nSYS 1",
    "SYS OPEN": "MOVI r1, 0x41\nST [r2], r1\nMOV r0, r2\nSYS 2\nMOV r0, r2\nSYS 2",
    "SYS OPEN of a missing name halts": "MOVI r1, 0x7373696D\nST [r2], r1\nMOVI r1, 0x676E69\n"
                                        "ST [r2+4], r1\nMOV r0, r2\nSYS 2",
    "SYS READ_NET": "MOV r0, r2\nMOVI r1, 6\nSYS 3\nLD r1, [r2+4]",
    "SYS READ_NET of 0 bytes halts": "MOV r0, r2\nMOVI r1, 0\nSYS 3",
    "SYS PRINTF": "MOVI r1, 0x6968\nST [r2], r1\nMOV r0, r2\nSYS 4\nSYS 4",
    "SYS KCALL": "MOVI r0, trap\nSYS 18\nSYS 16\nJMP end\ntrap: SYS 17",
    "SYS KRET": "MOVI r0, trap\nSYS 18\nSYS 16\nMOVI r1, 1\nJMP end\ntrap: MOVI r1, 2\nSYS 17",
    "SYS SET_TRAP": "MOVI r0, 0x100\nSYS 18\nMOVI r0, 0x200\nSYS 18",
    **{f"SYS {name}": f"MOV r0, r2\nMOVI r1, 8\nSYS {n}"
       for n, name in SYSCALL_NAMES.items() if 32 <= n <= 35},
    "SYS SPAWN": "MOVI r0, worker\nMOVI r1, 0xF000\nSYS 48\nMOV r5, r0\nSYS 51\nJMP end\n"
                 "worker: MOVI r1, 7\nHALT",
    "SYS LOCK": "MOVI r0, 1\nSYS 49\nMOVI r0, 2\nSYS 49",
    "SYS UNLOCK": "MOVI r0, 1\nSYS 49\nSYS 50\nSYS 49",
    "SYS YIELD": "MOVI r0, worker\nMOVI r1, 0xF000\nSYS 48\nSYS 51\nMOVI r1, 1\nJMP end\n"
                 "worker: MOVI r1, 2\nSYS 51\nMOVI r1, 3\nHALT",
    "SYS EXIT_THREAD": "MOVI r0, worker\nMOVI r1, 0xF000\nSYS 48\nSYS 51\nSYS 51\nJMP end\n"
                       "worker: SYS 52",
    "SYS LOCK that blocks, run again once woken by UNLOCK": (
        "MOVI r0, 1\nSYS 49\nMOVI r0, worker\nMOVI r1, 0xF000\nSYS 48\nSYS 51\nMOVI r0, 1\n"
        "SYS 50\nSYS 51\nSYS 51\nSYS 51\nJMP end\nworker: MOVI r0, 1\nSYS 49\nSYS 50\nSYS 52"),
    **{f"SYS unknown {n}": f"SYS {n}" for n in (5, 6, 99, -1, -2147483648)},
    "SYS LOCK recursive": "MOVI r0, 1\nSYS 49\nSYS 49",
    "SYS LOCK past the cap": "MOVI r0, 1\nMOVI r1, 1\nloop: SYS 49\nADD r0, r0, r1\nJMP loop",
    "SYS UNLOCK not held": "MOVI r0, 5\nSYS 50",
    "SYS KCALL nested": "MOVI r0, trap\nSYS 18\nSYS 16\nJMP end\ntrap: SYS 16",
    "SYS KCALL with no trap entry": "SYS 16",
    "SYS KRET in user mode": "SYS 17",
    "SYS OPEN past the end": "MOVI r0, 0x10000\nSYS 2",
    "SYS PRINTF past the end": "MOVI r0, 0x10000\nSYS 4",
    "SYS READ_NET past the end": "MOVI r0, 0xFFFF\nMOVI r1, 2\nSYS 3",
}


@pytest.mark.parametrize("case", WORD_CASES)
def test_each_table_opcode_runs_like_the_reference_word_by_word(case):
    """Each read set's run with no block, so every word goes through
    the handler its opcode's or syscall's factory built, against the
    reference: effects, events and their order, up to a fault too."""
    assert {name.split()[0] for name in WORD_CASES} == {op.name for op in Opcode}
    assert {f"SYS {name}" for name in SYSCALL_NAMES.values()} | {
        "SYS unknown 99", "SYS unknown -1"} <= set(WORD_CASES)
    image = assemble(WORD_PRELUDE + WORD_CASES[case] + "\nend: HALT\n")
    policy = SchedulerPolicy()
    outcome, ref = run_reference(image, policy, 200)
    op, last = case.split()[0], case.split()[-1]
    halts = last in (op, "trap", "worker", "halts", *SYSCALL_NAMES.values())
    assert outcome == ("halt" if halts else "fault")
    assert op in {e.op for e in ref.events if e.kind == "fetch"}
    if op == "SYS" and halts:  # it ran the syscalls its name gives
        names = {SYSCALL_NAMES[e.sysno] for e in ref.events if e.kind == "syscall"}
        assert {case.split()[1], last} - {"halts"} <= names
    for kinds in READ_SETS:
        with no_blocks():
            got = run_reading(image, policy, kinds, 200)
        assert got == (outcome, ref.view(), [e for e in ref.events if e.kind in kinds]), kinds
    with no_blocks():
        assert run_with_lines(image, policy, 200) == (outcome, ref.view(), with_lines(ref.events))


# Main YIELDs alone, takes lock 1, SPAWNs two workers and a child, YIELDs,
# UNLOCKs (waking the workers that queued), waits for both workers and
# HALTs; each worker LOCKs 1 (blocking while another holds it), bumps a
# counter, UNLOCKs (waking the other), YIELDs and EXITs; the child HALTs.
# A slot holds the phase prefix before the instructions of its kind.
SLICE_ENDS = """
main:   {yield_}SYS 51
        MOVI r0, 1
        SYS 49
        MOVI r0, worker
        MOVI r1, 0xF000
        {spawn}SYS 48
        MOVI r0, worker
        MOVI r1, 0xE000
        {spawn}SYS 48
        MOVI r0, child
        MOVI r1, 0xD000
        {spawn}SYS 48
        {yield_}SYS 51
        MOVI r2, 0
        MOVI r2, 0
        MOVI r0, 1
        {unlock}SYS 50
        MOVI r4, 0x8000
spin:   LD r3, [r4]
        CMPI r3, 2
        BNE spin
        {halt}HALT
worker: MOVI r0, 1
        {lock}SYS 49
        MOVI r4, 0x8000
        LD r3, [r4]
        MOVI r2, 1
        ADD r3, r3, r2
        ST [r4], r3
        MOVI r0, 1
        {unlock}SYS 50
        {yield_}SYS 51
        {exit}SYS 52
child:  {halt}HALT
"""
SLOTS = ("yield_", "spawn", "lock", "unlock", "exit", "halt")


@pytest.mark.parametrize("slot", SLOTS)
def test_slice_ending_instructions_run_like_the_reference_at_every_phase(slot):
    """YIELD, SPAWN, a blocking LOCK, a waking UNLOCK, EXIT_THREAD and
    HALT each run after 0-2 SET_TRAPs (each ends a slice, so the next
    begins mid-quantum) and 0-2 MOVIs, so each lands at every phase of a
    slice of quantum 1-3, under both schedulers."""
    for traps in range(3):
        for movis in range(3):
            prefix = "SYS 18\n" * traps + "MOVI r5, 5\n" * movis
            source = SLICE_ENDS.format(**{s: prefix if s == slot else "" for s in SLOTS})
            image = assemble(source)
            for quantum in (1, 2, 3):
                for kind in SCHEDULER_KINDS:
                    for seed in (1, 2):
                        policy = SchedulerPolicy(kind, quantum, seed)
                        assert load(image, policy).run(2_000).outcome == "halt", policy
                        assert_runs_like_the_reference(image, policy, 2_000)


# -- blocks ------------------------------------------------------------------
#
# The guests below loop, most of them past the hot threshold, so their
# blocks run in the default bare run too, and assert_runs_like_the_reference
# runs each once more with a block built at a pc's first dispatch.

# A loop whose ST gives the next word, slot, the immediate 99 and whose
# second ST puts back 1 after the ADD has read it, so every pass rewrites
# code inside the block that holds the loop: only a block that stops
# after a store into its own bytes adds 99 on every pass.
REWRITE_AHEAD = """
        MOVI r1, 0
        MOVI r2, {passes}
        MOVI r4, slot
        MOVI r5, 99
        MOVI r6, 1
loop:   ST [r4+4], r5
slot:   MOVI r3, 1
        ADD r1, r1, r3
        ST [r4+4], r6
        SUB r2, r2, r6
        CMPI r2, 0
        BNE loop
        HALT
"""


def test_a_store_over_the_next_word_of_its_own_block_takes_effect():
    image = assemble(REWRITE_AHEAD.format(passes=40))
    policy = SchedulerPolicy()
    with blocks_counted(hot=scvm.machine._HOT) as ran:
        result = load(image, policy).run(10_000)
    assert ran[0] > 0
    assert result.state.threads[0].regs[1] == 99 * 40
    assert assert_runs_like_the_reference(image, policy, 10_000) > 0


# Each pass loads its address from the next table entry, then from that
# address (or stores there): the kth entry is bad, so the access in the
# middle of the loop's block faults on the kth pass.
WALK = """
        MOVI r3, table
        MOVI r4, 4
loop:   LD r2, [r3]
        ADD r3, r3, r4
        LD r1, [r2]
        ADD r5, r5, r1
        CMPI r1, 7
        BNE loop
        HALT
table:  {entries}
"""


@pytest.mark.parametrize("bad, reason", [
    (0x10000, "unmapped address 0x00010000"), (0xFFFE, "unmapped address 0x0000FFFE"),
    (HEAP_BASE + 2, "unaligned word access at 0x8002")])
@pytest.mark.parametrize("k", [1, 2, 17, 40])
def test_a_load_that_faults_in_a_block_records_the_reference_fault(k, bad, reason):
    image = assemble(WALK.format(entries="\n".join([f".word {HEAP_BASE}"] * (k - 1)
                                                   + [f".word {bad}"])))
    policy = SchedulerPolicy()
    result = load(image, policy).run(10_000)
    assert result.outcome == "fault" and result.state.fault.reason == reason
    assert result.state.fault.step == 2 + 6 * (k - 1) + 2
    assert_runs_like_the_reference(image, policy, 10_000)


@pytest.mark.parametrize("bad, reason", [
    (0xFFFE, "unmapped address 0x0000FFFE"), (HEAP_BASE + 2, "unaligned word access at 0x8002")])
@pytest.mark.parametrize("k", [1, 17])
def test_a_store_that_faults_in_a_block_records_the_reference_fault(k, bad, reason):
    image = assemble(WALK.replace("LD r1, [r2]", "ST [r2], r4").format(
        entries="\n".join([f".word {HEAP_BASE}"] * (k - 1) + [f".word {bad}"])))
    policy = SchedulerPolicy()
    result = load(image, policy).run(10_000)
    assert result.outcome == "fault" and result.state.fault.reason == reason
    assert result.state.fault.step == 2 + 6 * (k - 1) + 2
    assert_runs_like_the_reference(image, policy, 10_000)


# A six-word block that bumps each word of a buffer.
BUMP = """
        MOVI r2, {buf}
        MOVI r4, 4
        MOVI r5, {end}
loop:   LD r1, [r2]
        ADD r1, r1, r4
        ST [r2], r1
        ADD r2, r2, r4
        CMP r2, r5
        BNE loop
"""


def test_a_step_limit_inside_a_block_stops_where_the_reference_does(monkeypatch):
    """The loop's block is cached by a first run, so for every step limit
    across its first two passes a block stops before the limit's step,
    and a run resumed from there ends as the reference's whole run."""
    monkeypatch.setattr(scvm.machine, "_BLOCKS", {})  # no block at the prelude
    image = assemble(BUMP.format(buf=HEAP_BASE, end=HEAP_BASE + 4 * 30) + "HALT\n")
    policy = SchedulerPolicy()
    outcome, ref = run_reference(image, policy, 10_000)
    with blocks_counted(hot=scvm.machine._HOT) as ran:
        assert load(image, policy).run(10_000).outcome == outcome == "halt"
    assert ran[0] > 0
    for limit in range(1, 3 + 2 * 6 + 2):
        want_outcome, want = run_reference(image, policy, limit)
        machine = load(image, policy)
        with blocks_counted(hot=scvm.machine._HOT) as ran:
            assert machine.run(limit).outcome == want_outcome, limit
        assert machine_view(machine.state) == want.view(), limit
        assert ran[0] == max(0, limit - 4), limit  # all but the prelude and the last step
        assert machine.run(10_000).outcome == outcome, limit
        assert machine_view(machine.state) == ref.view(), limit


# Main SPAWNs a worker, and each bumps its own buffer in a six-word block
# that a slice of quantum 2 or 3 cuts short.
TWO_BUMPS = ("""
        MOVI r0, worker
        MOVI r1, 0xF000
        SYS 48
""" + BUMP.format(buf=HEAP_BASE, end=HEAP_BASE + 4 * 20) + """
        HALT
worker:
""" + BUMP.format(buf=HEAP_BASE + 0x400, end=HEAP_BASE + 0x400 + 4 * 20).replace("loop", "wloop")
             + """
        SYS 52
""")


@pytest.mark.parametrize("quantum", [2, 3])
@pytest.mark.parametrize("kind", SCHEDULER_KINDS)
def test_blocks_longer_than_the_quantum_run_like_the_reference(kind, quantum):
    image = assemble(TWO_BUMPS)
    for seed in (1, 2, 3):
        policy = SchedulerPolicy(kind, quantum, seed)
        assert assert_runs_like_the_reference(image, policy, 10_000) > 0, policy


# A hot loop of calls: each pass CALLs inc, whose two ADDs end in a RET,
# then compares, so CALL, RET and BNE end its three blocks.
CALL_LOOP = """
        MOVI r2, 1
        MOVI r3, 60
loop:   CALL inc
        CMP r1, r3
        BNE loop
        HALT
inc:    ADD r1, r1, r2
        ADD r4, r4, r1
        RET
"""


def test_a_hot_loop_of_calls_runs_in_blocks_like_the_reference_and_word_by_word():
    image = assemble(CALL_LOOP)
    policy = SchedulerPolicy()
    outcome, ref = run_reference(image, policy, 10_000)
    assert outcome == "halt" and ref.step_count == 2 + 60 * 6 + 1
    for kinds in READ_SETS:
        with blocks_counted(1) as ran:
            got = run_reading(image, policy, kinds, 10_000)
        with no_blocks():
            assert run_reading(image, policy, kinds, 10_000) == got, sorted(kinds)
        want = [e for e in ref.events if e.kind in kinds]
        assert got == (outcome, ref.view(), want), sorted(kinds)
        assert ran[0] > 0.9 * ref.step_count, sorted(kinds)


# A hot loop in a KCALL trap that turns interrupts off and on around
# each pass's store: blocks end before the CLI and the STI, and the
# block between them stamps its events with interrupts off.
TRAP_LOOP = f"""
        MOVI r0, trap
        SYS 18
        SYS 16
        HALT
trap:   MOVI r2, 1
        MOVI r3, 40
        MOVI r4, {HEAP_BASE}
tloop:  CLI
        ADD r1, r1, r2
        ST [r4], r1
        STI
        CMP r1, r3
        BNE tloop
        SYS 17
"""


def test_a_hot_loop_that_turns_interrupts_off_and_on_in_a_trap_runs_like_the_reference():
    assert assert_runs_like_the_reference(assemble(TRAP_LOOP), SchedulerPolicy(), 10_000) > 0


# -- blocks under a read set ---------------------------------------------


# A hot loop over heap bytes that READ_NET tainted: every pass loads,
# stores, and adds tainted values, so the woken shadow prints lines
# inside the loop's block.
TAINTED_LOOP = """
        MOVI r0, 256
        SYS 1
        MOV r4, r0
        MOVI r1, 128
        SYS 3
        MOV r2, r4
        MOVI r5, 128
        ADD r5, r5, r4
        MOVI r6, 4
loop:   LD r1, [r2]
        ST [r2+128], r1
        LDB r3, [r2+1]
        ADD r3, r3, r1
        STB [r2+130], r3
        ADD r2, r2, r6
        CMP r2, r5
        BNE loop
        HALT
"""


@pytest.mark.parametrize("kind, source", [
    ("iflag-change", CALL_LOOP),
    ("mem-read", BUMP.format(buf=HEAP_BASE, end=HEAP_BASE + 4 * 80) + "HALT\n"),
], ids=["iflag-change", "mem-read"])
def test_an_observer_that_cannot_wake_leaves_blocks_on(kind, source):
    """Only a `syscall` event can wake an observer, so one idle on
    another kind that returns true at each event it gets never wakes,
    and blocks run, a hot loop's mem-reads among them: it gets the
    events of a run without blocks."""
    def run():
        got = []

        def observe(e):
            got.append(e)
            return True

        observe.idle_kinds = (kind,)
        machine = load(assemble(source))
        machine.add_observer(observe)
        assert machine.run(10_000).outcome == "halt"
        assert observe not in machine.woken
        return got, machine.state

    with blocks_counted(hot=scvm.machine._HOT) as ran:
        got, state = run()
    with no_blocks():
        want, want_state = run()
    assert ran[0] > 0
    assert got == want and machine_view(state) == machine_view(want_state)
    assert {e.kind for e in got} <= {kind}


def test_analyze_of_a_hot_loop_runs_a_block():
    """The mechanism the check rate rests on: analyze, shadow idle and
    the checkers reading memory events, runs the hot loop in blocks."""
    image = assemble(BUMP.format(buf=0xA000, end=0xA000 + 4 * 64) + "HALT\n")
    with blocks_counted(hot=scvm.machine._HOT) as ran:
        result = analyze(image)
    assert ran[0] > 32 * 6
    with no_blocks():
        want = analyze(image)
    assert result.outcome == want.outcome == "halt"
    assert result.warnings == want.warnings and result.state == want.state


def test_a_traced_check_of_a_hot_loop_prints_what_it_printed_word_by_word(tmp_path):
    """`check --trace events --trace shadow` over a tainted hot loop: the
    same bytes, report too, as before blocks ran under a read set (the
    hashes), and as a run with no blocks."""
    (tmp_path / "loop.s").write_text(TAINTED_LOOP)
    assert main(["asm", str(tmp_path / "loop.s"), "-o", str(tmp_path / "loop.img")]) == 0

    def check():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["check", str(tmp_path / "loop.img"), "--trace", "events",
                         "--trace", "shadow", "--report", str(tmp_path / "r.tsv")]) == 3
        return out.getvalue(), (tmp_path / "r.tsv").read_bytes()

    with blocks_counted(hot=scvm.machine._HOT) as ran:
        trace, report = check()
    assert ran[0] > 0
    assert (hashlib.sha256(trace.encode()).hexdigest(), hashlib.sha256(report).hexdigest()) == (
        "44f5d2f229fde287103e3fe57c5211e1d235c97c547a51c4b4ac22414d49d6f1",
        "f53530f132ffc54843c6c049808678c7e0198ec71fb161a7326ec248131a7691")
    with no_blocks():
        assert check() == (trace, report)
