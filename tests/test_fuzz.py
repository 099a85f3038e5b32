"""Random well-formed images: no host exception, and every way of
running one ends in the same place.

Each image sets its trap entry and every register to a random useful
value, then runs a body of validly encoded instructions whose
immediates fit their opcode (code addresses for branches, syscall
numbers for SYS), and ends in HALT.  CLI and STI run in kernel mode, in
a trap body after the HALT that a KCALL enters and a KRET leaves; the
body draws CLI and KRET seldom, so their user-mode faults stay covered.
Some of the body's draws are locked sections, so an UNLOCK often
releases a lock its thread holds.  That gets many runs past their first
few steps and into spawned threads and locks, under both schedulers.

The scheduler's runnable list stays what the threads say, and it picks
as the reference general pick does.  Every word the happens-before
oracle finds racing is one the lockset warns about.  Random images
seldom share a heap word between threads, so both checks also run over
sharing images: threads that each load the same few heap words into
registers and touch them, with or without a lock.  Waiting images queue
several threads on one lock, which its UNLOCK must all wake.

Observers reading random sets of event kinds, over these images and the
shipped corpus, each receive exactly the full stream filtered to their
kinds.
"""

import contextlib
import dataclasses
import functools

import pytest
from hypothesis import given, settings, strategies as st

import scvm.machine
from scvm.asm import ProgramImage, assemble
from scvm.driver import RunConfig, analyze
from scvm.isa import IMM_MAX, IMM_MIN, INSTR_SIZE, Instruction, Opcode, encode
from scvm.machine import (
    EVENT_KINDS,
    HEAP_BASE,
    ROUND_ROBIN,
    SEEDED_RANDOM,
    SYS_KCALL,
    SYS_KRET,
    SYS_LOCK,
    SYS_SET_TRAP,
    SYS_SPAWN,
    SYS_UNLOCK,
    SYS_YIELD,
    SYSCALL_NAMES,
    SchedulerPolicy,
    load,
)

from helpers import (
    analysis_outputs,
    assert_scheduled_like_the_general_pick,
    corpus_names,
    corpus_source,
    full_delivery,
    live_and_replayed,
    races_and_lockset_warnings,
)

BODY_LEN = 16
N_INSTRS = 2 + 8 + BODY_LEN + 1  # SET_TRAP, register prelude, body, final HALT
TRAP = N_INSTRS * INSTR_SIZE  # the trap body follows the HALT
STEP_LIMIT = 150
SHARING_STEP_LIMIT = 400

_reg = st.integers(0, 7)
_code_addr = st.integers(0, N_INSTRS - 1).map(lambda i: i * INSTR_SIZE)
_value = st.one_of(
    st.integers(0, 8),
    _code_addr,
    st.integers(0, 63).map(lambda i: HEAP_BASE + 4 * i),
    st.integers(IMM_MIN, IMM_MAX),
)

# SYS is weighted up, and so are the syscalls for threads, locks and
# kernel mode; the body has no HALT, since the image ends in one.  CLI,
# STI and KRET belong in the trap body: the body draws CLI once in 82,
# STI never and KRET once in 28 syscalls, so their user-mode faults stay
# covered.
_BODY_OPS = [op for op in Opcode if op not in (Opcode.HALT, Opcode.CLI, Opcode.STI)] * 3 + [
    Opcode.SYS] * 24 + [Opcode.CLI]
_SYSNOS = [n for n in sorted(SYSCALL_NAMES) if n != SYS_KRET] + [
    SYS_SPAWN, SYS_YIELD, SYS_SET_TRAP, SYS_KCALL
] * 3 + [SYS_KRET]


def _instruction(op, rd, rs, rt, target, offset, value, sysno):
    """An instruction whose immediate fits its opcode."""
    if op == Opcode.SYS:
        imm = sysno
    elif op in (Opcode.BEQ, Opcode.BNE, Opcode.JMP, Opcode.CALL):
        imm = target
    elif op in (Opcode.LD, Opcode.LDB, Opcode.ST, Opcode.STB):
        imm = 4 * offset
    else:
        imm = value
    return Instruction(op, rd, rs, rt, imm)


_instr = st.builds(
    _instruction,
    st.sampled_from(_BODY_OPS), _reg, _reg, _reg,
    _code_addr, st.integers(-4, 4), _value, st.sampled_from(_SYSNOS),
)
# Each register starts at a random useful value, so the body's loads,
# syscalls and branches get operands worth having.
_prelude = st.lists(_value, min_size=8, max_size=8).map(
    lambda values: [Instruction(Opcode.MOVI, rd=r, imm=v) for r, v in enumerate(values)]
)


def _locked(lock, instrs):
    return [Instruction(Opcode.MOVI, imm=lock), Instruction(Opcode.SYS, imm=SYS_LOCK),
            *instrs,
            Instruction(Opcode.MOVI, imm=lock), Instruction(Opcode.SYS, imm=SYS_UNLOCK)]


# The body: BODY_LEN instructions, drawn one at a time or, one draw in
# four, as a locked section (LOCK, one or two drawn instructions, UNLOCK
# of the same lock), so some UNLOCKs release a lock the thread holds.
_body = st.lists(
    st.sampled_from((_instr.map(lambda i: [i]),) * 3 + (
        st.builds(_locked, st.integers(1, 2), st.lists(_instr, min_size=1, max_size=2)),
    )).flatmap(lambda chunk: chunk),
    min_size=BODY_LEN, max_size=BODY_LEN,
).map(lambda chunks: [i for chunk in chunks for i in chunk][:BODY_LEN])

_trap = st.lists(st.sampled_from((Opcode.CLI, Opcode.STI)), min_size=1, max_size=3).map(
    lambda ops: [Instruction(op) for op in ops]
)


def _image(prelude, body, trap):
    instrs = [Instruction(Opcode.MOVI, rd=0, imm=TRAP), Instruction(Opcode.SYS, imm=SYS_SET_TRAP),
              *prelude, *body, Instruction(Opcode.HALT),
              *trap, Instruction(Opcode.SYS, imm=SYS_KRET)]
    return ProgramImage(origin=0, payload=b"".join(map(encode, instrs)), entry=0)


random_images = st.builds(_image, _prelude, _body, _trap)


def _over_random_images(test):
    """Runs test over 50 images, each with a quantum and a seed."""
    return settings(max_examples=50, deadline=None)(given(
        image=random_images,
        quantum=st.integers(1, 3),
        seed=st.integers(0, 2**32),
    )(test))


# Sharing images: a thread's code at 0, then main's.  Each starts by
# loading four of the shared words into r2..r5, then runs chunks that
# touch them through those registers (loads land in r1 or r7), alone or
# between a LOCK and UNLOCK of lock 1 or 2, or YIELD; main's chunks also
# SPAWN a thread at 0, first thing and at random, with a stack top that
# lies outside the shared words.
_SHARED_REGS = (2, 3, 4, 5)
_SHARED_WORDS = [HEAP_BASE + 4 * i for i in range(4)]
_STACK_TOPS = (0xF000, 0xE800, HEAP_BASE + 0x1000)
_sharing_prelude = st.lists(st.sampled_from(_SHARED_WORDS), min_size=4, max_size=4).map(
    lambda words: [Instruction(Opcode.MOVI, rd=r, imm=w) for r, w in zip(_SHARED_REGS, words)]
)
_access = st.builds(
    lambda op, base, offset, data: Instruction(op, rd=data, rs=base, rt=data, imm=4 * offset),
    st.sampled_from((Opcode.LD, Opcode.ST, Opcode.LDB, Opcode.STB)),
    st.sampled_from(_SHARED_REGS), st.integers(-1, 1), st.sampled_from((1, 7)),
)


def _spawn(stack_top):
    return [Instruction(Opcode.MOVI, rd=0, imm=0), Instruction(Opcode.MOVI, rd=1, imm=stack_top),
            Instruction(Opcode.SYS, imm=SYS_SPAWN)]


_chunk = st.one_of(
    _access.map(lambda i: [i]),
    st.builds(_locked, st.integers(1, 2), st.lists(_access, min_size=1, max_size=2)),
    st.just([Instruction(Opcode.SYS, imm=SYS_YIELD)]),
)
_chunks = st.lists(_chunk, min_size=2, max_size=6).map(lambda cs: [i for c in cs for i in c])
_main_chunks = st.lists(
    st.one_of(_chunk, st.sampled_from(_STACK_TOPS).map(_spawn)), min_size=3, max_size=8
).map(lambda cs: [i for c in cs for i in c])


def _sharing_image(thread, main, first_top):
    """thread and main are (prelude, chunks); each ends in HALT."""
    code = [*thread[0], *thread[1], Instruction(Opcode.HALT)]
    entry = len(code) * INSTR_SIZE
    code += [*main[0], *_spawn(first_top), *main[1], Instruction(Opcode.HALT)]
    return ProgramImage(origin=0, payload=b"".join(map(encode, code)), entry=entry)


sharing_images = st.builds(_sharing_image, st.tuples(_sharing_prelude, _chunks),
                           st.tuples(_sharing_prelude, _main_chunks), st.sampled_from(_STACK_TOPS))


def _over_sharing_images(test):
    """Runs test over 50 sharing images, each with a quantum and a seed."""
    return settings(max_examples=50, deadline=None)(given(
        image=sharing_images,
        quantum=st.integers(1, 3),
        seed=st.integers(0, 2**32),
    )(test))


def _recorded_run(image, policy):
    machine = load(image, policy)
    events = []
    machine.add_observer(events.append)
    return machine.run(STEP_LIMIT), events


@_over_random_images
def test_random_images_run_alike_every_way(image, quantum, seed):
    for kind in (ROUND_ROBIN, SEEDED_RANDOM):
        policy = SchedulerPolicy(kind, quantum, seed)
        bare = load(image, policy).run(STEP_LIMIT)
        recorded, events = _recorded_run(image, policy)
        analyzed_events = []
        analyzed = analyze(
            image,
            RunConfig(policy=policy, step_limit=STEP_LIMIT,
                      observers=(analyzed_events.append,)),
        )
        assert bare.state == recorded.state == analyzed.state, kind
        assert bare.outcome == recorded.outcome == analyzed.outcome, kind
        assert events == analyzed_events, kind


@_over_random_images
def test_random_images_analyze_alike_with_full_delivery(image, quantum, seed):
    """Shadow and checkers handed only the kinds they read give the same
    report, shadow trace, state and outcome as when handed every event."""
    for kind in (ROUND_ROBIN, SEEDED_RANDOM):
        config = RunConfig(policy=SchedulerPolicy(kind, quantum, seed), step_limit=STEP_LIMIT)
        filtered = analysis_outputs(image, config)
        with full_delivery():
            full = analysis_outputs(image, config)
        assert filtered == full, kind


@_over_random_images
def test_random_images_keep_runnable_and_pick_like_the_general_path(image, quantum, seed):
    for kind in (ROUND_ROBIN, SEEDED_RANDOM):
        policy = SchedulerPolicy(kind, quantum, seed)
        assert_scheduled_like_the_general_pick(image, policy, STEP_LIMIT)


@_over_random_images
def test_random_images_race_only_on_words_the_lockset_warns_about(image, quantum, seed):
    """The fuzz leg of the acceptance gate's happens-before criterion."""
    for kind in (ROUND_ROBIN, SEEDED_RANDOM):
        policy = SchedulerPolicy(kind, quantum, seed)
        races, warned, _ = races_and_lockset_warnings(image, policy, STEP_LIMIT)
        assert races <= warned, kind


@_over_sharing_images
def test_sharing_images_keep_runnable_and_pick_like_the_general_path(image, quantum, seed):
    for kind in (ROUND_ROBIN, SEEDED_RANDOM):
        policy = SchedulerPolicy(kind, quantum, seed)
        assert_scheduled_like_the_general_pick(image, policy, SHARING_STEP_LIMIT)


@_over_sharing_images
def test_sharing_images_race_only_on_words_the_lockset_warns_about(image, quantum, seed):
    """The happens-before criterion where threads do share words."""
    for kind in (ROUND_ROBIN, SEEDED_RANDOM):
        policy = SchedulerPolicy(kind, quantum, seed)
        races, warned, _ = races_and_lockset_warnings(image, policy, SHARING_STEP_LIMIT)
        assert races <= warned, kind


@_over_sharing_images
def test_sharing_images_replay_to_the_live_warnings(image, quantum, seed):
    """The fuzz leg of the acceptance gate's replay criterion."""
    for kind in (ROUND_ROBIN, SEEDED_RANDOM):
        policy = SchedulerPolicy(kind, quantum, seed)
        live, replayed = live_and_replayed(image, policy, SHARING_STEP_LIMIT)
        assert replayed == live.warnings, kind


# Waiting images: main takes lock 1 and SPAWNs 2-4 workers that each
# LOCK 1, bump a shared counter and UNLOCK 1; it YIELDs, so the workers
# queue on the lock, before its own UNLOCK 1, then spins until the counter
# equals the number of workers.  Every waiter must be woken for it to end.
WAITING_STEP_LIMIT = 1000


def _waiting_image(workers):
    spawns = "".join(f"MOVI r0, worker\nMOVI r1, {0xF000 - 0x400 * k}\nSYS 48\n"
                     for k in range(workers))
    return assemble(f"""MOVI r0, 1
SYS 49
{spawns}SYS 51
MOVI r0, 1
SYS 50
MOVI r3, {HEAP_BASE}
MOVI r4, {workers}
spin: LD r5, [r3]
CMP r5, r4
BNE spin
HALT
worker: MOVI r0, 1
SYS 49
MOVI r2, 1
MOVI r3, {HEAP_BASE}
LD r5, [r3]
ADD r5, r5, r2
ST [r3], r5
MOVI r0, 1
SYS 50
SYS 52
""")


@settings(max_examples=30, deadline=None)
@given(workers=st.integers(2, 4), quantum=st.integers(1, 3), seed=st.integers(0, 2**32))
def test_waiting_images_wake_every_waiter_and_pick_like_the_general_path(workers, quantum, seed):
    image = _waiting_image(workers)
    for kind in (ROUND_ROBIN, SEEDED_RANDOM):
        policy = SchedulerPolicy(kind, quantum, seed)
        assert_scheduled_like_the_general_pick(image, policy, WAITING_STEP_LIMIT)
        result = load(image, policy).run(WAITING_STEP_LIMIT)
        assert result.outcome == "halt", kind
        assert int.from_bytes(result.state.memory[HEAP_BASE:HEAP_BASE + 4], "little") == workers


_read_sets = st.lists(st.frozensets(st.sampled_from(EVENT_KINDS)), min_size=1, max_size=3)


def _stream(image, policy, kinds=None):
    """(final state, the events an observer reading `kinds` received,
    each as a tuple of its fields); kinds None reads every kind, and an
    empty `kinds` leaves the run bare."""
    machine = load(image, policy)
    got = []

    def observe(e):
        got.append(dataclasses.astuple(e))

    if kinds is not None:
        observe.kinds = tuple(kinds)
    machine.add_observer(observe)
    return machine.run(STEP_LIMIT).state, got


@contextlib.contextmanager
def _handlers_compiled_afresh():
    """Runs compile every code word anew for their read set, through no
    handler cache: the reference the cached runs must match."""
    compiler = scvm.machine._compiler
    scvm.machine._compiler = lambda reads: functools.partial(scvm.machine._compile, reads=reads)
    try:
        yield
    finally:
        scvm.machine._compiler = compiler


def _assert_each_read_set_sees_the_filtered_stream(image, policy, read_sets):
    """Bare, subset and full runs interleaved in one process, through
    the shared handler caches: each observer gets exactly the stream of
    a run compiled afresh, filtered to the kinds it reads, and every
    run ends in the same state."""
    for kind in (ROUND_ROBIN, SEEDED_RANDOM):
        policy = dataclasses.replace(policy, kind=kind)
        with _handlers_compiled_afresh():
            state, full = _stream(image, policy)
        for kinds in read_sets:
            assert load(image, policy).run(STEP_LIMIT).state == state, kind
            filtered = [e for e in full if e[0] in kinds]
            assert _stream(image, policy, kinds) == (state, filtered), (kind, sorted(kinds))
            assert _stream(image, policy) == (state, full), kind


@settings(max_examples=50, deadline=None)
@given(
    image=random_images,
    quantum=st.integers(1, 3),
    seed=st.integers(0, 2**32),
    read_sets=_read_sets,
)
def test_random_images_deliver_each_read_set_its_filtered_stream(image, quantum, seed, read_sets):
    policy = SchedulerPolicy(ROUND_ROBIN, quantum, seed)
    _assert_each_read_set_sees_the_filtered_stream(image, policy, read_sets)


@pytest.mark.parametrize("name", corpus_names())
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32), read_sets=_read_sets)
def test_corpus_entries_deliver_each_read_set_its_filtered_stream(name, seed, read_sets):
    image = assemble(corpus_source(name))
    policy = SchedulerPolicy(ROUND_ROBIN, 1, seed)
    _assert_each_read_set_sees_the_filtered_stream(image, policy, read_sets)
