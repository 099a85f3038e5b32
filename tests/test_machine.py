"""Interpreter, scheduler and syscall behavior.

The seeded scheduler is checked against an independent xorshift64*
reimplementation rather than against the machine's own generator.
"""

import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

import scvm.machine
from scvm.asm import assemble
from scvm.checkers import RULE_NULL_DEREF, CheckerRegistry, make_checkers
from scvm.isa import INSTR_SIZE, Instruction, Opcode, decode, encode
from scvm.machine import (
    DEFAULT_STACK_SIZE,
    DEFAULT_STACK_TOP,
    EVENT_FIELDS,
    EVENT_KINDS,
    HEAP_BASE,
    MAX_LOCKS_HELD,
    ROUND_ROBIN,
    SEEDED_RANDOM,
    SYSCALL_NAMES,
    Event,
    GuestFault,
    MODE_KERNEL,
    MODE_USER,
    Machine,
    MachineState,
    Scheduler,
    SchedulerPolicy,
    _new_thread,
    format_event,
    load,
)
from scvm.shadow import ShadowState

from helpers import (
    assert_scheduled_like_the_general_pick,
    assert_waiters_wait,
    corpus_names,
    corpus_source,
    general_pick,
    rebuilt_runnable,
    ref_xorshift64star,
    shadow_cells,
    spawn_slowdown,
)


def run_source(src, policy=None, step_limit=10_000):
    """Run src with a recording observer attached; returns (machine,
    result), where result holds the RunResult's fields plus `events`,
    every event in emission order."""
    machine = load(assemble(src), policy)
    events = []
    machine.add_observer(events.append)
    result = machine.run(step_limit=step_limit)
    return machine, SimpleNamespace(**vars(result), events=events)


def step_tids(events):
    """tid of each executed step, in step order."""
    by_step = {}
    for e in events:
        by_step.setdefault(e.step, e.tid)
    return [by_step[s] for s in sorted(by_step)]


SPIN_PAIR = """
start: MOVI r0, worker
       MOVI r1, 0xF000
       SYS 48
spin:  JMP spin
worker: JMP worker
"""


# -- single-thread execution ------------------------------------------


def test_movi_event_shape():
    _, result = run_source("MOVI r3, 7\nHALT")
    first = result.events[:2]
    assert [e.kind for e in first] == ["fetch", "reg-write"]
    assert first[1].reg == 3 and first[1].value == 7 and first[1].src == ("imm",)
    assert first[0].tid == 0 and first[0].pc == 0 and first[0].mode == MODE_USER


def test_add_wraps_to_32_bits():
    machine, result = run_source(
        "MOVI r1, 0xFFFFFFFF\nMOVI r2, 1\nADD r3, r1, r2\nHALT"
    )
    assert result.outcome == "halt"
    assert machine.state.threads[0].regs[3] == 0


def test_store_load_round_trip_little_endian():
    machine, result = run_source(
        "MOVI r1, 0x4000\nMOVI r2, 0x11223344\nST [r1], r2\nLDB r3, [r1]\nLD r4, [r1]\nHALT"
    )
    t = machine.state.threads[0]
    assert t.regs[3] == 0x44  # low byte stored first
    assert t.regs[4] == 0x11223344
    assert machine.state.memory[0x4000:0x4004] == bytes([0x44, 0x33, 0x22, 0x11])


def test_unaligned_word_store_faults_without_writing():
    machine, result = run_source("MOVI r1, 0x4002\nMOVI r2, 0xAB\nST [r1], r2\nHALT")
    assert result.outcome == "fault"
    assert "unaligned" in machine.state.fault.reason
    assert machine.state.fault.tid == 0
    assert machine.state.fault.step == 2
    assert machine.state.memory[0x4000:0x4008] == bytes(8)


def test_unmapped_access_faults():
    _, result = run_source("MOVI r1, 0xFFFC\nLD r2, [r1+4]\nHALT")
    assert result.outcome == "fault"
    assert "unmapped" in result.state.fault.reason


# -- fault paths ---------------------------------------------------------
#
# Each test pins the whole GuestFault and every event line the run
# emitted before it, and checks that a run with no observer ends in the
# same state.


def fault_trace(src):
    """(fault, format_event lines) of an observed run of src, after
    checking that a bare run of it faults into the same state."""
    machine, result = run_source(src)
    bare = load(assemble(src)).run(step_limit=10_000)
    assert result.outcome == bare.outcome == "fault"
    assert bare.state == machine.state
    return machine.state.fault, [format_event(e) for e in result.events]


def _tail(*fields):
    return " ".join([*fields, "mode=user iflag=1 locks={}"])


def test_jump_to_misaligned_pc_faults():
    fault, lines = fault_trace("JMP 0x0C\nHALT")
    assert fault == GuestFault("misaligned pc 0x000C", tid=0, pc=0x0C, step=1)
    assert lines == [
        "0\t0\t0x0000\tfetch\t" + _tail("op=JMP"),
        "0\t0\t0x0000\tbranch\t" + _tail("addr=0x000C", "taken=1"),
    ]


def test_return_to_misaligned_pc_faults():
    fault, lines = fault_trace("MOVI r7, 0x13\nRET")
    assert fault == GuestFault("misaligned pc 0x0013", tid=0, pc=0x13, step=2)
    assert lines == [
        "0\t0\t0x0000\tfetch\t" + _tail("op=MOVI"),
        "0\t0\t0x0000\treg-write\t" + _tail("reg=r7", "value=0x00000013", "src=imm"),
        "1\t0\t0x0008\tfetch\t" + _tail("op=RET"),
        "1\t0\t0x0008\treg-read\t" + _tail("reg=r7", "value=0x00000013"),
        "1\t0\t0x0008\tbranch\t" + _tail("addr=0x0013", "taken=1"),
    ]


def test_pc_running_off_the_end_of_memory_faults():
    fault, lines = fault_trace("JMP last\n.org 0xFFF8\nlast: MOVI r1, 1")
    assert fault == GuestFault("pc 0x10000 out of range", tid=0, pc=0x10000, step=2)
    assert lines == [
        "0\t0\t0x0000\tfetch\t" + _tail("op=JMP"),
        "0\t0\t0x0000\tbranch\t" + _tail("addr=0xFFF8", "taken=1"),
        "1\t0\t0xFFF8\tfetch\t" + _tail("op=MOVI"),
        "1\t0\t0xFFF8\treg-write\t" + _tail("reg=r1", "value=0x00000001", "src=imm"),
    ]


def test_unaligned_word_load_faults():
    fault, lines = fault_trace("MOVI r1, 0x8001\nLD r2, [r1+1]\nHALT")
    assert fault == GuestFault("unaligned word access at 0x8002", tid=0, pc=8, step=1)
    assert lines == [
        "0\t0\t0x0000\tfetch\t" + _tail("op=MOVI"),
        "0\t0\t0x0000\treg-write\t" + _tail("reg=r1", "value=0x00008001", "src=imm"),
        "1\t0\t0x0008\tfetch\t" + _tail("op=LD"),
        "1\t0\t0x0008\treg-read\t" + _tail("reg=r1", "value=0x00008001"),
    ]


@pytest.mark.parametrize(
    "base, offset, reason",
    [
        (0xFFFC, "+4", "unmapped address 0x00010000"),
        (0, "-4", "unmapped address 0xFFFFFFFC"),
    ],
)
def test_unmapped_store_faults(base, offset, reason):
    fault, lines = fault_trace(f"MOVI r1, {base}\nMOVI r2, 5\nST [r1{offset}], r2\nHALT")
    assert fault == GuestFault(reason, tid=0, pc=16, step=2)
    assert lines == [
        "0\t0\t0x0000\tfetch\t" + _tail("op=MOVI"),
        "0\t0\t0x0000\treg-write\t" + _tail("reg=r1", f"value=0x{base:08X}", "src=imm"),
        "1\t0\t0x0008\tfetch\t" + _tail("op=MOVI"),
        "1\t0\t0x0008\treg-write\t" + _tail("reg=r2", "value=0x00000005", "src=imm"),
        "2\t0\t0x0010\tfetch\t" + _tail("op=ST"),
        "2\t0\t0x0010\treg-read\t" + _tail("reg=r1", f"value=0x{base:08X}"),
        "2\t0\t0x0010\treg-read\t" + _tail("reg=r2", "value=0x00000005"),
    ]


# -- every opcode, with and without an observer ----------------------------
#
# The prelude gives the registers and a heap word distinct values; each
# guest then ends in the opcode under test (and HALT).

OPCODE_PRELUDE = """
start: MOVI r0, 0x8000
       MOVI r1, 0x12345678
       MOVI r2, 0xF00D00F5
       ST [r0+4], r1
"""
KERNEL_ENTRY = "MOVI r0, trap\nSYS 18\nSYS 16\nHALT\ntrap: "
OPCODE_GUESTS = {
    Opcode.MOVI: "MOVI r3, -5",
    Opcode.MOV: "MOV r3, r2",
    Opcode.LD: "LD r3, [r0+4]",
    Opcode.LDB: "LDB r3, [r0+5]",
    Opcode.ST: "ST [r0+8], r2",
    Opcode.STB: "STB [r0+9], r2",
    Opcode.ADD: "ADD r3, r2, r1",
    Opcode.SUB: "SUB r3, r1, r2",
    Opcode.MUL: "MUL r3, r2, r1",
    Opcode.AND: "AND r3, r2, r1",
    Opcode.OR: "OR r3, r2, r1",
    Opcode.XOR: "XOR r3, r2, r1",
    Opcode.CMP: "CMP r1, r2",
    Opcode.CMPI: "CMPI r1, 0x12345678",
    Opcode.BEQ: "CMP r1, r1\nBEQ end\nMOVI r3, 1",
    Opcode.BNE: "CMP r1, r1\nBNE end\nMOVI r3, 1",
    Opcode.JMP: "JMP end\nMOVI r3, 1",
    Opcode.CALL: "CALL end\nMOVI r3, 1",
    Opcode.RET: "MOVI r7, end\nRET\nMOVI r3, 1",
    Opcode.SYS: "MOVI r0, msg\nSYS 4",
    Opcode.CLI: KERNEL_ENTRY + "CLI",
    Opcode.STI: KERNEL_ENTRY + "CLI\nSTI",
    Opcode.HALT: "HALT",
}


@pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.name)
def test_every_opcode_runs_alike_with_and_without_an_observer(op):
    src = f'{OPCODE_PRELUDE}{OPCODE_GUESTS[op]}\nend: HALT\nmsg: .asciiz "hi"\n'
    machine, observed = run_source(src)
    bare = load(assemble(src)).run(step_limit=10_000)
    assert any(e.kind == "fetch" and e.op == op.name for e in observed.events)
    assert observed.outcome == bare.outcome == "halt"
    assert bare.state == machine.state  # registers, zflag, pc, memory, output


def test_branch_on_equal():
    machine, _ = run_source(
        "MOVI r1, 5\nCMPI r1, 5\nBEQ yes\nMOVI r2, 1\nyes: MOVI r3, 7\nHALT"
    )
    t = machine.state.threads[0]
    assert t.regs[2] == 0 and t.regs[3] == 7


def test_branch_not_taken_falls_through():
    machine, result = run_source(
        "MOVI r1, 5\nCMPI r1, 6\nBEQ yes\nMOVI r2, 1\nyes: MOVI r3, 7\nHALT"
    )
    t = machine.state.threads[0]
    assert t.regs[2] == 1 and t.regs[3] == 7
    branch = [e for e in result.events if e.kind == "branch"][0]
    assert branch.taken is False


def test_call_and_ret():
    machine, _ = run_source("CALL fn\nMOVI r2, 9\nHALT\nfn: MOVI r1, 3\nRET")
    t = machine.state.threads[0]
    assert t.regs[1] == 3 and t.regs[2] == 9
    assert t.regs[7] == 8  # return address pushed by CALL at pc 0


def test_cli_in_user_mode_faults():
    _, result = run_source("CLI\nHALT")
    assert result.outcome == "fault"
    assert "user mode" in result.state.fault.reason


def test_load_places_image_and_inits_thread_zero():
    image = assemble('.org 0x200\nv: .word 0xDEADBEEF\nstart: HALT')
    machine = load(image)
    st = machine.state
    assert st.memory[0x200:0x200 + len(image.payload)] == image.payload
    assert all(b == 0 for b in st.memory[: 0x200])
    t = st.threads[0]
    assert t.pc == image.entry
    assert t.regs[6] == DEFAULT_STACK_TOP
    assert t.stack_base == DEFAULT_STACK_TOP - DEFAULT_STACK_SIZE
    assert st.current == 0 and st.iflag is True


def test_timeout_runs_exactly_the_limit():
    _, result = run_source("spin: JMP spin", step_limit=57)
    assert result.outcome == "timeout"
    assert result.state.step_count == 57


# -- syscalls ----------------------------------------------------------


def test_alloc_rounds_and_does_not_overlap():
    machine, _ = run_source(
        "MOVI r0, 10\nSYS 1\nMOV r3, r0\n"
        "MOVI r0, 0\nSYS 1\nMOV r4, r0\n"
        "MOVI r0, 0x7000\nSYS 1\nMOV r5, r0\nHALT"
    )
    t = machine.state.threads[0]
    assert t.regs[3] == HEAP_BASE
    assert t.regs[4] == HEAP_BASE + 12  # 10 rounds up to 12
    assert t.regs[5] == 0  # 0x7000 bytes exceed what is left


def test_open_missing_and_present():
    machine, _ = run_source(
        '.org 0x100\nm: .asciiz "missing.txt"\np: .asciiz "present.txt"\n'
        "start: MOVI r0, m\nSYS 2\nMOV r3, r0\n"
        "MOVI r0, p\nSYS 2\nMOV r4, r0\n"
        "MOVI r0, p\nSYS 2\nMOV r5, r0\nHALT"
    )
    t = machine.state.threads[0]
    assert t.regs[3] == 0
    assert t.regs[4] == 3  # descriptors count up from 3
    assert t.regs[5] == 4


def test_open_unterminated_name_fails():
    machine = load(assemble("MOVI r0, 0xFF00\nSYS 2\nHALT"))
    machine.state.memory[0xFF00:] = b"A" * 0x100  # no NUL before end of memory
    machine.run()
    assert machine.state.threads[0].regs[0] == 0


def test_read_net_pattern_follows_seed():
    machine, result = run_source(
        "MOVI r0, 0x4000\nMOVI r1, 8\nSYS 3\nHALT",
        policy=SchedulerPolicy(seed=65),
    )
    assert machine.state.memory[0x4000:0x4008] == bytes(range(65, 73))
    fills = [e for e in result.events if e.kind == "mem-write"]
    assert len(fills) == 1
    assert fills[0].addr == 0x4000 and fills[0].width == 8
    assert fills[0].src == ("syscall", 3)


def test_printf_appends_to_output():
    machine, _ = run_source('.org 0x100\ns: .asciiz "hi %d"\nstart: MOVI r0, s\nSYS 4\nSYS 4\nHALT')
    assert machine.state.output == b"hi %dhi %d"


def test_printf_output_is_capped():
    text = b"%d " * 1365  # 4,095 bytes, NUL after
    machine = load(assemble("loop: MOVI r0, 0x4000\nSYS 4\nJMP loop"))
    machine.state.memory[0x4000 : 0x4000 + len(text)] = text
    result = machine.run(step_limit=1800)  # 600 PRINTFs, 2,457,000 bytes
    assert result.outcome == "timeout"
    assert len(machine.state.output) == 1 << 20
    assert machine.state.output.startswith(text)


def test_syscall_names_are_the_sixteen_syscalls():
    assert SYSCALL_NAMES == {
        1: "ALLOC", 2: "OPEN", 3: "READ_NET", 4: "PRINTF",
        16: "KCALL", 17: "KRET", 18: "SET_TRAP",
        32: "CHECK_USER_READ", 33: "CHECK_USER_WRITE", 34: "TAG_TAINT",
        35: "TAG_UNTRUSTED_SOURCE",
        48: "SPAWN", 49: "LOCK", 50: "UNLOCK", 51: "YIELD", 52: "EXIT_THREAD",
    }


# Each syscall fault, and whether the faulting step emitted its
# `syscall` event: the argument checks stop a call before it, a guest
# address past the end of memory only after it.
@pytest.mark.parametrize(
    "src, fault, emitted",
    [
        ("SYS 5\nHALT", GuestFault("unknown syscall 5", 0, 0x00, 0), False),
        ("SYS 6\nHALT", GuestFault("unknown syscall 6", 0, 0x00, 0), False),
        ("SYS 99\nHALT", GuestFault("unknown syscall 99", 0, 0x00, 0), False),
        ("MOVI r0, 1\nSYS 49\nSYS 49\nHALT", GuestFault("recursive LOCK of 1", 0, 0x10, 2), False),
        ("MOVI r0, 1\nMOVI r1, 1\nloop: SYS 49\nADD r0, r0, r1\nJMP loop",
         GuestFault("LOCK of 49 past the cap of 48 locks held", 0, 0x10, 146), False),
        ("MOVI r0, 5\nSYS 50\nHALT",
         GuestFault("UNLOCK of lock 5 not held by tid 0", 0, 0x08, 1), False),
        ("start: MOVI r0, h\nSYS 18\nSYS 16\nHALT\nh: SYS 16",
         GuestFault("nested KCALL", 0, 0x20, 3), False),
        ("SYS 16\nHALT", GuestFault("KCALL with no trap entry set", 0, 0x00, 0), False),
        ("SYS 17\nHALT", GuestFault("KRET outside a KCALL", 0, 0x00, 0), False),
        ("MOVI r0, 0x10000\nSYS 2\nHALT",
         GuestFault("unmapped address 0x00010000", 0, 0x08, 1), True),
        ("MOVI r0, 0x10000\nSYS 4\nHALT",
         GuestFault("unmapped address 0x00010000", 0, 0x08, 1), True),
        ("MOVI r0, 0xFFFF\nMOVI r1, 2\nSYS 3\nHALT",
         GuestFault("unmapped address 0x0000FFFF", 0, 0x10, 2), True),
    ],
    ids=["unknown-5", "unknown-6", "unknown-99", "recursive-lock", "lock-past-cap",
         "unlock-not-held", "nested-kcall", "kcall-no-trap", "kret-outside-kcall",
         "open-past-end", "printf-past-end", "read-net-past-end"],
)
def test_syscall_fault_and_its_event(src, fault, emitted):
    got, lines = fault_trace(src)
    assert got == fault
    last_step = [line.split("\t")[3] for line in lines if line.startswith(f"{fault.step}\t")]
    assert last_step == (["fetch", "syscall"] if emitted else ["fetch"])


# -- kernel mode -------------------------------------------------------

KCALL_SRC = """
start: MOVI r0, handler
       SYS 18
       SYS 16
       MOVI r5, 1
       HALT
handler: CLI
       STI
       SYS 17
"""


def test_kcall_enters_kernel_and_kret_returns():
    machine, result = run_source(KCALL_SRC)
    assert result.outcome == "halt"
    assert machine.state.threads[0].regs[5] == 1  # resumed after the trap
    modes = [e.kind for e in result.events if e.kind == "mode-change"]
    assert modes == ["mode-change", "mode-change"]
    handler_fetches = [
        e for e in result.events if e.kind == "fetch" and e.mode == MODE_KERNEL
    ]
    assert len(handler_fetches) == 3  # CLI, STI, SYS 17
    assert machine.state.threads[0].mode == MODE_USER


def test_iflag_window_is_visible_in_events():
    _, result = run_source(KCALL_SRC)
    sti_fetch = [
        e for e in result.events if e.kind == "fetch" and e.op == "STI"
    ][0]
    assert sti_fetch.iflag is False  # CLI already took effect
    assert result.state.iflag is True  # STI restored it


# -- threads, locks and scheduling --------------------------------------


def test_spawn_initializes_child():
    """Stopped right after the SPAWN, while the child is live."""
    src = "start: MOVI r0, worker\nMOVI r1, 0xF000\nSYS 48\nMOV r5, r0\nHALT\nworker: HALT"
    machine, _ = run_source(src, step_limit=3)
    image = assemble(src)
    st = machine.state
    assert st.threads[0].regs[0] == 1  # spawn returns the new tid
    child = st.threads[1]
    assert child.pc == image.symbols["worker"]
    assert child.regs[6] == 0xF000
    assert child.regs[:6] == [0] * 6
    assert child.stack_base == 0xF000 - DEFAULT_STACK_SIZE


def test_round_robin_alternates_after_spawn():
    _, result = run_source(SPIN_PAIR, step_limit=20)
    tids = step_tids(result.events)
    assert tids[:3] == [0, 0, 0]
    assert tids[3:] == [1, 0] * ((20 - 3) // 2) + [1][: (20 - 3) % 2]


def test_quantum_two_runs_pairs_of_steps():
    policy = SchedulerPolicy(quantum=2)
    _, result = run_source(SPIN_PAIR, policy=policy, step_limit=13)
    tids = step_tids(result.events)
    # thread 0 keeps its second slice step after the spawn, then pairs
    assert tids == [0, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1]


def test_seeded_schedule_matches_reference_generator():
    policy = SchedulerPolicy(kind="seeded-random", seed=12345)
    _, result = run_source(SPIN_PAIR, policy=policy, step_limit=60)
    tids = step_tids(result.events)

    state = 12345
    expect = []
    for step in range(60):
        eligible = [0] if step < 3 else [0, 1]
        state, out = ref_xorshift64star(state)
        expect.append(eligible[out % len(eligible)])
    assert tids == expect


def test_seeded_zero_seed_is_remapped():
    a = run_source(SPIN_PAIR, SchedulerPolicy(kind="seeded-random", seed=0), 40)[1]
    b = run_source(
        SPIN_PAIR,
        SchedulerPolicy(kind="seeded-random", seed=0x9E3779B97F4A7C15),
        40,
    )[1]
    assert step_tids(a.events) == step_tids(b.events)


def test_different_seeds_differ():
    a = run_source(SPIN_PAIR, SchedulerPolicy(kind="seeded-random", seed=1), 64)[1]
    b = run_source(SPIN_PAIR, SchedulerPolicy(kind="seeded-random", seed=2), 64)[1]
    assert step_tids(a.events) != step_tids(b.events)


def test_yield_rotates_early():
    src = (
        "start: MOVI r0, worker\nMOVI r1, 0xF000\nSYS 48\nSYS 51\n"
        "MOVI r2, 1\nHALT\nworker: JMP worker"
    )
    _, result = run_source(src, SchedulerPolicy(quantum=4), step_limit=30)
    tids = step_tids(result.events)
    yield_step = [e.step for e in result.events if e.kind == "syscall" and e.sysno == 51][0]
    assert tids[yield_step] == 0
    assert tids[yield_step + 1] == 1


def test_scheduler_policy_rejects_an_unknown_kind():
    # The CLI and the manifests reject it first; the API still must.
    with pytest.raises(ValueError) as exc:
        SchedulerPolicy(kind="bogus")
    assert str(exc.value) == "unknown scheduler kind 'bogus'"


@pytest.mark.parametrize("quantum", [1, 2, 3])
@pytest.mark.parametrize("kind", [ROUND_ROBIN, SEEDED_RANDOM])
def test_pick_matches_the_general_path(kind, quantum):
    """Random thread sets that spend long stretches with one thread,
    mutated by hand (so state.runnable is rebuilt after each mutation):
    pick gives the general path's tids and leaves its quantum count and
    generator where the general path would."""
    for seed in range(40):
        rng = random.Random(seed)
        policy = SchedulerPolicy(kind, quantum, seed)
        fast, general = Scheduler(policy), Scheduler(policy)
        state = MachineState(memory=bytearray(), threads={0: _new_thread(0, 0, 0)}, current=0)
        for _ in range(200):
            tids = sorted(state.threads)
            roll = rng.random()
            if roll < 0.03:
                state.threads[state.next_tid] = _new_thread(state.next_tid, 0, 0)
                state.next_tid += 1
            elif roll < 0.10 and tids:  # wake one thread, then block it or end it
                tid = rng.choice(tids)
                state.blocked = {lock: [t for t in waiters if t != tid]
                                 for lock, waiters in state.blocked.items()}
                if roll >= 0.08:
                    del state.threads[tid]
                elif rng.choice([None, None, 1]):
                    state.blocked.setdefault(1, []).append(tid)
            elif roll < 0.15:
                fast.expire_slice()
                general.expire_slice()
            state.runnable = rebuilt_runnable(state)
            tid = fast.pick(state)
            assert tid == general_pick(general, state), seed
            assert (fast._used, fast._rng) == (general._used, general._rng), seed
            if tid is not None:
                state.current = tid


def test_a_state_built_with_a_blocked_thread_derives_its_lists_and_wakes_it():
    """Thread 1 waits on lock 5, held by thread 0, in a state built by
    hand: runnable starts as the threads and blocked say, and thread 0's
    UNLOCK wakes thread 1, which then takes the lock."""
    image = assemble("MOVI r0, 5\nSYS 50\nHALT\nwaiter: SYS 49\nHALT")
    main = _new_thread(0, pc=image.entry, stack_top=DEFAULT_STACK_TOP)
    main.locks_held = frozenset({5})
    waiter = _new_thread(1, pc=image.symbols["waiter"], stack_top=0xE000)
    waiter.regs[0] = 5
    state = MachineState(memory=load(image).state.memory, threads={0: main, 1: waiter},
                         current=0, locks={5: 0}, blocked={5: [1]})
    assert state.runnable == [0] == rebuilt_runnable(state)
    assert_waiters_wait(state)
    machine = Machine(state)
    events = []
    machine.add_observer(events.append)
    assert machine.run(step_limit=2).outcome == "timeout"  # MOVI, then the UNLOCK
    assert state.runnable == [0, 1] == rebuilt_runnable(state)
    assert state.blocked == {}
    assert machine.run().outcome == "halt"
    locking = [(e.tid, e.kind, e.lock) for e in events if e.kind in ("lock", "unlock")]
    assert locking == [(0, "unlock", 5), (1, "lock", 5)]
    assert state.locks == {5: 1}


def _lifetimes(events) -> list:
    """("spawn", new tid) and ("thread-exit", tid), in emission order."""
    return [(e.kind, e.new_tid if e.kind == "spawn" else e.tid)
            for e in events if e.kind in ("spawn", "thread-exit")]


def test_a_spawn_after_a_thread_ends_mints_the_next_tid():
    """Tids count up: the child spawned after tid 1 ends is tid 2, not 1,
    and each child leaves the thread table when it ends."""
    machine, result = run_source("MOVI r1, 0xF000\nMOVI r0, child\nSYS 48\nMOV r4, r0\n"
                                 "MOVI r0, child\nSYS 48\nMOV r5, r0\nHALT\nchild: HALT")
    assert _lifetimes(result.events) == [("spawn", 1), ("thread-exit", 1), ("spawn", 2),
                                         ("thread-exit", 2)]
    st = machine.state
    assert (st.threads[0].regs[4], st.threads[0].regs[5]) == (1, 2)
    assert list(st.threads) == [0] and st.next_tid == 3


def test_a_thread_spawned_after_a_lock_holder_ends_does_not_hold_its_lock():
    """Tid 1 ends holding lock 9; the thread spawned next is tid 2, so its
    UNLOCK of 9 faults under its own tid."""
    src = """
start:  MOVI r1, 0xF000
        MOVI r0, taker
        SYS 48
        SYS 51
        SYS 51
        SYS 51
        MOVI r0, freer
        SYS 48
spin:   JMP spin
taker:  MOVI r0, 9
        SYS 49
        SYS 52
freer:  MOVI r0, 9
unlock: SYS 50
"""
    machine, result = run_source(src)
    assert _lifetimes(result.events) == [("spawn", 1), ("thread-exit", 1), ("spawn", 2)]
    fault = machine.state.fault
    assert (fault.reason, fault.tid) == ("UNLOCK of lock 9 not held by tid 2", 2)
    assert fault.pc == assemble(src).symbols["unlock"]
    assert machine.state.locks == {9: 1}


def test_a_state_built_by_hand_mints_the_tid_after_its_highest():
    image = assemble("MOVI r0, child\nMOVI r1, 0xF000\nSYS 48\nHALT\nchild: JMP child")
    threads = {0: _new_thread(0, pc=image.entry, stack_top=DEFAULT_STACK_TOP),
               1: _new_thread(1, pc=image.symbols["child"], stack_top=0xF000)}
    state = MachineState(memory=load(image).state.memory, threads=threads, current=0)
    assert state.next_tid == 2
    assert Machine(state).run().outcome == "halt"
    assert state.threads[0].regs[0] == 2 and list(state.threads) == [0, 1, 2]
    # With a gap, not len(threads), which tid 2 already holds.
    gapped = {tid: _new_thread(tid, 0, 0) for tid in (0, 2)}
    assert MachineState(memory=bytearray(), threads=gapped, current=0).next_tid == 3


def _threads_and_locks_source(rng):
    """A random guest of straight-line threads.  Each SPAWNs only
    higher-numbered workers, takes and releases two lock ids (never
    one it holds, and releases only what it holds), YIELDs, and ends in
    HALT or EXIT_THREAD, sometimes still holding a lock; so threads
    block, wake, deadlock and die in many orders."""
    n_workers = rng.randint(1, 3)
    lines = []
    for me in range(n_workers + 1):
        lines.append("start:" if me == 0 else f"w{me}:")
        held = set()
        for _ in range(rng.randint(3, 10)):
            roll = rng.random()
            if roll < 0.25 and me < n_workers:
                lines += [f"MOVI r0, w{rng.randint(me + 1, n_workers)}",
                          f"MOVI r1, {0xF000 - 0x400 * me}", "SYS 48"]
            elif roll < 0.5:
                lock = rng.choice([1, 2])
                if lock in held:
                    lines += [f"MOVI r0, {lock}", "SYS 50"]
                    held.discard(lock)
                else:
                    lines += [f"MOVI r0, {lock}", "SYS 49"]
                    held.add(lock)
            elif roll < 0.65:
                lines.append("SYS 51")
            else:
                lines.append(f"MOVI r2, {rng.randint(0, 9)}")
        for lock in sorted(held):
            if rng.random() < 0.8:
                lines += [f"MOVI r0, {lock}", "SYS 50"]
        lines.append(rng.choice(["HALT", "SYS 52"]))
    return "\n".join(lines)


@pytest.mark.parametrize("quantum", [1, 2, 3])
@pytest.mark.parametrize("kind", [ROUND_ROBIN, SEEDED_RANDOM])
def test_random_thread_images_keep_runnable_and_pick_like_the_general_path(kind, quantum):
    outcomes = set()
    for seed in range(30):
        image = assemble(_threads_and_locks_source(random.Random(seed)))
        policy = SchedulerPolicy(kind, quantum, seed)
        assert_scheduled_like_the_general_pick(image, policy, step_limit=400)
        outcomes.add(load(image, policy).run(400).outcome)
    assert outcomes >= {"halt", "fault"}


@pytest.mark.parametrize("quantum", [1, 2, 3])
@pytest.mark.parametrize("kind", [ROUND_ROBIN, SEEDED_RANDOM])
def test_corpus_entries_keep_runnable_and_pick_like_the_general_path(kind, quantum):
    policy = SchedulerPolicy(kind, quantum, 11)
    for name in corpus_names():
        assert_scheduled_like_the_general_pick(assemble(corpus_source(name)), policy, 2_000)


CONTENDED_LOCK_SRC = """
start: MOVI r0, 1
       SYS 49            ; take the lock first
       MOVI r0, worker
       MOVI r1, 0xF000
       SYS 48
       MOVI r0, 1
       SYS 50            ; release; the worker can now get it
wait:  LD r2, [r4+0x4000]
       CMPI r2, 1
       BNE wait
       HALT
worker: MOVI r0, 1
       SYS 49
       MOVI r0, 1
       SYS 50
       MOVI r2, 1
       MOVI r3, 0x4000
       ST [r3], r2
       HALT
"""


def test_contended_lock_blocks_and_retries():
    machine, result = run_source(CONTENDED_LOCK_SRC)
    assert result.outcome == "halt"
    assert machine.state.fault is None
    assert machine.state.locks == {}
    worker_attempts = [
        e for e in result.events
        if e.kind == "syscall" and e.sysno == 49 and e.tid == 1
    ]
    # one blocked attempt plus the re-executed, successful one
    assert len(worker_attempts) == 2
    acquired = [e for e in result.events if e.kind == "lock" and e.tid == 1]
    assert len(acquired) == 1
    first, second = worker_attempts[0].step, worker_attempts[1].step
    between = {e.tid for e in result.events if first < e.step < second}
    assert 1 not in between  # blocked thread never ran in the gap


def test_worker_halt_is_a_thread_exit():
    _, result = run_source(CONTENDED_LOCK_SRC)
    exits = [e for e in result.events if e.kind == "thread-exit"]
    assert [e.tid for e in exits] == [1]


def test_lock_held_appears_in_event_stamp():
    _, result = run_source("MOVI r0, 3\nSYS 49\nMOVI r1, 1\nSYS 50\nHALT")
    held = [e.locks_held for e in result.events if e.kind == "fetch"]
    assert frozenset({3}) in held
    sys50 = [e for e in result.events if e.kind == "syscall" and e.sysno == 50][0]
    assert sys50.locks_held == frozenset({3})


def test_a_thread_at_the_lock_cap_runs_on_and_locks_again_after_an_unlock():
    """A thread may hold MAX_LOCKS_HELD locks; one UNLOCK makes room
    for the next LOCK.  Each `lock` event's stamp is the held set as it
    was then, not as it ends up."""
    src = f"""
        MOVI r0, 1
        MOVI r1, 1
        MOVI r2, {MAX_LOCKS_HELD + 1}
loop:   SYS 49
        ADD r0, r0, r1
        CMP r0, r2
        BNE loop
        MOVI r0, {MAX_LOCKS_HELD}
        SYS 50
        MOVI r0, 100
        SYS 49
        MOVI r3, 7
        HALT
"""
    machine, result = run_source(src)
    assert MAX_LOCKS_HELD == 48
    assert (result.outcome, machine.state.fault) == ("halt", None)
    assert machine.state.threads[0].regs[3] == 7
    held = frozenset(range(1, MAX_LOCKS_HELD)) | {100}
    assert machine.state.threads[0].locks_held == held
    assert machine.state.locks == dict.fromkeys(held, 0)
    stamps = [e.locks_held for e in result.events if e.kind == "lock"]
    assert [len(s) for s in stamps] == [*range(1, MAX_LOCKS_HELD + 1), MAX_LOCKS_HELD]
    assert stamps[-2] == frozenset(range(1, MAX_LOCKS_HELD + 1)) and stamps[-1] == held


def test_a_spawn_loop_runs_in_time_linear_in_its_steps():
    """UNLOCK wakes the tids blocked on its lock, kept per lock, so a
    step's cost does not grow with the dead threads a spawn loop leaves."""
    slowdown = spawn_slowdown("MOVI r0, 1\nSYS 49\nSYS 50", lambda image: load(image).run(60_000))
    assert slowdown < 4


def test_unlock_wakes_every_thread_waiting_on_its_lock_and_no_other():
    src = """
start:  MOVI r0, 1
        SYS 49
        MOVI r0, 2
        SYS 49
        MOVI r1, 0xF000
        MOVI r0, on1
        SYS 48
        MOVI r0, on2
        SYS 48
        MOVI r0, on1
        SYS 48
        SYS 51
        SYS 51
        SYS 51
        MOVI r0, 1
        SYS 50
        HALT
on1:    MOVI r0, 1
        SYS 49
        HALT
on2:    MOVI r0, 2
        SYS 49
        HALT
"""
    machine = load(assemble(src))
    seen = []

    def watch(e):
        if e.kind == "unlock" or seen and len(seen) < 2:  # the UNLOCK and the step after it
            seen.append((e.kind, dict(machine.state.blocked), list(machine.state.runnable)))

    watch.kinds = ("unlock", "fetch")
    machine.add_observer(watch)
    assert machine.run().outcome == "halt"
    # At the UNLOCK of lock 1, tids 1 and 3 wait on it and tid 2 on lock 2;
    # after it, only lock 2's waiter is left blocked.
    assert seen == [("unlock", {1: [1, 3], 2: [2]}, [0]), ("fetch", {2: [2]}, [0, 1, 3])]


def test_abba_deadlock_is_reported():
    src = """
start: MOVI r0, 1
       SYS 49
       MOVI r0, worker
       MOVI r1, 0xF000
       SYS 48
       MOVI r3, 0        ; padding to let the worker take lock 2
       MOVI r3, 0
       MOVI r0, 2
       SYS 49
       HALT
worker: MOVI r0, 2
       SYS 49
       MOVI r0, 1
       SYS 49
       HALT
"""
    _, result = run_source(src)
    assert result.outcome == "fault"
    assert "deadlock" in result.state.fault.reason


def test_abba_deadlock_fault_names_the_blocked_thread():
    src = """
start: MOVI r0, 1
       SYS 49
       MOVI r0, worker
       MOVI r1, 0xF000
       SYS 48
       MOVI r3, 0
       MOVI r3, 0
       MOVI r0, 2
       SYS 49
       HALT
worker: MOVI r0, 2
       SYS 49
       MOVI r0, 1
       SYS 49
       HALT
"""
    machine, result = run_source(src)
    assert machine.state.fault == GuestFault(
        "deadlock: all live threads blocked", tid=0, pc=0x40, step=13
    )
    assert result.state.step_count == 13


def test_deadlock_fault_names_a_waiting_thread_not_the_one_that_ended():
    """The worker ends holding lock 1, then main blocks on it: the fault
    names main, the lowest waiting tid, at its LOCK, not the worker that
    ran last."""
    src = """
start:  MOVI r0, worker
        MOVI r1, 0xF000
        SYS 48
        SYS 51
        MOVI r0, 1
        SYS 49
        HALT
worker: MOVI r0, 1
        SYS 49
        MOVI r2, 0
        MOVI r2, 0
        SYS 52
"""
    machine, result = run_source(src)
    assert machine.state.fault == GuestFault(
        "deadlock: all live threads blocked", tid=0, pc=0x28, step=11
    )
    assert result.outcome == "fault"


def test_exit_thread_alone_is_a_clean_halt():
    machine, result = run_source("SYS 52")
    assert result.outcome == "halt"
    assert machine.state.fault is None
    assert result.state.step_count == 1


def test_worker_outlives_thread_zero():
    src = """
start: MOVI r0, worker
       MOVI r1, 0xF000
       SYS 48
       SYS 52
worker: MOVI r2, 0x4000
       MOVI r3, 7
       ST [r2], r3
       HALT
"""
    machine, result = run_source(src)
    assert result.outcome == "halt"
    assert machine.state.fault is None
    assert machine.state.memory[0x4000] == 7
    exits = [(e.tid, e.step) for e in result.events if e.kind == "thread-exit"]
    assert [tid for tid, _ in exits] == [0, 1]
    assert result.state.step_count == exits[-1][1] + 1


def test_exit_thread_keeps_locks():
    src = """
start: MOVI r0, worker
       MOVI r1, 0xF000
       SYS 48
       MOVI r3, 0
       MOVI r3, 0
       MOVI r0, 1
       SYS 49
       HALT
worker: MOVI r0, 1
       SYS 49
       SYS 52
"""
    machine, result = run_source(src)
    assert result.outcome == "fault"
    assert "deadlock" in machine.state.fault.reason
    assert machine.state.locks == {1: 1}  # the dead worker still owns it


# -- code written at run time -------------------------------------------
#
# Each guest executes `site`, overwrites the instruction there, and loops
# back to execute `site` again.  A decode reused by pc alone would replay
# the old instruction.


def _words(instr):
    raw = encode(instr)
    return int.from_bytes(raw[:4], "little"), int.from_bytes(raw[4:], "little")


def test_store_over_executed_code_takes_effect():
    lo, hi = _words(Instruction(Opcode.MOVI, rd=0, imm=2))
    image = assemble(f"""
start: MOVI r5, 0
       MOVI r1, site
       MOVI r2, {lo}
       MOVI r3, {hi}
site:  MOVI r0, 1
       CMPI r5, 1
       BEQ done
       MOVI r5, 1
       ST [r1+0], r2
       ST [r1+4], r3
       JMP site
done:  HALT
""")
    result = load(image).run()
    assert result.outcome == "halt"
    assert result.state.threads[0].regs[0] == 2


def test_traced_run_over_rewritten_code_prints_the_new_operands():
    """A trace line's head is rendered once per code site and reused, so
    it must be keyed on the operands, not the pc: once `site` turns from
    MOVI r0, 1 into MOVI r4, 2, its reg-write line names r4."""
    lo, hi = _words(Instruction(Opcode.MOVI, rd=4, imm=2))
    image = assemble(f"""
start: MOVI r5, 0
       MOVI r1, site
       MOVI r2, {lo}
       MOVI r3, {hi}
site:  MOVI r0, 1
       CMPI r5, 1
       BEQ done
       MOVI r5, 1
       ST [r1+0], r2
       ST [r1+4], r3
       JMP site
done:  HALT
""")
    machine = load(image)
    events = []
    machine.add_observer(events.append)
    assert machine.run().outcome == "halt"
    lines = [format_event(e) for e in events]
    assert lines == [reference_format_event(e) for e in events]
    site = image.symbols["site"]
    writes = [line for e, line in zip(events, lines) if e.pc == site and e.kind == "reg-write"]
    assert [w.split("\t")[4].split()[:2] for w in writes] == [
        ["reg=r0", "value=0x00000001"],
        ["reg=r4", "value=0x00000002"],
    ]


def test_read_net_over_executed_code_takes_effect():
    image = assemble("""
start: MOVI r5, 0
site:  MOVI r2, 7
       CMPI r5, 1
       BEQ done
       MOVI r5, 1
       MOVI r0, site
       MOVI r1, 8
       SYS 3
       JMP site
done:  HALT
""")
    new = decode(bytes(range(1, 9)))  # the READ_NET pattern for seed 1
    assert new == Instruction(Opcode.MOVI, rd=2, rs=0, rt=3, imm=0x08070605)
    result = load(image, SchedulerPolicy(seed=1)).run()
    assert result.outcome == "halt"
    assert result.state.threads[0].regs[2] == 0x08070605


def test_invalid_opcode_over_executed_code_faults():
    image = assemble("""
start: MOVI r5, 0
       MOVI r1, site
       MOVI r2, 0xEE
site:  MOVI r0, 1
       CMPI r5, 1
       BEQ done
       MOVI r5, 1
       ST [r1+0], r2
       JMP site
done:  HALT
""")
    result = load(image).run()
    assert result.outcome == "fault"
    fault = result.state.fault
    assert fault.reason == "unknown opcode byte 0xee"
    assert fault.pc == image.symbols["site"]
    assert fault.step == 9  # the second visit to site


# -- determinism --------------------------------------------------------


@pytest.mark.parametrize(
    "policy",
    [
        SchedulerPolicy(),
        SchedulerPolicy(quantum=3),
        SchedulerPolicy(kind="seeded-random", seed=7, quantum=2),
    ],
)
def test_repeated_runs_are_identical(policy):
    image = assemble(CONTENDED_LOCK_SRC)

    def traced_run():
        machine = load(image, policy)
        trace = []
        machine.add_observer(lambda e: trace.append(format_event(e)))
        return machine.run(step_limit=10_000), trace

    (first, first_trace), (second, second_trace) = traced_run(), traced_run()
    assert first_trace == second_trace
    assert first.state == second.state


@pytest.mark.parametrize(
    "policy",
    [
        SchedulerPolicy(quantum=3),
        SchedulerPolicy(kind="seeded-random", seed=5, quantum=3),
    ],
)
def test_run_resumes_where_it_stopped(policy):
    image = assemble(CONTENDED_LOCK_SRC)

    def recorded(*limits):
        machine = load(image, policy)
        events = []
        machine.add_observer(events.append)
        for limit in limits:
            result = machine.run(step_limit=limit)
        return result, events

    whole, whole_events = recorded(10_000)
    assert whole.outcome == "halt"
    for n in (whole.state.step_count // 2, 10_000):
        one, one_events = recorded(n)
        for k in range(1, min(n, whole.state.step_count)):
            split, split_events = recorded(k, n)
            assert split.state == one.state
            assert split.outcome == one.outcome
            assert split_events == one_events
    # Resumed at every step, so every slice is cut at its first step.
    stepped, stepped_events = recorded(*range(1, whole.state.step_count + 1))
    assert (stepped.state, stepped.outcome) == (whole.state, whole.outcome)
    assert stepped_events == whole_events


# An untagged ST before the ALLOC the shadow wakes at, then the object
# copied to a register, stored, loaded back and dereferenced unchecked:
# each link needs a kind only the woken shadow reads.
WAKE_SRC = """
        MOVI r2, 0xE000
        ST [r2], r2
        MOVI r0, 16
wake:   SYS 1
        MOV r4, r0
        ST [r2], r4
        LD r3, [r2]
site:   LDB r1, [r3]
        HALT
"""


class _RecordingShadow(ShadowState):
    """A shadow that keeps each event it is handed, idle as the real one."""

    def __init__(self):
        super().__init__()
        self.events = []

    def on_event(self, e):
        self.events.append(e)
        return super().on_event(e)

    on_event.kinds = ShadowState.on_event.kinds
    on_event.idle_kinds = ShadowState.on_event.idle_kinds


def _checked(image, *limits):
    """A run of image under the null checker, resumed at each step limit:
    its state, outcome, the shadow's events, the warnings and every shadow cell."""
    machine = load(image)
    shadow = _RecordingShadow()
    registry = CheckerRegistry(make_checkers(("null",), machine, shadow))
    machine.add_observer(shadow.on_event)
    machine.add_observer(registry.dispatch)
    for limit in limits:
        result = machine.run(step_limit=limit)
    cells = shadow_cells(shadow, result.state.threads, shadow.mem_cells)
    return result.state, result.outcome, shadow.events, registry.warnings, cells


def test_a_checked_run_resumes_across_the_shadow_waking():
    """Stopped by its step limit before the waking SYS, right after it
    or one step on, then resumed, a checked run ends as one whole run
    does: the woken set is the machine's, not one run's, and the next
    step's handler is compiled for the grown read set."""
    image = assemble(WAKE_SRC)
    wake = image.symbols["wake"] // INSTR_SIZE  # its step: one thread, no branch before it
    whole = _checked(image, 100)
    state, outcome, events, warnings, cells = whole
    assert outcome == "halt"
    assert [(w.rule, w.pc) for w in warnings] == [(RULE_NULL_DEREF, image.symbols["site"])]
    assert {e.kind for e in events if e.step < wake} == set()  # the ST went unseen
    assert [e.kind for e in events if e.step == wake] == ["syscall", "reg-write"]
    for stop in (wake, wake + 1, wake + 2):
        assert _checked(image, stop, 100) == whole, stop


def _counted_picks(source, policy, step_limit):
    """(RunResult, calls of the scheduler's pick) of one run of source."""
    machine = load(assemble(source), policy)
    pick, calls = machine.scheduler.pick, []

    def counted(state):
        calls.append(state.step_count)
        return pick(state)

    machine.scheduler.pick = counted
    return machine.run(step_limit), len(calls)


def test_run_picks_once_per_slice():
    """A one-thread round-robin loop with no SYS is one slice, whatever
    its quantum, so the run picks once; four threads under seeded-random
    quantum 1 make every step a slice, so the run picks once per step."""
    loop = "MOVI r1, 1\nloop: ADD r2, r2, r1\nJMP loop\n"
    for quantum in (1, 2, 3):
        result, picks = _counted_picks(loop, SchedulerPolicy(ROUND_ROBIN, quantum), 1_000)
        assert (result.outcome, result.state.step_count, picks) == ("timeout", 1_000, 1)
    spawns = "MOVI r0, loop\nMOVI r1, 0xF000\nSYS 48\n" * 3
    for seed in (1, 2, 3):
        policy = SchedulerPolicy(SEEDED_RANDOM, 1, seed)
        result, picks = _counted_picks(spawns + loop, policy, 1_000)
        assert len(result.state.runnable) == 4
        assert (result.outcome, result.state.step_count, picks) == ("timeout", 1_000, 1_000)


# -- observers ---------------------------------------------------------


OBSERVED_SRC = """
start: MOVI r0, worker
       MOVI r1, 0xF000
       SYS 48
       MOVI r3, 0x8000
loop:  LD r2, [r3]
       ADD r2, r2, r0
       ST [r3], r2
       CMPI r2, 9
       BNE loop
       HALT
worker: MOVI r4, 0x8004
       ST [r4], r4
       HALT
"""


def _reader(kinds):
    """An observer that records what it receives, reading `kinds`."""
    got = []

    def observe(e):
        got.append(e)

    observe.kinds = kinds
    return observe, got


def test_observer_receives_only_the_kinds_it_reads():
    machine = load(assemble(OBSERVED_SRC))
    writes, got = _reader(("mem-write",))
    full = []
    machine.add_observer(writes)
    machine.add_observer(full.append)
    machine.run(step_limit=200)
    expected = [e for e in full if e.kind == "mem-write"]
    assert len(expected) > 2
    assert got == expected
    assert all(a is b for a, b in zip(got, expected))  # one shared Event each
    assert {e.kind for e in full} >= {"fetch", "reg-read", "binop", "branch", "spawn"}
    _, alone = run_source(OBSERVED_SRC, step_limit=200)
    assert full == alone.events


# Reaches every emit site of the rarer opcodes and the syscalls: CALL,
# JMP and RET; CLI and STI inside a KCALL, then KRET; SET_TRAP, ALLOC,
# READ_NET, OPEN, LOCK, UNLOCK and SPAWN; a HALT and an EXIT_THREAD off
# thread 0.  The LD, ADD, CMPI and BNE give the hot opcodes' kinds.
EVERY_EMIT_SRC = """
start:  MOVI r0, trap
        SYS 18
        SYS 16
        CALL callee
        MOVI r0, 16
        SYS 1
        MOVI r1, 8
        SYS 3
        LD r2, [r0]
        MOVI r0, 0x9000
        SYS 2
        MOVI r0, 5
        SYS 49
        SYS 50
        MOVI r1, 0xF000
        MOVI r0, halter
        SYS 48
        MOVI r0, exiter
        SYS 48
        JMP wait
wait:   MOVI r3, 1
        ADD r4, r4, r3
        CMPI r4, 4
        BNE wait
        HALT
callee: RET
trap:   CLI
        STI
        SYS 17
halter: HALT
exiter: SYS 52
"""

# Each (instruction, kind) whose Event only emit's own test drops when unread.
EVERY_EMIT_SITE = {
    ("CALL", "reg-write"), ("CALL", "branch"), ("JMP", "branch"), ("RET", "reg-read"),
    ("RET", "branch"), ("CLI", "iflag-change"), ("STI", "iflag-change"),
    ("HALT", "thread-exit"), ("SET_TRAP", "syscall"), ("KCALL", "mode-change"),
    ("KRET", "mode-change"), ("ALLOC", "reg-write"), ("READ_NET", "mem-write"),
    ("OPEN", "reg-write"), ("LOCK", "lock"), ("UNLOCK", "unlock"), ("SPAWN", "spawn"),
    ("SPAWN", "reg-write"), ("EXIT_THREAD", "thread-exit"),
}


# Each guest above, with the (instruction, kind) pairs it reaches, a SYS
# named by its call.
EMIT_GUESTS = (
    (OBSERVED_SRC, {("SPAWN", "spawn"), ("SPAWN", "reg-write"), ("HALT", "thread-exit")}),
    (EVERY_EMIT_SRC, EVERY_EMIT_SITE),
)


def test_no_event_is_built_for_a_kind_nobody_reads(monkeypatch):
    """For each guest and kind, a run whose one observer reads only that
    kind builds exactly the Events it delivers, and a run with no
    observer builds none: the compiled handlers' flags and emit drop the
    rest."""
    built = []

    class CountingEvent(Event):
        def __init__(self, kind, *args, **kw):
            built.append(self)
            super().__init__(kind, *args, **kw)

    monkeypatch.setattr(scvm.machine, "Event", CountingEvent)
    for src, sites in EMIT_GUESTS:
        image = assemble(src)
        whole = []
        machine = load(image)
        machine.add_observer(whole.append)
        machine.run(step_limit=200)
        name = {}  # step -> its instruction
        for e in whole:
            if e.kind in ("fetch", "syscall"):
                name[e.step] = e.op if e.kind == "fetch" else SYSCALL_NAMES[e.sysno]
        assert {(name[e.step], e.kind) for e in whole} >= sites
        for kind in EVENT_KINDS:
            built.clear()
            machine = load(image)
            reader, got = _reader((kind,))
            machine.add_observer(reader)
            machine.run(step_limit=200)
            assert got == [e for e in whole if e.kind == kind], kind
            assert len(built) == len(got) and all(a is b for a, b in zip(built, got)), kind
        built.clear()
        load(image).run(step_limit=200)
        assert built == []


def test_handler_caches_stay_bounded_across_many_read_sets():
    """Each read set gets its own handler cache; cycling through more
    read sets than the bound keeps at most the bound, and every run
    ends where a bare run does."""
    image = assemble(OBSERVED_SRC)
    bare = load(image).run(step_limit=200)
    bound = scvm.machine._compiler.cache_info().maxsize
    assert bound is not None and bound <= 16
    read_sets = list(itertools.combinations(EVENT_KINDS, 2))[:40]
    assert len(set(read_sets)) == 40 > bound
    for kinds in read_sets:
        machine = load(image)
        machine.add_observer(_reader(kinds)[0])
        result = machine.run(step_limit=200)
        assert scvm.machine._compiler.cache_info().currsize <= bound
        assert result.state == bare.state, kinds
        assert result.outcome == bare.outcome
    assert scvm.machine._compiler.cache_info().currsize == bound


def test_a_word_is_decoded_once_across_read_sets(monkeypatch):
    """Compiling a word for a new read set reuses its decoded form, so
    decode runs once per word, not once per word and read set."""
    image = assemble(OBSERVED_SRC)
    scvm.machine._compiler.cache_clear()
    load(image).run(step_limit=200)
    calls = []
    monkeypatch.setattr(scvm.machine, "decode", lambda raw: calls.append(raw))
    for kinds in (("fetch",), ("reg-read", "mem-write"), EVENT_KINDS):
        machine = load(image)
        machine.add_observer(_reader(kinds)[0])
        machine.run(step_limit=200)
    assert calls == []


# -- format_event ----------------------------------------------------------


def reference_format_event(e):
    """format_event as it was before its stamp was cached: the rendering
    every trace and golden hash was taken with."""
    ops = []
    if e.op is not None:
        ops.append(f"op={e.op}")
    if e.reg is not None:
        ops.append(f"reg=r{e.reg}")
    if e.rs is not None:
        ops.append(f"rs=r{e.rs}")
    if e.rt is not None:
        ops.append(f"rt=r{e.rt}")
    if e.addr is not None:
        ops.append(f"addr=0x{e.addr:04X}")
    if e.width is not None:
        ops.append(f"width={e.width}")
    if e.value is not None:
        ops.append(f"value=0x{e.value & 0xFFFFFFFF:08X}")
    if e.base_reg is not None:
        ops.append(f"base=r{e.base_reg}")
    if e.src is not None:
        if e.src[0] == "mem":
            src = f"mem:0x{e.src[1]:04X}:{e.src[2]}"
        else:
            src = ":".join(str(p) for p in e.src)
        ops.append(f"src={src}")
    if e.sysno is not None:
        ops.append(f"sys={SYSCALL_NAMES.get(e.sysno, e.sysno)}")
    if e.args is not None:
        ops.append("args=" + ",".join(f"0x{a:08X}" for a in e.args))
    if e.lock is not None:
        ops.append(f"lock={e.lock}")
    if e.new_tid is not None:
        ops.append(f"new_tid={e.new_tid}")
    if e.taken is not None:
        ops.append(f"taken={int(e.taken)}")
    ops.append(f"mode={e.mode}")
    ops.append(f"iflag={int(e.iflag)}")
    ops.append("locks={%s}" % ",".join(str(x) for x in sorted(e.locks_held)))
    return "\t".join([str(e.step), str(e.tid), f"0x{e.pc:04X}", e.kind, " ".join(ops)])


_word = st.integers(0, 0xFFFFFFFF)
_reg = st.integers(0, 7)
_src = st.one_of(
    st.just(("imm",)),
    st.tuples(st.just("reg"), _reg),
    st.tuples(st.just("mem"), st.integers(0, 0xFFFF), st.sampled_from([1, 4])),
    st.tuples(st.just("binop"), st.sampled_from(["ADD", "SUB", "XOR"]), _reg, _reg),
    st.tuples(st.just("syscall"), st.sampled_from(sorted(SYSCALL_NAMES))),
)
# Each operand field's values.  An event is drawn with its kind's
# EVENT_FIELDS only, a "?" field None or not: the events the machine
# emits, which tests/test_event_schema.py holds to that table.
_operand = {
    "reg": _reg,
    "value": st.integers(-(1 << 63), (1 << 64) - 1),
    "addr": st.integers(0, 0xFFFF),
    "width": st.sampled_from([1, 4]),
    "src": _src,
    "op": st.sampled_from(["ADD", "SUB", "MUL", "AND", "OR", "XOR"]),
    "rs": _reg,
    "rt": _reg,
    "sysno": st.sampled_from(sorted(SYSCALL_NAMES)) | st.integers(0, 99),
    "args": st.lists(_word, max_size=4).map(tuple),
    "lock": _word,
    "new_tid": st.integers(0, 12),
    "taken": st.booleans(),
    "base_reg": _reg,
}


def _event_of(kind):
    fields = {}
    for f in EVENT_FIELDS[kind]:
        name = f.rstrip("?")
        fields[name] = st.none() | _operand[name] if f.endswith("?") else _operand[name]
    return st.builds(
        Event,
        kind=st.just(kind),
        step=st.integers(0, 10**7),
        tid=st.integers(0, 12),
        pc=st.integers(0, 0xFFFF),
        mode=st.sampled_from([MODE_USER, MODE_KERNEL]),
        iflag=st.booleans(),
        locks_held=st.frozensets(st.integers(0, 40) | _word, max_size=5),
        **fields,
    )


events = st.sampled_from(EVENT_KINDS).flatmap(_event_of)


@given(events)
@example(Event("lock", 12, 1, 0x40, MODE_KERNEL, False, frozenset({10, 9}), lock=10))
@example(Event("thread-exit", 0, 0, 0, MODE_USER, True, frozenset()))
def test_format_event_matches_the_reference(e):
    assert format_event(e) == reference_format_event(e)


def test_format_event_sorts_locks_numerically():
    e = Event("unlock", 3, 0, 8, MODE_USER, True, frozenset({10, 9, 2}), lock=2)
    assert format_event(e).endswith("lock=2 mode=user iflag=1 locks={2,9,10}")
