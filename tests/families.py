"""The fuzz families: one table, FAMILIES, and one decorator, over_family.

Each family is an image strategy, a seed strategy and a step limit.
over_family makes a check into a hypothesis test that draws each image
with a quantum and a seed and runs the check under both schedulers, so
the reference differential, the event-schema check, the fuzz gates and
the coverage line all run the same families.

Random images set their trap entry and every register to a useful
value, then run a body of validly encoded instructions whose
immediates fit their opcode (code addresses for branches, syscall
numbers for SYS), and end in HALT.  CLI and STI run in kernel mode, in a trap body after the HALT that
a KCALL enters and a KRET leaves; the body draws CLI and KRET seldom,
so their user-mode faults stay covered.  The body draws LOCK and UNLOCK
only as locked sections, so an UNLOCK often releases a lock its thread
holds; a branch into or back over a section still faults on one.

Sharing images run threads that each load the same few heap words into
registers and touch them, with or without a lock.  Waiting images queue
several threads on one lock, which its UNLOCK must all wake.
Self-rewriting images rewrite their own code, by STORE or READ_NET,
between calls to it, since the interpreter's handler caches are keyed
on a code word's bytes.
"""

import functools
import inspect
from typing import NamedTuple

from hypothesis import given, settings, strategies as st

from scvm.asm import ProgramImage, assemble
from scvm.isa import IMM_MAX, IMM_MIN, INSTR_SIZE, Instruction, Opcode, encode
from scvm.machine import (
    HEAP_BASE,
    SCHEDULER_KINDS,
    SYS_KCALL,
    SYS_KRET,
    SYS_LOCK,
    SYS_SET_TRAP,
    SYS_SPAWN,
    SYS_UNLOCK,
    SYS_YIELD,
    SYSCALL_NAMES,
    SchedulerPolicy,
)

BODY_LEN = 16
N_INSTRS = 2 + 8 + BODY_LEN + 1  # SET_TRAP, register prelude, body, final HALT
TRAP = N_INSTRS * INSTR_SIZE  # the trap body follows the HALT

_reg = st.integers(0, 7)
_code_addr = st.integers(0, N_INSTRS - 1).map(lambda i: i * INSTR_SIZE)
_value = st.one_of(
    st.integers(0, 8),
    _code_addr,
    st.integers(0, 63).map(lambda i: HEAP_BASE + 4 * i),
    st.integers(IMM_MIN, IMM_MAX),
)

# SYS is weighted up, and so are the syscalls for threads, traps and
# kernel mode; LOCK and UNLOCK come only from _locked, and the body has no
# HALT, since the image ends in one.  CLI, STI and KRET belong in the trap
# body: the body draws CLI once in 85, STI never and KRET once in 26
# syscalls, so their user-mode faults stay covered.
_BODY_OPS = [op for op in Opcode if op not in (Opcode.HALT, Opcode.CLI, Opcode.STI)] * 3 + [
    Opcode.SYS] * 24 + [Opcode.CLI]
_SYSNOS = [n for n in sorted(SYSCALL_NAMES) if n not in (SYS_KRET, SYS_LOCK, SYS_UNLOCK)] + [
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


def _movis(values):
    return [Instruction(Opcode.MOVI, rd=r, imm=v) for r, v in enumerate(values)]


# Each register starts at a random useful value, so the body's loads,
# syscalls and branches get operands worth having; r0 and r7 start at
# code addresses, since SPAWN and SET_TRAP take their entry from r0 and
# RET returns to r7.
_prelude = st.tuples(_code_addr, *[_value] * 6, _code_addr).map(_movis)


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


# Waiting images: main takes lock 1 and SPAWNs 2-4 workers that each
# LOCK 1, bump a shared counter and UNLOCK 1; it YIELDs, so the workers
# queue on the lock, before its own UNLOCK 1, then spins until the counter
# equals the number of workers.  Every waiter must be woken for it to end.
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


# Rewriting images: a slot instruction at 0 and a RET after it, then
# main at 16.  Main rewrites the slot or part of it and CALLs it, a few
# times over, then HALTs.  A rewrite is, five draws in nine, a new
# instruction stored whole (two word STOREs), else a word STORE of half
# a new instruction, a byte STORE, a READ_NET of a few bytes (the seed's
# pattern), or a new instruction stored whole over the word of main's
# that follows the two STOREs, in their own straight-line run, so a
# block of that run must see its next word change; READ_NET and a byte
# STORE often leave a word that does not decode.  The slot's
# instructions, and main's own, leave r7, the RET's target, alone.
SLOT = 0
_SLOT_OPS = (Opcode.MOVI, Opcode.MOV, Opcode.LD, Opcode.LDB, Opcode.ADD, Opcode.SUB,
             Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.CMP, Opcode.CMPI)
_slot_instr = st.builds(Instruction, st.sampled_from(_SLOT_OPS), st.integers(0, 6),
                        st.integers(0, 7), st.integers(0, 7), _value)


def _signed(word):
    return word - (1 << 32) if word >= 1 << 31 else word


def _store_half(instr, half, at=SLOT):
    word = int.from_bytes(encode(instr)[half : half + 4], "little")
    return [Instruction(Opcode.MOVI, rd=3, imm=at + half),
            Instruction(Opcode.MOVI, rd=4, imm=_signed(word)),
            Instruction(Opcode.ST, rs=3, rt=4)]


def _store_byte(offset, byte):
    return [Instruction(Opcode.MOVI, rd=3, imm=SLOT + offset),
            Instruction(Opcode.MOVI, rd=4, imm=byte),
            Instruction(Opcode.STB, rs=3, rt=4)]


def _read_net(offset, length):
    return [Instruction(Opcode.MOVI, rd=0, imm=SLOT + offset),
            Instruction(Opcode.MOVI, rd=1, imm=min(length, INSTR_SIZE - offset)),
            Instruction(Opcode.SYS, imm=3)]


def _store_whole(instr, at=SLOT):
    return _store_half(instr, 0, at) + _store_half(instr, 4, at)


def _store_ahead(instr, old, at):
    """Main's own next word, old, stored over whole with instr by a
    rewrite that starts at `at`: bound to all but `at`, which
    _rewriting_image passes once main's layout places the rewrite."""
    return [*_store_whole(instr, at + 6 * INSTR_SIZE), old]


_rewrite = st.sampled_from((st.builds(_store_whole, _slot_instr),) * 5 + (
    st.builds(_store_half, _slot_instr, st.sampled_from((0, 4))),
    st.builds(_store_byte, st.integers(0, 7), st.integers(0, 255)),
    st.builds(_read_net, st.integers(0, 7), st.integers(1, 8)),
    st.builds(functools.partial, st.just(_store_ahead), _slot_instr, _slot_instr),
)).flatmap(lambda rewrite: rewrite)


def _rewriting_image(prelude, first, rewrites):
    call = Instruction(Opcode.CALL, imm=SLOT)
    main = [*prelude]
    for rewrite in rewrites:
        at = (2 + len(main)) * INSTR_SIZE  # main follows the slot and the RET
        main += [*(rewrite(at) if callable(rewrite) else rewrite), call]
    main.append(Instruction(Opcode.HALT))
    code = [first, Instruction(Opcode.RET), *main]
    return ProgramImage(origin=0, payload=b"".join(map(encode, code)), entry=2 * INSTR_SIZE)


class Family(NamedTuple):
    images: st.SearchStrategy
    seed: st.SearchStrategy
    step_limit: int


_SEED = st.integers(0, 2**32)

FAMILIES = {
    "random": Family(st.builds(_image, _prelude, _body, _trap), _SEED, 150),
    "sharing": Family(st.builds(_sharing_image, st.tuples(_sharing_prelude, _chunks),
                                st.tuples(_sharing_prelude, _main_chunks),
                                st.sampled_from(_STACK_TOPS)), _SEED, 400),
    "waiting": Family(st.builds(_waiting_image, st.integers(2, 4)), _SEED, 1000),
    "self-rewriting": Family(st.builds(_rewriting_image, _prelude, _slot_instr,
                                       st.lists(_rewrite, min_size=2, max_size=6)),
                             st.integers(0, 255), 150),
}


def over_family(family: str, examples: int, **options):
    """Make test(image, policy, step_limit) a hypothesis test over
    `examples` images of the family, each drawn with a quantum of 1-3
    and a seed and run under every scheduler kind; `options` are further
    hypothesis settings.  The test keeps its name, and its own source
    keys its entry in hypothesis's example database."""
    f = FAMILIES[family]

    def decorate(test):
        def run(image, quantum, seed):
            for kind in SCHEDULER_KINDS:
                test(image, SchedulerPolicy(kind, quantum, seed), f.step_limit)

        # wraps lends run the test's name and, through __wrapped__, its
        # source, which keys the database; given still reads run's arguments.
        run.__signature__ = inspect.signature(run)
        run = functools.wraps(test)(run)
        given_ = given(image=f.images, quantum=st.integers(1, 3), seed=f.seed)
        return settings(max_examples=examples, deadline=None, **options)(given_(run))

    return decorate
