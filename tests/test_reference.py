"""The interpreter against the reference interpreter (tests/ref_machine.py),
run differentially: the differential testing that found bugs in Bochs
and QEMU (Martignoni et al., "Testing CPU emulators", ISSTA 2009).

Each image runs once in the reference, which builds every event, and
then through `Machine.run` once per read set: bare, the shadow's
kinds, the checker registry's, each plugin's, and every kind.  Each run
must end in the reference's outcome and architectural state, and its
observer must receive exactly the reference's events of the kinds it
reads.  The runs share the interpreter's per-read-set handler caches,
as the runs of one process do.

Families: the shipped corpus under its manifest policies and under
seeded-random quantum 2 seed 7; the random, sharing and waiting images
of tests/test_fuzz.py under both schedulers; and images that rewrite
their own code, by STORE or READ_NET, between calls to it, since the
handler caches are keyed on a code word's bytes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from scvm.asm import ProgramImage, assemble
from scvm.checkers import PLUGINS, CheckerRegistry
from scvm.isa import INSTR_SIZE, Instruction, Opcode, encode
from scvm.machine import EVENT_KINDS, ROUND_ROBIN, SEEDED_RANDOM, SchedulerPolicy, load
from scvm.report import parse_manifest
from scvm.shadow import ShadowState

from helpers import corpus_manifest_text, corpus_names, corpus_source
from ref_machine import machine_view, run_reference
from test_fuzz import (
    SHARING_STEP_LIMIT,
    STEP_LIMIT,
    WAITING_STEP_LIMIT,
    _prelude,
    _value,
    _waiting_image,
    random_images,
    sharing_images,
)

# Each distinct read set once, bare first and every kind last.
READ_SETS = tuple(dict.fromkeys([
    frozenset(),
    frozenset(ShadowState.on_event.kinds),
    frozenset(CheckerRegistry.dispatch.kinds),
    *(frozenset(cls.kinds) for cls in PLUGINS),
    frozenset(EVENT_KINDS),
]))


def assert_runs_like_the_reference(image, policy, step_limit):
    outcome, ref = run_reference(image, policy, step_limit)
    want = ref.view()
    for kinds in READ_SETS:
        machine = load(image, policy)
        got = []
        if kinds:
            def observe(e):
                got.append(e)

            if kinds != frozenset(EVENT_KINDS):  # every kind: an observer that names none
                observe.kinds = tuple(kinds)
            machine.add_observer(observe)
        result = machine.run(step_limit)
        assert result.outcome == outcome, sorted(kinds)
        assert machine_view(result.state) == want, sorted(kinds)
        assert got == [e for e in ref.events if e.kind in kinds], sorted(kinds)


def _both_schedulers(image, quantum, seed, step_limit):
    for kind in (ROUND_ROBIN, SEEDED_RANDOM):
        assert_runs_like_the_reference(image, SchedulerPolicy(kind, quantum, seed), step_limit)


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_entries_run_like_the_reference(name):
    image = assemble(corpus_source(name))
    for policy in (parse_manifest(corpus_manifest_text(name)).policy,
                   SchedulerPolicy(SEEDED_RANDOM, 2, 7)):
        assert_runs_like_the_reference(image, policy, 100_000)


@settings(max_examples=100, deadline=None)
@given(image=random_images, quantum=st.integers(1, 3), seed=st.integers(0, 2**32))
def test_random_images_run_like_the_reference(image, quantum, seed):
    _both_schedulers(image, quantum, seed, STEP_LIMIT)


@settings(max_examples=100, deadline=None)
@given(image=sharing_images, quantum=st.integers(1, 3), seed=st.integers(0, 2**32))
def test_sharing_images_run_like_the_reference(image, quantum, seed):
    _both_schedulers(image, quantum, seed, SHARING_STEP_LIMIT)


@settings(max_examples=30, deadline=None)
@given(workers=st.integers(2, 4), quantum=st.integers(1, 3), seed=st.integers(0, 2**32))
def test_waiting_images_run_like_the_reference(workers, quantum, seed):
    _both_schedulers(_waiting_image(workers), quantum, seed, WAITING_STEP_LIMIT)


# Rewriting images: a slot instruction at 0 and a RET after it, then
# main at 16.  Main rewrites the slot or part of it and CALLs it, a few
# times over, then HALTs.  A rewrite is, five draws in eight, a new
# instruction stored whole (two word STOREs), else a word STORE of half
# a new instruction, a byte STORE, or a READ_NET of a few bytes (the
# seed's pattern); the last two often leave a word that does not decode.
# The slot's instructions leave r7, the RET's target, alone.
SLOT = 0
_SLOT_OPS = (Opcode.MOVI, Opcode.MOV, Opcode.LD, Opcode.LDB, Opcode.ADD, Opcode.SUB,
             Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.CMP, Opcode.CMPI)
_slot_instr = st.builds(Instruction, st.sampled_from(_SLOT_OPS), st.integers(0, 6),
                        st.integers(0, 7), st.integers(0, 7), _value)


def _signed(word):
    return word - (1 << 32) if word >= 1 << 31 else word


def _store_half(instr, half):
    word = int.from_bytes(encode(instr)[half : half + 4], "little")
    return [Instruction(Opcode.MOVI, rd=3, imm=SLOT + half),
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


def _store_whole(instr):
    return _store_half(instr, 0) + _store_half(instr, 4)


_rewrite = st.sampled_from((st.builds(_store_whole, _slot_instr),) * 5 + (
    st.builds(_store_half, _slot_instr, st.sampled_from((0, 4))),
    st.builds(_store_byte, st.integers(0, 7), st.integers(0, 255)),
    st.builds(_read_net, st.integers(0, 7), st.integers(1, 8)),
)).flatmap(lambda rewrite: rewrite)


def _rewriting_image(prelude, first, rewrites):
    call = Instruction(Opcode.CALL, imm=SLOT)
    main = [*prelude, *(i for r in rewrites for i in (*r, call)), Instruction(Opcode.HALT)]
    code = [first, Instruction(Opcode.RET), *main]
    return ProgramImage(origin=0, payload=b"".join(map(encode, code)), entry=2 * INSTR_SIZE)


rewriting_images = st.builds(_rewriting_image, _prelude, _slot_instr,
                             st.lists(_rewrite, min_size=2, max_size=6))


@settings(max_examples=100, deadline=None)
@given(image=rewriting_images, quantum=st.integers(1, 3), seed=st.integers(0, 255))
def test_images_that_rewrite_their_code_run_like_the_reference(image, quantum, seed):
    _both_schedulers(image, quantum, seed, STEP_LIMIT)
