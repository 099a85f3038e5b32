"""Shadow cell/object semantics.

Two styles here: whole-program runs (the shadow layer observing a real
machine) and synthetic event streams fed straight into ShadowState,
which pins down propagation rules one event at a time.  The fuzz
families and the corpus hold the idle shadow to one woken before the run.
"""

import dataclasses
import itertools
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from scvm.asm import assemble
from scvm.checkers import CHECKER_ORDER, RULE_NULL_DEREF
from scvm.driver import RunConfig, analyze
from scvm.isa import MEMORY_SIZE
from scvm.machine import SCHEDULER_KINDS, SchedulerPolicy, load
from scvm.report import parse_manifest
from scvm.shadow import MINTING_SYSES, NOTE_CAP, ShadowState, TagKind, _fmt_tags

from families import over_family
from helpers import (
    corpus_manifest_text,
    corpus_names,
    corpus_source,
    ev,
    run_program,
    shadow_cells,
    steps_growth,
)


def alloc_into(sh, reg=0, tid=0):
    sh.on_event(ev("reg-write", reg=reg, tid=tid, value=0x8000, src=("syscall", 1)))
    return sh.reg_object(tid, reg)


# -- aliasing through register copies ------------------------------------


def test_copy_shares_the_handle():
    _, result = run_program(
        "MOVI r0, 16\nSYS 1\nMOV r4, r0\nHALT", checkers=()
    )
    sh = result.shadow
    assert sh.reg_object(0, 0) is sh.reg_object(0, 4)
    assert TagKind.ALLOC_UNCHECKED in sh.reg_object(0, 4).tags


def test_check_through_alias_updates_all_holders():
    _, result = run_program(
        "MOVI r0, 16\nSYS 1\nMOV r4, r0\nCMPI r4, 0\nHALT", checkers=()
    )
    sh = result.shadow
    assert TagKind.NULL_CHECKED in sh.reg_object(0, 0).tags
    assert sh.reg_object(0, 0) is sh.reg_object(0, 4)


def test_movi_severs_the_alias():
    _, result = run_program(
        "MOVI r0, 16\nSYS 1\nMOV r4, r0\nMOVI r4, 0x4000\nHALT", checkers=()
    )
    sh = result.shadow
    assert sh.reg_object(0, 4) is sh.untagged
    assert TagKind.ALLOC_UNCHECKED in sh.reg_object(0, 0).tags


def test_compare_against_nonzero_is_not_a_null_check():
    _, result = run_program("MOVI r0, 16\nSYS 1\nCMPI r0, 5\nHALT", checkers=())
    assert TagKind.NULL_CHECKED not in result.shadow.reg_object(0, 0).tags


def test_cmp_with_zero_valued_register_counts():
    _, result = run_program(
        "MOVI r0, 16\nSYS 1\nMOVI r5, 0\nCMP r0, r5\nHALT", checkers=()
    )
    assert TagKind.NULL_CHECKED in result.shadow.reg_object(0, 0).tags


def test_null_check_needs_a_nullable_tag():
    _, result = run_program("SYS 34\nCMPI r0, 0\nHALT", checkers=())
    obj = result.shadow.reg_object(0, 0)
    assert obj.tags == {TagKind.TAINTED}


# -- arithmetic ----------------------------------------------------------


def test_offset_arithmetic_keeps_the_object():
    _, result = run_program(
        "MOVI r0, 16\nSYS 1\nMOVI r1, 4\nADD r2, r0, r1\nHALT", checkers=()
    )
    sh = result.shadow
    assert sh.reg_object(0, 2) is sh.reg_object(0, 0)


def test_merging_two_tagged_values_makes_a_fresh_union():
    _, result = run_program(
        "MOVI r0, 16\nSYS 1\nMOV r3, r0\n"
        "MOVI r0, 16\nSYS 1\nADD r2, r3, r0\nHALT",
        checkers=(),
    )
    sh = result.shadow
    a, b, merged = sh.reg_object(0, 3), sh.reg_object(0, 0), sh.reg_object(0, 2)
    assert merged is not a and merged is not b
    assert merged.tags == a.tags | b.tags
    assert f"#{a.id}" in merged.note and f"#{b.id}" in merged.note
    # the merge never mutates its operands
    assert a.tags == {TagKind.ALLOC_UNCHECKED}


@pytest.mark.parametrize("alias", ["", "MOV r3, r0\n"], ids=["self", "alias"])
@pytest.mark.parametrize("op", ["ADD", "OR", "AND", "MUL"])
def test_null_check_through_a_binop_of_one_object_reaches_it(op, alias):
    rt = "r3" if alias else "r0"
    _, result = run_program(
        f"MOVI r0, 16\nSYS 1\n{alias}{op} r1, r0, {rt}\nCMPI r1, 0\nLDB r2, [r0]\nHALT",
        checkers=("null",),
    )
    sh = result.shadow
    assert sh.reg_object(0, 1) is sh.reg_object(0, 0)
    assert TagKind.NULL_CHECKED in sh.reg_object(0, 0).tags
    assert result.warnings == []


@pytest.mark.parametrize("op", ["SUB", "XOR"])
def test_zeroing_op_over_two_aliases_is_untagged(op):
    _, result = run_program(
        f"MOVI r0, 16\nSYS 1\nMOV r3, r0\n{op} r1, r0, r3\nHALT", checkers=()
    )
    assert result.shadow.reg_object(0, 1) is result.shadow.untagged


def test_null_check_of_a_pointer_difference_does_not_check_the_pointer():
    # end = p + 4 keeps p's object; end - p is a length, not a copy of p.
    image, result = run_program(
        "MOVI r0, 16\nSYS 1\nMOVI r6, 4\nADD r1, r0, r6\nSUB r2, r1, r0\n"
        "CMPI r2, 0\nsite: LDB r3, [r0]\nHALT",
        checkers=("null",),
    )
    assert [(w.rule, w.pc) for w in result.warnings] == [
        (RULE_NULL_DEREF, image.symbols["site"])
    ]
    assert TagKind.NULL_CHECKED not in result.shadow.reg_object(0, 0).tags


def test_xor_self_zeroing_clears_tags():
    _, result = run_program(
        "MOVI r0, 16\nSYS 1\nXOR r0, r0, r0\nHALT", checkers=()
    )
    assert result.shadow.reg_object(0, 0) is result.shadow.untagged


def test_sub_self_zeroing_clears_tags():
    _, result = run_program(
        "MOVI r0, 16\nSYS 1\nSUB r0, r0, r0\nHALT", checkers=()
    )
    assert result.shadow.reg_object(0, 0) is result.shadow.untagged


# -- memory cells --------------------------------------------------------


def test_handle_survives_a_store_load_round_trip():
    _, result = run_program(
        "MOVI r0, 16\nSYS 1\nMOVI r1, 0x4000\nST [r1], r0\n"
        "LD r2, [r1]\nCMPI r2, 0\nHALT",
        checkers=(),
    )
    sh = result.shadow
    assert sh.reg_object(0, 2) is sh.reg_object(0, 0)
    assert TagKind.NULL_CHECKED in sh.reg_object(0, 0).tags


def test_word_store_replicates_across_all_four_bytes():
    _, result = run_program(
        "MOVI r0, 16\nSYS 1\nMOVI r1, 0x4000\nST [r1], r0\nHALT", checkers=()
    )
    sh = result.shadow
    cells = [sh.mem_object(0x4000 + i) for i in range(4)]
    assert all(c is cells[0] for c in cells)
    assert sh.mem_object(0x4004) is sh.untagged


def test_byte_store_touches_one_cell():
    _, result = run_program(
        "MOVI r0, 16\nSYS 1\nMOVI r1, 0x4000\nSTB [r1+1], r0\nHALT", checkers=()
    )
    sh = result.shadow
    assert sh.mem_object(0x4001) is sh.reg_object(0, 0)
    assert sh.mem_object(0x4000) is sh.untagged
    assert sh.mem_object(0x4002) is sh.untagged


def test_word_load_adopts_lowest_byte_cell():
    sh = ShadowState()
    tagged = alloc_into(sh, reg=0)
    sh.on_event(ev("mem-write", addr=0x4000, width=1, src=("reg", 0)))
    sh.on_event(ev("reg-write", reg=2, value=0, src=("mem", 0x4000, 4)))
    assert sh.reg_object(0, 2) is tagged
    sh.on_event(ev("reg-write", reg=3, value=0, src=("mem", 0x4001, 4)))
    assert sh.reg_object(0, 3) is sh.untagged


# Network bytes land in bytes 1..3 of a word, and the word is copied by
# one LD/ST into the string PRINTF reads.
WORD_COPY_SRC = """
start: MOVI r0, 8
       SYS 1             ; ALLOC the word the network partly fills
       CMPI r0, 0
       BEQ out
       MOV r4, r0
       MOVI r0, 8
       SYS 1             ; ALLOC the copy
       CMPI r0, 0
       BEQ out
       MOV r5, r0
       MOVI r2, 0x41414141
       ST [r4], r2
       MOVI r0, 1
       ADD r0, r4, r0
       MOVI r1, 3
       SYS 3             ; READ_NET over bytes 1..3 of the word
       LD r3, [r4]       ; byte 0 untagged, bytes 1..3 tainted
       ST [r5], r3
       MOVI r6, 0
       ST [r5+4], r6     ; NUL-terminate the copy
       MOV r0, r5
       SYS 4             ; PRINTF the copy
out:   HALT
"""


def test_word_copy_of_network_bytes_reaches_printf_tainted():
    _, result = run_program(WORD_COPY_SRC, policy=SchedulerPolicy(seed=0x42))
    assert result.outcome == "halt"
    assert result.state.output == b"ABCD"
    got = [(w.rule, w.step, w.address) for w in result.warnings]
    assert got == [
        ("RACE_EMPTY_LOCKSET", 11, 0x8000),
        ("RACE_EMPTY_LOCKSET", 17, 0x8008),
        ("RACE_EMPTY_LOCKSET", 19, 0x800C),
        ("FMT_TAINTED", 21, 0x8008),
    ]
    assert "network read of 3 bytes" in result.warnings[-1].detail


def test_load_of_one_tagged_object_mints_nothing():
    sh = ShadowState()
    tagged = alloc_into(sh, reg=0)
    sh.on_event(ev("mem-write", addr=0x4000, width=4, src=("reg", 0)))
    minted = next(sh._ids)
    sh.on_event(ev("reg-write", reg=2, value=0, src=("mem", 0x4000, 4)))
    assert sh.reg_object(0, 2) is tagged
    assert next(sh._ids) == minted + 1


def test_load_over_two_tagged_objects_merges_their_tags():
    sh = ShadowState()
    sh.on_event(ev("mem-write", addr=0x4000, width=2, src=("syscall", 3)))  # READ_NET
    first = sh.mem_object(0x4000)
    alloc = alloc_into(sh, reg=1)
    sh.on_event(ev("mem-write", addr=0x4002, width=1, src=("reg", 1)))
    sh.on_event(ev("reg-write", reg=2, value=0, src=("mem", 0x4000, 4)))
    merged = sh.reg_object(0, 2)
    assert merged is not first and merged is not alloc
    assert merged.tags == {TagKind.TAINTED, TagKind.ALLOC_UNCHECKED}
    assert merged.note == f"load merge of #{first.id} and #{alloc.id}"
    assert first.tags == {TagKind.TAINTED} and alloc.tags == {TagKind.ALLOC_UNCHECKED}
    sh.on_event(ev("compare", rs=2, value=0))  # a null check through the merge
    assert TagKind.NULL_CHECKED in merged.tags
    assert TagKind.NULL_CHECKED not in alloc.tags


# -- syscall boundary and hypercalls --------------------------------------


def test_kernel_entry_tags_argument_registers():
    _, result = run_program(
        "start: MOVI r0, h\nSYS 18\nSYS 16\nHALT\nh: SYS 17", checkers=()
    )
    sh = result.shadow
    objs = [sh.reg_object(0, i) for i in range(4)]
    assert all(o.tags == {TagKind.USER_UNCHECKED} for o in objs)
    assert len({o.id for o in objs}) == 4  # distinct, not one shared object
    assert all(o.note == "syscall boundary" for o in objs)
    assert sh.reg_object(0, 4) is sh.untagged


def test_check_user_read_adds_tag_and_note():
    _, result = run_program(
        "start: MOVI r0, h\nSYS 18\nSYS 16\nHALT\nh: MOVI r1, 64\nSYS 32\nSYS 17",
        checkers=(),
    )
    obj = result.shadow.reg_object(0, 0)
    assert TagKind.USER_READ_CHECKED in obj.tags
    assert TagKind.USER_WRITE_CHECKED not in obj.tags
    assert TagKind.USER_UNCHECKED in obj.tags  # the check annotates, never strips
    assert "checked len=64" in obj.note


# The trap checks the one object KCALL tagged in r0, in a loop.
CHECK_LOOP = "MOVI r0, trap\nSYS 18\nSYS 16\nHALT\ntrap: MOVI r1, 64\nloop: SYS 32\nJMP loop\n"


@pytest.mark.parametrize("checks", [1, 30, 34, 35, 36, 1000])
def test_a_note_records_checks_until_it_reaches_the_cap(checks):
    """Every note below NOTE_CAP is what it would be with no cap; the
    first check that finds the note at the cap, and every later one, is
    left out."""
    _, result = run_program(CHECK_LOOP, checkers=(), step_limit=4 + 2 * checks)
    note = result.shadow.reg_object(0, 0).note
    piece = "; checked len=64 at pc 0x0028"
    unbounded = "syscall boundary" + piece * checks
    if len(unbounded) - len(piece) < NOTE_CAP:
        assert note == unbounded
    else:
        assert unbounded.startswith(note) and note.endswith(piece)
        assert NOTE_CAP <= len(note) < NOTE_CAP + len(piece)


# One more untrusted range per pass, and a read outside all of them.
SOURCE_LOOP = ("MOVI r0, 0x8000\nMOVI r1, 1\nMOVI r2, 1\nMOVI r4, 0x7000\n"
               "loop: SYS 35\nLDB r3, [r4]\nADD r1, r1, r2\nJMP loop\n")


# A child that HALTs at once, spawned in a loop: each pass leaves an ended thread.
SPAWN_HALT_LOOP = "MOVI r1, 0xF000\nmain: MOVI r0, child\nSYS 48\nJMP main\nchild: MOVI r2, 7\nHALT\n"
# The same with a child that runs a CHECK_USER before any object is minted.
SPAWN_CHECK_LOOP = SPAWN_HALT_LOOP.replace("MOVI r2, 7", "SYS 32")
# The same with a stack top that falls by 4 each pass, down through the heap.
FALLING_TOP_LOOP = ("MOVI r1, 0xE000\nMOVI r2, -4\nmain: MOVI r0, child\nADD r1, r1, r2\n"
                    "SYS 48\nJMP main\nchild: HALT\n")

# Each pass LOCKs one more lock, until the thread holds MAX_LOCKS_HELD.
LOCK_LOOP = "MOVI r0, 1\nMOVI r1, 1\nloop: SYS 49\nADD r0, r0, r1\nJMP loop\n"
# Each pass ALLOCs a new object and reads it unchecked: one more warning.
WARNING_FLOOD = "loop: MOVI r0, 4\nSYS 1\nLDB r1, [r0]\nJMP loop\n"


def _bare(image, steps):
    return load(image).run(steps)


def _checked(*checkers):
    return lambda image, steps: analyze(image, RunConfig(checkers=checkers, step_limit=steps))


@pytest.mark.parametrize("source, run", [
    (CHECK_LOOP, _checked(*CHECKER_ORDER)),
    (SOURCE_LOOP, _checked()),
    (SPAWN_HALT_LOOP, _bare),
    (SPAWN_HALT_LOOP, _checked(*CHECKER_ORDER)),
    (SPAWN_CHECK_LOOP, _checked(*CHECKER_ORDER)),
    (FALLING_TOP_LOOP, _checked("lockset")),
    (LOCK_LOOP, _bare),
    (LOCK_LOOP, _checked(*CHECKER_ORDER)),
    pytest.param(WARNING_FLOOD, _checked("null"), marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 12: one warning per ALLOC keeps memory growing; "
        "one entry per site changes the report format, and bench/guests.py::taint_copy "
        "expects two FMT_TAINTED at one pc, so a benchmark change comes first")),
], ids=["check-note", "taint-sources", "dead-threads-bare", "dead-threads-checked",
        "dead-threads-checked-before-a-mint", "falling-top-spawns", "lock-loop-bare",
        "lock-loop-checked", "warning-flood"])
def test_a_guest_loop_runs_in_linear_time_and_bounded_memory(source, run):
    """A step costs the same however many came before it: a note stops
    growing at NOTE_CAP, the untrusted ranges are one flag per guest
    byte, not a list that each read scans, an ended thread leaves the
    machine's thread table and the shadow's register cells (the idle
    shadow's too, which reads `thread-exit` for that), and a
    thread's held-lock set, copied at each LOCK, stops at
    MAX_LOCKS_HELD."""
    image = assemble(source)
    time, memory = steps_growth(lambda steps: run(image, steps), 10_000)
    assert time < 8 and memory < 1.5, (time, memory)


# Tid 1 ALLOCs into r0, dereferences it unchecked and ends; tid 2,
# spawned after it, dereferences its own r0, which holds no object.
ENDED_THEN_SPAWNED = """
start:  MOVI r1, 0xF000
        MOVI r0, first
        SYS 48
        SYS 51
        SYS 51
        SYS 51
        SYS 51
        MOVI r0, second
        SYS 48
        SYS 51
        SYS 51
        HALT
first:  MOVI r0, 4
        SYS 1
fload:  LDB r2, [r0]
        SYS 52
second: MOVI r3, 1
sload:  LDB r2, [r0]
spin:   JMP spin
"""


def test_a_thread_spawned_after_one_ends_starts_with_untagged_registers():
    """An ended thread's register cells go at its `thread-exit`, and the
    next thread gets a new tid, so it inherits none of them."""
    seen = []

    def watch(e):
        seen.append((e.kind, e.new_tid if e.kind == "spawn" else e.tid, e.pc))

    watch.kinds = ("spawn", "thread-exit", "mem-read")
    image, result = run_program(ENDED_THEN_SPAWNED, checkers=("null",), observers=(watch,))
    sym = image.symbols
    assert [(kind, tid) for kind, tid, _ in seen] == [
        ("spawn", 1), ("mem-read", 1), ("thread-exit", 1), ("spawn", 2), ("mem-read", 2)]
    assert [pc for kind, _, pc in seen if kind == "mem-read"] == [sym["fload"], sym["sload"]]
    assert [(w.rule, w.tid, w.pc) for w in result.warnings] == [(RULE_NULL_DEREF, 1, sym["fload"])]
    sh = result.shadow
    assert 1 not in sh.reg_cells
    assert all(obj is sh.untagged for obj in sh.reg_cells[2])


def test_check_user_write_is_independent_of_read():
    _, result = run_program(
        "start: MOVI r0, h\nSYS 18\nSYS 16\nHALT\nh: SYS 33\nSYS 17",
        checkers=(),
    )
    obj = result.shadow.reg_object(0, 0)
    assert TagKind.USER_WRITE_CHECKED in obj.tags
    assert TagKind.USER_READ_CHECKED not in obj.tags


def test_check_on_non_user_value_is_inert():
    _, result = run_program("MOVI r0, 0x4000\nSYS 32\nHALT", checkers=())
    sh = result.shadow
    assert sh.reg_object(0, 0) is sh.untagged
    assert sh.untagged.tags == set()


def test_taint_hypercall_on_untagged_mints_an_object():
    _, result = run_program("MOVI r0, 0x4000\nSYS 34\nHALT", checkers=())
    sh = result.shadow
    obj = sh.reg_object(0, 0)
    assert obj is not sh.untagged
    assert obj.tags == {TagKind.TAINTED}
    assert sh.untagged.tags == set()


def test_taint_hypercall_on_tagged_adds_in_place():
    _, result = run_program("MOVI r0, 16\nSYS 1\nSYS 34\nHALT", checkers=())
    obj = result.shadow.reg_object(0, 0)
    assert obj.tags == {TagKind.ALLOC_UNCHECKED, TagKind.TAINTED}


def test_untrusted_source_range_materializes_on_read():
    _, result = run_program(
        "MOVI r0, 0x5000\nMOVI r1, 8\nSYS 35\n"
        "MOVI r3, 0x5000\nLDB r2, [r3]\nLDB r4, [r3+12]\nHALT",
        checkers=(),
    )
    sh = result.shadow
    assert sh.taint_sources[0x4FFF:0x5009] == b"\0" + b"\1" * 8 + b"\0"  # [0x5000, 0x5008)
    assert TagKind.TAINTED in sh.reg_object(0, 2).tags
    assert TagKind.TAINTED in sh.mem_object(0x5000).tags
    # one byte past the range stays clean
    assert sh.reg_object(0, 4) is sh.untagged


def test_reading_a_source_byte_again_keeps_its_object():
    _, result = run_program(
        "MOVI r0, 0x5000\nMOVI r1, 8\nSYS 35\n"
        "MOVI r3, 0x5000\nLDB r2, [r3]\nLDB r4, [r3]\nHALT",
        checkers=(),
    )
    sh = result.shadow
    assert sh.reg_object(0, 2) is sh.reg_object(0, 4) is sh.mem_object(0x5000)
    assert sh.mem_object(0x5000).tags == {TagKind.TAINTED}


def test_rereading_a_source_buffer_mints_one_object_per_byte():
    _, result = run_program(
        "MOVI r0, 0x5000\nMOVI r1, 8\nSYS 35\nMOVI r5, 3\nMOVI r6, 1\n"
        "pass:  MOVI r3, 0x5000\n"
        "byte:  LDB r2, [r3]\nADD r3, r3, r6\nCMPI r3, 0x5008\nBNE byte\n"
        "       SUB r5, r5, r6\nCMPI r5, 0\nBNE pass\nHALT",
        checkers=(),
    )
    sh = result.shadow
    assert next(sh._ids) == 1 + 8  # not 1 + 3 * 8
    assert len({id(sh.mem_object(0x5000 + i)) for i in range(8)}) == 8


def test_word_loads_of_a_source_buffer_alias_one_object_per_read():
    _, result = run_program(
        "MOVI r0, 0x5000\nMOVI r1, 8\nSYS 35\nMOVI r5, 3\nMOVI r6, 1\nMOVI r3, 0x5000\n"
        "pass:  LD r2, [r3]\nMOV r7, r2\nLD r2, [r3+4]\nLD r4, [r3]\n"
        "       SUB r5, r5, r6\nCMPI r5, 0\nBNE pass\nHALT",
        checkers=(),
    )
    sh = result.shadow
    assert next(sh._ids) == 1 + 2  # one per word's first read, no union per load
    assert sh.reg_object(0, 7) is sh.reg_object(0, 4) is sh.mem_object(0x5000)
    assert sh.reg_object(0, 2) is sh.mem_object(0x5004) is not sh.mem_object(0x5000)
    assert sh.reg_object(0, 4).tags == {TagKind.TAINTED}


def test_source_byte_overwritten_untainted_mints_on_its_next_read():
    _, result = run_program(
        "MOVI r0, 0x5000\nMOVI r1, 8\nSYS 35\nMOVI r3, 0x5000\nLDB r2, [r3]\n"
        "MOVI r7, 0\nSTB [r3], r7\nLDB r4, [r3]\nHALT",
        checkers=(),
    )
    sh = result.shadow
    first, second = sh.reg_object(0, 2), sh.reg_object(0, 4)
    assert second is not first and second is sh.mem_object(0x5000)
    assert first.tags == second.tags == {TagKind.TAINTED}


def test_untrusted_source_with_zero_length_is_ignored():
    _, result = run_program("MOVI r0, 0x5000\nMOVI r1, 0\nSYS 35\nHALT", checkers=())
    assert result.shadow.taint_sources is None


def test_untrusted_source_range_is_clamped_to_memory():
    """A range running past the end of memory flags only the bytes that
    exist, and one that starts past it registers nothing."""
    _, result = run_program("MOVI r0, 0xFFFC\nMOVI r1, 0x100\nSYS 35\nHALT", checkers=())
    flags = result.shadow.taint_sources
    assert len(flags) == MEMORY_SIZE and flags[-5:] == b"\0\1\1\1\1"
    _, result = run_program("MOVI r0, 0x10000\nMOVI r1, 8\nSYS 35\nHALT", checkers=())
    assert result.shadow.taint_sources is None


def test_network_read_taints_the_buffer_with_one_object():
    _, result = run_program(
        "MOVI r0, 0x4000\nMOVI r1, 8\nSYS 3\nLDB r2, [r0]\nHALT", checkers=()
    )
    sh = result.shadow
    cells = [sh.mem_object(0x4000 + i) for i in range(8)]
    assert all(c is cells[0] for c in cells)
    assert cells[0].tags == {TagKind.TAINTED}
    assert "network read of 8 bytes" in cells[0].note
    assert sh.reg_object(0, 2) is cells[0]
    assert sh.mem_object(0x4008) is sh.untagged


# -- demand-driven propagation -------------------------------------------


class MintWatch(ShadowState):
    """A shadow that reads its full kinds from the start and keeps the
    note of each object it mints before any minting SYS's `syscall` event."""

    def __init__(self):
        super().__init__()
        self.armed = False
        self.early = []

    def on_event(self, e):
        self.armed = self.armed or e.kind == "syscall" and e.sysno in MINTING_SYSES
        return super().on_event(e)

    on_event.kinds = ShadowState.on_event.kinds

    def fresh(self, tags, note=""):
        if not self.armed:
            self.early.append(note)
        return super().fresh(tags, note)


def assert_demand_driven_shadow_is_sound(image, policy, step_limit):
    """The idle shadow's premise: in a full-kinds run nothing is minted
    before the first minting SYS, and a demand-driven analyze reports
    what one does whose shadow is woken before the run (as a shadow
    trace wakes it), with the same object in every cell.  Returns the
    demand-driven AnalysisResult."""
    machine = load(image, policy)
    watch = MintWatch()
    machine.add_observer(watch.on_event)
    machine.run(step_limit)
    assert watch.early == [], policy
    config = RunConfig(policy=policy, step_limit=step_limit)
    idle = analyze(image, config)
    woken = analyze(image, dataclasses.replace(config, shadow_trace=lambda line: None))
    assert idle.warnings == woken.warnings, policy
    tids = idle.state.threads
    addrs = idle.shadow.mem_cells.keys() | woken.shadow.mem_cells.keys()
    assert shadow_cells(idle.shadow, tids, addrs) == shadow_cells(woken.shadow, tids, addrs), policy
    return idle


# Each minting SYS with its set-up, run as the first after a prefix that
# touches only untagged cells and before a suffix that copies, stores,
# reloads, null-checks and dereferences what it left in r0.
MINTING_CALLS = {
    "ALLOC": "MOVI r0, 16\nSYS 1",
    "OPEN": "MOVI r0, 0xE100\nSYS 2",
    "READ_NET": "MOVI r0, 0xE100\nMOVI r1, 8\nSYS 3\nLDB r0, [r0]",
    "KCALL": "MOVI r0, trap\nSYS 18\nSYS 16",
    "TAG_TAINT": "MOVI r0, 0xE100\nSYS 34",
    "TAG_UNTRUSTED_SOURCE": "MOVI r0, 0xE100\nMOVI r1, 8\nSYS 35\nLD r0, [r0]",
}
CLEAN_PREFIX = "MOVI r2, 0xE000\nMOV r3, r2\nST [r2], r3\nLD r4, [r2]\nCMPI r4, 0\n"
TAGGED_SUFFIX = ("\nMOV r4, r0\nST [r2], r4\nLD r3, [r2]\nCMPI r3, 0\nLDB r1, [r3]\nHALT\n"
                 "trap: SYS 17\n")


@pytest.mark.parametrize("call", MINTING_CALLS)
def test_each_minting_sys_after_a_clean_prefix_wakes_the_shadow_in_time(call):
    image = assemble(CLEAN_PREFIX + MINTING_CALLS[call] + TAGGED_SUFFIX)
    for kind in SCHEDULER_KINDS:
        result = assert_demand_driven_shadow_is_sound(image, SchedulerPolicy(kind), 1000)
        assert result.shadow.reg_object(0, 4).tags, kind


@over_family("random", 50)
def test_random_images_mint_only_after_a_minting_sys(image, policy, step_limit):
    assert_demand_driven_shadow_is_sound(image, policy, step_limit)


@over_family("sharing", 30)
def test_sharing_images_mint_only_after_a_minting_sys(image, policy, step_limit):
    assert_demand_driven_shadow_is_sound(image, policy, step_limit)


@over_family("waiting", 10)
def test_waiting_images_mint_only_after_a_minting_sys(image, policy, step_limit):
    assert_demand_driven_shadow_is_sound(image, policy, step_limit)


@over_family("self-rewriting", 50)
def test_rewriting_images_mint_only_after_a_minting_sys(image, policy, step_limit):
    assert_demand_driven_shadow_is_sound(image, policy, step_limit)


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_entries_mint_only_after_a_minting_sys(name):
    image = assemble(corpus_source(name))
    policy = parse_manifest(corpus_manifest_text(name)).policy
    for kind in SCHEDULER_KINDS:
        assert_demand_driven_shadow_is_sound(image, dataclasses.replace(policy, kind=kind),
                                             100_000)


# -- synthetic streams ----------------------------------------------------


def test_trace_records_cell_updates():
    trace = []
    sh = ShadowState(trace=trace.append)
    alloc_into(sh, reg=0, tid=1)
    assert trace == ["cell r0@t1 -> object 1 tags {ALLOC_UNCHECKED}"]
    sh.on_event(ev("compare", tid=1, rs=0, value=0))
    assert trace[-1] == "object 1 tags {ALLOC_UNCHECKED,NULL_CHECKED}"


def test_every_tag_set_renders_as_its_sorted_names():
    """All 2**7 subsets of TagKind, twice: the second pass reads the cache."""
    subsets = [set(c) for n in range(len(TagKind) + 1)
               for c in itertools.combinations(TagKind, n)]
    assert len(subsets) == 128
    for _ in range(2):
        for tags in subsets:
            names = sorted(t.name for t in tags)
            assert _fmt_tags(frozenset(tags)) == "{" + ",".join(names) + "}"


def test_a_tag_added_after_a_line_shows_in_the_next_line():
    """Tag text is keyed on the tags an object holds, not on the object."""
    trace = []
    sh = ShadowState(trace=trace.append)
    alloc_into(sh, reg=0)
    sh.on_event(ev("reg-write", reg=4, value=0x8000, src=("reg", 0)))
    sh.on_event(ev("compare", rs=4, value=0))
    sh.on_event(ev("reg-write", reg=5, value=0x8000, src=("reg", 0)))
    assert trace == [
        "cell r0@t0 -> object 1 tags {ALLOC_UNCHECKED}",
        "cell r4@t0 -> object 1 tags {ALLOC_UNCHECKED}",
        "object 1 tags {ALLOC_UNCHECKED,NULL_CHECKED}",
        "cell r5@t0 -> object 1 tags {ALLOC_UNCHECKED,NULL_CHECKED}",
    ]


def test_a_fresh_shadow_state_is_small():
    # Untouched memory shares the untagged object instead of a cell per byte.
    tracemalloc.start()
    try:
        ShadowState()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_threads_have_independent_register_cells():
    sh = ShadowState()
    alloc_into(sh, reg=0, tid=0)
    assert sh.reg_object(1, 0) is sh.untagged
    sh.on_event(ev("reg-write", tid=1, reg=0, value=0, src=("imm",)))
    assert TagKind.ALLOC_UNCHECKED in sh.reg_object(0, 0).tags


@given(
    copies=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=40
    )
)
def test_register_copies_never_mint_objects(copies):
    sh = ShadowState()
    tagged = alloc_into(sh, reg=0)
    for step, (dst, src) in enumerate(copies, start=1):
        sh.on_event(ev("reg-write", step=step, reg=dst, value=0, src=("reg", src)))
    ids = {sh.reg_object(0, r).id for r in range(8)}
    assert ids <= {sh.untagged.id, tagged.id}
    assert tagged.tags == {TagKind.ALLOC_UNCHECKED}


@given(
    writes=st.lists(
        st.tuples(st.sampled_from([1, 4]), st.integers(0x4000, 0x40FF)),
        min_size=1,
        max_size=30,
    )
)
def test_memory_writes_only_touch_their_span(writes):
    sh = ShadowState()
    alloc_into(sh, reg=0)
    touched = set()
    for width, addr in writes:
        sh.on_event(ev("mem-write", addr=addr, width=width, src=("reg", 0)))
        touched.update(range(addr, addr + width))
    for a in range(0x3FF0, 0x4110):
        if a in touched:
            assert sh.mem_object(a).tags == {TagKind.ALLOC_UNCHECKED}
        else:
            assert sh.mem_object(a) is sh.untagged
