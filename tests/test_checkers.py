"""Checker rules, in isolation and against reference computations.

The lockset's brute-force reference, which recomputes each word's
lockset from the full access history on every event, is held to it in
tests/test_acceptance.py.  The happens-before race oracle, which the
acceptance gate holds the lockset to, is pinned here on hand-built
event streams.
"""

import itertools
import random

import pytest

from scvm.asm import assemble
from scvm.checkers import (
    RULE_FMT_TAINTED,
    RULE_NULL_DEREF,
    RULE_RACE,
    RULE_USER_IRQOFF,
    RULE_USER_READ,
    RULE_USER_WRITE,
    FmtChecker,
    LocksetChecker,
    NullChecker,
    UserChecker,
    CHECKER_ORDER,
    OPTIONS,
    CheckerRegistry,
    make_checkers,
)
from scvm.driver import RunConfig, analyze
from scvm.machine import (
    DEFAULT_STACK_SIZE,
    EVENT_KINDS,
    HEAP_BASE,
    HEAP_LIMIT,
    MEMORY_SIZE,
    MODE_KERNEL,
    MODE_USER,
    SYS_ALLOC,
    SYS_CHECK_USER_READ,
    SYS_CHECK_USER_WRITE,
    SYS_KCALL,
    SYS_LOCK,
    SYS_OPEN,
    SYS_PRINTF,
    SYS_READ_NET,
    SYS_SPAWN,
    SYS_TAG_TAINT,
    SYS_TAG_UNTRUSTED_SOURCE,
    SchedulerPolicy,
    load,
    stack_base,
)
from scvm.shadow import ShadowState, TagKind

from helpers import (
    brute_force_first_empty,
    ev,
    happens_before_races,
    registry_warnings,
    rules_of,
    run_program,
    spawn_slowdown,
    steps_growth,
)


# -- null checker --------------------------------------------------------

UNCHECKED_DEREF = """
start: MOVI r0, 8
       SYS 1
       MOV r4, r0
dsite: LDB r1, [r4]
       HALT
"""


def test_unchecked_alloc_deref_warns_at_the_site():
    image, result = run_program(UNCHECKED_DEREF, checkers=("null",))
    assert rules_of(result) == [RULE_NULL_DEREF]
    w = result.warnings[0]
    assert w.pc == image.symbols["dsite"]
    assert w.address == 0x8000
    assert w.checker == "null"
    assert "ALLOC" in w.detail


def test_checked_alloc_deref_is_quiet():
    src = UNCHECKED_DEREF.replace("dsite:", "CMPI r4, 0\ndsite:")
    _, result = run_program(src, checkers=("null",))
    assert result.warnings == []


def test_check_through_either_alias_satisfies_both():
    src = """
start: MOVI r0, 8
       SYS 1
       MOV r4, r0
       CMPI r0, 0
dsite: LDB r1, [r4]
       HALT
"""
    _, result = run_program(src, checkers=("null",))
    assert result.warnings == []


def test_descriptor_deref_names_open():
    src = """
.org 0x100
name: .asciiz "present.cfg"
start: MOVI r0, name
       SYS 2
       MOV r4, r0
dsite: LDB r1, [r4]
       HALT
"""
    _, result = run_program(src, checkers=("null",))
    assert rules_of(result) == [RULE_NULL_DEREF]
    assert "OPEN" in result.warnings[0].detail


def test_same_site_warns_once_but_distinct_sites_warn_each():
    looped = """
start: MOVI r0, 8
       SYS 1
       MOV r4, r0
       MOVI r2, 3
       MOVI r3, 1
loop:  LDB r1, [r4]
       SUB r2, r2, r3
       CMPI r2, 0
       BNE loop
       HALT
"""
    _, result = run_program(looped, checkers=("null",))
    assert len(result.warnings) == 1  # three hits of one site

    two_sites = UNCHECKED_DEREF.replace("HALT", "dsite2: LDB r2, [r4]\nHALT")
    image, result = run_program(two_sites, checkers=("null",))
    assert len(result.warnings) == 2
    assert {w.pc for w in result.warnings} == {
        image.symbols["dsite"],
        image.symbols["dsite2"],
    }


# -- user checker --------------------------------------------------------


def _trap_program(handler_body):
    return (
        "start: MOVI r0, h\nSYS 18\nMOVI r0, 0x4000\nSYS 16\nHALT\n"
        "h: " + handler_body + "\nSYS 17"
    )


def test_write_check_does_not_cover_reads():
    src = _trap_program("SYS 33\nsite: LDB r1, [r0]")
    image, result = run_program(src, checkers=("user",))
    assert rules_of(result) == [RULE_USER_READ]
    assert result.warnings[0].pc == image.symbols["site"]


def test_read_check_does_not_cover_writes():
    src = _trap_program("SYS 32\nsite: ST [r0], r2")
    _, result = run_program(src, checkers=("user",))
    assert rules_of(result) == [RULE_USER_WRITE]


def test_checked_deref_with_irqs_off_still_warns():
    src = _trap_program("SYS 32\nSYS 33\nCLI\nsite: LDB r1, [r0]\nSTI")
    image, result = run_program(src, checkers=("user",))
    assert rules_of(result) == [RULE_USER_IRQOFF]
    assert result.warnings[0].pc == image.symbols["site"]


def test_unchecked_deref_with_irqs_off_warns_twice():
    src = _trap_program("CLI\nsite: LDB r1, [r0]\nSTI")
    _, result = run_program(src, checkers=("user",))
    assert sorted(rules_of(result)) == sorted([RULE_USER_IRQOFF, RULE_USER_READ])


def test_user_mode_deref_of_user_value_is_fine():
    src = (
        "start: MOVI r0, h\nSYS 18\nMOVI r0, 0x4000\nSYS 16\n"
        "LDB r1, [r0]\nHALT\nh: SYS 17"
    )
    _, result = run_program(src, checkers=("user",))
    assert result.warnings == []


def test_kernel_deref_of_kernel_value_is_fine():
    src = _trap_program("MOVI r5, 0x4000\nLDB r1, [r5]")
    _, result = run_program(src, checkers=("user",))
    assert result.warnings == []


# -- fmt checker ---------------------------------------------------------


def test_clean_string_passes():
    src = '.org 0x100\ns: .asciiz "temp is %d"\nstart: MOVI r0, s\nSYS 4\nHALT'
    _, result = run_program(src, checkers=("fmt",))
    assert result.warnings == []


def test_tainted_byte_reports_its_offset():
    # builds the string " !X" at 0x4204, where X came off the network
    src = """
start: MOVI r0, 0x4000
       MOVI r1, 4
       SYS 3
       MOVI r2, 0x4000
       LDB r3, [r2]
       MOVI r4, 0x4204
       STB [r4+2], r3
       MOVI r5, 0x20
       STB [r4], r5
       MOVI r5, 0x21
       STB [r4+1], r5
       MOVI r0, 0x4204
psite: SYS 4
       HALT
"""
    image, result = run_program(
        src, checkers=("fmt",), policy=SchedulerPolicy(seed=65)
    )
    assert rules_of(result) == [RULE_FMT_TAINTED]
    w = result.warnings[0]
    assert w.pc == image.symbols["psite"]
    assert "format offset 2" in w.detail
    assert w.address == 0x4206


def test_nul_before_the_taint_is_fine():
    src = """
start: MOVI r0, 0x4100
       MOVI r1, 1
       SYS 3
       MOVI r5, 0x41
       MOVI r4, 0x4000
       STB [r4], r5
       MOVI r0, 0x4000
       SYS 4
       HALT
"""
    # tainted byte lives at 0x4100; string at 0x4000 is "A\0"
    _, result = run_program(src, checkers=("fmt",))
    assert result.warnings == []


def test_unterminated_scan_is_capped_and_says_so():
    machine = load(assemble("HALT"))
    machine.state.memory[0x4000:0x5002] = b"A" * 0x1002
    sh = ShadowState()
    sh.on_event(ev("mem-write", addr=0x4000, width=4, src=("syscall", 3)))
    checker = FmtChecker(machine, sh)
    got = list(checker.on_event(ev("syscall", sysno=4, args=(0x4000, 0, 0, 0))))
    assert len(got) == 1
    assert "format offset 0" in got[0].detail
    assert "scan truncated" in got[0].detail


def test_tainted_string_running_into_end_of_memory_is_truncated():
    src = """
start: MOVI r0, 0xFFF0
       MOVI r1, 16
       SYS 3             ; bytes 1..16 with seed 1: no NUL before the end
       MOVI r0, 0xFFF0
       SYS 4
       HALT
"""
    _, result = run_program(src, checkers=("fmt",), policy=SchedulerPolicy(seed=1))
    assert result.outcome == "halt"
    assert rules_of(result) == [RULE_FMT_TAINTED]
    assert "format offset 0" in result.warnings[0].detail
    assert "no NUL within 4096 bytes, scan truncated" in result.warnings[0].detail
    assert result.state.output == bytes(range(1, 17))


def test_printf_past_end_of_memory_faults_without_warning():
    _, result = run_program("MOVI r0, 0x10000\nSYS 4\nHALT")
    assert result.outcome == "fault"
    assert result.state.fault.reason == "unmapped address 0x00010000"
    assert result.warnings == []


def test_taint_hypercall_reaches_printf():
    src = """
.org 0x100
buf: .asciiz "xyz"
start: MOVI r0, 0x51
       SYS 34
       MOVI r4, buf
       STB [r4], r0
       MOVI r0, buf
       SYS 4
       HALT
"""
    _, result = run_program(src, checkers=("fmt",))
    assert rules_of(result) == [RULE_FMT_TAINTED]


UNTRUSTED_FORMAT = """
start: MOVI r0, buf
       MOVI r1, 8
       SYS 35            ; buf is an untrusted source range
       MOVI r0, buf
{load}psite: SYS 4
       HALT
buf:   .asciiz "%s%s%s"
"""


@pytest.mark.parametrize("load, object_id, note", [
    ("", None, "untrusted source range"),
    ("LDB r2, [r0]\n", 1, "read from untrusted source range"),
])
def test_untrusted_source_range_reaches_printf_read_or_not(load, object_id, note):
    """A format string straight from a SYS 35 range warns at its first
    byte.  Unread, that byte holds no object (the shadow mints one only
    at a load), so the warning carries its address and no object id."""
    image, result = run_program(UNTRUSTED_FORMAT.format(load=load), checkers=("fmt",))
    (w,) = result.warnings
    assert (w.rule, w.pc, w.address) == (RULE_FMT_TAINTED, image.symbols["psite"],
                                         image.symbols["buf"])
    assert (w.object_id, w.detail) == (object_id, f"tainted byte at format offset 0 ({note})")


# -- lockset unit behavior -------------------------------------------------


def _race_steps(*held_sets):
    """Steps at which the raw lockset warns when one word is accessed
    under each of the given lock sets in turn."""
    events = [
        ev("mem-write", step=i, addr=0x100, width=4, locks_held=frozenset(held))
        for i, held in enumerate(held_sets)
    ]
    return [w.step for w in registry_warnings([LocksetChecker(None, tracked="all")], events)]


def test_universal_intersects_to_the_other_side():
    # A word starts at "all locks", so its first access keeps exactly
    # the locks it holds: {1,2} & {2} and {3} & {3} stay non-empty.
    assert _race_steps({1, 2}, {2}) == []
    assert _race_steps({3}, {3}) == []
    assert _race_steps({3}, {1}) == [1]
    assert _race_steps(set()) == [0]


def test_table_reports_only_the_first_empty():
    # {1,2} -> {2} -> {2} & {3} = {} (reported) -> {} (already reported)
    assert _race_steps({1, 2}, {2}, {3}, set()) == [2]


def test_tracked_heap_ignores_scratch_and_stacks():
    src = """
v: .word 0
start: MOVI r1, 0x4000
       MOVI r2, 7
       ST [r1], r2
       ST [r6-4], r2
       MOVI r1, v
wsite: ST [r1], r2
       HALT
"""
    image, result = run_program(src, checkers=("lockset",))
    # only the image word is tracked; scratch and stack stay silent
    assert rules_of(result) == [RULE_RACE]
    assert result.warnings[0].address == image.symbols["v"]


def test_tracked_all_covers_everything():
    src = "start: MOVI r1, 0x4000\nMOVI r2, 7\nST [r1], r2\nHALT"
    _, result = run_program(
        src, checkers=("lockset",), options={"lockset.tracked": "all"}
    )
    assert RULE_RACE in rules_of(result)
    assert any(w.address == 0x4000 for w in result.warnings)


# The child's stack is the first ALLOC and the shared word the second,
# so the child reaches both from r6: its stack top is the shared word.
HEAP_STACK_CHILD = """
start:   MOVI r0, 1024
         SYS 1             ; the child's stack, [HEAP_BASE, HEAP_BASE+1024)
         MOVI r0, 8
         SYS 1             ; the shared word, at HEAP_BASE+1024
         MOV r4, r0
         MOV r1, r0        ; SPAWN r0=pc, r1=stack top
         MOVI r0, child
         SYS 48
         MOVI r2, 7
psite:   ST [r4], r2
         SYS 51
         SYS 51
         SYS 51
         HALT
child:   MOVI r2, 9
cstack:  ST [r6-4], r2
cshared: ST [r6], r2
         SYS 52
"""


@pytest.mark.parametrize("tracked, words", [
    ("heap", [HEAP_BASE + 1024]),
    ("all", [HEAP_BASE + 1024 - 4, HEAP_BASE + 1024]),
])
def test_tracked_heap_skips_a_thread_stack_inside_the_heap(tracked, words):
    """A stack ALLOCed in the heap is not tracked by default: only the
    shared word warns, though both are written with no lock held."""
    tops = []

    def on_syscall(e):
        if e.sysno == SYS_SPAWN:
            tops.append(e.args[1])

    on_syscall.kinds = ("syscall",)
    image, result = run_program(HEAP_STACK_CHILD, checkers=("lockset",),
                                options={"lockset.tracked": tracked}, observers=(on_syscall,))
    assert result.outcome == "halt"
    assert [top - DEFAULT_STACK_SIZE for top in tops] == [HEAP_BASE]  # the child's stack base
    assert 1 not in result.state.threads  # the child ran to its exit
    assert sorted(w.address for w in result.warnings) == words
    assert rules_of(result) == [RULE_RACE] * len(words)


def test_a_spawn_below_one_stack_size_untracks_exactly_the_childs_stack():
    """A SPAWN whose stack top lies below DEFAULT_STACK_SIZE clips its
    stack at 0: the lockset stops tracking the child's [stack_base,
    stack_top), as the machine records it, and nothing else."""
    top = 0x300
    machine = load(assemble(f"MOVI r0, child\nMOVI r1, {top}\nSYS 48\nHALT\n"
                            "child: HALT\n.org 0x800\n.word 0\n"))
    (lockset,) = make_checkers(("lockset",), machine, ShadowState())
    machine.add_observer(CheckerRegistry([lockset]).dispatch)
    children = []

    def on_spawn(e):
        children.append(machine.state.threads[e.new_tid])

    on_spawn.kinds = ("spawn",)
    machine.add_observer(on_spawn)

    def tracked():
        return {word for word in range(0, MEMORY_SIZE, 4) if lockset._is_tracked(word)}

    before = tracked()
    assert machine.run().outcome == "halt"
    (child,) = children
    assert (child.stack_base, child.stack_top) == (0, top)
    assert set(range(0, top, 4)) <= before  # the image covers the whole stack
    assert tracked() == before - set(range(child.stack_base, child.stack_top, 4))


def test_heap_word_under_lock_is_quiet():
    src = """
start: MOVI r0, 8
       SYS 1
       CMPI r0, 0
       MOV r4, r0
       MOVI r0, 9
       SYS 49
       MOVI r2, 5
       ST [r4], r2
       LD r3, [r4]
       MOVI r0, 9
       SYS 50
       HALT
"""
    _, result = run_program(src, checkers=("lockset",))
    assert result.warnings == []


def test_grace_exempts_single_owner_until_shared():
    events = [
        ev("mem-write", step=0, tid=0, addr=0x100, width=4),
        ev("mem-read", step=1, tid=0, addr=0x100, width=4),
        ev("mem-write", step=2, tid=0, addr=0x100, width=4),
    ]
    assert registry_warnings([LocksetChecker(None, tracked="all", grace=True)], events) == []

    shared = events + [ev("mem-read", step=3, tid=1, addr=0x100, width=4)]
    got = registry_warnings([LocksetChecker(None, tracked="all", grace=True)], shared)
    assert [w.step for w in got] == [3]


def test_grace_starts_the_lockset_at_the_sharing_access():
    checker = LocksetChecker(None, tracked="all", grace=True)
    events = [
        ev("mem-write", step=0, tid=0, addr=0x100, width=4),  # exempt
        ev("mem-write", step=1, tid=1, addr=0x100, width=4,
           locks_held=frozenset({1})),  # shared now; lockset {1}
        ev("mem-write", step=2, tid=0, addr=0x100, width=4,
           locks_held=frozenset({1})),  # still {1}
        ev("mem-write", step=3, tid=0, addr=0x100, width=4),  # empties
    ]
    got = registry_warnings([checker], events)
    assert [w.step for w in got] == [3]


def test_wide_access_touches_every_overlapped_word():
    checker = LocksetChecker(None, tracked="all")
    got = registry_warnings(
        [checker], [ev("mem-write", addr=0x102, width=8, src=("syscall", 3))]
    )
    assert sorted(w.address for w in got) == [0x100, 0x104, 0x108]


# Stack tops a SPAWN cuts from the heap: aligned, unaligned, and one whose
# stack reaches below HEAP_BASE.
GAP_TOPS = (HEAP_BASE + 0x800, HEAP_BASE + 0x1402, HEAP_BASE + 0x101)
# Every address within 6 bytes of an edge of the tracked set: the image,
# the heap and each stack a GAP_TOPS SPAWN cuts.
NEAR_EDGES = sorted({a + d for a in (0, 8, HEAP_BASE, HEAP_LIMIT, *GAP_TOPS,
                                     *(stack_base(t) for t in GAP_TOPS))
                     for d in range(-6, 7) if a + d >= 0})


def _lockset_stream(rng, n):
    """Random mem-read/mem-write events around NEAR_EDGES and across the
    heap, aligned and not, of widths 1, 2, 4, 8 and a READ_NET's 1024,
    by three threads that mostly hold most of three locks, with a SPAWN
    now and then."""
    events = []
    for step in range(n):
        stamp = dict(step=step, tid=rng.randrange(3),
                     locks_held=frozenset(lock for lock in (1, 2, 3) if rng.random() < 0.85))
        if rng.random() < 0.05:
            top = rng.choice(GAP_TOPS)
            events.append(ev("syscall", sysno=SYS_SPAWN, args=(0, top, 0, 0), **stamp))
            continue
        width = 1024 if rng.random() < 0.03 else rng.choice((1, 2, 4, 8))
        addr = (rng.choice(NEAR_EDGES) if rng.random() < 0.7
                else rng.randrange(HEAP_BASE, HEAP_LIMIT) & rng.choice((~0, ~3)))
        events.append(ev(rng.choice(("mem-read", "mem-write")), addr=addr, width=width, **stamp))
    return events


def _lockset_oracle(machine, events, tracked, grace):
    """The per-word trace of the words tracked at each access, as a second
    lockset handed only the SPAWNs tells them.  Returns the (word, step)
    of each word's first empty lockset, by the brute-force oracle over
    that trace, and the state the lockset keeps for each of its words
    (`words`), recomputed from the word's whole history."""
    spawns = LocksetChecker(machine, tracked=tracked)
    trace, steps = [], []
    for e in events:
        if e.kind == "syscall":
            spawns.on_event(e)
            continue
        for word in sorted({a & ~3 for a in range(e.addr, e.addr + e.width)}):
            if spawns._is_tracked(word):
                trace.append((word, e.tid, e.locks_held))
                steps.append(e.step)
    warned = brute_force_first_empty(trace, grace)
    history = {}
    for word, tid, held in trace:
        history.setdefault(word, []).append((tid, held))
    states = {}
    for word, accesses in history.items():
        owner = accesses[0][0]
        start = next((i for i, (tid, _) in enumerate(accesses) if tid != owner),
                     None) if grace else 0
        states[word] = owner if start is None else frozenset.intersection(
            *(held for _, held in accesses[start:]))  # the owner: still exclusive to it
    return [(word, steps[i]) for word, i in warned.items()], states


@pytest.mark.parametrize("tracked", ["heap", "all"])
@pytest.mark.parametrize("grace", [False, True])
def test_the_one_word_fast_path_reports_what_the_brute_force_oracle_does(tracked, grace):
    """The lockset skips an access within one untracked word before it
    splits the access into words.  Over random streams that straddle
    the edges of the image, the heap and stacks cut by SPAWNs, it still
    reports the words, and at the steps, of the brute-force oracle, and
    it ends with the state the oracle's trace gives each word."""
    rng = random.Random(0xFA57 + grace)
    machine = load(assemble("HALT"))
    reported = 0
    for _ in range(40):
        events = _lockset_stream(rng, rng.randint(50, 300))
        lockset = LocksetChecker(machine, tracked=tracked, grace=grace)
        got = registry_warnings([lockset], events)
        want, states = _lockset_oracle(machine, events, tracked, grace)
        assert [(w.address, w.step) for w in got] == want
        assert lockset.words == states
        reported += len(got)
    assert reported > 40


TAG_SETS = (
    (),
    (TagKind.ALLOC_UNCHECKED,),
    (TagKind.ALLOC_UNCHECKED, TagKind.NULL_CHECKED),
    (TagKind.FD_UNCHECKED,),
    (TagKind.FD_UNCHECKED, TagKind.NULL_CHECKED),
    (TagKind.TAINTED,),
    (TagKind.USER_UNCHECKED,),
    (TagKind.USER_UNCHECKED, TagKind.USER_READ_CHECKED),
    (TagKind.USER_UNCHECKED, TagKind.USER_WRITE_CHECKED),
    (TagKind.USER_UNCHECKED, TagKind.USER_READ_CHECKED, TagKind.USER_WRITE_CHECKED),
)


@pytest.mark.parametrize("tags", TAG_SETS, ids=lambda tags: "+".join(t.name for t in tags) or "untagged")
def test_null_and_user_return_exactly_the_warnings_their_docstrings_state(tags):
    """For each base-register tag set, mode, iflag, kind and base_reg
    (None or a register): null warns at a dereference through an
    ALLOC/OPEN result no compare has checked; user warns at a kernel
    dereference of an unchecked user address with interrupts off, then
    at one that lacks its access's check."""
    shadow = ShadowState()
    obj = shadow.fresh(tags, "minted here") if tags else shadow.untagged
    shadow.reg_cells[1][3] = obj
    null, user = NullChecker(None, shadow), UserChecker(None, shadow)
    for mode, iflag, kind, base_reg in itertools.product(
            (MODE_USER, MODE_KERNEL), (True, False), ("mem-read", "mem-write"), (None, 3)):
        e = ev(kind, step=9, tid=1, pc=0x40, mode=mode, iflag=iflag, addr=HEAP_BASE + 8,
               width=4, base_reg=base_reg, value=0)
        want_null, want_user = [], []
        if base_reg is not None and {TagKind.ALLOC_UNCHECKED, TagKind.FD_UNCHECKED} & set(tags) \
                and TagKind.NULL_CHECKED not in tags:
            origin = "ALLOC" if TagKind.ALLOC_UNCHECKED in tags else "OPEN"
            want_null.append((RULE_NULL_DEREF, f"{origin} result dereferenced without null check"
                                               " (minted here)"))
        if base_reg is not None and mode == MODE_KERNEL and TagKind.USER_UNCHECKED in tags:
            if not iflag:
                want_user.append((RULE_USER_IRQOFF,
                                  "user address dereferenced with interrupts disabled"))
            if kind == "mem-read" and TagKind.USER_READ_CHECKED not in tags:
                want_user.append((RULE_USER_READ, "user address read in kernel without read check"))
            if kind == "mem-write" and TagKind.USER_WRITE_CHECKED not in tags:
                want_user.append((RULE_USER_WRITE,
                                  "user address written in kernel without write check"))
        for plugin, want in ((null, want_null), (user, want_user)):
            got = plugin.on_event(e)
            assert [(w.rule, w.detail) for w in got] == want, (plugin.name, mode, iflag, kind)
            assert {(w.checker, w.tid, w.pc, w.step, w.address, w.object_id) for w in got} <= {
                (plugin.name, 1, 0x40, 9, HEAP_BASE + 8, obj.id)}


def test_make_checkers_validation():
    machine = load(assemble("HALT"))
    sh = ShadowState()
    with pytest.raises(ValueError):
        make_checkers(("null", "nosuch"), machine, sh)
    with pytest.raises(ValueError):
        make_checkers(("lockset",), machine, sh, {"lockset.colour": "red"})
    with pytest.raises(ValueError):
        make_checkers(("lockset",), machine, sh, {"lockset.grace": "maybe"})
    # an option is checked whether or not its plugin is built
    for key, text in (("lockset.tracked", "bogus"), ("lockset.grace", "maybe")):
        with pytest.raises(ValueError, match=rf"^{key} must be \w+ or \w+, got '{text}'$"):
            make_checkers(("null",), machine, sh, {key: text})
    with pytest.raises(ValueError):
        LocksetChecker(machine, tracked="stack")
    with pytest.raises(ValueError):
        LocksetChecker(None, tracked="heap")


def test_make_checkers_canonical_order():
    machine = load(assemble("HALT"))
    sh = ShadowState()
    plugins = make_checkers(("lockset", "null"), machine, sh)
    assert [p.name for p in plugins] == ["null", "lockset"]


def test_each_option_text_passes_its_value_and_the_first_is_the_default():
    machine = load(assemble("HALT"))
    for key, table in OPTIONS.items():
        name, _, field = key.partition(".")
        for text, value in table.items():
            (plugin,) = make_checkers((name,), machine, ShadowState(), {key: text})
            assert getattr(plugin, field) == value, (key, text)
        (plugin,) = make_checkers((name,), machine, ShadowState())
        assert getattr(plugin, field) == next(iter(table.values())), key
    assert list(OPTIONS) == ["lockset.tracked", "lockset.grace"]


def test_a_spawn_loop_checks_in_time_linear_in_its_steps():
    """The lockset tests a word against its interval set of tracked
    addresses, not against every thread ever spawned, so a step's cost
    does not grow with the dead threads a spawn loop leaves behind."""
    slowdown = spawn_slowdown("MOVI r3, 0x8000\nST [r3], r0",
                              lambda image: analyze(image, RunConfig(step_limit=60_000)))
    assert slowdown < 4


def test_a_falling_top_spawn_loop_checks_in_linear_time_and_bounded_memory():
    """SPAWNs whose stack top falls by 4 each pass, each followed by a
    tracked heap write, handed straight to the lockset: a SPAWN costs the
    same however many came before it, since the tracked addresses are an
    interval set bounded by guest memory, not a list of every top.  The
    same loop run as a guest is a case of
    test_a_guest_loop_runs_in_linear_time_and_bounded_memory."""
    machine = load(assemble("HALT"))

    def run(steps):
        (lockset,) = make_checkers(("lockset",), machine, ShadowState())
        for i in range(steps):
            list(lockset.on_event(ev("syscall", sysno=SYS_SPAWN, args=(0, 0x100000 - 4 * i, 0, 0))))
            list(lockset.on_event(ev("mem-write", addr=HEAP_BASE, width=4,
                                     locks_held=frozenset({1}))))
        assert lockset._is_tracked(HEAP_BASE) and len(lockset._edges) <= 132

    time, memory = steps_growth(run, 10_000)
    assert time < 8 and memory < 1.5, (time, memory)


# Stack tops with duplicates, overlapping ranges, one clamped at 0 over
# the image, one that cuts the image in two, one whose stack ends at the
# heap's end, one straddling it, one whose stack starts there, two whose
# stacks merge, one at 0 and two past memory's end.
SPAWN_TOPS = (HEAP_BASE + 0x800, HEAP_BASE + 0x800, HEAP_BASE + 0x600, 0x300, 0x1000,
              HEAP_LIMIT, HEAP_LIMIT + 0x100, HEAP_BASE + 0x2000, HEAP_LIMIT + DEFAULT_STACK_SIZE,
              HEAP_BASE + 0x1800, HEAP_BASE + 0x1804, 0, 0x20000, 0xFFFFFFFC,
              HEAP_BASE + 0x404)
# A seeded sweep of random tops, repeats included, on a lattice one word
# wider than a stack: once each point is hit, a tracked word lies between
# every two stacks, the most edges that memory allows.
_sweep = random.Random(22)
_lattice = range(_sweep.randrange(0, 0x400, 4), MEMORY_SIZE + 0x1000, DEFAULT_STACK_SIZE + 4)
SWEEP_TOPS = tuple(_sweep.choice(_lattice) for _ in range(5000))


def _tracked_by_scan(st, stacks) -> list:
    """Each word of memory, in order: whether it lies in the image or the
    heap and in none of `stacks`, each a (stack_base, stack_top)."""
    in_stack = bytearray(MEMORY_SIZE)
    for base, top in stacks:
        lo, hi = min(base, MEMORY_SIZE), min(top, MEMORY_SIZE)
        in_stack[lo:hi] = b"\1" * (hi - lo)
    return [(st.image_origin <= word < st.image_end or HEAP_BASE <= word < HEAP_LIMIT)
            and not in_stack[word] for word in range(0, MEMORY_SIZE, 4)]


def test_tracked_words_skip_every_stack_when_each_thread_has_its_own_top():
    """At each SPAWN of SPAWN_TOPS, every 100th of the sweep and at the
    end, the lockset, handed the run's events through a registry, tracks
    every word as a scan of the image and heap bounds and every thread's
    stack range does; its interval set holds no edge twice and never more
    than 132.  Each child HALTs and leaves the thread table, so its stack
    is recorded at its SPAWN."""
    tops = SPAWN_TOPS + SWEEP_TOPS
    machine = load(assemble(
        f"MOVI r3, tops\nMOVI r4, {len(tops)}\nMOVI r2, 1\nMOVI r5, 4\n"
        "next: MOVI r0, child\nLD r1, [r3]\nSYS 48\nADD r3, r3, r5\nSUB r4, r4, r2\n"
        "CMPI r4, 0\nBNE next\nHALT\n"
        "child: HALT\ntops:\n" + "".join(f".word {top}\n" for top in tops)))
    (lockset,) = make_checkers(("lockset",), machine, ShadowState())
    machine.add_observer(CheckerRegistry([lockset]).dispatch)
    st = machine.state
    stacks = [(st.threads[0].stack_base, st.threads[0].stack_top)]
    checked = []

    def check():
        got = [lockset._is_tracked(word) for word in range(0, MEMORY_SIZE, 4)]
        want = _tracked_by_scan(st, stacks)
        assert got == want, (len(stacks), hex(4 * next(
            i for i, (g, w) in enumerate(zip(got, want)) if g != w)))
        checked.append(len(stacks))

    def on_spawn(e):
        child = st.threads[e.new_tid]  # live at its own spawn event
        stacks.append((child.stack_base, child.stack_top))
        edges = lockset._edges
        assert len(edges) <= 132 and edges == sorted(set(edges)), e.step  # no edge twice
        if len(stacks) <= len(SPAWN_TOPS) + 1 or len(stacks) % 100 == 1:
            check()

    on_spawn.kinds = ("spawn",)
    machine.add_observer(on_spawn)
    assert machine.run().outcome == "halt"
    check()
    assert st.image_origin < 0xC00 and st.image_end > 0x1000  # so 0x1000's stack cuts it in two
    assert checked == [*range(2, len(SPAWN_TOPS) + 2), *range(101, len(tops) + 1, 100),
                       len(tops) + 1]


def test_checker_replay_is_deterministic():
    rng = random.Random(7)
    events = [
        ev(
            "mem-write",
            step=i,
            tid=rng.randrange(2),
            addr=0x100 + 4 * rng.randrange(4),
            width=4,
            locks_held=frozenset({1} if rng.random() < 0.5 else ()),
        )
        for i in range(100)
    ]
    first = registry_warnings([LocksetChecker(None, tracked="all")], events)
    second = registry_warnings([LocksetChecker(None, tracked="all")], events)
    assert first == second


# -- the happens-before oracle ---------------------------------------------


def _access(kind, tid, addr=0x100, width=4):
    return ev(kind, tid=tid, addr=addr, width=width)


def _wr(tid, addr=0x100):
    return _access("mem-write", tid, addr)


def _rd(tid, addr=0x100):
    return _access("mem-read", tid, addr)


def _lock(tid, lock):
    return ev("lock", tid=tid, lock=lock)


def _unlock(tid, lock):
    return ev("unlock", tid=tid, lock=lock)


def _spawn(tid, child):
    return ev("spawn", tid=tid, new_tid=child)


@pytest.mark.parametrize("events, races", [
    ([_wr(0), _wr(1)], {0x100}),
    ([_wr(0), _rd(0), _wr(0)], set()),
    ([_rd(0), _rd(1)], set()),
    ([_rd(0), _wr(1)], {0x100}),
    ([_wr(0), _rd(1)], {0x100}),
    ([_wr(0), _wr(1, 0x104)], set()),
    ([_wr(0), _unlock(0, 1), _lock(1, 1), _wr(1)], set()),
    ([_wr(0), _unlock(0, 1), _lock(1, 2), _wr(1)], {0x100}),
    ([_lock(1, 1), _wr(0), _unlock(0, 1), _wr(1)], {0x100}),
    ([_wr(0), _unlock(0, 1), _lock(1, 1), _unlock(1, 2), _lock(2, 2), _wr(2)], set()),
    ([_wr(0), _unlock(0, 1), _lock(1, 1), _wr(1), _wr(0)], {0x100}),
    ([_wr(0), _spawn(0, 1), _wr(1)], set()),
    ([_spawn(0, 1), _wr(0), _wr(1)], {0x100}),
    ([_wr(0), _spawn(0, 1), _spawn(0, 2), _rd(1), _wr(2)], {0x100}),
    ([_wr(0), _spawn(0, 1), ev("fetch", tid=1, op="MOVI"), _rd(1)], set()),
], ids=[
    "write-write", "one-thread", "read-read", "read-write", "write-read", "two-words",
    "lock-edge", "disjoint-locks", "lock-before-unlock", "transitive-locks",
    "later-write-unordered", "spawn-edge", "write-after-spawn", "siblings",
    "other-kinds-ignored",
])
def test_happens_before_oracle_on_hand_built_streams(events, races):
    assert happens_before_races(events) == races


def test_happens_before_oracle_splits_wide_accesses_and_asks_tracked():
    events = [_access("mem-write", 0, 0x102, 8), _access("mem-read", 1, 0x100, 12)]
    assert happens_before_races(events) == {0x100, 0x104, 0x108}
    assert happens_before_races(events, tracked=lambda word: word != 0x104) == {0x100, 0x108}


# -- per-kind dispatch -------------------------------------------------------

SYSCALLS = (SYS_ALLOC, SYS_OPEN, SYS_READ_NET, SYS_PRINTF, SYS_KCALL, SYS_CHECK_USER_READ,
            SYS_CHECK_USER_WRITE, SYS_TAG_TAINT, SYS_TAG_UNTRUSTED_SOURCE, SYS_LOCK, SYS_SPAWN)
BUF = HEAP_BASE  # every address and PRINTF string lies in these 32 bytes


def _operands(rng, kind) -> dict:
    """Random operand fields of one event kind, aimed at r0-r3 (the
    registers KCALL tags) and at BUF, so that rules do fire."""
    def reg():
        return rng.randrange(4)

    if kind == "fetch":
        return {"op": "MOVI"}
    if kind == "reg-read":
        return {"reg": reg(), "value": 0}
    if kind == "reg-write":
        src = rng.choice([("imm",), ("reg", reg()), ("mem", BUF + 4 * rng.randrange(8), 4),
                          ("binop", "ADD", reg(), reg()), ("syscall", SYS_ALLOC),
                          ("syscall", SYS_OPEN)])
        return {"reg": reg(), "value": 0, "src": src}
    if kind == "mem-write" and rng.random() < 0.25:  # a READ_NET fill
        return {"addr": BUF + rng.randrange(24), "width": rng.randint(1, 8),
                "src": ("syscall", SYS_READ_NET)}
    if kind in ("mem-read", "mem-write"):
        width = rng.choice((1, 4))
        fields = {"addr": BUF + width * rng.randrange(32 // width), "width": width,
                  "value": 0, "base_reg": reg()}
        if kind == "mem-write":
            fields["src"] = ("reg", reg())
        return fields
    if kind == "binop":
        return {"op": "ADD", "reg": reg(), "rs": reg(), "rt": reg(), "value": 0}
    if kind == "compare":
        return {"rs": reg(), "value": rng.choice((0, 1))}
    if kind == "branch":
        return {"addr": 0, "taken": rng.random() < 0.5}
    if kind == "syscall":
        sysno = rng.choice(SYSCALLS)
        if sysno == SYS_SPAWN:  # r1, the child's stack top, ends in or just past BUF
            return {"sysno": sysno, "args": (0, BUF + 4 * rng.randrange(9), 0, 0)}
        return {"sysno": sysno, "args": (BUF + rng.randrange(32), rng.randrange(8), 0, 0)}
    if kind in ("lock", "unlock"):
        return {"lock": rng.randint(1, 2)}
    if kind == "spawn":
        return {"new_tid": 1}
    return {}


def _random_stream(rng, n):
    events = []
    for step in range(n):
        kind = rng.choice(EVENT_KINDS)
        events.append(ev(
            kind,
            step=step,
            tid=rng.randrange(2),
            pc=8 * rng.randrange(16),
            mode=rng.choice(("user", "kernel")),
            iflag=rng.random() < 0.7,
            locks_held=frozenset(lock for lock in (1, 2) if rng.random() < 0.5),
            **_operands(rng, kind),
        ))
    return events


def _registry_and_reference(machine, events):
    """Warnings from CheckerRegistry, and from a reference loop that
    hands each plugin every event of its kinds; each side has its own
    shadow."""
    shadows = ShadowState(), ShadowState()
    plugins = [make_checkers(CHECKER_ORDER, machine, s) for s in shadows]
    registry = CheckerRegistry(plugins[0])
    seen, reference = set(), []
    for e in events:
        shadows[0].on_event(e)
        registry.dispatch(e)
        shadows[1].on_event(e)
        for plugin in (p for p in plugins[1] if e.kind in p.kinds):
            for w in plugin.on_event(e):
                if w.dedup_key not in seen:
                    seen.add(w.dedup_key)
                    reference.append(w)
    return registry.warnings, reference


def _warnings_without(machine, events, name, withheld=None):
    """The warnings of plugin `name` alone, over its own shadow, when it
    is handed every event of its kinds except those of kind `withheld`."""
    shadow = ShadowState()
    (plugin,) = make_checkers((name,), machine, shadow)
    warnings = []
    for e in events:
        shadow.on_event(e)
        if e.kind in plugin.kinds and e.kind != withheld:
            warnings += plugin.on_event(e)
    return warnings


def test_per_kind_dispatch_matches_every_plugin_every_event():
    rng = random.Random(0xD15)
    machine = load(assemble("HALT"))
    machine.state.memory[BUF : BUF + 32] = b"%" * 32
    declared = {(p.name, kind) for p in make_checkers(CHECKER_ORDER, machine, ShadowState())
                for kind in p.kinds}
    read = set()
    for _ in range(200):
        events = _random_stream(rng, rng.randint(1, 150))
        got, want = _registry_and_reference(machine, events)
        assert got == want
        for name, kind in declared - read:
            if (_warnings_without(machine, events, name, kind)
                    != _warnings_without(machine, events, name)):
                read.add((name, kind))
    # Withholding any kind a plugin declares changes its warnings on some
    # stream, so each kind a plugin declares is one that it reads.
    assert read == declared


# -- non-interference ------------------------------------------------------


def test_checkers_do_not_perturb_the_run():
    src = UNCHECKED_DEREF
    events_with, events_without = [], []
    _, with_checkers = run_program(src, observers=(events_with.append,))
    _, without = run_program(src, checkers=(), observers=(events_without.append,))
    assert with_checkers.state == without.state
    assert events_with == events_without
    assert with_checkers.warnings != []
    assert without.warnings == []
