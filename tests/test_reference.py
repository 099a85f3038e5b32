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
seeded-random quantum 2 seed 7, the random, sharing, waiting and
self-rewriting families of tests/families.py under both schedulers,
and directed guests that put each instruction that ends a slice at
every phase of one.
"""

import pytest

from scvm.asm import assemble
from scvm.checkers import PLUGINS, CheckerRegistry
from scvm.machine import EVENT_KINDS, SCHEDULER_KINDS, SEEDED_RANDOM, SchedulerPolicy, load
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
