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
seeded-random quantum 2 seed 7, and the random, sharing, waiting and
self-rewriting families of tests/families.py under both schedulers.
"""

import pytest

from scvm.asm import assemble
from scvm.checkers import PLUGINS, CheckerRegistry
from scvm.machine import EVENT_KINDS, SEEDED_RANDOM, SchedulerPolicy, load
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
