"""The fuzz families of tests/families.py: no host exception, and
every way of running an image ends in the same place.

Random images run alike bare, recorded and analyzed, and analyze alike
whether the shadow and checkers are handed every event or only the
kinds they read.  The scheduler's runnable list stays what the threads
say, and it picks as the reference general pick does.  Every word the
happens-before oracle finds racing is one the lockset warns about.
Random images seldom share a heap word between threads, so both checks
also run over sharing images, whose recorded streams also replay to
the live warnings.  Waiting images must wake every waiter.

Observers reading random sets of event kinds, over random images and
the shipped corpus, each receive exactly the full stream filtered to
their kinds.
"""

import contextlib
import dataclasses
import functools

import pytest
from hypothesis import given, settings, strategies as st

import scvm.machine
from scvm.asm import assemble
from scvm.driver import RunConfig, analyze
from scvm.machine import EVENT_KINDS, HEAP_BASE, ROUND_ROBIN, SEEDED_RANDOM, SchedulerPolicy, load

from families import FAMILIES, over_family
from helpers import (
    analysis_outputs,
    assert_scheduled_like_the_general_pick,
    corpus_names,
    corpus_source,
    full_delivery,
    live_and_replayed,
    races_and_lockset_warnings,
    recorded_run,
)

RANDOM = FAMILIES["random"]


def assert_races_are_lockset_warnings(image, policy, step_limit):
    races, warned, _ = races_and_lockset_warnings(image, policy, step_limit)
    assert races <= warned, policy


@over_family("random", 50)
def test_random_images_run_alike_every_way(image, policy, step_limit):
    bare = load(image, policy).run(step_limit)
    recorded, events = recorded_run(image, policy, step_limit)
    analyzed_events = []
    analyzed = analyze(image, RunConfig(policy=policy, step_limit=step_limit,
                                        observers=(analyzed_events.append,)))
    assert bare.state == recorded.state == analyzed.state, policy
    assert bare.outcome == recorded.outcome == analyzed.outcome, policy
    assert events == analyzed_events, policy


@over_family("random", 50)
def test_random_images_analyze_alike_with_full_delivery(image, policy, step_limit):
    """Shadow and checkers handed only the kinds they read give the same
    report, shadow trace, state and outcome as when handed every event."""
    config = RunConfig(policy=policy, step_limit=step_limit)
    filtered = analysis_outputs(image, config)
    with full_delivery():
        full = analysis_outputs(image, config)
    assert filtered == full, policy


@over_family("random", 50)
def test_random_images_keep_runnable_and_pick_like_the_general_path(image, policy, step_limit):
    assert_scheduled_like_the_general_pick(image, policy, step_limit)


@over_family("random", 50)
def test_random_images_race_only_on_words_the_lockset_warns_about(image, policy, step_limit):
    """The fuzz leg of the acceptance gate's happens-before criterion."""
    assert_races_are_lockset_warnings(image, policy, step_limit)


@over_family("sharing", 50)
def test_sharing_images_keep_runnable_and_pick_like_the_general_path(image, policy, step_limit):
    assert_scheduled_like_the_general_pick(image, policy, step_limit)


@over_family("sharing", 50)
def test_sharing_images_race_only_on_words_the_lockset_warns_about(image, policy, step_limit):
    """The happens-before criterion where threads do share words."""
    assert_races_are_lockset_warnings(image, policy, step_limit)


@over_family("sharing", 50)
def test_sharing_images_replay_to_the_live_warnings(image, policy, step_limit):
    """The fuzz leg of the acceptance gate's replay criterion."""
    live, replayed = live_and_replayed(image, policy, step_limit)
    assert replayed == live.warnings, policy


@over_family("waiting", 30)
def test_waiting_images_wake_every_waiter_and_pick_like_the_general_path(image, policy, step_limit):
    assert_scheduled_like_the_general_pick(image, policy, step_limit)
    result = load(image, policy).run(step_limit)
    assert result.outcome == "halt", policy
    workers = result.state.next_tid - 1  # tids 1.., one per SPAWN
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
    return machine.run(RANDOM.step_limit).state, got


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
            assert load(image, policy).run(RANDOM.step_limit).state == state, kind
            filtered = [e for e in full if e[0] in kinds]
            assert _stream(image, policy, kinds) == (state, filtered), (kind, sorted(kinds))
            assert _stream(image, policy) == (state, full), kind


@settings(max_examples=50, deadline=None)
@given(image=RANDOM.images, quantum=st.integers(1, 3), seed=RANDOM.seed, read_sets=_read_sets)
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
