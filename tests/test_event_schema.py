"""Every emitted event conforms to `machine.EVENT_FIELDS`.

Each event sets exactly its kind's operand fields: a field the table
lists is set, unless the table marks it optional ("?"), and every other
operand field is None.  The trace renderers are compiled from the same
table, so an event that set a field its kind does not list would lose
it from the trace.  The families are those of tests/test_fuzz.py and
tests/test_reference.py: the shipped corpus, random, sharing, waiting
and self-rewriting images, under both schedulers.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from scvm.asm import assemble
from scvm.machine import (
    EVENT_FIELDS,
    ROUND_ROBIN,
    SEEDED_RANDOM,
    Event,
    SchedulerPolicy,
    load,
)
from scvm.report import parse_manifest

from helpers import corpus_manifest_text, corpus_names, corpus_source
from test_fuzz import (
    _STACK_TOPS,
    BODY_LEN,
    SHARING_STEP_LIMIT,
    STEP_LIMIT,
    WAITING_STEP_LIMIT,
    _chunks,
    _image,
    _instr,
    _main_chunks,
    _prelude,
    _sharing_image,
    _sharing_prelude,
    _waiting_image,
)
from test_reference import _rewrite, _rewriting_image, _slot_instr

OPERANDS = [f.name for f in dataclasses.fields(Event)][7:]
OPTIONAL = {(kind, f[:-1]) for kind, fields in EVENT_FIELDS.items() for f in fields
            if f.endswith("?")}


def schema_faults(e: Event) -> list:
    """The operand fields of e that break its kind's EVENT_FIELDS: a
    listed field left None that is not marked optional, or a set field
    that is not listed."""
    fields = EVENT_FIELDS[e.kind]
    listed = {f.rstrip("?") for f in fields}
    return [name for name in OPERANDS
            if getattr(e, name) is None and name in fields
            or getattr(e, name) is not None and name not in listed]


def test_schema_faults_are_found():
    stamp = dict(step=0, tid=0, pc=0, mode="user", iflag=True, locks_held=frozenset())
    assert schema_faults(Event("compare", rs=1, value=0, **stamp)) == []
    assert schema_faults(Event("mem-write", addr=8, width=4, src=("imm",), **stamp)) == []
    assert schema_faults(Event("compare", rs=1, **stamp)) == ["value"]
    assert schema_faults(Event("fetch", op="HALT", reg=0, **stamp)) == ["reg"]


def events_of(image, policy, step_limit) -> list:
    machine = load(image, policy)
    events = []
    machine.add_observer(events.append)
    machine.run(step_limit)
    return events


def assert_conforms(image, quantum, seed, step_limit):
    for kind in (ROUND_ROBIN, SEEDED_RANDOM):
        for e in events_of(image, SchedulerPolicy(kind, quantum, seed), step_limit):
            assert schema_faults(e) == [], e


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_events_conform(name):
    image = assemble(corpus_source(name))
    policy = parse_manifest(corpus_manifest_text(name)).policy
    for e in events_of(image, policy, 100_000):
        assert schema_faults(e) == [], e


def test_every_optional_field_is_left_none_by_some_event():
    """A "?" that no emitted event needs would let a missing field pass."""
    events = events_of(assemble("""
        MOVI r0, 0x8000
        MOVI r1, 4
        SYS 3
        CMPI r1, 4
        HALT
    """), None, 100)
    for name in corpus_names():
        policy = parse_manifest(corpus_manifest_text(name)).policy
        events += events_of(assemble(corpus_source(name)), policy, 100_000)
    left_none = {(e.kind, f) for e in events for f in OPERANDS if getattr(e, f) is None}
    assert OPTIONAL <= left_none


@settings(max_examples=40, deadline=None)
@given(prelude=_prelude, body=st.lists(_instr, min_size=BODY_LEN, max_size=BODY_LEN),
       quantum=st.integers(1, 3), seed=st.integers(0, 2**32))
def test_random_image_events_conform(prelude, body, quantum, seed):
    assert_conforms(_image(prelude, body), quantum, seed, STEP_LIMIT)


@settings(max_examples=30, deadline=None)
@given(image=st.builds(_sharing_image, st.tuples(_sharing_prelude, _chunks),
                       st.tuples(_sharing_prelude, _main_chunks), st.sampled_from(_STACK_TOPS)),
       quantum=st.integers(1, 3), seed=st.integers(0, 2**32))
def test_sharing_image_events_conform(image, quantum, seed):
    assert_conforms(image, quantum, seed, SHARING_STEP_LIMIT)


@settings(max_examples=10, deadline=None)
@given(workers=st.integers(2, 4), quantum=st.integers(1, 3), seed=st.integers(0, 2**32))
def test_waiting_image_events_conform(workers, quantum, seed):
    assert_conforms(_waiting_image(workers), quantum, seed, WAITING_STEP_LIMIT)


@settings(max_examples=30, deadline=None)
@given(prelude=_prelude, first=_slot_instr, rewrites=st.lists(_rewrite, min_size=2, max_size=6),
       quantum=st.integers(1, 3), seed=st.integers(0, 255))
def test_rewriting_image_events_conform(prelude, first, rewrites, quantum, seed):
    assert_conforms(_rewriting_image(prelude, first, rewrites), quantum, seed, STEP_LIMIT)
