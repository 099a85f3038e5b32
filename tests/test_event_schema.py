"""Every emitted event conforms to `machine.EVENT_FIELDS`.

Each event sets exactly its kind's operand fields: a field the table
lists is set, unless the table marks it optional ("?"), and every other
operand field is None.  The trace renderers are compiled from the same
table, so an event that set a field its kind does not list would lose
it from the trace.  The families are the shipped corpus and those of
tests/families.py: random, sharing, waiting and self-rewriting images,
under both schedulers.
"""

import dataclasses

import pytest

from scvm.asm import assemble
from scvm.machine import _FIELD_TEXT, EVENT_FIELDS, Event
from scvm.report import parse_manifest

from families import over_family
from helpers import corpus_manifest_text, corpus_names, corpus_source, recorded_run

OPERANDS = [f.name for f in dataclasses.fields(Event)][7:]
OPTIONAL = {(kind, f[:-1]) for kind, fields in EVENT_FIELDS.items() for f in fields
            if f.endswith("?")}


def test_event_is_the_stamp_then_every_listed_field():
    """Event's fields and the field texts are read off EVENT_FIELDS:
    each operand name once, in the order the table first lists it, None
    by default, and a trace text for each and no other."""
    fields = dataclasses.fields(Event)
    assert [f.name for f in fields[:7]] == ["kind", "step", "tid", "pc", "mode", "iflag",
                                            "locks_held"]
    listed = list(dict.fromkeys(f.rstrip("?") for names in EVENT_FIELDS.values() for f in names))
    assert OPERANDS == listed
    assert all(f.default is None for f in fields[7:])
    assert set(_FIELD_TEXT) == set(listed)
    assert not hasattr(Event("thread-exit", 0, 0, 0, "user", True, frozenset()), "__dict__")


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


def assert_conforms(image, policy, step_limit):
    for e in recorded_run(image, policy, step_limit)[1]:
        assert schema_faults(e) == [], e


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_events_conform(name):
    image = assemble(corpus_source(name))
    assert_conforms(image, parse_manifest(corpus_manifest_text(name)).policy, 100_000)


def test_every_optional_field_is_left_none_by_some_event():
    """A "?" that no emitted event needs would let a missing field pass."""
    _, events = recorded_run(assemble("""
        MOVI r0, 0x8000
        MOVI r1, 4
        SYS 3
        CMPI r1, 4
        HALT
    """), None, 100)
    for name in corpus_names():
        policy = parse_manifest(corpus_manifest_text(name)).policy
        events += recorded_run(assemble(corpus_source(name)), policy, 100_000)[1]
    left_none = {(e.kind, f) for e in events for f in OPERANDS if getattr(e, f) is None}
    assert OPTIONAL <= left_none


@over_family("random", 40)
def test_random_image_events_conform(image, policy, step_limit):
    assert_conforms(image, policy, step_limit)


@over_family("sharing", 30)
def test_sharing_image_events_conform(image, policy, step_limit):
    assert_conforms(image, policy, step_limit)


@over_family("waiting", 10)
def test_waiting_image_events_conform(image, policy, step_limit):
    assert_conforms(image, policy, step_limit)


@over_family("self-rewriting", 30)
def test_rewriting_image_events_conform(image, policy, step_limit):
    assert_conforms(image, policy, step_limit)
