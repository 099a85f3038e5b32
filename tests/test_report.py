import pytest
from hypothesis import given, strategies as st

from scvm.checkers import ALL_RULES, Warning
from scvm.machine import SchedulerPolicy
from scvm.report import (
    REPORT_VERSION,
    Expectation,
    Manifest,
    ManifestError,
    ReportError,
    diff,
    parse,
    parse_manifest,
    serialize,
)

POLICY = SchedulerPolicy(kind="seeded-random", seed=9, quantum=2)
SHA = "ab" * 32


def w(**kw):
    base = dict(
        checker="null",
        rule="NULL_DEREF_UNCHECKED",
        tid=0,
        pc=0x28,
        step=5,
        address=0x8000,
        object_id=1,
        detail="ALLOC result dereferenced",
    )
    base.update(kw)
    return Warning(**base)


# -- serialization ---------------------------------------------------------


def test_header_only_report():
    text = serialize([], SHA, POLICY)
    assert text.splitlines() == [
        "# scvm-report v1",
        f"# image sha256 {SHA}",
        "# policy seeded-random seed 9 quantum 2",
    ]
    meta, warnings = parse(text)
    assert warnings == []
    assert meta["image_sha256"] == SHA
    assert meta["policy"] == POLICY


def test_row_shape():
    text = serialize([w()], SHA, POLICY)
    row = text.splitlines()[3].split("\t")
    assert row == [
        "NULL_DEREF_UNCHECKED",
        "null",
        "5",
        "0",
        "0x0028",
        "0x8000",
        "1",
        "ALLOC result dereferenced",
    ]


def test_missing_address_and_object_render_as_dash():
    text = serialize([w(address=None, object_id=None)], SHA, POLICY)
    row = text.splitlines()[3].split("\t")
    assert row[5] == "-" and row[6] == "-"
    _, back = parse(text)
    assert back[0].address is None and back[0].object_id is None


def test_detail_escaping_round_trips():
    nasty = "tab\there\nnewline\\backslash"
    text = serialize([w(detail=nasty)], SHA, POLICY)
    assert "\n" not in text.splitlines()[3].split("\t")[7].replace("\\n", "")
    _, back = parse(text)
    assert back[0].detail == nasty


def test_parse_rejects_bad_rows():
    good = serialize([w()], SHA, POLICY)
    with pytest.raises(ReportError):
        parse(good + "only\tthree\tfields\n")
    with pytest.raises(ReportError):
        parse(good.replace("ALLOC", "bad \\x escape"))


@pytest.mark.parametrize(
    "line, message",
    [
        ("# image sha256", "expected 'image sha256 <hex>'"),
        (f"# image sha256 {SHA} {SHA}", "expected 'image sha256 <hex>'"),
        ("# policy", "expected 'policy <kind> seed <n> quantum <n>'"),
        ("# policy round-robin", "expected 'policy <kind> seed <n> quantum <n>'"),
        ("# policy round-robin seed 0 quantum", "expected 'policy <kind> seed <n> quantum <n>'"),
        ("# policy fifo seed 0 quantum 1", "unknown scheduler kind 'fifo'"),
        ("# policy round-robin seed x quantum 1", "invalid literal for int()"),
        ("# policy round-robin seed 0 quantum 0", "quantum must be >= 1"),
        ("NULL_DEREF_UNCHECKED\tnull\tfive\t0\t0x0028\t-\t-\td", "invalid literal for int()"),
        ("NULL_DEREF_UNCHECKED\tnull\t5\t0\tpc\t-\t-\td", "invalid literal for int()"),
        ("NULL_DEREF_UNCHECKED\tnull\t5\t0\t0x0028\t0xZZ\t-\td", "invalid literal for int()"),
        ("NULL_DEREF_UNCHECKED\tnull\t5\t0\t0x0028\t-\t-\tbad \\x", "bad escape \\x"),
        ("only\tthree\tfields", "expected 8 fields, got 3"),
    ],
    ids=["bare-image", "long-image", "bare-policy", "truncated-policy", "policy-no-quantum",
         "policy-kind", "policy-seed", "policy-quantum", "step", "pc", "address", "escape",
         "field-count"],
)
def test_parse_names_the_malformed_line(line, message):
    text = f"# {REPORT_VERSION}\n# image sha256 {SHA}\n{line}\n"
    with pytest.raises(ReportError) as exc:
        parse(text)
    assert str(exc.value).startswith(f"line 3: {message}")


HEADERLESS_ROW = "NULL_DEREF_UNCHECKED\tnull\t5\t0\t0x0028\t-\t-\td\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "line 1: expected '# scvm-report v1'"),
        ("\n\n", "line 3: expected '# scvm-report v1'"),
        ("# scvm-report v9\n", "line 1: expected '# scvm-report v1'"),
        (f"\n# image sha256 {SHA}\n", "line 2: expected '# scvm-report v1'"),
        (HEADERLESS_ROW, "line 1: expected '# scvm-report v1'"),
        (f"# {REPORT_VERSION}\n", "missing '# image sha256' header"),
        (f"# {REPORT_VERSION}\n# policy round-robin seed 0 quantum 1\n" + HEADERLESS_ROW,
         "missing '# image sha256' header"),
        (f"# {REPORT_VERSION}\n# image sha256 {SHA}\n" + HEADERLESS_ROW,
         "missing '# policy' header"),
    ],
    ids=["empty", "blank", "other-version", "no-version", "headerless-row", "version-only",
         "no-image", "no-policy"],
)
def test_parse_requires_the_version_line_and_both_headers(text, message):
    with pytest.raises(ReportError) as exc:
        parse(text)
    assert str(exc.value) == message


detail_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80
)
warning_strategy = st.builds(
    Warning,
    checker=st.sampled_from(["null", "user", "fmt", "lockset"]),
    rule=st.sampled_from(ALL_RULES),
    tid=st.integers(0, 7),
    pc=st.integers(0, 0xFFF8),
    step=st.integers(0, 10**6),
    address=st.one_of(st.none(), st.integers(0, 0xFFFF)),
    object_id=st.one_of(st.none(), st.integers(0, 500)),
    detail=detail_text,
)


@given(st.lists(warning_strategy, max_size=10))
def test_serialize_parse_round_trip(warnings):
    text = serialize(warnings, SHA, POLICY)
    meta, back = parse(text)
    assert back == warnings
    assert meta["policy"] == POLICY


# -- manifests ---------------------------------------------------------------


def test_manifest_happy_path():
    text = """
# a comment
program demo
policy round-robin seed 0 quantum 1

expect NULL_DEREF_UNCHECKED at dsite
expect RACE_EMPTY_LOCKSET at wsite false-positive
"""
    m = parse_manifest(text)
    assert m.program == "demo"
    assert m.policy == SchedulerPolicy()
    assert m.expects == [
        Expectation("NULL_DEREF_UNCHECKED", "dsite", False),
        Expectation("RACE_EMPTY_LOCKSET", "wsite", True),
    ]


def test_manifest_policy_is_required():
    with pytest.raises(ManifestError) as exc:
        parse_manifest("expect FMT_TAINTED at psite", source="m.manifest")
    assert "m.manifest" in str(exc.value)
    assert "policy" in str(exc.value)


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("policy fifo seed 0 quantum 1", "unknown scheduler kind 'fifo'"),
        ("policy round-robin seed 0", "expected 'policy"),
        ("policy round-robin seed 0 quantum 0", "quantum"),
        ("expect NO_SUCH_RULE at x", "unknown rule"),
        ("expect FMT_TAINTED near x", "expected 'expect"),
        ("frobnicate", "unrecognized directive"),
    ],
)
def test_manifest_error_lines(line, fragment):
    text = "policy round-robin seed 0 quantum 1\n" + line
    with pytest.raises(ManifestError) as exc:
        parse_manifest(text, source="bad.manifest")
    assert fragment in str(exc.value)
    assert "bad.manifest:2" in str(exc.value)


@pytest.mark.parametrize(
    "line,message",
    [
        ("expect false-positive", "expected 'expect <RULE> at <label>'"),
        ("expect FMT_TAINTED at false-positive", "expected 'expect <RULE> at <label>'"),
        ("expect NOPE at x false-positive", "unknown rule 'NOPE'"),
        ("program a b", "unrecognized directive 'program'"),
        ("policy", "expected 'policy <kind> seed <n> quantum <n>'"),
    ],
)
def test_manifest_error_text(line, message):
    """The whole message, where the false-positive marker and the word
    count meet."""
    with pytest.raises(ManifestError) as exc:
        parse_manifest("policy round-robin seed 0 quantum 1\n" + line, source="bad.manifest")
    assert str(exc.value) == f"bad.manifest:2: {message}"


def test_a_false_positive_label_is_a_label():
    m = parse_manifest("policy round-robin seed 0 quantum 1\n"
                       "expect FMT_TAINTED at false-positive false-positive  # note")
    assert m.expects == [Expectation("FMT_TAINTED", "false-positive", True)]
    assert m.expects[0].false_positive is True


# -- diffing -------------------------------------------------------------------


SYMBOLS = {"dsite": 0x28, "wsite": 0x40}


def manifest_expecting(*expects):
    return Manifest(policy=SchedulerPolicy(), expects=list(expects))


def test_diff_pass():
    m = manifest_expecting(Expectation("NULL_DEREF_UNCHECKED", "dsite"))
    verdict = diff([w(pc=0x28)], m, SYMBOLS)
    assert verdict.passed
    assert str(verdict) == "PASS"


def test_diff_missing():
    m = manifest_expecting(Expectation("NULL_DEREF_UNCHECKED", "dsite"))
    verdict = diff([], m, SYMBOLS)
    assert not verdict.passed
    assert verdict.missing == (("NULL_DEREF_UNCHECKED", 0x28),)
    assert "missing NULL_DEREF_UNCHECKED@0x0028" in str(verdict)


def test_diff_unexpected():
    m = manifest_expecting()
    verdict = diff([w(pc=0x40, rule="RACE_EMPTY_LOCKSET")], m, SYMBOLS)
    assert verdict.unexpected == (("RACE_EMPTY_LOCKSET", 0x40),)
    assert "unexpected" in str(verdict)


def test_diff_is_a_multiset_comparison():
    m = manifest_expecting(
        Expectation("NULL_DEREF_UNCHECKED", "dsite"),
        Expectation("NULL_DEREF_UNCHECKED", "dsite"),
    )
    verdict = diff([w(pc=0x28)], m, SYMBOLS)
    assert verdict.missing == (("NULL_DEREF_UNCHECKED", 0x28),)
    verdict = diff([w(pc=0x28), w(pc=0x28, step=9)], m, SYMBOLS)
    assert verdict.passed


def test_diff_false_positive_expectation_counts_as_expected():
    m = manifest_expecting(Expectation("RACE_EMPTY_LOCKSET", "wsite", True))
    verdict = diff([w(pc=0x40, rule="RACE_EMPTY_LOCKSET")], m, SYMBOLS)
    assert verdict.passed


def test_diff_unresolvable_label():
    m = manifest_expecting(Expectation("FMT_TAINTED", "nowhere"))
    with pytest.raises(ManifestError):
        diff([], m, SYMBOLS)
