"""The shipped demonstration corpus and its runner."""

import pytest

from scvm.corpus import (
    discover,
    run_corpus,
    run_entry,
    shipped_dir,
)
from scvm.driver import RunConfig, analyze
from scvm.report import ManifestError, serialize
from scvm.asm import assemble

from helpers import corpus_source


@pytest.fixture(scope="module")
def corpus_result():
    return run_corpus()


def test_all_entries_pass(corpus_result):
    failures = [r.status_line() for r in corpus_result.results if not r.passed]
    assert failures == []
    assert corpus_result.all_passed


def test_every_entry_halts(corpus_result):
    assert all(r.outcome == "halt" for r in corpus_result.results)


def test_clean_twins_are_completely_silent(corpus_result):
    clean = [r for r in corpus_result.results if not r.manifest.expects]
    noisy = {r.entry.name: r.warnings for r in clean if r.warnings}
    assert noisy == {}


def test_tally_numbers_are_stable(corpus_result):
    assert corpus_result.tally() == {
        "entries": 16,
        "seeded": 10,
        "clean_twins": 6,
        "expected_true_positives": 8,
        "expected_false_positives": 2,
        "observed_warnings": 10,
    }


def test_table_has_one_line_per_entry_plus_summary(corpus_result):
    lines = corpus_result.format_table().splitlines()
    assert len(lines) == 17
    assert all(l.startswith("PASS") for l in lines[:-1])
    assert lines[-1].startswith("16 entries:")


def test_false_positive_expectations_are_the_documented_two(corpus_result):
    fps = {
        (r.entry.name, e.rule)
        for r in corpus_result.results
        for e in r.manifest.expects
        if e.false_positive
    }
    assert fps == {
        ("fmt_sanitized", "FMT_TAINTED"),
        ("single_thread_lockless", "RACE_EMPTY_LOCKSET"),
    }


def test_entry_reports_are_byte_deterministic():
    entry = [e for e in discover(shipped_dir()) if e.name == "race_seeded"][0]
    runs = []
    for _ in range(2):
        r = run_entry(entry)
        image = assemble(entry.source.read_text())
        cfg = RunConfig(policy=r.manifest.policy)
        analysis = analyze(image, cfg)
        runs.append(
            serialize(analysis.warnings, analysis.image_sha256, r.manifest.policy)
        )
    assert runs[0] == runs[1]
    assert "RACE_EMPTY_LOCKSET" in runs[0]


def test_unpaired_source_is_an_error(tmp_path):
    (tmp_path / "lonely.s").write_text("HALT\n")
    with pytest.raises(ManifestError) as exc:
        discover(tmp_path)
    assert "no matching .manifest" in str(exc.value)


def test_unpaired_manifest_is_an_error(tmp_path):
    (tmp_path / "lonely.manifest").write_text("policy round-robin seed 0 quantum 1\n")
    with pytest.raises(ManifestError) as exc:
        discover(tmp_path)
    assert "no matching .s" in str(exc.value)


def test_broken_manifest_points_at_its_file(tmp_path):
    (tmp_path / "x.s").write_text("HALT\n")
    (tmp_path / "x.manifest").write_text("policy warp seed 0 quantum 1\n")
    with pytest.raises(ManifestError) as exc:
        run_corpus(tmp_path)
    assert "x.manifest:1" in str(exc.value)


def test_external_directory_runs(tmp_path):
    (tmp_path / "tiny.s").write_text("start: HALT\n")
    (tmp_path / "tiny.manifest").write_text(
        "program tiny\npolicy round-robin seed 0 quantum 1\n"
    )
    result = run_corpus(tmp_path)
    assert result.all_passed
    assert result.tally()["entries"] == 1


def test_failing_expectation_shows_in_the_table(tmp_path):
    (tmp_path / "t.s").write_text("site: HALT\n")
    (tmp_path / "t.manifest").write_text(
        "policy round-robin seed 0 quantum 1\nexpect FMT_TAINTED at site\n"
    )
    result = run_corpus(tmp_path)
    assert not result.all_passed
    line = result.results[0].status_line()
    assert line.startswith("FAIL")
    assert "missing FMT_TAINTED@0x0000" in line


def test_entry_that_does_not_halt_names_its_outcome(tmp_path):
    (tmp_path / "f.s").write_text("site: CLI\nHALT\n")
    (tmp_path / "f.manifest").write_text("policy round-robin seed 0 quantum 1\n")
    result = run_corpus(tmp_path)
    assert not result.all_passed
    line = result.results[0].status_line()
    assert line == f"FAIL  {'f':<24} outcome=fault; {result.results[0].verdict}"


def test_seeded_sources_label_their_sites():
    # every expectation label must appear as a label in its source
    for entry in discover(shipped_dir()):
        src = corpus_source(entry.name)
        result = run_entry(entry)
        for exp in result.manifest.expects:
            assert f"{exp.label}:" in src
