"""Corpus plumbing: discover entries, run them, diff against manifests.

An entry is a <name>.s / <name>.manifest pair in one directory; the
shipped directory is the entry list.  Every entry runs with all
checkers enabled under the policy its manifest pins.  Seeded entries
expect specific warnings at labeled sites; clean twins expect none.
Expectations marked false-positive count separately in the tally: they
are warnings the analysis is known to emit on code that is actually fine.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .asm import assemble, read_utf8
from .driver import RunConfig, analyze
from .report import Manifest, ManifestError, Verdict, diff, parse_manifest


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    source: Path
    manifest: Path


@dataclass
class EntryResult:
    entry: CorpusEntry
    manifest: Manifest
    verdict: Verdict
    warnings: list
    outcome: str

    @property
    def passed(self) -> bool:
        return self.verdict.passed and self.outcome == "halt"

    def status_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        note = str(self.verdict)
        if self.outcome != "halt":
            note = f"outcome={self.outcome}; {note}"
        if self.passed:
            fp = sum(1 for e in self.manifest.expects if e.false_positive)
            tp = len(self.manifest.expects) - fp
            note = f"{tp} expected warning(s)" + (f", {fp} known false positive(s)" if fp else "")
        return f"{status}  {self.entry.name:<24} {note}"


def shipped_dir() -> Path:
    return Path(__file__).parent / "corpus"


def discover(directory) -> list:
    """All .s/.manifest pairs in a directory, sorted by name.

    A path that is not a directory, or a source without its manifest
    (or the reverse), is a corpus error.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ManifestError(f"{directory}: not a directory")
    sources = {p.stem: p for p in sorted(directory.glob("*.s"))}
    manifests = {p.stem: p for p in sorted(directory.glob("*.manifest"))}
    for stem in sorted(sources.keys() - manifests.keys()):
        raise ManifestError(f"{sources[stem]}: no matching .manifest")
    for stem in sorted(manifests.keys() - sources.keys()):
        raise ManifestError(f"{manifests[stem]}: no matching .s source")
    return [
        CorpusEntry(name=stem, source=sources[stem], manifest=manifests[stem])
        for stem in sorted(sources)
    ]


def run_entry(entry: CorpusEntry) -> EntryResult:
    image = assemble(read_utf8(entry.source))
    manifest = parse_manifest(read_utf8(entry.manifest), source=str(entry.manifest))
    result = analyze(image, RunConfig(policy=manifest.policy))
    verdict = diff(result.warnings, manifest, image.symbols)
    return EntryResult(
        entry=entry,
        manifest=manifest,
        verdict=verdict,
        warnings=result.warnings,
        outcome=result.outcome,
    )


@dataclass
class CorpusResult:
    results: list

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def tally(self) -> dict:
        """Corpus-level counts: how many seeded entries, clean twins,
        expected true-positive warnings, and documented false
        positives the run confirmed."""
        seeded = [r for r in self.results if r.manifest.expects]
        clean = [r for r in self.results if not r.manifest.expects]
        tp = sum(
            1 for r in seeded for e in r.manifest.expects if not e.false_positive
        )
        fp = sum(1 for r in seeded for e in r.manifest.expects if e.false_positive)
        return {
            "entries": len(self.results),
            "seeded": len(seeded),
            "clean_twins": len(clean),
            "expected_true_positives": tp,
            "expected_false_positives": fp,
            "observed_warnings": sum(len(r.warnings) for r in self.results),
        }

    def format_table(self) -> str:
        lines = [r.status_line() for r in self.results]
        t = self.tally()
        lines.append(
            f"{t['entries']} entries: {t['seeded']} seeded, {t['clean_twins']} clean; "
            f"{t['expected_true_positives']} true positives, "
            f"{t['expected_false_positives']} known false positives, "
            f"{t['observed_warnings']} warnings observed"
        )
        return "\n".join(lines)


def run_corpus(directory=None) -> CorpusResult:
    entries = discover(directory if directory is not None else shipped_dir())
    return CorpusResult([run_entry(e) for e in entries])
