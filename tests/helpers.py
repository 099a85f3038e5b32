"""Shared test plumbing: assemble-and-run in one call, corpus access."""

from __future__ import annotations

from scvm import RunConfig, SchedulerPolicy, analyze, assemble
from scvm.checkers import CHECKER_ORDER
from scvm.corpus import shipped_dir


def corpus_source(name: str) -> str:
    return (shipped_dir() / f"{name}.s").read_text()


def corpus_manifest_text(name: str) -> str:
    return (shipped_dir() / f"{name}.manifest").read_text()


def run_program(
    source: str,
    checkers=CHECKER_ORDER,
    policy: SchedulerPolicy | None = None,
    options: dict | None = None,
    step_limit: int = 100_000,
    observers=(),
):
    """Assemble source and analyze it, handing every event to each of
    `observers`; returns (image, AnalysisResult)."""
    image = assemble(source)
    config = RunConfig(
        checkers=tuple(checkers),
        policy=policy or SchedulerPolicy(),
        checker_options=options or {},
        step_limit=step_limit,
        observers=tuple(observers),
    )
    return image, analyze(image, config)


def rules_of(result) -> list:
    return [w.rule for w in result.warnings]
