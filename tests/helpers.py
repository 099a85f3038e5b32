"""Shared test plumbing: assemble-and-run in one call, corpus access."""

from __future__ import annotations

import contextlib
import dataclasses

from scvm import RunConfig, SchedulerPolicy, analyze, assemble
from scvm.checkers import CHECKER_ORDER, CheckerRegistry
from scvm.corpus import shipped_dir
from scvm.report import serialize
from scvm.shadow import ShadowState


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


def analysis_outputs(image, config: RunConfig) -> tuple:
    """Everything an analysis shows: report text, shadow trace lines,
    final state, outcome, and the events a kind-less observer saw."""
    events, lines = [], []
    config = dataclasses.replace(config, shadow_trace=lines.append, observers=(events.append,))
    r = analyze(image, config)
    report = serialize(r.warnings, r.image_sha256, config.policy)
    return report, lines, r.state, r.outcome, events


@contextlib.contextmanager
def full_delivery():
    """Hand the shadow state and the checker registry every event, by
    replacing their observer methods with wrappers that carry no
    `kinds`.  Yields the set of kinds the shadow state was handed."""
    on_event, dispatch = ShadowState.on_event, CheckerRegistry.dispatch
    seen = set()

    def shadow_on_event(shadow, e):
        seen.add(e.kind)
        on_event(shadow, e)

    ShadowState.on_event = shadow_on_event
    CheckerRegistry.dispatch = lambda registry, e: dispatch(registry, e)
    try:
        yield seen
    finally:
        ShadowState.on_event, CheckerRegistry.dispatch = on_event, dispatch
