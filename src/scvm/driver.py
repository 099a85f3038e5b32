"""One-call analysis pipeline: load, run, shadow, check, report.

The wiring order matters and is fixed here: the shadow engine observes
each event before the checkers do, so metadata updates (boundary
tagging, check marking, taint materialization) are never seen late.
Checker rules only ever consult state established by *earlier* events,
which is what makes the ordering safe.  The config's own observers come
first, so they see each event before the analysis does: an event
trace prints each event's line ahead of the shadow lines it causes.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass, field

from .asm import ProgramImage
from .checkers import CHECKER_ORDER, CheckerRegistry, make_checkers
from .machine import (
    DEFAULT_STEP_LIMIT,
    MachineState,
    SchedulerPolicy,
    load,
)
from .shadow import ShadowState


@dataclass(frozen=True)
class RunConfig:
    checkers: tuple = CHECKER_ORDER
    policy: SchedulerPolicy = field(default_factory=SchedulerPolicy)
    step_limit: int = DEFAULT_STEP_LIMIT
    checker_options: dict = field(default_factory=dict)
    observers: tuple = ()  # each handed the Events (and lines, for LINES) of its `kinds`
    shadow_trace: Callable[[str], None] | None = None  # handed each shadow trace line


@dataclass
class AnalysisResult:
    image: ProgramImage
    outcome: str  # "halt", "fault" or "timeout"
    state: MachineState
    warnings: list
    shadow: ShadowState

    @property
    def image_sha256(self) -> str:
        return hashlib.sha256(self.image.to_bytes()).hexdigest()


def analyze(image: ProgramImage, config: RunConfig | None = None) -> AnalysisResult:
    """Run the image under the config's scheduler with the configured
    checkers attached; returns everything a report needs."""
    config = config or RunConfig()
    machine = load(image, config.policy)
    shadow = ShadowState(trace=config.shadow_trace)
    plugins = make_checkers(config.checkers, machine, shadow, config.checker_options)
    registry = CheckerRegistry(plugins)
    for fn in config.observers:
        machine.add_observer(fn)
    machine.add_observer(shadow.on_event)
    if config.shadow_trace is not None:  # every reg-write prints a line
        machine.woken.add(shadow.on_event)
    machine.add_observer(registry.dispatch)
    result = machine.run(config.step_limit)
    return AnalysisResult(
        image=image,
        outcome=result.outcome,
        state=result.state,
        warnings=registry.warnings,
        shadow=shadow,
    )
