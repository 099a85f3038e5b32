"""Warning reports, expected-warning manifests, and their diff.

Report format: UTF-8, tab-separated, "#"-prefixed header lines carrying
run metadata, then one line per warning:

    rule  checker  step  tid  pc(hex)  address(hex or -)  object(or -)  detail

The detail field is backslash-escaped (\\t, \\n, \\r, \\\\) so a report
always round-trips through parse().

Manifest format, line-oriented:

    program <name>                     (optional, informational)
    policy <kind> seed <n> quantum <n>
    expect <RULE> at <label> [false-positive]

Blank lines and "#" comments are ignored.  The false-positive marker
documents a warning the checker is expected to emit even though the
program is actually fine; diffing treats it as expected either way, the
corpus tally reports it separately.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from .checkers import ALL_RULES, Warning
from .machine import SchedulerPolicy

REPORT_VERSION = "scvm-report v1"


class ReportError(ValueError):
    """Malformed report text."""


class ManifestError(ValueError):
    """Malformed manifest text or unresolvable site label."""


# One table both ways: each escaped character and its escape.  _escape
# replaces in table order, backslash first, so no escape is escaped again
# (str.translate to two-character escapes is ~7x slower).
_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}
_UNESCAPES = {escape[1]: char for char, escape in _ESCAPES.items()}


def _escape(text: str) -> str:
    for char, escape in _ESCAPES.items():
        text = text.replace(char, escape)
    return text


def _unescape_one(m: re.Match) -> str:
    if m[1] not in _UNESCAPES:
        raise ReportError(f"bad escape \\{m[1]}")
    return _UNESCAPES[m[1]]


def _unescape(text: str) -> str:
    """Inverse of _escape; a lone backslash at the end stays as it is."""
    return re.sub(r"(?s)\\(.)", _unescape_one, text)


def _opt_hex(value: int | None) -> str:
    return f"0x{value:04X}" if value is not None else "-"


def _opt_int(value: int | None) -> str:
    return str(value) if value is not None else "-"


def serialize(warnings, image_sha256: str, policy: SchedulerPolicy) -> str:
    """Stable text report; byte-identical for identical runs."""
    lines = [
        f"# {REPORT_VERSION}",
        f"# image sha256 {image_sha256}",
        f"# policy {policy.kind} seed {policy.seed} quantum {policy.quantum}",
    ]
    for w in warnings:
        fields = [w.rule, w.checker, str(w.step), str(w.tid), f"0x{w.pc:04X}",
                  _opt_hex(w.address), _opt_int(w.object_id), _escape(w.detail)]
        lines.append("\t".join(fields))
    return "\n".join(lines) + "\n"


def _parse_policy(parts: list) -> SchedulerPolicy:
    """The words of a `policy <kind> seed <n> quantum <n>` line; raises
    ValueError naming what is wrong."""
    if len(parts) != 6 or parts[2] != "seed" or parts[4] != "quantum":
        raise ValueError("expected 'policy <kind> seed <n> quantum <n>'")
    return SchedulerPolicy(kind=parts[1], seed=int(parts[3]), quantum=int(parts[5]))


def parse(text: str) -> tuple[dict, list]:
    """Inverse of serialize: (metadata dict, Warning list).  A malformed
    line, or a first non-blank line other than `# scvm-report v1`,
    raises ReportError("line N: ..."); so does a missing header."""
    meta: dict = {}
    warnings: list = []
    # rows are "\n"-separated; splitlines would also split on stray
    # unicode separators inside detail text
    lines = text.split("\n")
    first = next((n for n, line in enumerate(lines) if line.strip()), len(lines) - 1)
    if lines[first] != f"# {REPORT_VERSION}":
        raise ReportError(f"line {first + 1}: expected '# {REPORT_VERSION}'")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            if line.startswith("#"):
                words = line[1:].split()
                if words[:2] == ["image", "sha256"]:
                    if len(words) != 3:
                        raise ValueError("expected 'image sha256 <hex>'")
                    meta["image_sha256"] = words[2]
                elif words[:1] == ["policy"]:
                    meta["policy"] = _parse_policy(words)
                continue
            fields = line.split("\t")
            if len(fields) != 8:
                raise ValueError(f"expected 8 fields, got {len(fields)}")
            rule, checker, step, tid, pc, address, object_id, detail = fields
            warnings.append(
                Warning(
                    checker=checker,
                    rule=rule,
                    tid=int(tid),
                    pc=int(pc, 16),
                    step=int(step),
                    address=None if address == "-" else int(address, 16),
                    object_id=None if object_id == "-" else int(object_id),
                    detail=_unescape(detail),
                )
            )
        except ValueError as exc:
            raise ReportError(f"line {lineno}: {exc}") from None
    for key, header in (("image_sha256", "image sha256"), ("policy", "policy")):
        if key not in meta:
            raise ReportError(f"missing '# {header}' header")
    return meta, warnings


class Expectation(NamedTuple):  # cheaper to build than a frozen dataclass
    rule: str
    label: str
    false_positive: bool = False


@dataclass
class Manifest:
    program: str | None = None
    policy: SchedulerPolicy = field(default_factory=SchedulerPolicy)
    expects: list = field(default_factory=list)


_RULES = frozenset(ALL_RULES)


def parse_manifest(text: str, source: str = "<manifest>") -> Manifest:
    manifest = Manifest()
    saw_policy = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.partition("#")[0].split()
        if not parts:
            continue
        if parts[0] == "expect":
            fp = parts[-1] == "false-positive"
            if len(parts) != 4 + fp or parts[2] != "at":
                raise ManifestError(f"{source}:{lineno}: expected 'expect <RULE> at <label>'")
            if parts[1] not in _RULES:
                raise ManifestError(f"{source}:{lineno}: unknown rule {parts[1]!r}")
            manifest.expects.append(Expectation(parts[1], parts[3], fp))
        elif parts[0] == "program" and len(parts) == 2:
            manifest.program = parts[1]
        elif parts[0] == "policy":
            try:
                manifest.policy = _parse_policy(parts)
            except ValueError as exc:
                raise ManifestError(f"{source}:{lineno}: {exc}") from None
            saw_policy = True
        else:
            raise ManifestError(f"{source}:{lineno}: unrecognized directive {parts[0]!r}")
    if not saw_policy:
        raise ManifestError(f"{source}: missing 'policy' line")
    return manifest


@dataclass(frozen=True)
class Verdict:
    passed: bool
    missing: tuple  # expected (rule, pc) pairs not observed
    unexpected: tuple  # observed (rule, pc) pairs not expected

    def __str__(self):
        if self.passed:
            return "PASS"
        bits = []
        if self.missing:
            bits.append(
                "missing " + ", ".join(f"{r}@0x{pc:04X}" for r, pc in self.missing)
            )
        if self.unexpected:
            bits.append(
                "unexpected " + ", ".join(f"{r}@0x{pc:04X}" for r, pc in self.unexpected)
            )
        return "FAIL: " + "; ".join(bits)


def diff(warnings, manifest: Manifest, symbols: dict) -> Verdict:
    """Multiset comparison of (rule, site pc) between a run's warnings
    and the manifest's expectations (labels resolved via symbols)."""
    expected: Counter = Counter()
    for exp in manifest.expects:
        if exp.label not in symbols:
            raise ManifestError(f"expect site label {exp.label!r} not in symbol table")
        expected[(exp.rule, symbols[exp.label])] += 1
    observed = Counter((w.rule, w.pc) for w in warnings)
    missing = tuple(sorted((expected - observed).elements()))
    unexpected = tuple(sorted((observed - expected).elements()))
    return Verdict(passed=not missing and not unexpected, missing=missing, unexpected=unexpected)
