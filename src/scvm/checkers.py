"""Checker plugins: rule violations observed over the event stream.

Each plugin lists the event kinds it reads in `kinds` and is handed
only events of those kinds, with a read-only view of the shadow state;
it returns its Warnings, `()` when quiet.  Only fmt reads the machine
during a run: its memory.  Plugins never mutate an event or either
state, so enabling or disabling checkers cannot change a run.  A plugin
serves one run: `make_checkers` builds fresh ones for each.

Adding a checker means adding one class to the plugin table, `PLUGINS`:
its `name` joins CHECKER_ORDER, its `kinds` join what the registry
reads, and its `options` table, if any, declares its `--opt` keys.

Shipped checkers:
    null     NULL_DEREF_UNCHECKED   allocation/descriptor dereferenced
                                    with no null compare on record
    user     USER_READ_UNCHECKED, USER_WRITE_UNCHECKED, USER_DEREF_IRQOFF
                                    user-supplied addresses touched in
                                    kernel mode without the matching
                                    check, or with interrupts disabled
    fmt      FMT_TAINTED            untrusted bytes (network, SYS 34/35)
                                    reaching a format-string argument
    lockset  RACE_EMPTY_LOCKSET     no single lock protects a shared
                                    word across all observed accesses
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .machine import (
    CSTR_CAP,
    HEAP_BASE,
    HEAP_LIMIT,
    MODE_KERNEL,
    SYS_PRINTF,
    SYS_SPAWN,
    Event,
    Machine,
    read_cstr,
    stack_base,
)
from .shadow import NULLABLE_TAGS, ShadowState, TagKind

RULE_NULL_DEREF = "NULL_DEREF_UNCHECKED"
RULE_USER_READ = "USER_READ_UNCHECKED"
RULE_USER_WRITE = "USER_WRITE_UNCHECKED"
RULE_USER_IRQOFF = "USER_DEREF_IRQOFF"
RULE_FMT_TAINTED = "FMT_TAINTED"
RULE_RACE = "RACE_EMPTY_LOCKSET"

ALL_RULES = tuple(rule for name, rule in dict(globals()).items() if name.startswith("RULE_"))

_MEM_KINDS = ("mem-read", "mem-write")


@dataclass(frozen=True)
class Warning:
    checker: str
    rule: str
    tid: int
    pc: int
    step: int
    address: int | None = None
    object_id: int | None = None
    detail: str = ""

    @staticmethod
    def at(e: Event, checker: str, rule: str, detail: str, address=None, object_id=None):
        """The warning `checker` raises at event e, stamped with its tid, pc and step."""
        return Warning(checker, rule, e.tid, e.pc, e.step, address, object_id, detail)

    @property
    def dedup_key(self):
        ident = self.object_id if self.object_id is not None else self.address
        return (self.rule, self.pc, ident)


class CheckerRegistry:
    """Hands each event, in registration order, to the bound `on_event` of
    every plugin whose `kinds` include its kind, filed per kind when the
    registry is built, and keeps the first warning reported under each
    dedup key."""

    def __init__(self, plugins):
        self._reported: dict = {}  # dedup key -> its first warning, in report order
        by_kind: dict = {}
        for plugin in plugins:
            for kind in plugin.kinds:
                by_kind.setdefault(kind, []).append(plugin.on_event)
        self._by_kind = {kind: tuple(calls) for kind, calls in by_kind.items()}

    @property
    def warnings(self) -> list:
        """The reported warnings in first-report order, as a fresh list."""
        return list(self._reported.values())

    def dispatch(self, event: Event) -> None:
        for on_event in self._by_kind.get(event.kind, ()):
            if warnings := on_event(event):
                for w in warnings:
                    self._reported.setdefault(w.dedup_key, w)


class NullChecker:
    """An ALLOC/OPEN result must see a compare against zero (through
    any alias) before the first dereference through it."""

    name = "null"
    kinds = _MEM_KINDS

    def __init__(self, machine: Machine | None, shadow: ShadowState):
        self.shadow = shadow

    def on_event(self, e: Event):
        if e.base_reg is None:
            return ()
        obj = self.shadow.reg_object(e.tid, e.base_reg)
        if not obj.tags or not obj.tags & NULLABLE_TAGS or TagKind.NULL_CHECKED in obj.tags:
            return ()  # an untagged register leaves before the set intersection
        kind = "ALLOC" if TagKind.ALLOC_UNCHECKED in obj.tags else "OPEN"
        return (Warning.at(e, self.name, RULE_NULL_DEREF,
                           f"{kind} result dereferenced without null check ({obj.note})",
                           e.addr, obj.id),)


class UserChecker:
    """User-supplied addresses dereferenced in kernel mode must have
    passed the matching access check; no user dereference at all is
    allowed while interrupts are disabled (checked or not)."""

    name = "user"
    # kind -> the check that licenses the access, and the rule it breaks
    _ACCESS = {
        "mem-read": (TagKind.USER_READ_CHECKED, RULE_USER_READ,
                     "user address read in kernel without read check"),
        "mem-write": (TagKind.USER_WRITE_CHECKED, RULE_USER_WRITE,
                      "user address written in kernel without write check"),
    }
    kinds = tuple(_ACCESS)

    def __init__(self, machine: Machine | None, shadow: ShadowState):
        self.shadow = shadow

    def on_event(self, e: Event):
        if e.base_reg is None or e.mode != MODE_KERNEL:
            return ()
        obj = self.shadow.reg_object(e.tid, e.base_reg)
        if TagKind.USER_UNCHECKED not in obj.tags:
            return ()
        warnings = [] if e.iflag else [Warning.at(
            e, self.name, RULE_USER_IRQOFF,
            "user address dereferenced with interrupts disabled", e.addr, obj.id)]
        checked, rule, detail = self._ACCESS[e.kind]
        if checked not in obj.tags:
            warnings.append(Warning.at(e, self.name, rule, detail, e.addr, obj.id))
        return warnings


class FmtChecker:
    """Format strings must not contain bytes derived from an untrusted
    source, TAINTED or in a SYS 35 range.  Scans each PRINTF's string."""

    name = "fmt"
    kinds = ("syscall",)

    def __init__(self, machine: Machine, shadow: ShadowState):
        self.machine = machine
        self.shadow = shadow

    def on_event(self, e: Event):
        if e.sysno != SYS_PRINTF:
            return ()
        addr = e.args[0]
        data, terminated = read_cstr(self.machine.state.memory, addr, CSTR_CAP)
        sources = self.shadow.taint_sources  # a SYS 35 byte no load read holds no tag
        for a in range(addr, addr + len(data)):
            obj = self.shadow.mem_object(a)
            if (tagged := TagKind.TAINTED in obj.tags) or sources is not None and sources[a]:
                break
        else:
            return ()
        note, ident = (obj.note, obj.id) if tagged else ("untrusted source range", None)
        detail = f"tainted byte at format offset {a - addr} ({note})"
        if not terminated:
            detail += f"; no NUL within {CSTR_CAP} bytes, scan truncated"
        return (Warning.at(e, self.name, RULE_FMT_TAINTED, detail, a, ident),)


class LocksetChecker:
    """Empty-lockset race detection over 4-byte-aligned words.

    tracked="heap" (default) confines tracking to the image and heap
    segments, minus the stacks of the threads at construction and of
    each SPAWN (r1 its top); tracked="all" tracks every address.

    The tracked addresses are one sorted interval set, `_edges`: an address
    is tracked when an odd number of edges lie at or below it.  Every gap a
    stack cuts inside memory spans >= 1 KiB, so `_edges` never exceeds 132.

    `words` holds one state per word: missing while unseen; under
    grace=True, the tid of the one thread that has touched it; then its
    candidate lockset, the locks held at every access since.  An empty
    lockset was reported, and intersection keeps it empty.
    """

    name = "lockset"
    kinds = (*_MEM_KINDS, "syscall")
    # --opt key -> {accepted text: the value passed for it}, default first
    options = {"tracked": {"heap": "heap", "all": "all"}, "grace": {"off": False, "on": True}}

    def __init__(self, machine: Machine | None, shadow=None,
                 tracked: str = "heap", grace: bool = False):
        if tracked not in self.options["tracked"]:
            raise ValueError(f"unknown tracked policy {tracked!r}")
        if tracked == "heap" and machine is None:
            raise ValueError("tracked='heap' needs a machine for segment bounds")
        self.tracked = tracked
        self.grace = grace
        self.words: dict = {}
        self._edges = [0] if tracked == "all" else []  # every address, or none yet
        if tracked == "heap":  # read once: the segments and the stacks so far
            self._mark(machine.state.image_origin, machine.state.image_end, True)
            self._mark(HEAP_BASE, HEAP_LIMIT, True)
            for t in machine.state.threads.values():
                self._mark(t.stack_base, t.stack_top, False)

    def _mark(self, lo: int, hi: int, tracked: bool) -> None:
        """Make [lo, hi) tracked or not: edges at lo and hi where the state changes."""
        if lo < hi:
            i, j = bisect.bisect_left(self._edges, lo), bisect.bisect_right(self._edges, hi)
            self._edges[i:j] = [lo] * (i % 2 != tracked) + [hi] * (tracked != j % 2)

    def _is_tracked(self, word: int) -> bool:
        return bisect.bisect_right(self._edges, word) % 2 == 1

    def on_event(self, e: Event):
        if e.kind == "syscall":
            if e.sysno == SYS_SPAWN and self.tracked == "heap":  # r1: the new stack's top
                self._mark(stack_base(e.args[1]), e.args[1], False)
            return ()
        first = e.addr & ~3
        if e.addr + e.width <= first + 4 and not bisect.bisect_right(self._edges, first) & 1:
            return ()  # one untracked word (`_is_tracked` inline): the common quiet access
        warnings = []
        for word in range(first, e.addr + e.width, 4):
            if not self._is_tracked(word):
                continue
            state = self.words.get(word)
            if self.grace and state in (None, e.tid):
                self.words[word] = e.tid  # still exclusive to its first thread
                continue
            if state is None or isinstance(state, int):
                held = e.locks_held  # the first access, or the one that shares the word
            elif state:
                held = state & e.locks_held
            else:
                continue  # reported already
            self.words[word] = held
            if not held:
                warnings.append(Warning.at(e, self.name, RULE_RACE, "no common lock protects"
                                           " this word across accesses", word))
        return warnings


# The plugin table, in canonical order: a checker is one class here.
PLUGINS = (NullChecker, UserChecker, FmtChecker, LocksetChecker)
CHECKER_ORDER = tuple(cls.name for cls in PLUGINS)
CheckerRegistry.dispatch.kinds = tuple(dict.fromkeys(k for cls in PLUGINS for k in cls.kinds))
# "checker.key" -> {accepted text: value}, from every plugin's `options` table
OPTIONS = {f"{cls.name}.{key}": table
           for cls in PLUGINS for key, table in getattr(cls, "options", {}).items()}


def make_checkers(names, machine: Machine, shadow: ShadowState, options: dict | None = None):
    """Build the named plugins in canonical order, each given a value for
    every key of its `options` table: the one for the text `options` maps
    "checker.key" to, else the table's first.  Every given pair is checked
    against OPTIONS, whether or not its plugin is built."""
    options = options or {}
    unknown = set(names) - set(CHECKER_ORDER)
    if unknown:
        raise ValueError(f"unknown checkers: {', '.join(sorted(unknown))}")
    for key in options:
        if key not in OPTIONS:
            raise ValueError(f"unknown checker option {key!r}")
    values = {name: {} for name in CHECKER_ORDER}
    for key, table in OPTIONS.items():
        text = options.get(key, next(iter(table)))
        if text not in table:
            raise ValueError(f"{key} must be {' or '.join(table)}, got {text!r}")
        name, _, field = key.partition(".")
        values[name][field] = table[text]
    return [cls(machine, shadow, **values[cls.name]) for cls in PLUGINS if cls.name in names]
