"""Checker plugins: rule violations observed over the event stream.

Each plugin lists the event kinds it reads in `kinds` and is handed
only events of those kinds, with read-only views of the machine and
shadow state; it yields Warnings.
Plugins never mutate an event or either view, so enabling or disabling
checkers cannot change a run.  A plugin serves one run: `make_checkers`
builds fresh ones for each.

Adding a checker means adding one class to the plugin table, `PLUGINS`:
its `name` joins CHECKER_ORDER and its `kinds` join what the registry
reads.

Shipped checkers:
    null     NULL_DEREF_UNCHECKED   allocation/descriptor dereferenced
                                    with no null compare on record
    user     USER_READ_UNCHECKED, USER_WRITE_UNCHECKED, USER_DEREF_IRQOFF
                                    user-supplied addresses touched in
                                    kernel mode without the matching
                                    check, or with interrupts disabled
    fmt      FMT_TAINTED            network-derived bytes reaching a
                                    format-string argument
    lockset  RACE_EMPTY_LOCKSET     no single lock protects a shared
                                    word across all observed accesses
"""

from __future__ import annotations

from dataclasses import dataclass

from .machine import (
    CSTR_CAP,
    HEAP_BASE,
    HEAP_LIMIT,
    MODE_KERNEL,
    SYS_PRINTF,
    Event,
    Machine,
    read_cstr,
)
from .shadow import NULLABLE_TAGS, ShadowState, TagKind

RULE_NULL_DEREF = "NULL_DEREF_UNCHECKED"
RULE_USER_READ = "USER_READ_UNCHECKED"
RULE_USER_WRITE = "USER_WRITE_UNCHECKED"
RULE_USER_IRQOFF = "USER_DEREF_IRQOFF"
RULE_FMT_TAINTED = "FMT_TAINTED"
RULE_RACE = "RACE_EMPTY_LOCKSET"

ALL_RULES = (
    RULE_NULL_DEREF,
    RULE_USER_READ,
    RULE_USER_WRITE,
    RULE_USER_IRQOFF,
    RULE_FMT_TAINTED,
    RULE_RACE,
)

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

    @property
    def dedup_key(self):
        ident = self.object_id if self.object_id is not None else self.address
        return (self.rule, self.pc, ident)


class CheckerRegistry:
    """Fans each event out, in registration order, to the plugins whose
    `kinds` include its kind, and collects warnings, dropping any repeat
    of an already-seen dedup key."""

    def __init__(self, plugins):
        self.warnings: list = []
        self._seen: set = set()
        self._by_kind: dict = {}
        for plugin in plugins:
            for kind in plugin.kinds:
                self._by_kind.setdefault(kind, []).append(plugin)

    def dispatch(self, event: Event) -> None:
        for plugin in self._by_kind.get(event.kind, ()):
            for w in plugin.on_event(event):
                key = w.dedup_key
                if key not in self._seen:
                    self._seen.add(key)
                    self.warnings.append(w)


def run_checkers(plugins, events) -> list:
    """Deliver a complete event stream through a fresh registry."""
    registry = CheckerRegistry(plugins)
    for e in events:
        registry.dispatch(e)
    return registry.warnings


class NullChecker:
    """An ALLOC/OPEN result must see a compare against zero (through
    any alias) before the first dereference through it."""

    name = "null"
    kinds = _MEM_KINDS

    def __init__(self, machine: Machine | None, shadow: ShadowState):
        self.shadow = shadow

    def on_event(self, e: Event):
        if e.base_reg is None:
            return
        obj = self.shadow.reg_object(e.tid, e.base_reg)
        if obj.tags & NULLABLE_TAGS and TagKind.NULL_CHECKED not in obj.tags:
            kind = "ALLOC" if TagKind.ALLOC_UNCHECKED in obj.tags else "OPEN"
            yield Warning(
                checker=self.name,
                rule=RULE_NULL_DEREF,
                tid=e.tid,
                pc=e.pc,
                step=e.step,
                address=e.addr,
                object_id=obj.id,
                detail=f"{kind} result dereferenced without null check ({obj.note})",
            )


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
            return
        obj = self.shadow.reg_object(e.tid, e.base_reg)
        if TagKind.USER_UNCHECKED not in obj.tags:
            return
        common = dict(checker=self.name, tid=e.tid, pc=e.pc, step=e.step,
                      address=e.addr, object_id=obj.id)
        if not e.iflag:
            yield Warning(rule=RULE_USER_IRQOFF,
                          detail="user address dereferenced with interrupts disabled", **common)
        checked, rule, detail = self._ACCESS[e.kind]
        if checked not in obj.tags:
            yield Warning(rule=rule, detail=detail, **common)


class FmtChecker:
    """Format strings must not contain bytes derived from an untrusted
    source.  Scans the guest string at each PRINTF."""

    name = "fmt"
    kinds = ("syscall",)

    def __init__(self, machine: Machine, shadow: ShadowState):
        self.machine = machine
        self.shadow = shadow

    def on_event(self, e: Event):
        if e.sysno != SYS_PRINTF:
            return
        addr = e.args[0]
        data, terminated = read_cstr(self.machine.state.memory, addr, CSTR_CAP)
        for a in range(addr, addr + len(data)):
            obj = self.shadow.mem_object(a)
            if TagKind.TAINTED in obj.tags:
                break
        else:
            return
        detail = f"tainted byte at format offset {a - addr} ({obj.note})"
        if not terminated:
            detail += f"; no NUL within {CSTR_CAP} bytes, scan truncated"
        yield Warning(
            checker=self.name,
            rule=RULE_FMT_TAINTED,
            tid=e.tid,
            pc=e.pc,
            step=e.step,
            address=a,
            object_id=obj.id,
            detail=detail,
        )


class LocksetChecker:
    """Empty-lockset race detection over 4-byte-aligned words.

    tracked="heap" (default) confines tracking to the image and heap
    segments, minus every thread's stack range; tracked="all" applies
    the raw algorithm to every address.

    `words` holds one state per word: missing while unseen; under
    grace=True, the tid of the one thread that has touched it; then its
    candidate lockset, the locks held at every access since.  An empty
    lockset was reported, and intersection keeps it empty.
    """

    name = "lockset"
    kinds = _MEM_KINDS

    def __init__(self, machine: Machine | None, shadow=None,
                 tracked: str = "heap", grace: bool = False):
        if tracked not in ("heap", "all"):
            raise ValueError(f"unknown tracked policy {tracked!r}")
        if tracked == "heap" and machine is None:
            raise ValueError("tracked='heap' needs a machine for segment bounds")
        self.machine = machine
        self.tracked = tracked
        self.grace = grace
        self.words: dict = {}

    def _is_tracked(self, word: int) -> bool:
        if self.tracked == "all":
            return True
        st = self.machine.state
        in_image = st.image_origin <= word < st.image_end
        in_heap = HEAP_BASE <= word < HEAP_LIMIT
        if not (in_image or in_heap):
            return False
        for t in st.threads.values():
            if t.stack_base <= word < t.stack_top:
                return False
        return True

    def on_event(self, e: Event):
        for word in range(e.addr & ~3, e.addr + e.width, 4):
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
                yield Warning(
                    checker=self.name,
                    rule=RULE_RACE,
                    tid=e.tid,
                    pc=e.pc,
                    step=e.step,
                    address=word,
                    detail="no common lock protects this word across accesses",
                )


# The plugin table, in canonical order: a checker is one class here.
PLUGINS = (NullChecker, UserChecker, FmtChecker, LocksetChecker)
CHECKER_ORDER = tuple(cls.name for cls in PLUGINS)
CheckerRegistry.dispatch.kinds = tuple(dict.fromkeys(k for cls in PLUGINS for k in cls.kinds))


def make_checkers(names, machine: Machine, shadow: ShadowState, options: dict | None = None):
    """Build the named plugins in canonical order.

    Options are flat "checker.key=value" pairs, currently
    lockset.tracked=heap|all and lockset.grace=on|off.
    """
    options = dict(options or {})
    unknown = set(names) - set(CHECKER_ORDER)
    if unknown:
        raise ValueError(f"unknown checkers: {', '.join(sorted(unknown))}")
    for key in options:
        if key not in ("lockset.tracked", "lockset.grace"):
            raise ValueError(f"unknown checker option {key!r}")
    grace_text = options.get("lockset.grace", "off")
    if grace_text not in ("on", "off"):
        raise ValueError("lockset.grace must be on or off")
    lockset = {"tracked": options.get("lockset.tracked", "heap"), "grace": grace_text == "on"}
    return [cls(machine, shadow, **(lockset if cls is LocksetChecker else {}))
            for cls in PLUGINS if cls.name in names]
