"""Shadow machine state: type/taint metadata mirroring the guest.

Every register (per guest thread) and every guest memory byte has a
shadow cell.  A cell holds a handle to a TypeObject, and aliased cells
hold the *same* handle, so a check observed through one alias (say a
null compare on a copied pointer) is visible through every other alias.
That extra level of indirection is the whole point: copying a value
copies the handle, never the tags.

The engine is driven by machine events (see machine.Event and its `src`
provenance convention), and by RULES, which the machine splices into
the code words in their place.  It never reads machine registers or
memory, which keeps replaying a recorded stream equivalent to a live run.

Only the SYSes in MINTING_SYSES mint an object.  Until one runs every
cell is untagged, so on_event reads only its `idle_kinds` (machine.Machine).
"""

from __future__ import annotations

import collections
import enum
import functools
import itertools
from collections.abc import Callable
from dataclasses import dataclass, fields

from .isa import MEMORY_SIZE, NUM_REGS
from .machine import (
    SYS_ALLOC,
    SYS_CHECK_USER_READ,
    SYS_CHECK_USER_WRITE,
    SYS_KCALL,
    SYS_OPEN,
    SYS_READ_NET,
    SYS_TAG_TAINT,
    SYS_TAG_UNTRUSTED_SOURCE,
    Event,
)


class TagKind(enum.Enum):
    USER_UNCHECKED = "USER_UNCHECKED"
    USER_READ_CHECKED = "USER_READ_CHECKED"
    USER_WRITE_CHECKED = "USER_WRITE_CHECKED"
    ALLOC_UNCHECKED = "ALLOC_UNCHECKED"
    NULL_CHECKED = "NULL_CHECKED"
    TAINTED = "TAINTED"
    FD_UNCHECKED = "FD_UNCHECKED"


# Tags that make a pointer "nullable": NULL_CHECKED only ever rides
# along with one of these.
NULLABLE_TAGS = frozenset({TagKind.ALLOC_UNCHECKED, TagKind.FD_UNCHECKED})

# Ops whose result over one object (`op rd, rs, rs`, or two aliases) is an
# integer: zero, or the offset between two copies of a pointer.
ZEROING_OPS = frozenset({"XOR", "SUB"})

# The SYSes that can mint an object: SYS 35 through the loads from its range.
MINTING_SYSES = frozenset({SYS_ALLOC, SYS_OPEN, SYS_READ_NET, SYS_KCALL, SYS_TAG_TAINT,
                           SYS_TAG_UNTRUSTED_SOURCE})

# Past this length a note records no more access checks, so each check costs the same.
NOTE_CAP = 1024


@dataclass(eq=False)
class TypeObject:
    """Shared, mutable tag set.  Identity (not content) is what cells
    alias; two objects with equal tags are still distinct."""

    id: int
    tags: set
    note: str = ""


@functools.lru_cache(maxsize=2 ** len(TagKind))
def _fmt_tags(tags: frozenset) -> str:
    """Trace text, once per distinct tag set: keyed on contents, as tags change."""
    return "{%s}" % ",".join(sorted(t.name for t in tags))


# The rules as code text, stated once: a reg-write's, by its source's kind
# (machine's `src` convention), is SOURCES's code, which sets `obj`, then
# _STORE's.  The machine splices a rule in the Event's place where this
# shadow alone reads its kind; on_event runs it compiled (_RUN).  A rule
# reads `sh` and `cells` (BINDS, made once per handler or block call) and
# each `{field}` its Event would carry (`{src[i]}` the source's i-th item),
# never registers or memory, so a replay of the Events computes the same.
BINDS = {"sh": "{reader}.__self__", "cells": "sh.reg_cells[{tid}]"}
SOURCES = {
    "imm": "obj = sh.untagged",
    "reg": "obj = cells[{src[1]}]",
    # The one object in all the bytes loaded, else their _merge.
    "mem": ("addr, width, get, untagged = {src[1]}, {src[2]}, sh.mem_cells.get, sh.untagged\n"
            "obj = get(addr, untagged)\n"
            "if width != 1 and not (obj is get(addr + 1, untagged) is get(addr + 2, untagged)\n"
            "                       is get(addr + 3, untagged)):\n"
            "    obj = sh._merge([get(x, untagged) for x in range(addr, addr + width)], 'load')"),
    # SUB/XOR of one object is an integer, not a copy.
    "binop": ("x, y = cells[{src[2]}], cells[{src[3]}]\n"
              "if x is y: obj = sh.untagged if {src[1]} in sh.ZEROING_OPS else x\n"
              "else: obj = y if not x.tags else x if not y.tags else sh._merge((x, y), {src[1]})"),
    "syscall": "obj = sh._mint({src[1]}, {step}, {width})",
}
_MINTS = {SYS_ALLOC: (TagKind.ALLOC_UNCHECKED, "ALLOC at step {step}"),  # tag and note
          SYS_OPEN: (TagKind.FD_UNCHECKED, "OPEN at step {step}"),
          SYS_READ_NET: (TagKind.TAINTED, "network read of {width} bytes")}
# A traced shadow stores through _set_reg, which also prints the cell's line.
_STORE = "if sh.trace is None: cells[{reg}] = obj\nelse: sh._set_reg({tid}, {reg}, obj)"
RULES = {
    "reg-write": {kind: f"{text}\n{_STORE}" for kind, text in SOURCES.items()},
    # A compare against zero counts as the null check for whatever
    # allocation/descriptor object the left register aliases.
    "compare": ("if {value} == 0:\n"
                "    obj = cells[{rs}]\n"
                "    if obj.tags & sh.NULLABLE_TAGS and sh.NULL_CHECKED not in obj.tags:\n"
                "        sh._add_tag(obj, sh.NULL_CHECKED)"),
}


def _compiled(text: str) -> Callable:
    """rule(sh, e): BINDS's cells, then text, each {field} the Event e's."""
    given = {f.name: f"e.{f.name}" for f in fields(Event)}
    given["src"] = [f"e.src[{i}]" for i in range(4)]
    lines = f"cells = {BINDS['cells']}\n{text}".format(**given).split("\n")
    exec("def rule(sh, e):\n" + "".join(f"    {line}\n" for line in lines), {}, scope := {})
    return scope["rule"]


_RUN = {  # each source's object, by its kind, and the compare rule, for on_event
    **{kind: _compiled(f"{text}\nreturn obj") for kind, text in SOURCES.items()},
    "compare": _compiled(RULES["compare"])}


class ShadowState:
    """One cell per register per live thread, one per guest memory byte.

    Memory cells are sparse: a byte with no entry in `mem_cells` holds
    the shared untagged object, so untouched memory costs nothing.
    `reg_cells[tid]`, a thread's registers, starts untagged on first use.

    `trace`, when set to a callable, is handed a line per cell/tag
    update ("cell r0@t1 -> object 3 tags {USER_UNCHECKED}").
    """

    def __init__(self, trace: Callable[[str], None] | None = None):
        self._ids = itertools.count(1)
        self.untagged = TypeObject(0, set(), "untagged")
        self.mem_cells: dict = {}
        # The default binds the untagged object, not the shadow.
        self.reg_cells = collections.defaultdict(lambda u=self.untagged: [u] * NUM_REGS)
        self.taint_sources: bytearray | None = None  # per byte: in a SYS 35 range?
        self.trace = trace

    # -- cell plumbing ----------------------------------------------

    def fresh(self, tags, note="") -> TypeObject:
        return TypeObject(next(self._ids), set(tags), note)

    def reg_object(self, tid: int, reg: int) -> TypeObject:
        return self.reg_cells[tid][reg]

    def mem_object(self, addr: int) -> TypeObject:
        return self.mem_cells.get(addr, self.untagged)

    def _set_reg(self, tid: int, reg: int, obj: TypeObject):
        self.reg_cells[tid][reg] = obj
        if self.trace is not None:
            tags = _fmt_tags(frozenset(obj.tags))
            self.trace(f"cell r{reg}@t{tid} -> object {obj.id} tags {tags}")

    def _set_mem(self, addrs, obj: TypeObject):
        for a in addrs:
            self.mem_cells[a] = obj
        if self.trace is not None:  # one tail for all the cells' lines
            tail = f" -> object {obj.id} tags {_fmt_tags(frozenset(obj.tags))}"
            for a in addrs:
                self.trace(f"cell 0x{a:04X}{tail}")

    def _add_tag(self, obj: TypeObject, tag: TagKind):
        obj.tags.add(tag)
        if self.trace is not None:
            self.trace(f"object {obj.id} tags {_fmt_tags(frozenset(obj.tags))}")

    # -- event propagation ------------------------------------------

    def on_event(self, e: Event) -> bool | None:
        kind = e.kind
        if kind == "reg-write":
            self._set_reg(e.tid, e.reg, _RUN[e.src[0]](self, e))
        elif kind == "mem-write":
            self._set_mem(range(e.addr, e.addr + e.width), _RUN[e.src[0]](self, e))
        elif kind == "mem-read":
            # Reads from a registered untrusted range materialize taint
            # before the load's reg-write picks the cell up: one object
            # for all the bytes the read finds untainted.  A byte that
            # already holds a tainted object keeps it, so every value
            # loaded from it, by byte or by word, aliases one object.
            if self.taint_sources is not None:
                flags = enumerate(self.taint_sources[e.addr : e.addr + e.width], e.addr)
                untainted = [a for a, flag in flags
                             if flag and TagKind.TAINTED not in self.mem_object(a).tags]
                if untainted:
                    self._set_mem(untainted, self.fresh({TagKind.TAINTED},
                                                        "read from untrusted source range"))
        elif kind == "compare":
            _RUN["compare"](self, e)
        elif kind == "syscall":
            self._on_syscall(e)
            return e.sysno in MINTING_SYSES  # true wakes the shadow to its kinds
        elif kind == "thread-exit":  # tids are never reused, so no later event names it
            self.reg_cells.pop(e.tid, None)
        # every other kind carries no shadow semantics

    on_event.kinds = ("reg-write", "mem-write", "mem-read", "compare", "syscall", "thread-exit")
    # thread-exit drops the register cells a CHECK_USER made before any mint.
    on_event.idle_kinds = ("syscall", "thread-exit")
    # What the machine may splice in the Events' place, and what the rules read through `sh`.
    on_event.rules, on_event.binds = RULES, BINDS
    NULLABLE_TAGS, NULL_CHECKED, ZEROING_OPS = NULLABLE_TAGS, TagKind.NULL_CHECKED, ZEROING_OPS

    def _mint(self, sysno: int, step: int, width) -> TypeObject:
        """A syscall's result's object: a fresh one if the syscall mints it."""
        if sysno not in _MINTS:
            return self.untagged
        return self.fresh({_MINTS[sysno][0]}, _MINTS[sysno][1].format(step=step, width=width))

    def _merge(self, objs, what: str) -> TypeObject:
        """A load's differing bytes, or a binop's two distinct tagged
        operands (binop tests identity inline): their one tagged object,
        else a fresh union of their tags, as Memcheck merges a load's
        byte shadows.  The union is new, so a null check made through it
        does not flow back to the objects it merged."""
        tagged = list(dict.fromkeys(o for o in objs if o.tags))
        if len(tagged) < 2:
            return tagged[0] if tagged else self.untagged
        note = f"{what} merge of " + " and ".join(f"#{o.id}" for o in tagged)
        return self.fresh(set().union(*(o.tags for o in tagged)), note)

    def _on_syscall(self, e: Event) -> None:
        n = e.sysno
        if n == SYS_KCALL:
            # Everything userland hands across the boundary is an
            # unchecked user value until proven otherwise.
            for i in range(4):
                self._set_reg(e.tid, i, self.fresh({TagKind.USER_UNCHECKED}, "syscall boundary"))
        elif n in (SYS_CHECK_USER_READ, SYS_CHECK_USER_WRITE):
            obj = self.reg_cells[e.tid][0]
            if TagKind.USER_UNCHECKED in obj.tags:
                tag = (TagKind.USER_READ_CHECKED if n == SYS_CHECK_USER_READ
                       else TagKind.USER_WRITE_CHECKED)
                self._add_tag(obj, tag)
                if len(obj.note) < NOTE_CAP:
                    obj.note += f"; checked len={e.args[1]} at pc 0x{e.pc:04X}"
        elif n == SYS_TAG_TAINT:
            obj = self.reg_cells[e.tid][0]
            if obj is self.untagged:
                self._set_reg(e.tid, 0, self.fresh({TagKind.TAINTED}, "tagged by hypercall"))
            else:
                self._add_tag(obj, TagKind.TAINTED)
        elif n == SYS_TAG_UNTRUSTED_SOURCE:
            lo, hi = e.args[0], min(e.args[0] + e.args[1], MEMORY_SIZE)  # clamped to memory
            if lo < hi:
                if self.taint_sources is None:
                    self.taint_sources = bytearray(MEMORY_SIZE)
                self.taint_sources[lo:hi] = b"\1" * (hi - lo)
