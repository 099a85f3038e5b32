"""Shadow machine state: type/taint metadata mirroring the guest.

Every register (per guest thread) and every guest memory byte has a
shadow cell.  A cell holds a handle to a TypeObject, and aliased cells
hold the *same* handle, so a check observed through one alias (say a
null compare on a copied pointer) is visible through every other alias.
That extra level of indirection is the whole point: copying a value
copies the handle, never the tags.

The engine is driven purely by machine events (see machine.Event and
its `src` provenance convention).  It never reads machine registers or
memory directly, which keeps replaying a recorded stream equivalent to
observing a live run.
"""

from __future__ import annotations

import collections
import enum
import functools
import itertools
from collections.abc import Callable
from dataclasses import dataclass

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
            self.trace(
                f"cell r{reg}@t{tid} -> object {obj.id} tags {_fmt_tags(frozenset(obj.tags))}"
            )

    def _set_mem(self, addr: int, obj: TypeObject):
        self.mem_cells[addr] = obj
        if self.trace is not None:
            self.trace(
                f"cell 0x{addr:04X} -> object {obj.id} tags {_fmt_tags(frozenset(obj.tags))}"
            )

    def _add_tag(self, obj: TypeObject, tag: TagKind):
        obj.tags.add(tag)
        if self.trace is not None:
            self.trace(f"object {obj.id} tags {_fmt_tags(frozenset(obj.tags))}")

    # -- event propagation ------------------------------------------

    def on_event(self, e: Event) -> None:
        kind = e.kind
        if kind == "reg-write":
            self._set_reg(e.tid, e.reg, self._source_object(e))
        elif kind == "mem-write":
            self._on_mem_write(e)
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
                    obj = self.fresh({TagKind.TAINTED}, "read from untrusted source range")
                    for a in untainted:
                        self._set_mem(a, obj)
        elif kind == "compare":
            self._on_compare(e)
        elif kind == "syscall":
            self._on_syscall(e)
        elif kind == "thread-exit":  # tids are never reused, so no later event names it
            self.reg_cells.pop(e.tid, None)
        # every other kind carries no shadow semantics

    on_event.kinds = ("reg-write", "mem-write", "mem-read", "compare", "syscall", "thread-exit")

    def _source_object(self, e: Event) -> TypeObject:
        src = e.src
        regs = self.reg_cells[e.tid]
        if src[0] == "imm":
            return self.untagged
        if src[0] == "reg":
            return regs[src[1]]
        if src[0] == "mem":
            _, addr, width = src
            get, untagged = self.mem_cells.get, self.untagged
            first = get(addr, untagged)
            if width == 1 or (get(addr + 1, untagged) is first
                              and get(addr + 2, untagged) is first
                              and get(addr + 3, untagged) is first):
                return first
            return self._merge([get(a, untagged) for a in range(addr, addr + width)], "load")
        if src[0] == "binop":
            _, opname, rs, rt = src
            a, b = regs[rs], regs[rt]
            if a is b:  # SUB/XOR of one object is an integer, not a copy
                return self.untagged if opname in ZEROING_OPS else a
            if not b.tags:
                return a
            if not a.tags:
                return b
            return self._merge((a, b), opname)
        if src[0] == "syscall":
            if src[1] == SYS_ALLOC:
                return self.fresh({TagKind.ALLOC_UNCHECKED}, f"ALLOC at step {e.step}")
            if src[1] == SYS_OPEN:
                return self.fresh({TagKind.FD_UNCHECKED}, f"OPEN at step {e.step}")
            if src[1] == SYS_READ_NET:
                return self.fresh({TagKind.TAINTED}, f"network read of {e.width} bytes")
        return self.untagged

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

    def _on_mem_write(self, e: Event) -> None:
        obj = self._source_object(e)
        for a in range(e.addr, e.addr + e.width):
            self._set_mem(a, obj)

    def _on_compare(self, e: Event) -> None:
        # A compare against zero counts as the null check for whatever
        # allocation/descriptor object the left register aliases.
        if e.value != 0:
            return
        obj = self.reg_cells[e.tid][e.rs]
        if obj.tags & NULLABLE_TAGS and TagKind.NULL_CHECKED not in obj.tags:
            self._add_tag(obj, TagKind.NULL_CHECKED)

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
