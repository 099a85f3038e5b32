"""Guest machine: interpreter, simulated threads, syscalls, event stream.

Everything the analysis layers know about the guest arrives through the
event stream.  Each executed instruction emits one `fetch` event plus
events for its operand traffic, in operand-evaluation order.  Events
are stamped with the thread, pc, privilege mode, interrupt flag, and the
thread's held-lock set at emission time, so observers never have to
reach back into mutable machine state to interpret them.  An observer
may name the kinds it reads in `kinds`, and those it reads until it wakes
in `idle_kinds` (see EVENT_KINDS, Machine); an event reaches only the
observers that read its kind, and a kind nobody reads builds no Event.
One more kind, LINES, is each event's format_event line, built inline
by the code word and handed to its readers before the event's Event.

Each code word is decoded once and compiled once per read set, the set
of kinds the observers read, into a handler closed over its operands
and memoized on the word's 8 bytes, so code the guest writes at run
time needs no invalidation.  One table, _CODE_TEXT, defines every
opcode and every syscall number: each one's code and events, its
`fetch` first, in order; one walk (_walk) turns an entry into code for
both compilers.  The word compiler builds each word's handler through a
factory compiled once per entry and read set that builds only the lines
and events of that set, so an unread kind costs no test; a SYS's after
its `syscall`, which can wake an observer, are built only if their kind
has readers then.  A bare run is the empty read set.

Straight-line code also runs in blocks, as Bochs's trace cache and
QEMU's translation blocks do, under any read set.  A block is the words
from a pc up to and including the first BEQ, BNE, JMP, CALL or RET,
ending before a SYS, CLI, STI or HALT or a word that does not decode,
and at most _BLOCK_WORDS long.  The block compiler walks the same table
into one function for the run's read set, which builds each word's
lines and events of that set inline (as libdft inlines its analysis),
once a pc has been dispatched _HOT times in a run, and caches it for the
whole process (_BLOCKS), bounded, on its exact bytes and read set.  A
block stops, with the thread's pc at the next word, before a load or
store that would fault and after a store into its own bytes; the
per-word path then runs that word, so faults and rewritten code take
the one path they always took.

`Event` is built from EVENT_FIELDS: the stamp, then every operand field
the table lists.  It is slotted but not frozen, since freezing makes it
several times dearer to build.  Every observer shares one event object,
so observers must not mutate it.

Provenance convention for `reg-write` / `mem-write` events (the `src`
field), which the shadow engine keys on:

    ('imm',)                the value is a constant (MOVI, link writes)
    ('reg', i)              copied from register i
    ('mem', addr, width)    loaded from memory
    ('binop', op, rs, rt)   computed from registers rs and rt
    ('syscall', n)          produced by syscall n

The interpreter itself is single-threaded; guest threads are simulated
and interleaved by a deterministic scheduler, which picks once per slice
(see Machine.run) as if once per step.  Identical (image, policy, seed,
step limit) always reproduces identical event streams.

A thread's context is in `MachineState.threads` from its SPAWN to its
end, and tids are never reused; `MachineState.blocked` alone says who waits.
"""

from __future__ import annotations

import ast
import bisect
import functools
import re
import struct
from dataclasses import dataclass, field, fields, make_dataclass

from .asm import ProgramImage
from .isa import (
    ALU_OPS,
    INSTR_SIZE,
    MEMORY_SIZE,
    NUM_REGS,
    DecodeError,
    Instruction,
    Opcode,
    decode,
)

M32 = 0xFFFFFFFF
M64 = 0xFFFFFFFFFFFFFFFF

MODE_USER = "user"
MODE_KERNEL = "kernel"

HEAP_BASE = 0x8000
HEAP_LIMIT = 0xE000
DEFAULT_STACK_TOP = 0xFFF0
DEFAULT_STACK_SIZE = 1024
DEFAULT_STEP_LIMIT = 1_000_000

FIRST_FD = 3
MAX_LOCKS_HELD = 48  # per thread, as Linux lockdep's MAX_LOCK_DEPTH
CSTR_CAP = 4096
NAME_CAP = 256
OUTPUT_CAP = 1 << 20  # PRINTF bytes a run keeps, so a print loop cannot exhaust the host

# Syscall numbers (SYS imm).  32..35 are hypercalls: no architectural
# effect, they exist to inform the shadow/checker layers.
SYS_ALLOC = 1
SYS_OPEN = 2
SYS_READ_NET = 3
SYS_PRINTF = 4
SYS_KCALL = 16
SYS_KRET = 17
SYS_SET_TRAP = 18
SYS_CHECK_USER_READ = 32
SYS_CHECK_USER_WRITE = 33
SYS_TAG_TAINT = 34
SYS_TAG_UNTRUSTED_SOURCE = 35
SYS_SPAWN = 48
SYS_LOCK = 49
SYS_UNLOCK = 50
SYS_YIELD = 51
SYS_EXIT_THREAD = 52

# Each syscall named once, by its constant: {1: "ALLOC", ...}.
SYSCALL_NAMES = {n: name[4:] for name, n in dict(globals()).items() if name.startswith("SYS_")}

# Each kind of event the machine emits (EVENT_KINDS, what an observer with
# no `kinds` reads) and its operand fields, in trace order.  A field marked
# "?" may be None (READ_NET's mem-write has no value or base register, CMPI
# no rt); a field its kind does not list is None.
EVENT_FIELDS = {
    "fetch": ("op",), "reg-read": ("reg", "value"), "reg-write": ("reg", "value", "src"),
    "mem-read": ("addr", "width", "value", "base_reg"),
    "mem-write": ("addr", "width", "value?", "base_reg?", "src"),
    "binop": ("op", "reg", "rs", "rt", "value"), "compare": ("rs", "rt?", "value"),
    "branch": ("addr", "taken"), "syscall": ("sysno", "args"),
    "lock": ("lock",), "unlock": ("lock",), "spawn": ("new_tid",),
    "thread-exit": (), "mode-change": (), "iflag-change": (),
}
EVENT_KINDS = tuple(EVENT_FIELDS)
# The kind of each event's format_event line, which an observer reads only
# if its `kinds` lists it.
LINES = "lines"

ROUND_ROBIN = "round-robin"
SEEDED_RANDOM = "seeded-random"
SCHEDULER_KINDS = (ROUND_ROBIN, SEEDED_RANDOM)


@dataclass(frozen=True)
class GuestFault:
    reason: str
    tid: int
    pc: int
    step: int

    def __str__(self):
        return f"fault at step {self.step} tid {self.tid} pc 0x{self.pc:04X}: {self.reason}"


class _Fault(Exception):
    """Internal: raised mid-step, recorded as a GuestFault by run()."""


# The stamp, then each operand field in the order EVENT_FIELDS first lists
# it, "?" stripped and None unless its kind sets it: the table, not a copy.
Event = make_dataclass("Event", [
    ("kind", str), ("step", int), ("tid", int), ("pc", int), ("mode", str), ("iflag", bool),
    ("locks_held", frozenset), *((name, object, None) for name in dict.fromkeys(
        f.rstrip("?") for fields in EVENT_FIELDS.values() for f in fields)),
], slots=True, namespace={"__module__": __name__, "__doc__": "One observable machine action, "
                          "its operand fields set as its kind's EVENT_FIELDS say."})


# Each operand field's trace text, `@` standing for its value.
_FIELD_TEXT = {
    "op": "op={@} ", "reg": "reg=r{@} ", "rs": "rs=r{@} ", "rt": "rt=r{@} ",
    "addr": "addr=0x{@:04X} ", "width": "width={@} ", "value": "value=0x{@ & M32:08X} ",
    "base_reg": "base=r{@} ",
    "src": '{f"src=mem:0x{@[1]:04X}:{@[2]} " if @[0] == "mem" else _fmt_code_src(@)}',
    "sysno": "sys={SYSCALL_NAMES.get(@, @)} ",
    "args": 'args={",".join(map("0x{:08X}".format, @))} ',
    "lock": "lock={@} ", "new_tid": "new_tid={@} ", "taken": "taken={int(@)} ",
}


@functools.lru_cache(maxsize=1024)
def _fmt_code_src(src: tuple) -> str:
    """`src=` of an imm, reg:N, binop:OP:A:B or syscall:N source, which
    the code word fixes; a mem source is formatted per event."""
    return f"src={':'.join(map(str, src))} "


@functools.lru_cache(maxsize=256)
def _fmt_stamp(mode: str, iflag: bool, locks_held: frozenset) -> str:
    """The trailing `mode= iflag= locks={}` fields, rendered once per
    distinct stamp; a run has few of them."""
    locks = ",".join(map(str, sorted(locks_held)))
    return f"mode={mode} iflag={int(iflag)} locks={{{locks}}}"


def _text(field: str, expr: str) -> str:
    """f-string text of one EVENT_FIELDS entry whose value is expr."""
    name = field.rstrip("?")
    text = _FIELD_TEXT[name].replace("@", expr)
    return text if field == name else f'{{"" if {expr} is None else f"{text}"}}'


def _keywords(kind: str, keywords: str) -> dict:
    """field -> expression of an event part's keywords, each of kind's EVENT_FIELDS."""
    given = dict(kw.split("=", 1) for kw in re.split(r", (?=\w+=)", keywords) if kw)
    if not set(given) <= {f.rstrip("?") for f in EVENT_FIELDS[kind]}:
        raise ValueError(f"{kind} has no field among {sorted(given)}")
    return given


@functools.lru_cache(maxsize=4096)
def _line_text(kind: str, keywords: str) -> str:
    """The f-string text of an event's trace line from its kind to its
    stamp: the kind, then each of its EVENT_FIELDS as the expression that
    keywords gives it (None if none), a literal one rendered now."""
    given, text = _keywords(kind, keywords), f"\\t{kind}\\t"
    for f in EVENT_FIELDS[kind]:
        expr = given.get(f.rstrip("?"), "None")
        try:  # a literal's text now, else the text that renders it per line
            text += eval(f"f'''{_text(f, 'v')}'''", globals(), {"v": ast.literal_eval(expr)})
        except ValueError:
            text += _text(f, expr)
    return text


def _renderer(kind: str, fields: tuple):
    """kind's trace line as one f-string of its _line_text for e's fields."""
    text = _line_text(kind, ", ".join(f"{f}=e.{f}" for f in (f.rstrip("?") for f in fields)))
    return eval(f"lambda e: f'''{{e.step}}\\t{{e.tid}}\\t0x{{e.pc:04X}}{text}"
                "{_fmt_stamp(e.mode, e.iflag, e.locks_held)}'''")


_RENDERERS = {kind: _renderer(kind, fields) for kind, fields in EVENT_FIELDS.items()}


def format_event(e: Event) -> str:
    """Stable one-line rendering: step, tid, pc, kind, operands, stamp."""
    return _RENDERERS[e.kind](e)


@dataclass
class ThreadContext:
    tid: int
    regs: list
    pc: int
    zflag: bool = False
    mode: str = MODE_USER
    locks_held: frozenset = frozenset()  # replaced, never mutated: events share it
    alive: bool = True  # always True; only the benchmark's state digest reads it
    trap_return: int | None = None
    stack_base: int = 0
    stack_top: int = 0


@dataclass
class MachineState:
    memory: bytearray
    # tid -> ThreadContext of each live thread; thread 0 stays after HALT.
    threads: dict
    current: int
    iflag: bool = True
    trap_entry: int | None = None
    locks: dict = field(default_factory=dict)
    halted: bool = False
    fault: GuestFault | None = None
    step_count: int = 0
    heap_next: int = HEAP_BASE
    next_fd: int = FIRST_FD
    image_origin: int = 0
    image_end: int = 0
    output: bytearray = field(default_factory=bytearray)  # first OUTPUT_CAP bytes
    # lock -> its waiting tids in blocking order, the one record of who waits.
    blocked: dict = field(default_factory=dict)
    # Live tids that wait on no lock, ascending: derived, then kept in place.
    runnable: list = field(init=False)
    next_tid: int = field(init=False)  # SPAWN's next tid: one past the highest yet

    def __post_init__(self):
        waiting = {tid for tids in self.blocked.values() for tid in tids}
        self.runnable = [tid for tid in sorted(self.threads) if tid not in waiting]
        self.next_tid = max(self.threads, default=-1) + 1


@dataclass(frozen=True)
class SchedulerPolicy:
    kind: str = ROUND_ROBIN
    quantum: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SCHEDULER_KINDS:
            raise ValueError(f"unknown scheduler kind {self.kind!r}")
        if self.quantum < 1:
            raise ValueError("quantum must be >= 1")


class Scheduler:
    """Deterministic thread picker.  Owns quantum accounting: _used is the
    steps the current thread has had of its quantum, which Machine.run,
    picking once per slice, sets before a slice's last step as a pick per
    step would, so a YIELD's expire_slice in that step stands."""

    def __init__(self, policy: SchedulerPolicy):
        self.policy = policy
        self.kind, self.quantum = policy.kind, policy.quantum
        self._used = policy.quantum  # force a slice boundary on first pick
        # A zero xorshift state is a fixed point; remap seed 0.
        self._rng = policy.seed & M64 or 0x9E3779B97F4A7C15

    def expire_slice(self):
        self._used = self.quantum

    def pick(self, state: MachineState) -> int | None:
        """Next tid from state.runnable (None when empty): the current one
        until its quantum is used, then the next by round-robin or an
        xorshift64* draw."""
        runnable = state.runnable
        if not runnable:
            return None
        cur = state.current
        if self._used < self.quantum and cur in runnable:
            self._used += 1
            return cur
        self._used = 1
        if self.kind == ROUND_ROBIN:
            i = bisect.bisect_right(runnable, cur)
            return runnable[i] if i < len(runnable) else runnable[0]
        x = self._rng
        x ^= x >> 12
        x ^= (x << 25) & M64
        x ^= x >> 27
        self._rng = x
        return runnable[(x * 0x2545F4914F6CDD1D & M64) % len(runnable)]


@dataclass(frozen=True)
class RunResult:
    state: MachineState
    outcome: str  # "halt", "fault" or "timeout"


def read_cstr(memory, addr: int, cap: int) -> tuple[bytes, bool]:
    """Bytes at addr up to NUL/cap/end of memory; flag = NUL was found."""
    end = min(addr + cap, MEMORY_SIZE)
    chunk = memory[addr:end]
    nul = chunk.find(0)
    if nul >= 0:
        return bytes(chunk[:nul]), True
    return bytes(chunk), False


# -- compiled code words --------------------------------------------------
#
# A handler, handler(sched, t, pc, s, st, by_kind, wake), executes step
# s, one instruction for thread t of the machine whose state is st and
# scheduler sched, at pc and sets t.pc (a blocked LOCK and a HALT leave it
# as it is), or raises _Fault.  It hands the instruction's `fetch`, then
# its operand events in operand-evaluation order, to their kind's readers
# in by_kind, each event's line to the readers of LINES first, and each
# reader that returns true at its `syscall` event to wake; a line's
# readers wake nothing.
#
# _CODE_TEXT is the one definition of every opcode, and of each syscall n
# under the key (SYS, n); SYS's own entry faults on an unknown number.
# An entry lists its word's parts in event order: code, as text, and
# events, as (kind, keyword text).  One walk, _walk, turns an entry's
# parts into code, for the word compiler (_handler_factory) and the block
# compiler (_build_block) alike; they differ only in the slots they fill,
# the order of the parts they pass and the code they wrap around it.  In
# the templates {rd}, {rs}, {rt} and {imm} are the word's fields, {next}
# the next word's address, {op} its opcode's name as a literal, {width},
# {mask}, {last} and {align} its access's, {fault} what a load or store
# that would fault does (a handler raises, a block stops before the
# word), {stamp} an event's stamp and {line} its line around its {text}.
# In the code r is the thread's registers, st the state, m the memory
# and sched the scheduler, which only SYS reads and no block holds.

_U32 = struct.Struct("<I")  # a word in memory
load32, store32 = _U32.unpack_from, _U32.pack_into
globals().update((fn.__name__, fn) for fn in ALU_OPS.values())  # add, sub, ... for the table


def _access_fault(addr: int, width: int) -> _Fault:
    if addr + width > MEMORY_SIZE:
        return _Fault(f"unmapped address 0x{addr:08X}")
    return _Fault(f"unaligned word access at 0x{addr:04X}")


_FAULTS = ("a = (r[{rs}] + {imm}) & 0xFFFFFFFF\n"
           "if a > {last} or a & {align}: {fault}")
_FETCH = ("fetch", "op={op}")
_READ_RS = ("reg-read", "reg={rs}, value=r[{rs}]")
_READ_RT = ("reg-read", "reg={rt}, value=r[{rt}]")
_SYSCALL = ("syscall", "sysno={imm}, args=tuple(r[:4])")
_RESULT = ("reg-write", "reg=0, value=r[0], src=('syscall', {imm})")  # a syscall's r0
_PAST_END = "if r[0] >= MEMORY_SIZE: raise _access_fault(r[0], 1)"
# A thread's end, by HALT off thread 0 or EXIT_THREAD: it leaves the table.
_END_THREAD = ("st.runnable.remove(t.tid)", ("thread-exit", ""), "del st.threads[t.tid]")
_CODE_TEXT = {
    Opcode.MOVI: (_FETCH, "r[{rd}] = {imm}", ("reg-write", "reg={rd}, value={imm}, src=('imm',)")),
    Opcode.MOV: (_FETCH, _READ_RS, "r[{rd}] = r[{rs}]",
                 ("reg-write", "reg={rd}, value=r[{rd}], src=('reg', {rs})")),
    **{op: (_FETCH, _READ_RS, _FAULTS, "r[{rd}] = " + load,
            ("mem-read", "addr=a, width={width}, value=r[{rd}], base_reg={rs}"),
            ("reg-write", "reg={rd}, value=r[{rd}], src=('mem', a, {width})"))
       for op, load in ((Opcode.LD, "load32(m, a)[0]"), (Opcode.LDB, "m[a]"))},
    **{op: (_FETCH, _READ_RS, _READ_RT, _FAULTS, store,
            ("mem-write", "addr=a, width={width}, value=r[{rt}] & {mask}, base_reg={rs}, "
                          "src=('reg', {rt})"))
       for op, store in ((Opcode.ST, "store32(m, a, r[{rt}] & 0xFFFFFFFF)"),
                         (Opcode.STB, "m[a] = r[{rt}] & 0xFF"))},
    **{op: (_FETCH, _READ_RS, _READ_RT,
            f"r[{{rd}}] = {fn.__name__}(r[{{rs}}], r[{{rt}}]) & 0xFFFFFFFF",
            ("binop", "op={op}, reg={rd}, rs={rs}, rt={rt}, value=r[{rd}]"),
            ("reg-write", "reg={rd}, value=r[{rd}], src=('binop', {op}, {rs}, {rt})"))
       for op, fn in ALU_OPS.items()},
    Opcode.CMP: (_FETCH, _READ_RS, _READ_RT, "t.zflag = r[{rs}] == r[{rt}]",
                 ("compare", "rs={rs}, rt={rt}, value=r[{rt}]")),
    Opcode.CMPI: (_FETCH, _READ_RS, "t.zflag = r[{rs}] == {imm}",
                  ("compare", "rs={rs}, value={imm}")),
    Opcode.BEQ: (_FETCH, ("branch", "addr={imm}, taken=t.zflag"),
                 "t.pc = {imm} if t.zflag else {next}"),
    Opcode.BNE: (_FETCH, ("branch", "addr={imm}, taken=not t.zflag"),
                 "t.pc = {next} if t.zflag else {imm}"),
    Opcode.JMP: (_FETCH, ("branch", "addr={imm}, taken=True"), "t.pc = {imm}"),
    Opcode.CALL: (_FETCH, "r[7] = {next}", ("reg-write", "reg=7, value={next}, src=('imm',)"),
                  ("branch", "addr={imm}, taken=True"), "t.pc = {imm}"),
    Opcode.RET: (_FETCH, ("reg-read", "reg=7, value=r[7]"), ("branch", "addr=r[7], taken=True"),
                 "t.pc = r[7]"),
    **{op: (_FETCH, "if t.mode != MODE_KERNEL: raise _Fault({op} + ' in user mode')",
            f"st.iflag = {op == Opcode.STI}", ("iflag-change", ""))
       for op in (Opcode.CLI, Opcode.STI)},
    Opcode.HALT: (_FETCH, "if t.tid == 0: st.halted = True; return",  # the pc stays on it
                  *_END_THREAD),
    # A SYS: the faults that stop it before its `syscall` event, the event,
    # the effect (whose end-of-memory faults come after the event) and its
    # events, then r0's result; the number as the guest wrote it, signed.
    Opcode.SYS: (_FETCH, "raise _Fault('unknown syscall %d' % (({imm} ^ 1 << 31) - (1 << 31)))"),
    (Opcode.SYS, SYS_ALLOC): (_FETCH, _SYSCALL,
        "size = (r[0] + 3) & ~3 or 4\n"  # round up; size 0 still gets a slot
        "if st.heap_next + size > HEAP_LIMIT: r[0] = 0\n"
        "else: r[0] = st.heap_next; st.heap_next += size", _RESULT),
    (Opcode.SYS, SYS_OPEN): (_FETCH, _SYSCALL, _PAST_END,
        "name, terminated = read_cstr(st.memory, r[0], NAME_CAP)\n"
        "if not terminated or name.startswith(b'missing'): r[0] = 0\n"
        "else: r[0] = st.next_fd; st.next_fd += 1", _RESULT),
    (Opcode.SYS, SYS_READ_NET): (_FETCH, _SYSCALL,
        "if r[1] <= 0: t.pc = {next}; return\n"  # no bytes, no mem-write
        "if r[0] + r[1] > MEMORY_SIZE: raise _access_fault(r[0], r[1])\n"
        "seed = sched.policy.seed\n"  # the pattern's offset
        "for i in range(r[1]): st.memory[r[0] + i] = (seed + i) & 0xFF",
        ("mem-write", "addr=r[0], width=r[1], src=('syscall', {imm})")),
    (Opcode.SYS, SYS_PRINTF): (_FETCH, _SYSCALL, _PAST_END,
        "st.output += read_cstr(st.memory, r[0], CSTR_CAP)[0][: OUTPUT_CAP - len(st.output)]"),
    (Opcode.SYS, SYS_KCALL): (_FETCH,
        "if t.mode == MODE_KERNEL: raise _Fault('nested KCALL')\n"
        "if st.trap_entry is None: raise _Fault('KCALL with no trap entry set')",
        _SYSCALL, "t.trap_return, t.mode = {next}, MODE_KERNEL", ("mode-change", ""),
        "t.pc = st.trap_entry; return"),
    (Opcode.SYS, SYS_KRET): (_FETCH,
        "if t.mode != MODE_KERNEL or t.trap_return is None: raise _Fault('KRET outside a KCALL')",
        _SYSCALL, "back, t.trap_return, t.mode = t.trap_return, None, MODE_USER",
        ("mode-change", ""), "t.pc = back; return"),
    (Opcode.SYS, SYS_SET_TRAP): (_FETCH, _SYSCALL, "st.trap_entry = r[0]"),
    **{(Opcode.SYS, n): (_FETCH, _SYSCALL)  # hypercalls: the event is all they do
       for n in range(SYS_CHECK_USER_READ, SYS_TAG_UNTRUSTED_SOURCE + 1)},
    (Opcode.SYS, SYS_SPAWN): (_FETCH, _SYSCALL,
        "tid, st.next_tid = st.next_tid, st.next_tid + 1\n"  # no tid is reused
        "st.threads[tid] = _new_thread(tid, pc=r[0], stack_top=r[1])\n"
        "st.runnable.append(tid)",  # the highest tid yet
        ("spawn", "new_tid=tid"), "r[0] = tid", _RESULT),
    (Opcode.SYS, SYS_LOCK): (_FETCH,
        "if st.locks.get(r[0]) == t.tid: raise _Fault('recursive LOCK of %d' % r[0])\n"
        "if len(t.locks_held) >= MAX_LOCKS_HELD:\n"
        "    raise _Fault('LOCK of %d past the cap of %d locks held' % (r[0], MAX_LOCKS_HELD))",
        _SYSCALL,
        "if r[0] in st.locks:\n"  # blocked: the pc stays on it, to run again once woken
        "    st.blocked.setdefault(r[0], []).append(t.tid)\n"
        "    st.runnable.remove(t.tid)\n"
        "    return\n"
        "st.locks[r[0]] = t.tid\n"
        "t.locks_held = t.locks_held | {{r[0]}}", ("lock", "lock=r[0]")),
    (Opcode.SYS, SYS_UNLOCK): (_FETCH,
        "if st.locks.get(r[0]) != t.tid:\n"
        "    raise _Fault('UNLOCK of lock %d not held by tid %d' % (r[0], t.tid))",
        _SYSCALL, "del st.locks[r[0]]\nt.locks_held = t.locks_held - {{r[0]}}",
        ("unlock", "lock=r[0]"),
        "for tid in st.blocked.pop(r[0], ()): bisect.insort(st.runnable, tid)"),
    (Opcode.SYS, SYS_YIELD): (_FETCH, _SYSCALL, "sched.expire_slice()"),
    (Opcode.SYS, SYS_EXIT_THREAD): (_FETCH, _SYSCALL, *_END_THREAD),
}
_BLOCK_ENDS = (Opcode.BEQ, Opcode.BNE, Opcode.JMP, Opcode.CALL, Opcode.RET)  # they set t.pc
# A block reads iflag once, never ends a thread and holds no SYS.
_BLOCK_OPS = set(Opcode) - {Opcode.SYS, Opcode.CLI, Opcode.STI, Opcode.HALT}


# The kinds an entry's handler builds only if read, LINES and those of its
# events up to a SYS's `syscall`: read sets differing in others share it.
_HANDLER_KINDS = {key: frozenset({LINES}).union(
    part[0] for part in parts[: parts.index(_SYSCALL) + 1 if _SYSCALL in parts else None]
    if isinstance(part, tuple)) for key, parts in _CODE_TEXT.items()}


def _opcode_slots(op: Opcode) -> dict:
    """The template slots that op alone fixes."""
    width = 4 if op in (Opcode.LD, Opcode.ST) else 1
    return dict(op=repr(op.name), width=width, mask=(1 << 8 * width) - 1,
                last=MEMORY_SIZE - width, align=width - 1)


# {stamp}, in an event's template, and {line}, around its line's {text}:
# a handler reads the stamp per event, a block all but the step and pc once.
_WORD_STAMP = "s, t.tid, pc, t.mode, st.iflag, t.locks_held"
_BLOCK_STAMP = "s + {k}, tid, {pc}, mode, iflag, held"
_WORD_LINE = ("f'''{{s}}\\t{{t.tid}}\\t0x{{pc:04X}}{text}"
              "{{_fmt_stamp(t.mode, st.iflag, t.locks_held)}}'''")
_BLOCK_LINE = "f'''{{s + {k}}}\\t{{tid}}\\t0x{pc:04X}{text}{{stamp}}'''"


@functools.lru_cache(maxsize=64)
def _event_text(kind: str, keywords: str) -> str:
    """The `Event(...)` template of one event part of _CODE_TEXT: the
    stamp, then the fields of kind's EVENT_FIELDS that keywords gives,
    in Event's order, up to the last one given (the rest default to
    None), but never 20 arguments: CPython 3.11 keeps every freed
    20-item tuple on a free list that only gc.collect() empties."""
    given = _keywords(kind, keywords)
    args = [given.get(f.name, "None") for f in fields(Event)[7:]]
    while args and args[-1] == "None":
        args.pop()
    if len(args) == 13:  # with kind and the stamp's six, 20
        args.append("None")
    return f"Event({kind!r}, {{stamp}}{''.join(', ' + arg for arg in args)})"


def _walk(parts: tuple, slots: dict, reads: frozenset, head: dict) -> list:
    """The code of a word's _CODE_TEXT parts, in the order given: each
    code part with its slots filled, and for each event part its line,
    handed to the readers of LINES, then its Event, handed to those of
    its kind.  Up to a SYS's `syscall` event a delivery is built only if
    its kind is in reads, for its readers as the caller's function reads
    them at its start, into head's locals (local -> expression); after
    that event, which can wake an observer, only if its kind has readers."""
    code, woke = [], False
    for part in parts:
        if isinstance(part, str):
            code += part.format(**slots).split("\n")
            continue
        kind, keywords = part[0], part[1].format(**slots)
        for to, name in ((LINES, "line"), (kind, "e")):
            if not woke and to not in reads:
                continue
            value = (slots["line"].format(text=_line_text(kind, keywords), **slots)
                     if to is LINES else _event_text(*part).format(**slots))
            call = "f(e) and wake(f)" if part is _SYSCALL and name == "e" else f"f({name})"
            if woke:
                code += [f"if readers := by_kind[{to!r}]:", f"    {name} = {value}",
                         f"    for f in readers: {call}"]
            else:
                head[local := "to_" + to.replace("-", "_")] = f"by_kind[{to!r}]"
                code += [f"{name} = {value}", f"for f in {local}: {call}"]
        woke = woke or part is _SYSCALL
    return code


@functools.lru_cache(maxsize=sum(2 ** len(kinds) for kinds in _HANDLER_KINDS.values()))
def _handler_factory(op: Opcode, parts: tuple, reads: frozenset):
    """factory(rd, rs, rt, imm), which returns the handler of a word of
    opcode op whose _CODE_TEXT entry is parts, closed over the word's
    fields, for the read set reads (of the entry's _HANDLER_KINDS).
    Compiled with `exec` once per entry text and kinds read, so a word
    costs one closure, and entries of one text (the hypercalls') share a
    factory."""
    slots = _opcode_slots(op) | dict(rd="rd", rs="rs", rt="rt", imm="imm", stamp=_WORD_STAMP,
                                     next=f"pc + {INSTR_SIZE}", line=_WORD_LINE)
    slots["fault"] = f"raise _access_fault(a, {slots['width']})"
    head = {"m": "st.memory"} if _FAULTS in parts else {}
    code = _walk(parts, slots, reads, head)
    if op not in (*_BLOCK_ENDS, Opcode.HALT):
        code.append(f"t.pc = {slots['next']}")
    code[:0] = (f"{name} = {value}" for name, value in head.items())
    scope = {}
    exec("def factory(rd, rs, rt, imm):\n"
         "    def handler(sched, t, pc, s, st, by_kind, wake):\n        r = t.regs\n"
         + "".join(f"        {line}\n" for line in code) + "    return handler\n",
         globals(), scope)
    return scope["factory"]


_code_word = struct.Struct("<Q").unpack_from  # (the 8 code bytes at pc as one int,)


@functools.lru_cache(maxsize=8192)
def _decode(word: int) -> Instruction:
    """decode of one code word, shared by every read set's cache, so a
    word is decoded once however many read sets it is compiled for."""
    return decode(word.to_bytes(INSTR_SIZE, "little"))


def _compile(word: int, reads: frozenset) -> tuple:
    """(handler, ends_slice) of one code word for one read set; SYS and
    HALT end a slice, as only they change who can run."""
    i = _decode(word)
    op = i.opcode
    key = (op, i.imm) if (op, i.imm) in _CODE_TEXT else op
    factory = _handler_factory(op, _CODE_TEXT[key], reads & _HANDLER_KINDS[key])
    return factory(i.rd, i.rs, i.rt, i.imm & M32), op in (Opcode.SYS, Opcode.HALT)


@functools.lru_cache(maxsize=16)
def _compiler(reads: frozenset):
    """_compile for one read set, memoized on the word's 8 bytes (read
    by _code_word as one int, cheaper than slicing out bytes), so a
    store or READ_NET over code needs no invalidation.  A DecodeError
    is raised again on every call: lru_cache does not cache exceptions.
    One cache per read set serves every machine, since decode is pure
    and a handler holds no machine state; one cache keyed on (word,
    reads) would cost every step a tuple and its hash."""
    return functools.lru_cache(maxsize=8192)(functools.partial(_compile, reads=reads))


# -- blocks -----------------------------------------------------------------
#
# block(t, m, n, s, st, by_kind) runs up to n of the straight-line words
# from its pc for thread t over memory m, as their handlers would, and
# returns how many ran, with t.pc at the next word to run.  It walks its
# words' _CODE_TEXT entries, each with every slot a constant and its
# fault test hoisted ahead of its parts (the test is free of side
# effects), so each word hands its lines and events of the block's read
# set, as its handler would, stamped with step s plus the word's index
# {k}, its pc, and the tid, mode, locks held and st.iflag read once, as
# is the stamp's text of its lines (a block holds no SYS, CLI, STI or
# HALT), each field the word fixes rendered.  It stops early, raising
# nothing, before the `fetch` of a load or store that would fault, after
# a store into its own bytes and before its n+1th word, so the per-word
# path runs the faulting word, the rewritten code and the slice's last step.

_BLOCK_WORDS = 32  # the most words one block holds
_HOT = 16  # the dispatch of a pc, in a run under one read set, at which its block is built
_BLOCK_PCS = 128  # pcs with blocks cached; one more flushes them all
_BLOCK_VARIANTS = 8  # blocks cached at one pc, for other code or read sets there

# pc -> [(code bytes, read set, block)], newest first: a block serves only
# its read set while its bytes are in memory, and images that share a pc
# keep a block each.
_BLOCKS: dict = {}


def _build_block(memory: bytearray, pc: int, reads: frozenset):
    """The block of the straight-line words at pc for the read set reads,
    compiled and cached, or None if the word at pc cannot start one."""
    words = []
    for at in range(pc, min(pc + _BLOCK_WORDS * INSTR_SIZE, MEMORY_SIZE - INSTR_SIZE + 1),
                    INSTR_SIZE):
        try:
            i = _decode(_code_word(memory, at)[0])
        except DecodeError:
            break
        if i.opcode not in _BLOCK_OPS:
            break
        words.append(i)
        if i.opcode in _BLOCK_ENDS:
            break
    if not words:
        return None
    hi, code = pc + len(words) * INSTR_SIZE, []
    head = {"stamp": "_fmt_stamp(mode, iflag, held)"} if LINES in reads else {}
    for k, i in enumerate(words):
        at = pc + k * INSTR_SIZE
        if k:
            code.append(f"if n == {k}: t.pc = {at}; return {k}")
        slots = _opcode_slots(i.opcode)
        slots.update(rd=i.rd, rs=i.rs, rt=i.rt, imm=i.imm & M32, k=k, pc=at, next=at + INSTR_SIZE,
                     fault=f"t.pc = {at}; return {k}", stamp=_BLOCK_STAMP.format(k=k, pc=at),
                     line=_BLOCK_LINE)
        code += _walk(sorted(_CODE_TEXT[i.opcode], key=lambda part: part is not _FAULTS),
                      slots, reads, head)
        if i.opcode in (Opcode.ST, Opcode.STB):  # into the block's own bytes, it ends the block
            code.append(f"if {pc - slots['width']} < a < {hi}: t.pc = {at + INSTR_SIZE}; "
                        f"return {k + 1}")
    if words[-1].opcode not in _BLOCK_ENDS:
        code.append(f"t.pc = {hi}")
    code.append(f"return {len(words)}")
    if head:
        code[:0] = ["tid, mode, iflag, held = t.tid, t.mode, st.iflag, t.locks_held",
                    *(f"{name} = {value}" for name, value in head.items())]
    scope = {}
    exec("def block(t, m, n, s, st, by_kind):\n    r = t.regs\n"
         + "".join(f"    {line}\n" for line in code), globals(), scope)
    block = scope["block"]
    if pc not in _BLOCKS and len(_BLOCKS) >= _BLOCK_PCS:
        _BLOCKS.clear()
    variants = _BLOCKS.setdefault(pc, [])
    variants.insert(0, (bytes(memory[pc:hi]), reads, block))
    del variants[_BLOCK_VARIANTS:]
    return block


def _block_at(memory: bytearray, pc: int, hot: dict, reads: frozenset):
    """The cached block for reads whose bytes are at pc; else one built
    now, if this is the _HOT-th miss at pc counted in hot; else None.  A
    pc gets one build for each hot (the run's, emptied when its read set
    changes): a miss after it drops the pc's blocks, so code rewritten on
    every pass runs word by word, with no scan and no build a pass."""
    variants = _BLOCKS.get(pc, ())
    for code, key, block in variants:
        if key == reads and memory.startswith(code, pc):
            return block
    hot[pc] = misses = hot.get(pc, 0) + 1
    if misses == _HOT:
        return _build_block(memory, pc, reads)
    if misses > _HOT and variants:
        del _BLOCKS[pc]
    return None


def stack_base(stack_top: int) -> int:
    """The low end of the stack of a thread whose stack tops out at stack_top."""
    return max(0, stack_top - DEFAULT_STACK_SIZE)


def _new_thread(tid: int, pc: int, stack_top: int) -> ThreadContext:
    regs = [0] * NUM_REGS
    regs[6] = stack_top  # convention only: r6 as stack register
    return ThreadContext(
        tid=tid,
        regs=regs,
        pc=pc,
        stack_base=stack_base(stack_top),
        stack_top=stack_top,
    )


class Machine:
    """Owns a MachineState and runs it under a scheduler policy.

    Observers registered with add_observer receive, synchronously and
    in emission order during run(), every Event of the kinds they read:
    those in their `kinds` attribute, or all of EVENT_KINDS when they
    have none.  They are the only way to see the event stream.  One with
    `idle_kinds` reads only those until it joins `woken`, as it does when
    its call at a `syscall` event returns true or a caller adds it before
    run(); then it reads its `kinds`, in resumed runs too.  One that
    reads LINES receives each event's format_event line before its
    Event; a line's return value is ignored: a line wakes nothing.
    """

    def __init__(self, state: MachineState, policy: SchedulerPolicy | None = None):
        self.state = state
        self.scheduler = Scheduler(policy or SchedulerPolicy())
        self.observers: list = []
        self.woken: set = set()  # observers that left their idle_kinds for good

    def add_observer(self, fn) -> None:
        self.observers.append(fn)

    def run(self, step_limit: int = DEFAULT_STEP_LIMIT) -> RunResult:
        """Pick a thread and run a slice of it: fetch, execute and count
        its instructions to the end of its quantum (unbounded under
        round-robin with no other thread runnable) or a SYS or HALT; then
        pick again, until thread 0 HALTs, all threads end, a fault, or the
        step limit; see RunResult.outcome.

        Each code word runs through its handler compiled for the read
        set, the kinds some observer reads (_compiler); with no
        observers that set is empty and the run builds no event.  An
        idle observer wakes when its call at a `syscall` event returns
        true, and every later event or line it reads reaches it, those
        of the waking step included.  A slice with room for two more
        steps runs a block (_block_at) where one is cached for the read
        set or pc is hot, and runs it again while it branches back to its
        own pc; the block never runs the slice's last step, which, like a
        SYS or HALT, goes through its handler and so settles the quantum.

        A fault records itself in state.fault and halts the machine;
        effects already committed before the fault point stand, nothing
        after it happens.
        """
        st = self.state
        threads = st.threads
        by_kind = {}  # kind -> readers, kept in place so a handler sees a wake

        def read():
            """Each kind's readers, LINES's too, as fresh tuples (a loop over
            the old ones keeps them), and the handlers for the kinds read."""
            nonlocal reads, compile_, hot
            by_kind.update(dict.fromkeys(by_kind or (*EVENT_KINDS, LINES), ()))
            for fn in self.observers:
                kinds = getattr(fn, "kinds", None)
                if hasattr(fn, "idle_kinds") and fn not in self.woken:
                    kinds = fn.idle_kinds
                for kind in EVENT_KINDS if kinds is None else kinds:
                    by_kind[kind] += (fn,)
            # From a set, which sizes the frozenset's table to fit its kinds.
            reads = frozenset({kind for kind, readers in by_kind.items() if readers})
            compile_, hot = _compiler(reads), {}  # hot: pc -> misses there

        def wake(fn):
            """fn returned true at a `syscall` event: an idle one wakes."""
            if hasattr(fn, "idle_kinds") and fn not in self.woken:
                self.woken.add(fn)
                read()

        reads = compile_ = hot = None
        read()

        sched, memory = self.scheduler, st.memory
        quantum, solo = sched.quantum, sched.kind == ROUND_ROBIN
        step_no, top = st.step_count, MEMORY_SIZE - INSTR_SIZE
        while not st.halted and step_no < step_limit:
            tid = sched.pick(st)
            if tid is None:
                if st.blocked:  # a live thread waits on a lock: name the lowest waiter
                    tid = min(min(tids) for tids in st.blocked.values())
                    st.fault = GuestFault("deadlock: all live threads blocked",
                                          tid, threads[tid].pc, step_no)
                st.halted = True
                break
            st.current = tid
            t = threads[tid]
            # The slice's last step: the quantum's, or the step limit's when
            # round-robin would pick this thread again at every boundary.
            first, used = step_no, sched._used
            last = first + quantum - used
            if last >= step_limit or solo and len(st.runnable) == 1:
                last = step_limit - 1
            try:
                while True:
                    pc = t.pc
                    if pc % INSTR_SIZE or pc > top:
                        raise _Fault(f"misaligned pc 0x{pc:04X}" if pc % INSTR_SIZE
                                     else f"pc 0x{pc:04X} out of range")
                    # A block, while the slice has room for two steps, again
                    # while it branches back to its pc (so it ran whole, storing
                    # nothing into its bytes); one that ran no word leaves that
                    # word to the handler below.
                    if step_no < last and (block := _block_at(memory, pc, hot, reads)):
                        while ran := block(t, memory, last - step_no, step_no, st, by_kind):
                            step_no += ran
                            if t.pc != pc or step_no >= last:
                                break
                        if ran:
                            continue
                    handler, ends = compile_(_code_word(memory, pc)[0])
                    end = ends or step_no == last
                    if end and step_no > first:  # a pick per step's count, before a YIELD
                        sched._used = (used + step_no - first - 1) % quantum + 1
                    handler(sched, t, pc, step_no, st, by_kind, wake)
                    step_no += 1
                    if end:
                        break
            except (_Fault, DecodeError) as f:
                st.fault = GuestFault(str(f), tid, pc, step_no)
                st.halted = True
                step_no += 1
            finally:
                st.step_count = step_no
        outcome = "fault" if st.fault is not None else "halt" if st.halted else "timeout"
        return RunResult(state=st, outcome=outcome)


def load(image: ProgramImage, policy: SchedulerPolicy | None = None) -> Machine:
    """Fresh machine with the image in memory and thread 0 at the entry."""
    memory = bytearray(MEMORY_SIZE)
    memory[image.origin : image.end] = image.payload
    state = MachineState(
        memory=memory,
        threads={0: _new_thread(0, pc=image.entry, stack_top=DEFAULT_STACK_TOP)},
        current=0,
        image_origin=image.origin,
        image_end=image.end,
    )
    return Machine(state, policy)
