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

Each code word is decoded once and compiled once per read set, the set
of kinds the observers read, into a handler closed over its
operands and memoized on the word's 8 bytes, so code the guest writes
at run time needs no invalidation.  The common opcodes' handlers test a
flag fixed at compile time at each emit site, so an unread kind costs
them no call; the rarer opcodes call the run's emit, which builds no
event for a kind nobody reads.  A bare run is the empty read set.

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

import bisect
import functools
import struct
from dataclasses import dataclass, field, make_dataclass

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


# Each operand field's trace text, `@` standing for its value.  The code
# word fixes op, reg, rs and rt, which lead every kind's fields.
_FIELD_TEXT = {
    "op": "op={@} ", "reg": "reg=r{@} ", "rs": "rs=r{@} ", "rt": "rt=r{@} ",
    "addr": "addr=0x{@:04X} ", "width": "width={@} ", "value": "value=0x{@ & M32:08X} ",
    "base_reg": "base=r{@} ",
    "src": '{f"src=mem:0x{@[1]:04X}:{@[2]} " if @[0] == "mem" else _fmt_code_src(@)}',
    "sysno": "sys={SYSCALL_NAMES.get(@, @)} ",
    "args": 'args={",".join(map("0x{:08X}".format, @))} ',
    "lock": "lock={@} ", "new_tid": "new_tid={@} ", "taken": "taken={int(@)} ",
}


@functools.lru_cache(maxsize=8192)
def _fmt_head(pc: int, kind: str, *site) -> str:
    """`\\t0x{pc}\\t{kind}\\t` and the site fields, once per emit site: keyed
    on their values, not on the pc alone, so code written at run time renders right."""
    return _RENDERERS[kind].head(pc, *site)


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


def _renderer(kind: str, fields: tuple):
    """kind's trace line as one f-string compiled from its EVENT_FIELDS, which
    tests only optional fields for None; `head` renders the leading site fields."""
    site = [f.rstrip("?") for f in fields if f.rstrip("?") in ("op", "reg", "rs", "rt")]
    head = "".join(_text(f, f.rstrip("?")) for f in fields[: len(site)])
    tail = "".join(_text(f, "e." + f.rstrip("?")) for f in fields[len(site) :])
    args = "".join(f", e.{f}" for f in site)
    scope = {}
    exec(f"def head(pc, {', '.join(site)}):\n"
         f"    return f'\\t0x{{pc:04X}}\\t{kind}\\t{head}'\n"
         f"def render(e):\n"
         f"    return f'{{e.step}}\\t{{e.tid}}{{_fmt_head(e.pc, \"{kind}\"{args})}}{tail}"
         f"{{_fmt_stamp(e.mode, e.iflag, e.locks_held)}}'\n", globals(), scope)
    scope["render"].head = scope["head"]
    return scope["render"]


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
# A handler, handler(m, t, pc, emit), executes one instruction for thread
# t of machine m at pc and sets t.pc (a blocked LOCK leaves it as it is),
# or raises _Fault.  It emits the instruction's operand events in
# operand-evaluation order; run() emits the `fetch` before it.  The
# common opcodes' handlers are compiled for one read set: each emit site
# tests a flag fixed then (`rr = "reg-read" in reads`), so an unread kind
# costs no call.  The rarer opcodes share one body, _general, and SYS
# runs _syscall; they call emit, which drops an unread kind itself.

_IMM_SRC = ("imm",)


def _access_fault(addr: int, width: int) -> _Fault:
    if addr + width > MEMORY_SIZE:
        return _Fault(f"unmapped address 0x{addr:08X}")
    return _Fault(f"unaligned word access at 0x{addr:04X}")


def _movi(i: Instruction, reads):
    rd, value = i.rd, i.imm & M32
    rw = "reg-write" in reads

    def movi(m, t, pc, emit):
        t.regs[rd] = value
        if rw:
            emit("reg-write", reg=rd, value=value, src=_IMM_SRC)
        t.pc = pc + INSTR_SIZE

    return movi


def _mov(i: Instruction, reads):
    rd, rs, src = i.rd, i.rs, ("reg", i.rs)
    rr, rw = "reg-read" in reads, "reg-write" in reads

    def mov(m, t, pc, emit):
        value = t.regs[rs]
        if rr:
            emit("reg-read", reg=rs, value=value)
        t.regs[rd] = value
        if rw:
            emit("reg-write", reg=rd, value=value, src=src)
        t.pc = pc + INSTR_SIZE

    return mov


def _load(i: Instruction, reads):
    rd, rs, imm = i.rd, i.rs, i.imm & M32
    width = 4 if i.opcode == Opcode.LD else 1
    last, align = MEMORY_SIZE - width, width - 1
    rr, mr, rw = "reg-read" in reads, "mem-read" in reads, "reg-write" in reads

    def load(m, t, pc, emit):
        regs = t.regs
        if rr:
            emit("reg-read", reg=rs, value=regs[rs])
        addr = (regs[rs] + imm) & M32
        if addr > last or addr & align:
            raise _access_fault(addr, width)
        value = int.from_bytes(m.state.memory[addr : addr + width], "little")
        if mr:
            emit("mem-read", addr=addr, width=width, value=value, base_reg=rs)
        regs[rd] = value
        if rw:
            emit("reg-write", reg=rd, value=value, src=("mem", addr, width))
        t.pc = pc + INSTR_SIZE

    return load


def _store(i: Instruction, reads):
    rs, rt, imm, src = i.rs, i.rt, i.imm & M32, ("reg", i.rt)
    width = 4 if i.opcode == Opcode.ST else 1
    last, align, mask = MEMORY_SIZE - width, width - 1, (1 << 8 * width) - 1
    rr, mw = "reg-read" in reads, "mem-write" in reads

    def store(m, t, pc, emit):
        regs = t.regs
        if rr:
            emit("reg-read", reg=rs, value=regs[rs])
            emit("reg-read", reg=rt, value=regs[rt])
        addr = (regs[rs] + imm) & M32
        if addr > last or addr & align:
            raise _access_fault(addr, width)
        value = regs[rt] & mask
        m.state.memory[addr : addr + width] = value.to_bytes(width, "little")
        if mw:
            emit("mem-write", addr=addr, width=width, value=value, base_reg=rs, src=src)
        t.pc = pc + INSTR_SIZE

    return store


def _alu(i: Instruction, reads):
    rd, rs, rt, name, fn = i.rd, i.rs, i.rt, i.opcode.name, ALU_OPS[i.opcode]
    src = ("binop", name, rs, rt)
    rr, bo, rw = "reg-read" in reads, "binop" in reads, "reg-write" in reads

    def alu(m, t, pc, emit):
        regs = t.regs
        a, b = regs[rs], regs[rt]
        value = fn(a, b) & M32
        if rr:
            emit("reg-read", reg=rs, value=a)
            emit("reg-read", reg=rt, value=b)
        if bo:
            emit("binop", op=name, reg=rd, rs=rs, rt=rt, value=value)
        regs[rd] = value
        if rw:
            emit("reg-write", reg=rd, value=value, src=src)
        t.pc = pc + INSTR_SIZE

    return alu


def _cmp(i: Instruction, reads):
    rs, rt = i.rs, i.rt
    rr, cp = "reg-read" in reads, "compare" in reads

    def cmp(m, t, pc, emit):
        a, b = t.regs[rs], t.regs[rt]
        if rr:
            emit("reg-read", reg=rs, value=a)
            emit("reg-read", reg=rt, value=b)
        t.zflag = a == b
        if cp:
            emit("compare", rs=rs, rt=rt, value=b)
        t.pc = pc + INSTR_SIZE

    return cmp


def _cmpi(i: Instruction, reads):
    rs, rhs = i.rs, i.imm & M32
    rr, cp = "reg-read" in reads, "compare" in reads

    def cmpi(m, t, pc, emit):
        a = t.regs[rs]
        if rr:
            emit("reg-read", reg=rs, value=a)
        t.zflag = a == rhs
        if cp:
            emit("compare", rs=rs, value=rhs)
        t.pc = pc + INSTR_SIZE

    return cmpi


def _branch(i: Instruction, reads):
    target, on = i.imm & M32, i.opcode == Opcode.BEQ
    br = "branch" in reads

    def branch(m, t, pc, emit):
        taken = t.zflag == on
        if br:
            emit("branch", addr=target, taken=taken)
        t.pc = target if taken else pc + INSTR_SIZE

    return branch


def _general(op: Opcode, imm: int, m, t, pc, emit):
    """JMP, CALL, RET, CLI, STI and HALT share this one body."""
    regs = t.regs
    next_pc = pc + INSTR_SIZE
    if op == Opcode.JMP or op == Opcode.CALL:
        if op == Opcode.CALL:
            regs[7] = next_pc
            emit("reg-write", reg=7, value=next_pc, src=_IMM_SRC)
        next_pc = imm & M32
        emit("branch", addr=next_pc, taken=True)
    elif op == Opcode.RET:
        next_pc = regs[7]
        emit("reg-read", reg=7, value=next_pc)
        emit("branch", addr=next_pc, taken=True)
    elif op == Opcode.CLI or op == Opcode.STI:
        if t.mode != MODE_KERNEL:
            raise _Fault(f"{op.name} in user mode")
        m.state.iflag = op == Opcode.STI
        emit("iflag-change")
    else:  # HALT; the pc stays on it
        if t.tid == 0:
            m.state.halted = True
        else:
            _end_thread(m.state, t, emit)
        return
    t.pc = next_pc


def _end_thread(st, t, emit):
    """Thread t (HALT off thread 0, or EXIT_THREAD) ends and leaves the table."""
    st.runnable.remove(t.tid)
    emit("thread-exit")
    del st.threads[t.tid]


def _syscall(number: int, sc: bool, m, t, pc, emit):
    """SYS number, in four steps: the faults that stop the call before
    its `syscall` event, the event (if sc: some observer reads it, so its
    args are worth building), the effect (whose end-of-memory faults
    come after the event), and the r0 result with its `reg-write`.  A
    blocked LOCK leaves t.pc unchanged, so the instruction runs again
    (fetch and syscall events too) once woken."""
    st, regs = m.state, t.regs
    r0, r1 = regs[0], regs[1]
    if number == SYS_LOCK:
        if st.locks.get(r0) == t.tid:
            raise _Fault(f"recursive LOCK of {r0}")
        if len(t.locks_held) >= MAX_LOCKS_HELD:
            raise _Fault(f"LOCK of {r0} past the cap of {MAX_LOCKS_HELD} locks held")
    elif number == SYS_UNLOCK:
        if st.locks.get(r0) != t.tid:
            raise _Fault(f"UNLOCK of lock {r0} not held by tid {t.tid}")
    elif number == SYS_KCALL:
        if t.mode == MODE_KERNEL:
            raise _Fault("nested KCALL")
        if st.trap_entry is None:
            raise _Fault("KCALL with no trap entry set")
    elif number == SYS_KRET:
        if t.mode != MODE_KERNEL or t.trap_return is None:
            raise _Fault("KRET outside a KCALL")
    elif number not in SYSCALL_NAMES:
        raise _Fault(f"unknown syscall {number}")
    if sc:
        emit("syscall", sysno=number, args=tuple(regs[:4]))

    next_pc, result = pc + INSTR_SIZE, None
    if number == SYS_LOCK:
        if r0 in st.locks:
            st.blocked.setdefault(r0, []).append(t.tid)
            st.runnable.remove(t.tid)
            return
        st.locks[r0] = t.tid
        t.locks_held = t.locks_held | {r0}
        emit("lock", lock=r0)
    elif number == SYS_UNLOCK:
        del st.locks[r0]
        t.locks_held = t.locks_held - {r0}
        emit("unlock", lock=r0)
        for tid in st.blocked.pop(r0, ()):
            bisect.insort(st.runnable, tid)
    elif number == SYS_ALLOC:
        size = (r0 + 3) & ~3 or 4  # round up; size 0 still gets a slot
        if st.heap_next + size > HEAP_LIMIT:
            result = 0
        else:
            result = st.heap_next
            st.heap_next += size
    elif number == SYS_OPEN:
        if r0 >= MEMORY_SIZE:
            raise _Fault(f"unmapped address 0x{r0:08X}")
        name, terminated = read_cstr(st.memory, r0, NAME_CAP)
        if not terminated or name.startswith(b"missing"):
            result = 0
        else:
            result = st.next_fd
            st.next_fd += 1
    elif number == SYS_READ_NET:
        if r1 > 0:
            if r0 + r1 > MEMORY_SIZE:
                raise _Fault(f"unmapped address 0x{r0:08X}")
            seed = m.scheduler.policy.seed  # the pattern's offset
            for i in range(r1):
                st.memory[r0 + i] = (seed + i) & 0xFF
            emit("mem-write", addr=r0, width=r1, src=("syscall", number))
    elif number == SYS_PRINTF:
        if r0 >= MEMORY_SIZE:
            raise _Fault(f"unmapped address 0x{r0:08X}")
        data, _ = read_cstr(st.memory, r0, CSTR_CAP)
        st.output += data[: OUTPUT_CAP - len(st.output)]
    elif number == SYS_KCALL:
        t.trap_return = next_pc
        t.mode = MODE_KERNEL
        next_pc = st.trap_entry
        emit("mode-change")
    elif number == SYS_KRET:
        next_pc = t.trap_return
        t.trap_return = None
        t.mode = MODE_USER
        emit("mode-change")
    elif number == SYS_SET_TRAP:
        st.trap_entry = r0
    elif number == SYS_SPAWN:
        result, st.next_tid = st.next_tid, st.next_tid + 1  # no tid is reused
        st.threads[result] = _new_thread(result, pc=r0, stack_top=r1)
        st.runnable.append(result)  # the highest tid yet
        emit("spawn", new_tid=result)
    elif number == SYS_YIELD:
        m.scheduler.expire_slice()
    elif number == SYS_EXIT_THREAD:
        _end_thread(st, t, emit)
    if result is not None:
        regs[0] = result
        emit("reg-write", reg=0, value=result, src=("syscall", number))
    t.pc = next_pc


_COMPILERS = {
    Opcode.MOVI: _movi,
    Opcode.MOV: _mov,
    Opcode.LD: _load,
    Opcode.LDB: _load,
    Opcode.ST: _store,
    Opcode.STB: _store,
    **dict.fromkeys(ALU_OPS, _alu),
    Opcode.CMP: _cmp,
    Opcode.CMPI: _cmpi,
    Opcode.BEQ: _branch,
    Opcode.BNE: _branch,
    **dict.fromkeys(
        (Opcode.JMP, Opcode.CALL, Opcode.RET, Opcode.CLI, Opcode.STI, Opcode.HALT),
        lambda i, reads: functools.partial(_general, i.opcode, i.imm),
    ),
    Opcode.SYS: lambda i, reads: functools.partial(_syscall, i.imm, "syscall" in reads),
}


_code_word = struct.Struct("<Q").unpack_from  # (the 8 code bytes at pc as one int,)


@functools.lru_cache(maxsize=8192)
def _decode(word: int) -> Instruction:
    """decode of one code word, shared by every read set's cache, so a
    word is decoded once however many read sets it is compiled for."""
    return decode(word.to_bytes(INSTR_SIZE, "little"))


def _compile(word: int, reads: frozenset) -> tuple:
    """(opcode name, handler, ends_slice) of one code word for one read
    set; SYS and HALT end a slice, as only they change who can run."""
    i = _decode(word)
    return i.opcode.name, _COMPILERS[i.opcode](i, reads), i.opcode in (Opcode.SYS, Opcode.HALT)


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
    a call of it returns true or a caller adds it before run(); then it
    reads its `kinds`, in resumed runs too.
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
        observers that set is empty and the run builds no event.  A wake
        reaches the same step's next emit and the next step's handler.

        A fault records itself in state.fault and halts the machine;
        effects already committed before the fault point stand, nothing
        after it happens.
        """
        st = self.state
        threads = st.threads

        def read():
            """Each kind's readers, fresh tuples (an emit's loop keeps its own), and handlers."""
            nonlocal by_kind, compile_, fetch
            by_kind = dict.fromkeys(EVENT_KINDS, ())
            for fn in self.observers:
                kinds = getattr(fn, "kinds", None)
                if hasattr(fn, "idle_kinds") and fn not in self.woken:
                    kinds = fn.idle_kinds
                for kind in EVENT_KINDS if kinds is None else kinds:
                    by_kind[kind] += (fn,)
            reads = frozenset(kind for kind, readers in by_kind.items() if readers)
            compile_, fetch = _compiler(reads), "fetch" in reads

        by_kind = compile_ = fetch = None
        read()

        # Builds no Event for a kind nobody reads (beside the compiled flags
        # and fetch, the one place that drops one).  Reads the loop's current
        # t, tid, step_no and pc; its parameters are Event's fields after the stamp.
        def emit(kind, op=None, reg=None, value=None, src=None, addr=None, width=None,
                 base_reg=None, rs=None, rt=None, taken=None, sysno=None, args=None, lock=None,
                 new_tid=None):
            if readers := by_kind[kind]:
                e = Event(kind, step_no, tid, pc, t.mode, st.iflag, t.locks_held, op, reg, value,
                          src, addr, width, base_reg, rs, rt, taken, sysno, args, lock, new_tid)
                for fn in readers:
                    if fn(e) and hasattr(fn, "idle_kinds") and fn not in self.woken:
                        self.woken.add(fn)
                        read()

        sched, memory = self.scheduler, st.memory
        quantum, solo = sched.quantum, sched.kind == ROUND_ROBIN
        step_no = st.step_count
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
                    if pc % INSTR_SIZE:
                        raise _Fault(f"misaligned pc 0x{pc:04X}")
                    if pc > MEMORY_SIZE - INSTR_SIZE:
                        raise _Fault(f"pc 0x{pc:04X} out of range")
                    name, handler, ends = compile_(_code_word(memory, pc)[0])
                    if fetch:
                        emit("fetch", op=name)
                    end = ends or step_no == last
                    if end and step_no > first:  # a pick per step's count, before a YIELD
                        sched._used = (used + step_no - first - 1) % quantum + 1
                    handler(self, t, pc, emit)
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
