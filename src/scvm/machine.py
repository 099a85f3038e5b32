"""Guest machine: interpreter, simulated threads, syscalls, event stream.

Everything the analysis layers know about the guest arrives through the
event stream.  Each executed instruction emits one `fetch` event plus
events for its operand traffic, in operand-evaluation order.  Events
are stamped with the thread, pc, privilege mode, interrupt flag, and the
thread's held-lock set at emission time, so observers never have to
reach back into mutable machine state to interpret them.  An observer
may name the kinds it reads in a `kinds` attribute (see EVENT_KINDS);
an event reaches only the observers that read its kind, and a kind that
no observer reads builds no Event at all.

`Event` is slotted but not frozen, since freezing makes it several times
dearer to build.  Every observer shares one event object, so observers
must not mutate it.

Provenance convention for `reg-write` / `mem-write` events (the `src`
field), which the shadow engine keys on:

    ('imm',)                the value is a constant (MOVI, link writes)
    ('reg', i)              copied from register i
    ('mem', addr, width)    loaded from memory
    ('binop', op, rs, rt)   computed from registers rs and rt
    ('syscall', n)          produced by syscall n

The interpreter itself is single-threaded; guest threads are simulated
and interleaved by a deterministic scheduler.  Identical (image, policy,
seed, step limit) always reproduces identical event streams.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

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

SYSCALL_NAMES = {
    SYS_ALLOC: "ALLOC",
    SYS_OPEN: "OPEN",
    SYS_READ_NET: "READ_NET",
    SYS_PRINTF: "PRINTF",
    SYS_KCALL: "KCALL",
    SYS_KRET: "KRET",
    SYS_SET_TRAP: "SET_TRAP",
    SYS_CHECK_USER_READ: "CHECK_USER_READ",
    SYS_CHECK_USER_WRITE: "CHECK_USER_WRITE",
    SYS_TAG_TAINT: "TAG_TAINT",
    SYS_TAG_UNTRUSTED_SOURCE: "TAG_UNTRUSTED_SOURCE",
    SYS_SPAWN: "SPAWN",
    SYS_LOCK: "LOCK",
    SYS_UNLOCK: "UNLOCK",
    SYS_YIELD: "YIELD",
    SYS_EXIT_THREAD: "EXIT_THREAD",
}

# Every kind of event the machine emits, the reading list of an
# observer that declares no `kinds`.
EVENT_KINDS = (
    "fetch", "reg-read", "reg-write", "mem-read", "mem-write", "binop", "compare",
    "branch", "syscall", "lock", "unlock", "spawn", "thread-exit", "mode-change",
    "iflag-change",
)

ROUND_ROBIN = "round-robin"
SEEDED_RANDOM = "seeded-random"


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


@dataclass(slots=True)
class Event:
    """One observable machine action.  Unused operand fields stay None.
    Slotted, not frozen: observers must not mutate an event."""

    kind: str
    step: int
    tid: int
    pc: int
    mode: str
    iflag: bool
    locks_held: frozenset
    reg: int | None = None
    value: int | None = None
    addr: int | None = None
    width: int | None = None
    src: tuple | None = None
    op: str | None = None
    rs: int | None = None
    rt: int | None = None
    sysno: int | None = None
    args: tuple | None = None
    lock: int | None = None
    new_tid: int | None = None
    taken: bool | None = None
    base_reg: int | None = None


def _no_emit(kind, **kw) -> None:
    """Stands in for emit when nothing reads the step's events."""


def _fmt_src(src: tuple) -> str:
    if src[0] == "mem":
        return f"mem:0x{src[1]:04X}:{src[2]}"
    return ":".join(str(p) for p in src)


def format_event(e: Event) -> str:
    """Stable one-line rendering: step, tid, pc, kind, operands."""
    ops = []
    if e.op is not None:
        ops.append(f"op={e.op}")
    if e.reg is not None:
        ops.append(f"reg=r{e.reg}")
    if e.rs is not None:
        ops.append(f"rs=r{e.rs}")
    if e.rt is not None:
        ops.append(f"rt=r{e.rt}")
    if e.addr is not None:
        ops.append(f"addr=0x{e.addr:04X}")
    if e.width is not None:
        ops.append(f"width={e.width}")
    if e.value is not None:
        ops.append(f"value=0x{e.value & M32:08X}")
    if e.base_reg is not None:
        ops.append(f"base=r{e.base_reg}")
    if e.src is not None:
        ops.append(f"src={_fmt_src(e.src)}")
    if e.sysno is not None:
        ops.append(f"sys={SYSCALL_NAMES.get(e.sysno, e.sysno)}")
    if e.args is not None:
        ops.append("args=" + ",".join(f"0x{a:08X}" for a in e.args))
    if e.lock is not None:
        ops.append(f"lock={e.lock}")
    if e.new_tid is not None:
        ops.append(f"new_tid={e.new_tid}")
    if e.taken is not None:
        ops.append(f"taken={int(e.taken)}")
    ops.append(f"mode={e.mode}")
    ops.append(f"iflag={int(e.iflag)}")
    ops.append("locks={%s}" % ",".join(str(x) for x in sorted(e.locks_held)))
    return "\t".join([str(e.step), str(e.tid), f"0x{e.pc:04X}", e.kind, " ".join(ops)])


@dataclass
class ThreadContext:
    tid: int
    regs: list
    pc: int
    zflag: bool = False
    mode: str = MODE_USER
    locks_held: frozenset = frozenset()  # replaced, never mutated: events share it
    alive: bool = True
    blocked_on: int | None = None
    trap_return: int | None = None
    stack_base: int = 0
    stack_top: int = 0


@dataclass
class MachineState:
    memory: bytearray
    # tid -> ThreadContext, iterated in tid order: SPAWN mints tids in
    # increasing order and no thread is ever removed.  Scheduler.pick
    # relies on this order.
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
    next_tid: int = 1
    image_origin: int = 0
    image_end: int = 0
    output: bytearray = field(default_factory=bytearray)  # first OUTPUT_CAP bytes


@dataclass(frozen=True)
class SchedulerPolicy:
    kind: str = ROUND_ROBIN
    quantum: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in (ROUND_ROBIN, SEEDED_RANDOM):
            raise ValueError(f"unknown scheduler kind {self.kind!r}")
        if self.quantum < 1:
            raise ValueError("quantum must be >= 1")


def _xorshift64star(state: int) -> tuple[int, int]:
    """One step of the xorshift64* generator: (new state, output)."""
    x = state & M64
    x ^= x >> 12
    x ^= (x << 25) & M64
    x ^= x >> 27
    return x, (x * 0x2545F4914F6CDD1D) & M64


class Scheduler:
    """Deterministic thread picker.  Owns quantum accounting."""

    def __init__(self, policy: SchedulerPolicy):
        self.policy = policy
        self._used = policy.quantum  # force a slice boundary on first pick
        # A zero xorshift state is a fixed point; remap seed 0.
        self._rng = policy.seed & M64 or 0x9E3779B97F4A7C15

    def expire_slice(self):
        self._used = self.policy.quantum

    def pick(self, state: MachineState) -> int | None:
        """Next tid to run, or None when no live thread can run."""
        if len(state.threads) == 1:
            # The general path with one candidate, minus its list: the
            # quantum and the generator advance exactly as they would.
            (t,) = state.threads.values()
            if not t.alive or t.blocked_on is not None:
                return None
            if t.tid == state.current and self._used < self.policy.quantum:
                self._used += 1
            else:
                self._used = 1
                if self.policy.kind == SEEDED_RANDOM:
                    self._rng = _xorshift64star(self._rng)[0]
            return t.tid
        eligible = [t.tid for t in state.threads.values() if t.alive and t.blocked_on is None]
        if not eligible:
            return None
        cur = state.current
        if cur in eligible and self._used < self.policy.quantum:
            self._used += 1
            return cur
        self._used = 1
        if self.policy.kind == ROUND_ROBIN:
            return next((t for t in eligible if t > cur), eligible[0])
        self._rng, out = _xorshift64star(self._rng)
        return eligible[out % len(eligible)]


@dataclass(frozen=True)
class RunResult:
    state: MachineState
    outcome: str  # "halt", "fault" or "timeout"
    steps: int


def read_cstr(memory, addr: int, cap: int) -> tuple[bytes, bool]:
    """Bytes at addr up to NUL/cap/end of memory; flag = NUL was found."""
    end = min(addr + cap, MEMORY_SIZE)
    chunk = memory[addr:end]
    nul = chunk.find(0)
    if nul >= 0:
        return bytes(chunk[:nul]), True
    return bytes(chunk), False


@functools.lru_cache(maxsize=8192)
def _decode_cached(raw: bytes) -> Instruction:
    """`decode`, memoized on the 8 code bytes themselves, so a store or
    READ_NET over code needs no invalidation.  A DecodeError is raised
    again on every call: lru_cache does not cache exceptions.  One cache
    serves every machine, which is safe because decode is pure and
    Instruction is frozen."""
    return decode(raw)


def _new_thread(tid: int, pc: int, stack_top: int) -> ThreadContext:
    regs = [0] * NUM_REGS
    regs[6] = stack_top  # convention only: r6 as stack register
    return ThreadContext(
        tid=tid,
        regs=regs,
        pc=pc,
        stack_base=max(0, stack_top - DEFAULT_STACK_SIZE),
        stack_top=stack_top,
    )


class Machine:
    """Owns a MachineState and runs it under a scheduler policy.

    Observers registered with add_observer receive, synchronously and
    in emission order during run(), every Event of the kinds they read:
    those in their `kinds` attribute (read when run() starts), or all
    of EVENT_KINDS when they have none.  They are the only way to see
    the event stream.
    """

    def __init__(self, state: MachineState, policy: SchedulerPolicy | None = None):
        self.state = state
        self.policy = policy or SchedulerPolicy()
        self.scheduler = Scheduler(self.policy)
        self.net_seed = self.policy.seed  # READ_NET pattern offset
        self.observers: list = []

    def add_observer(self, fn) -> None:
        self.observers.append(fn)

    # -- stepping ---------------------------------------------------

    def _execute(self, t: ThreadContext, pc: int, emit) -> None:
        st = self.state
        if pc % INSTR_SIZE != 0:
            raise _Fault(f"misaligned pc 0x{pc:04X}")
        if pc + INSTR_SIZE > MEMORY_SIZE:
            raise _Fault(f"pc 0x{pc:04X} out of range")
        try:
            instr = _decode_cached(bytes(st.memory[pc : pc + INSTR_SIZE]))
        except DecodeError as exc:
            raise _Fault(str(exc)) from None
        emit("fetch", op=instr.opcode.name)

        op = instr.opcode
        regs = t.regs
        next_pc = pc + INSTR_SIZE

        if op == Opcode.MOVI:
            regs[instr.rd] = instr.imm & M32
            emit("reg-write", reg=instr.rd, value=regs[instr.rd], src=("imm",))
        elif op == Opcode.MOV:
            emit("reg-read", reg=instr.rs, value=regs[instr.rs])
            regs[instr.rd] = regs[instr.rs]
            emit("reg-write", reg=instr.rd, value=regs[instr.rd], src=("reg", instr.rs))
        elif op in (Opcode.LD, Opcode.LDB):
            emit("reg-read", reg=instr.rs, value=regs[instr.rs])
            addr = (regs[instr.rs] + instr.imm) & M32
            width = instr.width
            self._check_access(addr, width)
            if width == 4:
                value = int.from_bytes(st.memory[addr : addr + 4], "little")
            else:
                value = st.memory[addr]
            emit("mem-read", addr=addr, width=width, value=value, base_reg=instr.rs)
            regs[instr.rd] = value
            emit("reg-write", reg=instr.rd, value=value, src=("mem", addr, width))
        elif op in (Opcode.ST, Opcode.STB):
            emit("reg-read", reg=instr.rs, value=regs[instr.rs])
            emit("reg-read", reg=instr.rt, value=regs[instr.rt])
            addr = (regs[instr.rs] + instr.imm) & M32
            width = instr.width
            self._check_access(addr, width)
            value = regs[instr.rt]
            if width == 4:
                st.memory[addr : addr + 4] = value.to_bytes(4, "little")
            else:
                value &= 0xFF
                st.memory[addr] = value
            emit(
                "mem-write",
                addr=addr,
                width=width,
                value=value,
                base_reg=instr.rs,
                src=("reg", instr.rt),
            )
        elif op in ALU_OPS:
            a, b = regs[instr.rs], regs[instr.rt]
            emit("reg-read", reg=instr.rs, value=a)
            emit("reg-read", reg=instr.rt, value=b)
            if op == Opcode.ADD:
                value = (a + b) & M32
            elif op == Opcode.SUB:
                value = (a - b) & M32
            elif op == Opcode.MUL:
                value = (a * b) & M32
            elif op == Opcode.AND:
                value = a & b
            elif op == Opcode.OR:
                value = a | b
            else:  # XOR
                value = a ^ b
            emit("binop", op=op.name, reg=instr.rd, rs=instr.rs, rt=instr.rt, value=value)
            regs[instr.rd] = value
            emit(
                "reg-write",
                reg=instr.rd,
                value=value,
                src=("binop", op.name, instr.rs, instr.rt),
            )
        elif op == Opcode.CMP:
            a, b = regs[instr.rs], regs[instr.rt]
            emit("reg-read", reg=instr.rs, value=a)
            emit("reg-read", reg=instr.rt, value=b)
            t.zflag = a == b
            emit("compare", rs=instr.rs, rt=instr.rt, value=b)
        elif op == Opcode.CMPI:
            a = regs[instr.rs]
            emit("reg-read", reg=instr.rs, value=a)
            rhs = instr.imm & M32
            t.zflag = a == rhs
            emit("compare", rs=instr.rs, value=rhs)
        elif op in (Opcode.BEQ, Opcode.BNE):
            taken = t.zflag if op == Opcode.BEQ else not t.zflag
            target = instr.imm & M32
            emit("branch", addr=target, taken=taken)
            if taken:
                next_pc = target
        elif op == Opcode.JMP:
            target = instr.imm & M32
            emit("branch", addr=target, taken=True)
            next_pc = target
        elif op == Opcode.CALL:
            target = instr.imm & M32
            regs[7] = next_pc
            emit("reg-write", reg=7, value=next_pc, src=("imm",))
            emit("branch", addr=target, taken=True)
            next_pc = target
        elif op == Opcode.RET:
            emit("reg-read", reg=7, value=regs[7])
            emit("branch", addr=regs[7], taken=True)
            next_pc = regs[7]
        elif op == Opcode.CLI or op == Opcode.STI:
            if t.mode != MODE_KERNEL:
                raise _Fault(f"{op.name} in user mode")
            st.iflag = op == Opcode.STI
            emit("iflag-change")
        elif op == Opcode.HALT:
            if t.tid == 0:
                st.halted = True
            else:
                t.alive = False
                emit("thread-exit")
            return
        elif op == Opcode.SYS:
            next_pc = self._syscall(t, instr.imm, next_pc, emit)
            if next_pc is None:
                return  # blocked on LOCK: pc unchanged, retried when woken
        else:  # pragma: no cover - decode admits no other opcode
            raise _Fault(f"unhandled opcode {op.name}")

        t.pc = next_pc

    def _check_access(self, addr: int, width: int) -> None:
        if addr + width > MEMORY_SIZE:
            raise _Fault(f"unmapped address 0x{addr:08X}")
        if width == 4 and addr % 4 != 0:
            raise _Fault(f"unaligned word access at 0x{addr:04X}")

    # -- syscalls ---------------------------------------------------

    def _syscall(self, t: ThreadContext, number: int, next_pc: int, emit):
        """Returns the next pc, or None when the thread blocked."""
        st = self.state
        if number not in SYSCALL_NAMES:
            raise _Fault(f"unknown syscall {number}")
        args = tuple(t.regs[:4])
        r0, r1 = args[0], args[1]

        # A blocked LOCK leaves pc unchanged, so the instruction is
        # re-executed (fetch + syscall events again) once woken.
        if number == SYS_LOCK:
            holder = st.locks.get(r0)
            if holder == t.tid:
                raise _Fault(f"recursive LOCK of {r0}")
            emit("syscall", sysno=number, args=args)
            if holder is None:
                st.locks[r0] = t.tid
                t.locks_held = t.locks_held | {r0}
                emit("lock", lock=r0)
                return next_pc
            t.blocked_on = r0
            return None

        if number == SYS_UNLOCK and st.locks.get(r0) != t.tid:
            raise _Fault(f"UNLOCK of lock {r0} not held by tid {t.tid}")
        if number == SYS_KCALL:
            if t.mode == MODE_KERNEL:
                raise _Fault("nested KCALL")
            if st.trap_entry is None:
                raise _Fault("KCALL with no trap entry set")
        if number == SYS_KRET:
            if t.mode != MODE_KERNEL or t.trap_return is None:
                raise _Fault("KRET outside a KCALL")

        emit("syscall", sysno=number, args=args)

        if number == SYS_ALLOC:
            size = (r0 + 3) & ~3 or 4  # round up; size 0 still gets a slot
            if st.heap_next + size > HEAP_LIMIT:
                t.regs[0] = 0
            else:
                t.regs[0] = st.heap_next
                st.heap_next += size
            emit("reg-write", reg=0, value=t.regs[0], src=("syscall", number))
        elif number == SYS_OPEN:
            if r0 >= MEMORY_SIZE:
                raise _Fault(f"unmapped address 0x{r0:08X}")
            name, terminated = read_cstr(st.memory, r0, NAME_CAP)
            if not terminated or name.startswith(b"missing"):
                t.regs[0] = 0
            else:
                t.regs[0] = st.next_fd
                st.next_fd += 1
            emit("reg-write", reg=0, value=t.regs[0], src=("syscall", number))
        elif number == SYS_READ_NET:
            if r1 > 0:
                if r0 + r1 > MEMORY_SIZE:
                    raise _Fault(f"unmapped address 0x{r0:08X}")
                for i in range(r1):
                    st.memory[r0 + i] = (self.net_seed + i) & 0xFF
                emit("mem-write", addr=r0, width=r1, src=("syscall", number))
        elif number == SYS_PRINTF:
            if r0 >= MEMORY_SIZE:
                raise _Fault(f"unmapped address 0x{r0:08X}")
            data, _ = read_cstr(st.memory, r0, CSTR_CAP)
            st.output += data[: OUTPUT_CAP - len(st.output)]
        elif number == SYS_KCALL:
            t.trap_return = next_pc
            t.mode = MODE_KERNEL
            emit("mode-change")
            return st.trap_entry
        elif number == SYS_KRET:
            target = t.trap_return
            t.trap_return = None
            t.mode = MODE_USER
            emit("mode-change")
            return target
        elif number == SYS_SET_TRAP:
            st.trap_entry = r0
        elif number in (
            SYS_CHECK_USER_READ,
            SYS_CHECK_USER_WRITE,
            SYS_TAG_TAINT,
            SYS_TAG_UNTRUSTED_SOURCE,
        ):
            pass  # hypercalls: shadow layer reads the syscall event
        elif number == SYS_SPAWN:
            tid = st.next_tid
            st.next_tid += 1
            st.threads[tid] = _new_thread(tid, pc=r0, stack_top=r1)
            emit("spawn", new_tid=tid)
            t.regs[0] = tid
            emit("reg-write", reg=0, value=tid, src=("syscall", number))
        elif number == SYS_UNLOCK:
            del st.locks[r0]
            t.locks_held = t.locks_held - {r0}
            emit("unlock", lock=r0)
            for other in st.threads.values():
                if other.blocked_on == r0:
                    other.blocked_on = None
        elif number == SYS_YIELD:
            self.scheduler.expire_slice()
        elif number == SYS_EXIT_THREAD:
            t.alive = False
            emit("thread-exit")
        return next_pc

    # -- whole runs -------------------------------------------------

    def run(self, step_limit: int = DEFAULT_STEP_LIMIT) -> RunResult:
        """Pick a thread, then decode, execute and count one instruction
        of it, until thread 0 HALTs, all threads die, a fault, or the
        step limit; see RunResult.outcome.

        A fault records itself in state.fault and halts the machine;
        effects already committed before the fault point stand, nothing
        after it happens.
        """
        st = self.state
        threads = st.threads
        observers = self.observers

        if observers:
            # Each kind's readers, in registration order.
            by_kind = {kind: [] for kind in EVENT_KINDS}
            for fn in observers:
                kinds = getattr(fn, "kinds", None)
                for kind in EVENT_KINDS if kinds is None else kinds:
                    by_kind[kind].append(fn)

            # Reads the loop's current t, tid, step_no and pc.
            def emit(kind, **kw):
                readers = by_kind[kind]
                if readers:
                    e = Event(kind, step_no, tid, pc, t.mode, st.iflag, t.locks_held, **kw)
                    for fn in readers:
                        fn(e)
        else:
            emit = _no_emit
        while not st.halted and st.step_count < step_limit:
            tid = self.scheduler.pick(st)
            if tid is None:
                if any(x.alive for x in threads.values()):
                    st.fault = GuestFault(
                        "deadlock: all live threads blocked",
                        st.current,
                        threads[st.current].pc,
                        st.step_count,
                    )
                st.halted = True
                break
            st.current = tid
            t = threads[tid]
            step_no = st.step_count
            pc = t.pc
            try:
                self._execute(t, pc, emit)
            except _Fault as f:
                st.fault = GuestFault(str(f), tid, pc, step_no)
                st.halted = True
            st.step_count = step_no + 1
        if st.fault is not None:
            outcome = "fault"
        elif st.halted:
            outcome = "halt"
        else:
            outcome = "timeout"
        return RunResult(state=st, outcome=outcome, steps=st.step_count)


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
