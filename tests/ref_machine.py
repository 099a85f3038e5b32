"""A reference interpreter for scvm guests, the oracle `Machine.run` is
held to in tests/test_reference.py.

It is written from the documented ISA and machine semantics (the
`isa.py` and `machine.py` docstrings, README "Guest programs"), not from
the interpreter's handlers, and it is slow on purpose:

- one `if` chain over `isa.decode` of the 8 bytes at each pc, with no
  compile cache and no read sets;
- every event built, in operand-evaluation order, each stamped with the
  thread's mode and held locks and the machine's interrupt flag at the
  moment it is emitted;
- little-endian values and C strings read and written a byte at a time;
- a thread table scanned for the runnable tids at each pick, and for a
  lock's waiters at each UNLOCK, which wakes them all;
- the scheduler written from `SchedulerPolicy`: a thread keeps the CPU
  for `quantum` picks (YIELD ends its slice), then the next runnable tid
  in round-robin order or a draw of xorshift64* seeded by `seed`.

Constants are written out here, not imported, so a changed constant in
the machine shows as a difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from scvm.isa import DecodeError, Opcode, decode
from scvm.machine import Event

from helpers import ref_xorshift64star

MEMORY = 0x10000
MASK32 = 0xFFFFFFFF
HEAP_START, HEAP_END = 0x8000, 0xE000
FIRST_STACK_TOP = 0xFFF0
LOCK_CAP = 48
FORMAT_CAP, NAME_CAP = 4096, 256
OUTPUT_KEPT = 1 << 20

ALLOC, OPEN, READ_NET, PRINTF = 1, 2, 3, 4
KCALL, KRET, SET_TRAP = 16, 17, 18
HYPERCALLS = (32, 33, 34, 35)  # no architectural effect
SPAWN, LOCK, UNLOCK, YIELD, EXIT_THREAD = 48, 49, 50, 51, 52
SYSCALLS = {ALLOC, OPEN, READ_NET, PRINTF, KCALL, KRET, SET_TRAP, *HYPERCALLS,
            SPAWN, LOCK, UNLOCK, YIELD, EXIT_THREAD}


class RefFault(Exception):
    """The instruction faults: the run stops, its effects so far stand."""


@dataclass
class RefThread:
    regs: list
    pc: int
    zflag: bool = False
    mode: str = "user"
    locks: frozenset = frozenset()
    trap_return: int | None = None
    waits_on: int | None = None  # the lock its LOCK blocked on


def _thread(pc: int, stack_top: int) -> RefThread:
    regs = [0] * 8
    regs[6] = stack_top
    return RefThread(regs, pc)


@dataclass
class RefMachine:
    memory: bytearray
    policy: object  # a SchedulerPolicy
    threads: dict = field(default_factory=dict)
    tids_made: int = 1  # thread 0 is the first; tids are never reused
    tid: int = 0  # the thread this step runs
    pc: int = 0  # the pc of this step's instruction
    current: int = 0  # the tid picked last
    used: int = 0  # picks of the current thread in its slice
    rng: int = 0
    iflag: bool = True
    trap_entry: int | None = None
    locks: dict = field(default_factory=dict)  # lock -> holder tid
    halted: bool = False
    fault: tuple | None = None  # (reason, tid, pc, step)
    step_count: int = 0  # instructions executed, the faulting one included
    heap: int = HEAP_START
    next_fd: int = 3
    output: bytearray = field(default_factory=bytearray)
    events: list = field(default_factory=list)

    # -- scheduler -------------------------------------------------------

    def pick(self):
        runnable = sorted(tid for tid, t in self.threads.items() if t.waits_on is None)
        if not runnable:
            return None
        if self.used < self.policy.quantum and self.current in runnable:
            self.used += 1
            return self.current
        self.used = 1
        if self.policy.kind == "round-robin":
            later = [tid for tid in runnable if tid > self.current]
            return (later or runnable)[0]
        self.rng, draw = ref_xorshift64star(self.rng)
        return runnable[draw % len(runnable)]

    # -- one step --------------------------------------------------------

    def emit(self, kind, **operands):
        t = self.threads[self.tid]
        self.events.append(Event(kind, self.step_count, self.tid, self.pc, t.mode, self.iflag,
                                 t.locks, **operands))

    def read_reg(self, r):
        value = self.threads[self.tid].regs[r]
        self.emit("reg-read", reg=r, value=value)
        return value

    def write_reg(self, r, value, src):
        self.threads[self.tid].regs[r] = value
        self.emit("reg-write", reg=r, value=value, src=src)

    def check_access(self, addr, width):
        if addr + width > MEMORY:
            raise RefFault(f"unmapped address 0x{addr:08X}")
        if addr % width:
            raise RefFault(f"unaligned word access at 0x{addr:04X}")

    def load_bytes(self, addr, width):
        return sum(self.memory[addr + k] << 8 * k for k in range(width))

    def cstr(self, addr, cap):
        """The bytes at addr up to a NUL, cap bytes or the end of memory,
        and whether a NUL ended them."""
        out = bytearray()
        while addr + len(out) < min(addr + cap, MEMORY):
            byte = self.memory[addr + len(out)]
            if byte == 0:
                return bytes(out), True
            out.append(byte)
        return bytes(out), False

    def end_thread(self):
        self.emit("thread-exit")
        del self.threads[self.tid]

    def step(self):
        t, pc = self.threads[self.tid], self.pc
        if pc % 8:
            raise RefFault(f"misaligned pc 0x{pc:04X}")
        if pc + 8 > MEMORY:
            raise RefFault(f"pc 0x{pc:04X} out of range")
        try:
            i = decode(bytes(self.memory[pc : pc + 8]))
        except DecodeError as exc:
            raise RefFault(str(exc)) from None
        op, imm, next_pc = i.opcode, i.imm & MASK32, pc + 8
        self.emit("fetch", op=op.name)
        if op == Opcode.MOVI:
            self.write_reg(i.rd, imm, ("imm",))
        elif op == Opcode.MOV:
            self.write_reg(i.rd, self.read_reg(i.rs), ("reg", i.rs))
        elif op in (Opcode.LD, Opcode.LDB):
            width = 4 if op == Opcode.LD else 1
            addr = (self.read_reg(i.rs) + imm) & MASK32
            self.check_access(addr, width)
            value = self.load_bytes(addr, width)
            self.emit("mem-read", addr=addr, width=width, value=value, base_reg=i.rs)
            self.write_reg(i.rd, value, ("mem", addr, width))
        elif op in (Opcode.ST, Opcode.STB):
            width = 4 if op == Opcode.ST else 1
            base, data = self.read_reg(i.rs), self.read_reg(i.rt)
            addr = (base + imm) & MASK32
            self.check_access(addr, width)
            value = data % (1 << 8 * width)
            for k in range(width):
                self.memory[addr + k] = (value >> 8 * k) & 0xFF
            self.emit("mem-write", addr=addr, width=width, value=value, base_reg=i.rs,
                      src=("reg", i.rt))
        elif op in (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR):
            a, b = self.read_reg(i.rs), self.read_reg(i.rt)
            if op == Opcode.ADD:
                value = a + b
            elif op == Opcode.SUB:
                value = a - b
            elif op == Opcode.MUL:
                value = a * b
            elif op == Opcode.AND:
                value = a & b
            elif op == Opcode.OR:
                value = a | b
            else:
                value = a ^ b
            value &= MASK32
            self.emit("binop", op=op.name, reg=i.rd, rs=i.rs, rt=i.rt, value=value)
            self.write_reg(i.rd, value, ("binop", op.name, i.rs, i.rt))
        elif op == Opcode.CMP:
            a, b = self.read_reg(i.rs), self.read_reg(i.rt)
            t.zflag = a == b
            self.emit("compare", rs=i.rs, rt=i.rt, value=b)
        elif op == Opcode.CMPI:
            t.zflag = self.read_reg(i.rs) == imm
            self.emit("compare", rs=i.rs, value=imm)
        elif op in (Opcode.BEQ, Opcode.BNE):
            taken = t.zflag if op == Opcode.BEQ else not t.zflag
            self.emit("branch", addr=imm, taken=taken)
            if taken:
                next_pc = imm
        elif op == Opcode.JMP:
            self.emit("branch", addr=imm, taken=True)
            next_pc = imm
        elif op == Opcode.CALL:
            self.write_reg(7, pc + 8, ("imm",))
            self.emit("branch", addr=imm, taken=True)
            next_pc = imm
        elif op == Opcode.RET:
            next_pc = self.read_reg(7)
            self.emit("branch", addr=next_pc, taken=True)
        elif op in (Opcode.CLI, Opcode.STI):
            if t.mode != "kernel":
                raise RefFault(f"{op.name} in user mode")
            self.iflag = op == Opcode.STI
            self.emit("iflag-change")
        elif op == Opcode.HALT:  # the pc stays on it
            if self.tid == 0:
                self.halted = True
            else:
                self.end_thread()
            return
        else:
            next_pc = self.syscall(i.imm, t)
            if next_pc is None or self.tid not in self.threads:  # blocked, or ended
                return
        t.pc = next_pc

    def syscall(self, n, t):
        """SYS n: the next pc, or None when a LOCK blocks."""
        tid, regs = self.tid, t.regs
        r0, r1 = regs[0], regs[1]
        if n not in SYSCALLS:
            raise RefFault(f"unknown syscall {n}")
        if n == LOCK and self.locks.get(r0) == tid:
            raise RefFault(f"recursive LOCK of {r0}")
        if n == LOCK and len(t.locks) >= LOCK_CAP:
            raise RefFault(f"LOCK of {r0} past the cap of {LOCK_CAP} locks held")
        if n == UNLOCK and self.locks.get(r0) != tid:
            raise RefFault(f"UNLOCK of lock {r0} not held by tid {tid}")
        if n == KCALL and t.mode == "kernel":
            raise RefFault("nested KCALL")
        if n == KCALL and self.trap_entry is None:
            raise RefFault("KCALL with no trap entry set")
        if n == KRET and (t.mode != "kernel" or t.trap_return is None):
            raise RefFault("KRET outside a KCALL")
        self.emit("syscall", sysno=n, args=(regs[0], regs[1], regs[2], regs[3]))

        next_pc, result = self.pc + 8, None
        if n == LOCK:
            if r0 in self.locks:
                t.waits_on = r0
                return None
            self.locks[r0] = tid
            t.locks = t.locks | {r0}
            self.emit("lock", lock=r0)
        elif n == UNLOCK:
            del self.locks[r0]
            t.locks = t.locks - {r0}
            self.emit("unlock", lock=r0)
            for other in self.threads.values():
                if other.waits_on == r0:
                    other.waits_on = None
        elif n == ALLOC:
            size = max(4, (r0 + 3) // 4 * 4)
            if self.heap + size > HEAP_END:
                result = 0
            else:
                result, self.heap = self.heap, self.heap + size
        elif n == OPEN:
            if r0 >= MEMORY:
                raise RefFault(f"unmapped address 0x{r0:08X}")
            name, terminated = self.cstr(r0, NAME_CAP)
            if terminated and not name.startswith(b"missing"):
                result, self.next_fd = self.next_fd, self.next_fd + 1
            else:
                result = 0
        elif n == READ_NET:
            if r1 > 0:
                if r0 + r1 > MEMORY:
                    raise RefFault(f"unmapped address 0x{r0:08X}")
                for k in range(r1):
                    self.memory[r0 + k] = (self.policy.seed + k) % 256
                self.emit("mem-write", addr=r0, width=r1, src=("syscall", n))
        elif n == PRINTF:
            if r0 >= MEMORY:
                raise RefFault(f"unmapped address 0x{r0:08X}")
            text, _ = self.cstr(r0, FORMAT_CAP)
            self.output += text[: max(0, OUTPUT_KEPT - len(self.output))]
        elif n == KCALL:
            t.trap_return, t.mode, next_pc = self.pc + 8, "kernel", self.trap_entry
            self.emit("mode-change")
        elif n == KRET:
            next_pc, t.trap_return, t.mode = t.trap_return, None, "user"
            self.emit("mode-change")
        elif n == SET_TRAP:
            self.trap_entry = r0
        elif n == SPAWN:
            result, self.tids_made = self.tids_made, self.tids_made + 1
            self.threads[result] = _thread(pc=r0, stack_top=r1)
            self.emit("spawn", new_tid=result)
        elif n == YIELD:
            self.used = self.policy.quantum
        elif n == EXIT_THREAD:
            self.end_thread()
        if result is not None:
            self.write_reg(0, result, ("syscall", n))
        return next_pc

    # -- the run ---------------------------------------------------------

    def run(self, step_limit: int) -> str:
        """Pick, fetch, execute and count one instruction at a time until
        thread 0 HALTs, no thread can run, a fault, or the step limit;
        returns the outcome, "halt", "fault" or "timeout"."""
        while not self.halted and self.step_count < step_limit:
            self.tid = self.pick()
            if self.tid is None:
                waiting = [tid for tid, t in self.threads.items() if t.waits_on is not None]
                if waiting:
                    tid = min(waiting)
                    self.fault = ("deadlock: all live threads blocked", tid,
                                  self.threads[tid].pc, self.step_count)
                self.halted = True
                break
            self.current = self.tid
            self.pc = self.threads[self.tid].pc
            try:
                self.step()
            except RefFault as exc:
                self.fault = (str(exc), self.tid, self.pc, self.step_count)
                self.halted = True
            self.step_count += 1
        return "fault" if self.fault else "halt" if self.halted else "timeout"

    def view(self) -> dict:
        """The architectural state, in the form of `machine_view`."""
        return {
            "memory": bytes(self.memory),
            "output": bytes(self.output),
            "threads": {tid: (t.regs, t.pc, t.zflag, t.mode, t.locks)
                        for tid, t in self.threads.items()},
            "locks": self.locks,
            "iflag": self.iflag,
            "halted": self.halted,
            "fault": self.fault,
            "step_count": self.step_count,
        }


def machine_view(state) -> dict:
    """A MachineState's architectural state, in the form of RefMachine.view."""
    fault = state.fault
    return {
        "memory": bytes(state.memory),
        "output": bytes(state.output),
        "threads": {tid: (t.regs, t.pc, t.zflag, t.mode, t.locks_held)
                    for tid, t in state.threads.items()},
        "locks": state.locks,
        "iflag": state.iflag,
        "halted": state.halted,
        "fault": None if fault is None else (fault.reason, fault.tid, fault.pc, fault.step),
        "step_count": state.step_count,
    }


def run_reference(image, policy, step_limit: int) -> tuple:
    """(outcome, RefMachine) of a run of image under policy: thread 0 at
    the entry with r6 at the first stack top, the first pick a slice
    boundary, a zero seed remapped (xorshift's zero state is a fixed point)."""
    memory = bytearray(MEMORY)
    memory[image.origin : image.origin + len(image.payload)] = image.payload
    m = RefMachine(memory, policy, threads={0: _thread(image.entry, FIRST_STACK_TOP)},
                   used=policy.quantum, rng=policy.seed % 2**64 or 0x9E3779B97F4A7C15)
    return m.run(step_limit), m
