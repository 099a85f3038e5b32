"""Host-speed calibration, independent of scvm.

On a shared host the same interpreter work can take 1.6x longer, for
seconds or minutes at a time, while neighbours are busy; no statistic
over one run removes that.  So every timed sample is bracketed by a
fixed reference loop, and its host time is scaled by
REFERENCE_S / (mean of the two calibration times).  The result is in
reference-host seconds: the time the sample would have taken on a host
where the loop takes REFERENCE_S.

Contention slows different code by different amounts, so the loop mixes
the two kinds of work the workloads do.  About two thirds of it is a
miniature of scvm's hot path: fetch and struct-decode an 8-byte
instruction, build a 21-field frozen event through a closure, and hand
it to a shadow observer over a 65,536-cell list and to three generator
plugins.  The rest is per-image set-up: build and use an argparse parser
with subcommands, as `scvm.cli.main` does on every call, and allocate a
65,536-cell list.  The loop must not change once a baseline is recorded
with it; no change to scvm can speed it up or slow it down.
"""

from __future__ import annotations

import argparse
import gc
import struct
import time
from dataclasses import dataclass

#: Median `calibrate()` time on the host where the first baseline was
#: taken (2 vCPU, Python 3.11.7).
REFERENCE_S = 0.017

_STEPS = 400
_PARSERS = 5
_ENC = struct.Struct("<BBBBi")
# LD r1,[r2]; ADD r1,r1,r3; ST [r2],r1; ADD r2,r2,r4; CMP r2,r5; BNE top
_PROGRAM = [(1, 1, 2, 0), (2, 1, 1, 3), (3, 2, 1, 0), (2, 2, 2, 4), (4, 0, 2, 5), (5, 0, 0, 0)]


@dataclass(frozen=True)
class _Event:
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


@dataclass(frozen=True)
class _Instr:
    op: int
    rd: int
    rs: int
    imm: int


class _Shadow:
    def __init__(self):
        self.cells = [None] * 65536
        self.regs = [None] * 8

    def on_event(self, e):
        if e.kind == "reg-write":
            self.regs[e.reg] = self.cells[e.addr] if e.addr is not None else None
        elif e.kind == "mem-write":
            for a in range(e.addr, e.addr + e.width):
                self.cells[a] = self.regs[e.reg]


class _Plugin:
    def __init__(self, shadow):
        self.shadow = shadow
        self.table = {}

    def on_event(self, e):
        if e.kind not in ("mem-read", "mem-write"):
            return
        word = e.addr & ~3
        cur = self.table.get(word)
        self.table[word] = e.locks_held if cur is None else cur & e.locks_held
        if self.shadow.regs[e.reg] is not None:
            yield word


def _setup_like(parsers: int) -> None:
    for _ in range(parsers):
        p = argparse.ArgumentParser(prog="ref")
        sub = p.add_subparsers(dest="command", required=True)
        for name in ("asm", "run", "check"):
            q = sub.add_parser(name)
            q.add_argument("image")
            q.add_argument("--sched", choices=["a", "b"], default="a")
            q.add_argument("--seed", type=int, default=0)
            q.add_argument("--quantum", type=int, default=1)
            q.add_argument("--trace", action="append", choices=["e", "s"], default=None)
        p.parse_args(["check", "img", "--seed", "3", "--trace", "e"])
        cells = [None] * 65536
        del cells


def calibrate(steps: int = _STEPS, parsers: int = _PARSERS) -> float:
    """Seconds for `steps` steps of the reference VM plus `parsers`
    rounds of set-up-like work."""
    mem = bytearray(65536)
    code = b"".join(_ENC.pack(op, rd | rs << 4, 0, 0, imm) for op, rd, rs, imm in _PROGRAM)
    mem[: len(code)] = code
    regs = [0, 0, 0x4000, 7, 4, 0x4400, 0, 0]
    shadow = _Shadow()
    plugins = [_Plugin(shadow) for _ in range(3)]
    found = []
    zflag = False
    pc = 0

    def observe(e):
        shadow.on_event(e)
        for p in plugins:
            found.extend(p.on_event(e))

    t = time.perf_counter()
    for step in range(steps):
        opb, rp, _, _, imm = _ENC.unpack(bytes(mem[pc : pc + 8]))
        ins = _Instr(opb, rp & 15, rp >> 4, imm)

        def emit(kind, **kw):
            observe(_Event(kind=kind, step=step, tid=0, pc=pc, mode="user", iflag=True,
                           locks_held=frozenset(), **kw))

        emit("fetch", op=str(ins.op))
        nxt = pc + 8
        if ins.op == 1:
            a = regs[ins.rs]
            emit("reg-read", reg=ins.rs, value=a)
            v = int.from_bytes(mem[a : a + 4], "little")
            emit("mem-read", addr=a, width=4, value=v, reg=ins.rd, base_reg=ins.rs)
            regs[ins.rd] = v
            emit("reg-write", reg=ins.rd, value=v, addr=a, src=("mem", a, 4))
        elif ins.op == 2:
            a, b = regs[ins.rs], regs[ins.imm]
            emit("reg-read", reg=ins.rs, value=a)
            emit("reg-read", reg=ins.imm, value=b)
            regs[ins.rd] = (a + b) & 0xFFFFFFFF
            emit("reg-write", reg=ins.rd, value=regs[ins.rd], src=("binop", "ADD", ins.rs, ins.imm))
        elif ins.op == 3:
            a = regs[ins.rs]
            emit("reg-read", reg=ins.rs, value=a)
            mem[a : a + 4] = regs[ins.rd].to_bytes(4, "little")
            emit("mem-write", addr=a, width=4, reg=ins.rd, value=regs[ins.rd], base_reg=ins.rs,
                 src=("reg", ins.rd))
        elif ins.op == 4:
            zflag = regs[ins.rs] == regs[ins.imm]
            emit("compare", rs=ins.rs, rt=ins.imm, value=regs[ins.imm])
        else:
            emit("branch", addr=0, taken=not zflag)
            if zflag:
                regs[2] = 0x4000  # wrap to the buffer start
            nxt = 0
        pc = nxt
    _setup_like(parsers)
    return time.perf_counter() - t


class RefClock:
    """Turns host seconds into reference-host seconds.

    Create it before the first sample; after each sample, multiply the
    sample's host time by `scale()`, which calibrates again (after a
    gc.collect, so the next sample starts with no pending garbage) and
    uses the mean of the calibrations on either side of the sample."""

    def __init__(self):
        self._before = self._calibrate()

    @staticmethod
    def _calibrate() -> float:
        gc.collect()
        return calibrate()

    def scale(self) -> float:
        after = self._calibrate()
        s = REFERENCE_S * 2 / (self._before + after)
        self._before = after
        return s
