"""Seeded guest generators for the benchmark workloads.

Each generator turns a workload seed into a `Guest`: assembly source, the
scheduler policy to run it under, the warnings the analysis must report
as the code stands today (derived from the layout it just generated),
and a check of the final machine state that is computed independently
of the simulator.  The seed changes addresses, lock ids, constants and
the READ_NET pattern; it never changes how much work a guest does, so
runs with different seeds stay comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from scvm.machine import HEAP_BASE, ROUND_ROBIN, SEEDED_RANDOM, SchedulerPolicy

M32 = 0xFFFFFFFF
RACE = "RACE_EMPTY_LOCKSET"
FMT = "FMT_TAINTED"

# Untracked scratch memory: above the heap segment, below every stack.
SCRATCH = 0xE000


@dataclass
class Guest:
    name: str
    source: str
    policy: SchedulerPolicy
    expects: list  # (rule, label) pairs, one per expected warning
    words: dict = field(default_factory=dict)  # addr -> exact final word
    max_words: dict = field(default_factory=dict)  # addr -> upper bound
    output: bytes = b""

    def manifest_text(self) -> str:
        p = self.policy
        lines = [f"program {self.name}", f"policy {p.kind} seed {p.seed} quantum {p.quantum}"]
        lines += [f"expect {rule} at {label}" for rule, label in self.expects]
        return "\n".join(lines) + "\n"

    def state_failures(self, state) -> list:
        """Differences between a final MachineState and what the
        generator computed without running the simulator."""
        out = []
        mem = state.memory

        def word(a):
            return int.from_bytes(mem[a : a + 4], "little")

        if not state.halted or state.fault is not None:
            out.append(f"did not halt cleanly: {state.fault}")
        for a, want in self.words.items():
            if word(a) != want:
                out.append(f"word 0x{a:04X} = {word(a)}, want {want}")
        for a, cap in self.max_words.items():
            if word(a) > cap:
                out.append(f"word 0x{a:04X} = {word(a)} exceeds {cap}")
        if bytes(state.output) != self.output:
            out.append(f"output differs ({len(state.output)} bytes, want {len(self.output)})")
        return out


def alu_loop(seed: int) -> Guest:
    """One thread adds a constant to every word of a buffer outside the
    image and heap segments, `passes` times.  No syscalls, no taint, and
    no lockset-tracked address: the interpreter does the work."""
    rng = random.Random(seed)
    words, passes = 64, 8
    buf = SCRATCH + 4 * rng.randrange(256)
    inc = rng.randrange(1, 1 << 24)
    src = f"""\
.org 0
start:  MOVI r3, {inc}
        MOVI r4, 4
        MOVI r6, {passes}
outer:  MOVI r2, {buf}
        MOVI r5, {buf + 4 * words}
inner:  LD r1, [r2+0]
        ADD r1, r1, r3
        ST [r2+0], r1
        ADD r2, r2, r4
        CMP r2, r5
        BNE inner
        MOVI r0, 1
        SUB r6, r6, r0
        CMPI r6, 0
        BNE outer
        HALT
"""
    final = (passes * inc) & M32
    return Guest(
        name="alu_loop",
        source=src,
        policy=SchedulerPolicy(ROUND_ROBIN, 1, seed),
        expects=[],
        words={buf + 4 * i: final for i in range(words)},
    )


def lock_threads(seed: int) -> Guest:
    """Four threads (main plus three spawned) each run `iters` rounds of:
    two words incremented under lock A, one under lock B, then `unprot`
    words incremented with no lock held.  The lockset must report each
    unprotected word once, at its first access (the load at uld<j>)."""
    rng = random.Random(seed)
    threads, iters, unprot = 4, 24, 2
    slots = rng.sample(range(256), 3 + unprot)
    addrs = [HEAP_BASE + 4 * s for s in slots]
    prot_a, prot_b, free = addrs[:2], addrs[2:3], addrs[3:]
    lock_a, lock_b = rng.sample(range(1, 1000), 2)

    def bump(addr, label=""):
        lead = f"{label}:" if label else ""
        return [
            f"        MOVI r1, {addr}",
            f"{lead:<8}LD r2, [r1+0]",
            "        ADD r2, r2, r5",
            "        ST [r1+0], r2",
        ]

    body = ["body:   MOVI r5, 1", f"        MOVI r4, {iters}"]
    body += ["round:  MOVI r0, " + str(lock_a), "        SYS 49"]
    for a in prot_a:
        body += bump(a)
    body += [f"        MOVI r0, {lock_a}", "        SYS 50"]
    body += [f"        MOVI r0, {lock_b}", "        SYS 49"]
    for a in prot_b:
        body += bump(a)
    body += [f"        MOVI r0, {lock_b}", "        SYS 50"]
    for j, a in enumerate(free):
        body += bump(a, f"uld{j}")
    body += [
        "        SUB r4, r4, r5",
        "        CMPI r4, 0",
        "        BNE round",
        "        SYS 52",
    ]
    spawn = []
    for k in range(1, threads):
        spawn += [
            "        MOVI r0, body",
            f"        MOVI r1, {0xF000 - 0x400 * (k - 1)}",
            "        SYS 48",
        ]
    src = ".org 0\nstart:  MOVI r0, 0\n" + "\n".join(spawn + ["        JMP body"] + body) + "\n"
    total = threads * iters
    return Guest(
        name="lock_threads",
        source=src,
        policy=SchedulerPolicy(SEEDED_RANDOM, 1, seed),
        expects=[(RACE, f"uld{j}") for j in range(unprot)],
        words={a: total for a in prot_a + prot_b},
        max_words={a: total for a in free},
    )


def taint_copy(seed: int) -> Guest:
    """`iters` rounds of READ_NET into a 1 KiB heap buffer, a word copy of
    its first `word_bytes` and a byte copy of the rest into a second heap
    buffer, then PRINTF of the copy.  Each copied value is ORed with
    0x01010101 so the network pattern's NUL bytes (at offset
    (256 - seed) mod 256 of every 256) never cut the string short; the
    guest stores the terminating NUL itself.

    As the code stands, every round's PRINTF reports FMT_TAINTED once
    (each READ_NET mints a fresh tainted object), and because one thread
    touches the heap holding no lock, the lockset reports every heap word
    once, at its first access: the known single-thread false positive."""
    rng = random.Random(seed)
    size, word_bytes, iters = 1024, 960, 2
    pad = 4 * rng.randrange(1, 64)
    counter = SCRATCH + 4 * rng.randrange(256)
    src = f"""\
.org 0
start:  MOVI r0, {pad}
        SYS 1
        MOVI r0, {size}
        SYS 1
        MOV r4, r0
        CMPI r4, 0
        BEQ fail
        MOVI r0, {size + 4}
        SYS 1
        MOV r5, r0
        CMPI r5, 0
        BEQ fail
        MOVI r7, 0x01010101
        MOVI r6, {counter}
        MOVI r1, {iters}
        ST [r6+0], r1
round:  MOV r0, r4
        MOVI r1, {size}
rnet:   SYS 3
        MOV r2, r4
        MOV r3, r5
        MOVI r6, 4
        MOVI r1, {word_bytes}
        ADD r1, r1, r4
wloop:  LD r0, [r2+0]
        OR r0, r0, r7
wst:    ST [r3+0], r0
        ADD r2, r2, r6
        ADD r3, r3, r6
        CMP r2, r1
        BNE wloop
        MOVI r6, 1
        MOVI r1, {size}
        ADD r1, r1, r4
bloop:  LDB r0, [r2+0]
        OR r0, r0, r7
bst:    STB [r3+0], r0
        ADD r2, r2, r6
        ADD r3, r3, r6
        CMP r2, r1
        BNE bloop
        MOVI r0, 0
nul:    STB [r3+0], r0
        MOV r0, r5
psite:  SYS 4
        MOVI r6, {counter}
        LD r1, [r6+0]
        MOVI r0, 1
        SUB r1, r1, r0
        ST [r6+0], r1
        CMPI r1, 0
        BNE round
fail:   HALT
"""
    words = size // 4
    expects = (
        [(RACE, "rnet")] * words
        + [(RACE, "wst")] * (word_bytes // 4)
        + [(RACE, "bst")] * ((size - word_bytes) // 4)
        + [(RACE, "nul")]
        + [(FMT, "psite")] * iters
    )
    line = bytes(((seed + i) & 0xFF) | 1 for i in range(size))
    return Guest(
        name="taint_copy",
        source=src,
        policy=SchedulerPolicy(ROUND_ROBIN, 1, seed),
        expects=expects,
        output=line * iters,
    )


GENERATORS = {"alu_loop": alu_loop, "lock_threads": lock_threads, "taint_copy": taint_copy}
