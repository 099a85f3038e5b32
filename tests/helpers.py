"""Shared test plumbing: assemble-and-run in one call, a recorded run,
synthetic events, corpus access, events fed straight to the checkers, the reference scheduler, the
brute-force lockset and the happens-before race oracle."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import timeit
import tracemalloc

from scvm.asm import assemble
from scvm.checkers import CHECKER_ORDER, RULE_RACE, CheckerRegistry, make_checkers
from scvm.corpus import discover, shipped_dir
from scvm.driver import RunConfig, analyze
from scvm.isa import INSTR_SIZE, NUM_REGS, Instruction, Opcode, decode
from scvm.machine import ROUND_ROBIN, SYS_LOCK, Event, SchedulerPolicy, load
from scvm.report import serialize
from scvm.shadow import ShadowState


def corpus_names() -> list:
    """The shipped entries' names: the corpus directory is their list."""
    return [e.name for e in discover(shipped_dir())]


def corpus_source(name: str) -> str:
    return (shipped_dir() / f"{name}.s").read_text()


def corpus_manifest_text(name: str) -> str:
    return (shipped_dir() / f"{name}.manifest").read_text()


def run_program(
    source: str,
    checkers=CHECKER_ORDER,
    policy: SchedulerPolicy | None = None,
    options: dict | None = None,
    step_limit: int = 100_000,
    observers=(),
):
    """Assemble source and analyze it, handing every event to each of
    `observers`; returns (image, AnalysisResult)."""
    image = assemble(source)
    config = RunConfig(
        checkers=tuple(checkers),
        policy=policy or SchedulerPolicy(),
        checker_options=options or {},
        step_limit=step_limit,
        observers=tuple(observers),
    )
    return image, analyze(image, config)


def recorded_run(image, policy: SchedulerPolicy, step_limit: int) -> tuple:
    """(RunResult, every event) of one run of image."""
    machine = load(image, policy)
    events = []
    machine.add_observer(events.append)
    return machine.run(step_limit), events


def ev(kind, **kw) -> Event:
    """An event of `kind` with kw's fields; the stamp defaults to step 0,
    tid 0, pc 0, user mode, interrupts on and no locks held."""
    stamp = dict(step=0, tid=0, pc=0, mode="user", iflag=True, locks_held=frozenset())
    return Event(kind=kind, **{**stamp, **kw})


M64 = (1 << 64) - 1


def ref_xorshift64star(state):
    """Reference generator, written out from the recurrence."""
    x = state & M64
    x ^= x >> 12
    x = (x ^ (x << 25)) & M64
    x ^= x >> 27
    return x, (x * 0x2545F4914F6CDD1D) & M64


def general_pick(sched, state):
    """Scheduler.pick as it was before its single-thread fast path: the
    eligible list, built on every call."""
    eligible = rebuilt_runnable(state)
    if not eligible:
        return None
    cur = state.current
    if cur in eligible and sched._used < sched.policy.quantum:
        sched._used += 1
        return cur
    sched._used = 1
    if sched.policy.kind == ROUND_ROBIN:
        return next((t for t in eligible if t > cur), eligible[0])
    sched._rng, out = ref_xorshift64star(sched._rng)
    return eligible[out % len(eligible)]


def rebuilt_runnable(state) -> list:
    """state.runnable as rebuilt from the live threads less the waiting ones."""
    waiting = {tid for tids in state.blocked.values() for tid in tids}
    return [tid for tid in sorted(state.threads) if tid not in waiting]


_LOCK_CALL = Instruction(Opcode.SYS, imm=SYS_LOCK)


def assert_waiters_wait(state) -> None:
    """Each tid in state.blocked is a live thread that waits on that one
    lock only: its pc is on a `SYS 49` whose r0 is the lock, and another
    tid holds the lock."""
    waiters = [(lock, tid) for lock, tids in state.blocked.items() for tid in tids]
    assert len({tid for _, tid in waiters}) == len(waiters), state.blocked
    for lock, tid in waiters:
        t = state.threads[tid]
        assert decode(bytes(state.memory[t.pc : t.pc + INSTR_SIZE])) == _LOCK_CALL, tid
        assert t.regs[0] == lock and state.locks.get(lock, tid) != tid, (tid, lock)


def _stepped_run(image, policy, step_limit, pick=None):
    """Run image one step per resumed run() call, asserting after each
    step that state.runnable is what the threads and state.blocked say,
    that every waiter waits (assert_waiters_wait) and that no ended
    thread is left in state.threads; `pick(scheduler, state)` replaces
    the scheduler's own pick when given.  Returns (RunResult, every tid
    picked, None included)."""
    machine = load(image, policy)
    sched, picks, ended = machine.scheduler, [], set()
    choose = sched.pick if pick is None else functools.partial(pick, sched)

    def recording(state):
        picks.append(choose(state))
        return picks[-1]

    def on_exit(e):
        ended.add(e.tid)

    on_exit.kinds = ("thread-exit",)
    sched.pick = recording
    machine.add_observer(on_exit)
    for n in range(1, step_limit + 1):
        result = machine.run(step_limit=n)
        assert machine.state.runnable == rebuilt_runnable(machine.state), n
        assert_waiters_wait(machine.state)
        assert not ended & machine.state.threads.keys(), n
        if result.outcome != "timeout":
            break
    return result, picks


def assert_scheduled_like_the_general_pick(image, policy, step_limit):
    """state.runnable and state.blocked stay what the threads say after
    every step, no ended thread stays in state.threads, and the run picks
    the tids and ends in the state of a run whose pick is general_pick."""
    got, picks = _stepped_run(image, policy, step_limit)
    want, general_picks = _stepped_run(image, policy, step_limit, general_pick)
    assert picks == general_picks
    assert (got.state, got.outcome) == (want.state, want.outcome)


def spawn_loop(body: str, spawn: bool = True) -> str:
    """A guest that loops forever: SPAWN a child that HALTs at once, then
    run `body`.  With spawn False a YIELD stands in for the SPAWN, so the
    loop runs the same steps, a syscall among them and in blocks as much
    as the other, but leaves no dead thread behind."""
    return (f"main: MOVI r0, child\nMOVI r1, 0xF000\n{'SYS 48' if spawn else 'SYS 51'}\n"
            f"{body}\nJMP main\nchild: HALT\n")


def spawn_slowdown(body: str, run) -> float:
    """Best-of-two wall time of run(image) on spawn_loop(body) over that
    on its twin that spawns nothing: near 1 when a step's cost does not
    grow with the dead threads, and large when it does."""
    def best(image):
        return min(timeit.repeat(lambda: run(image), number=1, repeat=2))

    return best(assemble(spawn_loop(body))) / best(assemble(spawn_loop(body, spawn=False)))


def steps_growth(run, n: int) -> tuple:
    """How run(steps) grows from n steps to 4n: the ratios of its
    best-of-two wall times and of its tracemalloc peaks.  About 4 and 1
    when every step costs the same time and keeps no memory."""
    def best(steps):
        return min(timeit.repeat(lambda: run(steps), number=1, repeat=2))

    def peak(steps):
        tracemalloc.start()
        try:
            run(steps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return best(4 * n) / best(n), peak(4 * n) / peak(n)


def shadow_cells(shadow: ShadowState, tids, addrs) -> dict:
    """Each register of each of tids, and each of addrs, mapped to its
    object's id, tags and note: what two shadows that should agree
    compare by, as their objects are never the same ones."""
    def view(obj):
        return obj.id, frozenset(obj.tags), obj.note

    cells = {(tid, reg): view(shadow.reg_object(tid, reg))
             for tid in tids for reg in range(NUM_REGS)}
    return cells | {addr: view(shadow.mem_object(addr)) for addr in addrs}


def rules_of(result) -> list:
    return [w.rule for w in result.warnings]


def registry_warnings(plugins, events) -> list:
    """The warnings a fresh CheckerRegistry keeps when handed `events`."""
    registry = CheckerRegistry(plugins)
    for e in events:
        registry.dispatch(e)
    return registry.warnings


def analysis_outputs(image, config: RunConfig) -> tuple:
    """Everything an analysis shows: report text, shadow trace lines,
    final state, outcome, and the events a kind-less observer saw."""
    events, lines = [], []
    config = dataclasses.replace(config, shadow_trace=lines.append, observers=(events.append,))
    r = analyze(image, config)
    report = serialize(r.warnings, r.image_sha256, config.policy)
    return report, lines, r.state, r.outcome, events


# fmt is left out of replay: it reads the machine's memory at PRINTF.
REPLAYED_CHECKERS = ("null", "user", "lockset")


def live_and_replayed(image, policy: SchedulerPolicy, step_limit: int = 100_000) -> tuple:
    """One run under REPLAYED_CHECKERS, and the warnings of replaying its
    recorded event stream through a fresh shadow and fresh plugins built
    on a freshly loaded machine: (AnalysisResult, replayed warnings)."""
    events = []
    live = analyze(image, RunConfig(checkers=REPLAYED_CHECKERS, policy=policy,
                                    step_limit=step_limit, observers=(events.append,)))
    shadow = ShadowState()
    registry = CheckerRegistry(make_checkers(REPLAYED_CHECKERS, load(image, policy), shadow))
    for e in events:
        shadow.on_event(e)
        registry.dispatch(e)
    return live, registry.warnings


@contextlib.contextmanager
def full_delivery():
    """Hand the shadow state and the checker registry every event, by
    replacing their observer methods with wrappers that carry no
    `kinds`.  Yields the set of kinds the shadow state was handed."""
    on_event, dispatch = ShadowState.on_event, CheckerRegistry.dispatch
    seen = set()

    def shadow_on_event(shadow, e):
        seen.add(e.kind)
        on_event(shadow, e)

    ShadowState.on_event = shadow_on_event
    CheckerRegistry.dispatch = lambda registry, e: dispatch(registry, e)
    try:
        yield seen
    finally:
        ShadowState.on_event, CheckerRegistry.dispatch = on_event, dispatch


def brute_force_first_empty(trace, grace=False):
    """word -> index where the intersection of every held-set observed
    at that word first becomes empty; recomputed from scratch per access
    of a (word, tid, held) trace.  Under grace a word is exclusive to
    the first tid that touches it until a second tid does, and its
    lockset starts at that access."""
    history = {}
    warned = {}
    for idx, (word, tid, held) in enumerate(trace):
        history.setdefault(word, []).append((tid, held))
        accesses = history[word]
        if grace:
            owner = accesses[0][0]
            shared = [i for i, (t, _) in enumerate(accesses) if t != owner]
            if not shared:
                continue
            accesses = accesses[shared[0]:]
        inter = set(accesses[0][1])
        for _, s in accesses[1:]:
            inter &= s
        if not inter and word not in warned:
            warned[word] = idx
    return warned


def _join(clock: dict, other: dict) -> None:
    for tid, n in other.items():
        if n > clock.get(tid, 0):
            clock[tid] = n


class HappensBefore:
    """Vector-clock race detector, the oracle for the lockset checker
    (Djit+, Pozniansky & Schuster, PPoPP 2003; FastTrack, Flanagan &
    Freund, PLDI 2009).

    Its only edges are UNLOCK -> LOCK of the same lock and SPAWN ->
    child.  A race is two accesses to one 4-byte word from different
    threads, at least one a write, with neither ordered before the
    other; `races` collects those words.  `tracked(word)`, asked at
    each access, picks the words it watches.
    """

    def __init__(self, tracked=lambda word: True):
        self.tracked = tracked
        self.clocks: dict = {}  # tid -> its vector clock, {tid: count}
        self.lock_clocks: dict = {}  # lock -> clock of its last UNLOCK
        # word -> tid -> that thread's own count at its last read / write
        self.reads: dict = {}
        self.writes: dict = {}
        self.races: set = set()

    def on_event(self, e) -> None:
        clock = self.clocks.setdefault(e.tid, {e.tid: 1})
        if e.kind == "lock":
            _join(clock, self.lock_clocks.get(e.lock, {}))
        elif e.kind == "unlock":
            self.lock_clocks[e.lock] = dict(clock)
            clock[e.tid] += 1
        elif e.kind == "spawn":
            self.clocks[e.new_tid] = {**clock, e.new_tid: 1}
            clock[e.tid] += 1
        else:
            write = e.kind == "mem-write"
            for word in range(e.addr & ~3, e.addr + e.width, 4):
                if not self.tracked(word):
                    continue
                earlier = [self.writes.get(word, {})]
                if write:
                    earlier.append(self.reads.get(word, {}))
                if any(tid != e.tid and n > clock.get(tid, 0)
                       for last in earlier for tid, n in last.items()):
                    self.races.add(word)
                (self.writes if write else self.reads).setdefault(word, {})[e.tid] = clock[e.tid]

    on_event.kinds = ("mem-read", "mem-write", "lock", "unlock", "spawn")


def happens_before_races(events, tracked=lambda word: True) -> set:
    """The words that race in a complete event stream."""
    oracle = HappensBefore(tracked)
    for e in events:
        if e.kind in oracle.on_event.kinds:
            oracle.on_event(e)
    return oracle.races


def races_and_lockset_warnings(image, policy: SchedulerPolicy, step_limit: int = 100_000):
    """One run under every checker with default options, watched by the
    happens-before oracle on the words the lockset tracks at each access.
    Returns (racing words, words the lockset warns about, outcome)."""
    machine = load(image, policy)
    shadow = ShadowState()
    plugins = make_checkers(CHECKER_ORDER, machine, shadow)
    (lockset,) = (p for p in plugins if p.name == "lockset")
    oracle = HappensBefore(lockset._is_tracked)
    registry = CheckerRegistry(plugins)
    for fn in (oracle.on_event, shadow.on_event, registry.dispatch):
        machine.add_observer(fn)
    outcome = machine.run(step_limit).outcome
    warned = {w.address for w in registry.warnings if w.rule == RULE_RACE}
    return oracle.races, warned, outcome
