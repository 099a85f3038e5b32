"""ShadowState against a byte-level reference model, event by event.

The model keeps no objects.  Each register and memory byte holds an
alias-class id, each class holds a tag set, and a tag added to a class
is seen by every cell that holds it.  Class 0 is the untagged class.
The rules are written from the shadow's documented semantics, one byte
at a time and with no fast paths.  One `merge` serves binops and loads:
cells that share a class are one value, so a binop over two aliases
keeps their class (but `XOR`/`SUB` of one class is an integer, class 0).
One read of an untrusted source gives all the bytes it finds untainted
one new tainted class, so a word loaded from them is that class, and a
source byte that is read again keeps its tainted class.  The shadow
gets the same results from an inline identity test for binops and
`_merge` for the rest.

Both are fed the events of one recorded run.  After every event each
cell must have the same tag set on both sides, and two cells must share
a shadow object exactly when they share a model class.  A mismatch is
either a shadow bug to fix or a blind spot of the model, to be listed
here with its reason; none has turned up, so none is listed.
"""

from hypothesis import given, settings, strategies as st

from scvm.asm import assemble
from scvm.isa import NUM_REGS
from scvm.machine import (
    HEAP_BASE,
    SYS_ALLOC,
    SYS_CHECK_USER_READ,
    SYS_CHECK_USER_WRITE,
    SYS_KCALL,
    SYS_OPEN,
    SYS_READ_NET,
    SYS_TAG_TAINT,
    SYS_TAG_UNTRUSTED_SOURCE,
    SchedulerPolicy,
)
from scvm.report import parse_manifest
from scvm.shadow import ShadowState, TagKind

from helpers import corpus_manifest_text, corpus_names, corpus_source, recorded_run

MINTED_BY = {
    SYS_ALLOC: TagKind.ALLOC_UNCHECKED,
    SYS_OPEN: TagKind.FD_UNCHECKED,
    SYS_READ_NET: TagKind.TAINTED,
}
CHECKED_BY = {
    SYS_CHECK_USER_READ: TagKind.USER_READ_CHECKED,
    SYS_CHECK_USER_WRITE: TagKind.USER_WRITE_CHECKED,
}


class ShadowModel:
    def __init__(self):
        self.tags = [set()]  # class id -> its tag set
        self.regs = {}  # (tid, reg) -> class id; absent is class 0
        self.mem = {}  # byte address -> class id; absent is class 0
        self.sources = []  # untrusted [lo, hi) ranges

    def new(self, tags) -> int:
        self.tags.append(set(tags))
        return len(self.tags) - 1

    def reg(self, tid, reg) -> int:
        return self.regs.get((tid, reg), 0)

    def merge(self, classes) -> int:
        """Combined cells: their one tagged class, else a new class
        holding the union of their tags."""
        tagged = list(dict.fromkeys(c for c in classes if self.tags[c]))
        if len(tagged) > 1:
            return self.new(set().union(*(self.tags[c] for c in tagged)))
        return tagged[0] if tagged else 0

    def value_class(self, e) -> int:
        """The class of the value a reg-write or mem-write carries."""
        kind, *arg = e.src
        if kind == "reg":
            return self.reg(e.tid, arg[0])
        if kind == "mem":
            addr, width = arg
            return self.merge(self.mem.get(a, 0) for a in range(addr, addr + width))
        if kind == "binop":
            op, rs, rt = arg
            a, b = self.reg(e.tid, rs), self.reg(e.tid, rt)
            if a == b and op in ("XOR", "SUB"):
                return 0
            return self.merge((a, b))
        if kind == "syscall" and arg[0] in MINTED_BY:
            return self.new({MINTED_BY[arg[0]]})
        return 0

    def on_event(self, e) -> None:
        if e.kind == "reg-write":
            self.regs[e.tid, e.reg] = self.value_class(e)
        elif e.kind == "mem-write":
            c = self.value_class(e)
            for a in range(e.addr, e.addr + e.width):
                self.mem[a] = c
        elif e.kind == "mem-read":
            untainted = [a for a in range(e.addr, e.addr + e.width)
                         if any(lo <= a < hi for lo, hi in self.sources)
                         and TagKind.TAINTED not in self.tags[self.mem.get(a, 0)]]
            if untainted:
                c = self.new({TagKind.TAINTED})
                for a in untainted:
                    self.mem[a] = c
        elif e.kind == "compare":
            tags = self.tags[self.reg(e.tid, e.rs)]
            if e.value == 0 and tags & {TagKind.ALLOC_UNCHECKED, TagKind.FD_UNCHECKED}:
                tags.add(TagKind.NULL_CHECKED)
        elif e.kind == "syscall":
            self.on_syscall(e)

    def on_syscall(self, e) -> None:
        r0 = self.reg(e.tid, 0)
        if e.sysno == SYS_KCALL:
            for reg in range(4):
                self.regs[e.tid, reg] = self.new({TagKind.USER_UNCHECKED})
        elif e.sysno in CHECKED_BY:
            if TagKind.USER_UNCHECKED in self.tags[r0]:
                self.tags[r0].add(CHECKED_BY[e.sysno])
        elif e.sysno == SYS_TAG_TAINT:
            if r0 == 0:
                self.regs[e.tid, 0] = self.new({TagKind.TAINTED})
            else:
                self.tags[r0].add(TagKind.TAINTED)
        elif e.sysno == SYS_TAG_UNTRUSTED_SOURCE and e.args[1] > 0:
            self.sources.append((e.args[0], e.args[0] + e.args[1]))


def assert_agree(shadow: ShadowState, model: ShadowModel, where: str) -> None:
    """Same tag set in every cell, and the same alias partition."""
    tids = set(shadow.reg_cells) | {tid for tid, _ in model.regs}
    cells = [("untagged", shadow.untagged, 0)]
    cells += [(f"r{r}@t{tid}", shadow.reg_object(tid, r), model.reg(tid, r))
              for tid in sorted(tids) for r in range(NUM_REGS)]
    cells += [(f"0x{a:04X}", shadow.mem_object(a), model.mem.get(a, 0))
              for a in sorted(set(shadow.mem_cells) | set(model.mem))]
    class_of, object_of = {}, {}
    for name, obj, c in cells:
        assert obj.tags == model.tags[c], (where, name)
        assert class_of.setdefault(obj, c) == c, (where, name, "object split across classes")
        assert object_of.setdefault(c, obj) is obj, (where, name, "class split across objects")


def assert_shadow_follows_the_model(image, policy, step_limit) -> int:
    """Replay one recorded run into both; returns the number of events."""
    _, events = recorded_run(image, policy, step_limit)
    shadow, model = ShadowState(), ShadowModel()
    for n, e in enumerate(events):
        shadow.on_event(e)
        model.on_event(e)
        assert_agree(shadow, model, f"event {n}: {e.kind} at pc 0x{e.pc:04X}")
    return len(events)


# -- random straight-line programs ------------------------------------------

# KCALL enters this handler, which checks r0 for reads and, through a
# fresh alias of r1, r1 for writes.
TRAP_PREAMBLE = "MOVI r0, handler\nSYS 18"
HANDLER = "handler: SYS 32\nMOV r0, r1\nSYS 33\nSYS 17"

# Few registers and few words, so that values meet: aliases, merges and
# checks through a copy.  Values are word addresses, so that most loads
# and stores are aligned, or 0.
_reg = st.integers(0, 5)
_word_addr = st.integers(0, 7).map(lambda i: HEAP_BASE + 4 * i)
_value = st.one_of(_word_addr, st.just(0))
_len = st.integers(0, 8)
_alu = st.sampled_from(["ADD", "SUB", "MUL", "AND", "OR", "XOR"])

# Each item is one instruction, or a syscall with the small operand it
# needs set first.  Word offsets stay aligned; byte offsets need not.
_item = st.one_of(
    st.tuples(_reg, _value).map(lambda a: "MOVI r%d, %d" % a),
    st.tuples(_reg, _reg).map(lambda a: "MOV r%d, r%d" % a),
    st.tuples(_reg, _reg, st.integers(0, 3)).map(lambda a: f"LD r{a[0]}, [r{a[1]}+{4 * a[2]}]"),
    st.tuples(_reg, _reg, st.integers(0, 11)).map(lambda a: "LDB r%d, [r%d+%d]" % a),
    st.tuples(_reg, st.integers(0, 3), _reg).map(lambda a: f"ST [r{a[0]}+{4 * a[1]}], r{a[2]}"),
    st.tuples(_reg, st.integers(0, 11), _reg).map(lambda a: "STB [r%d+%d], r%d" % a),
    st.tuples(_alu, _reg, _reg, _reg).map(lambda a: "%s r%d, r%d, r%d" % a),
    st.tuples(st.sampled_from(["XOR", "SUB"]), _reg, _reg).map(lambda a: "%s r%d, r%d, r%d" % (*a, a[2])),
    st.tuples(_alu, _reg, _reg, _reg).map(
        lambda a: "MOV r%d, r%d\n%s r%d, r%d, r%d" % (a[1], a[2], a[0], a[3], a[2], a[1])),
    st.tuples(_reg, st.sampled_from([0, 0, 1])).map(lambda a: "CMPI r%d, %d" % a),
    st.integers(1, 16).map(lambda n: f"MOVI r0, {n}\nSYS {SYS_ALLOC}"),
    st.just(f"SYS {SYS_OPEN}"),
    _len.map(lambda n: f"MOVI r1, {n}\nSYS {SYS_READ_NET}"),
    st.just(f"SYS {SYS_TAG_TAINT}"),
    st.just(f"SYS {SYS_KCALL}"),
    st.sampled_from([f"SYS {SYS_CHECK_USER_READ}", f"SYS {SYS_CHECK_USER_WRITE}"]),
    _len.map(lambda n: f"MOVI r1, {n}\nSYS {SYS_TAG_UNTRUSTED_SOURCE}"),
    st.tuples(_len, _reg).map(
        lambda a: f"MOVI r1, {a[0]}\nSYS {SYS_TAG_UNTRUSTED_SOURCE}\nLD r{a[1]}, [r0]"),
)


@settings(max_examples=200, deadline=None)
@given(
    prelude=st.lists(_value, min_size=NUM_REGS, max_size=NUM_REGS),
    body=st.lists(_item, min_size=10, max_size=40),
)
def test_shadow_follows_the_byte_model_on_random_programs(prelude, body):
    source = "\n".join([
        TRAP_PREAMBLE,
        *(f"MOVI r{r}, {v}" for r, v in enumerate(prelude)),
        *body,
        "HALT",
        HANDLER,
    ])
    assert_shadow_follows_the_model(assemble(source), SchedulerPolicy(), 400)


def test_shadow_follows_the_byte_model_on_the_corpus():
    """Threads, PRINTF and the shipped guests' own idioms."""
    for name in corpus_names():
        policy = parse_manifest(corpus_manifest_text(name)).policy
        assert assert_shadow_follows_the_model(assemble(corpus_source(name)), policy, 10_000)
