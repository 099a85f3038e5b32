"""Two-pass assembler and the loadable image container.

Source format: one instruction or directive per line, `;` starts a
comment, `label:` prefixes a line.  Directives: `.org N`, `.word N`,
`.asciiz "s"` (appends the terminating NUL).  Immediates may be decimal,
0x-hex, a 'c' character literal, or a label name.

Layout rules the loader and interpreter rely on:
  * instructions are padded to 8-byte offsets from the image origin
  * .word data is padded to 4-byte addresses
  * the entry point is the first assembled instruction (the origin if
    the program contains no instructions is rejected as unprogram-like)
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field

from .isa import (
    ALU_OPS,
    IMM_MAX,
    IMM_MIN,
    INSTR_SIZE,
    MEMORY_SIZE,
    NUM_REGS,
    Instruction,
    Opcode,
    encode,
)

IMAGE_MAGIC = b"SCVM"
IMAGE_VERSION = 1

_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_MEM_RE = re.compile(r"^\[\s*[rR]([0-7])\s*(?:([+-])\s*(.+?)\s*)?\]$")


class AsmError(Exception):
    """Assembly failure, carrying the 1-based source line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno
        self.message = message


class ImageError(ValueError):
    """Malformed image container or violated image invariant."""


@dataclass(frozen=True)
class ProgramImage:
    origin: int
    payload: bytes
    entry: int
    symbols: dict[str, int] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.origin + len(self.payload) > MEMORY_SIZE:
            raise ImageError("image overflows guest memory")
        if not (self.origin <= self.entry < self.origin + len(self.payload)):
            raise ImageError("entry point outside image")

    @property
    def end(self) -> int:
        return self.origin + len(self.payload)

    def to_bytes(self) -> bytes:
        header = IMAGE_MAGIC + bytes([IMAGE_VERSION])
        header += struct.pack("<III", self.origin, self.entry, len(self.payload))
        return header + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProgramImage":
        if data[:4] != IMAGE_MAGIC:
            raise ImageError("bad magic, not an SCVM image")
        if len(data) < 17:
            raise ImageError("truncated image header")
        if data[4] != IMAGE_VERSION:
            raise ImageError(f"unsupported image version {data[4]}")
        origin, entry, length = struct.unpack("<III", data[5:17])
        payload = data[17 : 17 + length]
        if len(payload) != length:
            raise ImageError("truncated image payload")
        return cls(origin=origin, payload=payload, entry=entry)


def write_image(image: ProgramImage, path) -> None:
    with open(path, "wb") as fh:
        fh.write(image.to_bytes())


def read_image(path) -> ProgramImage:
    with open(path, "rb") as fh:
        return ProgramImage.from_bytes(fh.read())


# Operand slot kinds per mnemonic, in source order.
_SIGNATURES: dict[Opcode, tuple[str, ...]] = {
    Opcode.MOVI: ("rd", "imm"),
    Opcode.MOV: ("rd", "rs"),
    Opcode.LD: ("rd", "mem"),
    Opcode.LDB: ("rd", "mem"),
    Opcode.ST: ("mem", "rt"),
    Opcode.STB: ("mem", "rt"),
    Opcode.CMP: ("rs", "rt"),
    Opcode.CMPI: ("rs", "imm"),
    Opcode.BEQ: ("imm",),
    Opcode.BNE: ("imm",),
    Opcode.JMP: ("imm",),
    Opcode.CALL: ("imm",),
    Opcode.RET: (),
    Opcode.SYS: ("imm",),
    Opcode.CLI: (),
    Opcode.STI: (),
    Opcode.HALT: (),
}
for _op in ALU_OPS:
    _SIGNATURES[_op] = ("rd", "rs", "rt")

_MNEMONICS = {op.name: op for op in Opcode}

_CHAR_ESCAPES = {"n": 10, "t": 9, "0": 0, "\\": 92, "'": 39, '"': 34}


@dataclass
class _Line:
    lineno: int
    labels: list[str]
    kind: str  # "instr", "org", "word", "asciiz" or "empty"
    mnemonic: Opcode | None = None
    operands: list[str] = field(default_factory=list)
    data: bytes = b""
    value: str = ""


def _strip_comment(text: str) -> str:
    out = []
    in_str = False
    escaped = False
    for ch in text:
        if in_str:
            out.append(ch)
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_str = False
            continue
        if ch == ";":
            break
        if ch == '"':
            in_str = True
        out.append(ch)
    return "".join(out)


def _split_operands(text: str) -> list[str]:
    """Split on commas that sit outside quotes and brackets."""
    parts = []
    depth = 0
    in_str = False
    escaped = False
    cur = []
    for ch in text:
        if in_str:
            cur.append(ch)
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_str = False
            continue
        if ch == '"':
            in_str = True
            cur.append(ch)
        elif ch == "[":
            depth += 1
            cur.append(ch)
        elif ch == "]":
            depth -= 1
            cur.append(ch)
        elif ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    last = "".join(cur).strip()
    if last or parts:
        parts.append(last)
    return parts


def _parse_string(lineno: int, text: str) -> bytes:
    text = text.strip()
    if len(text) < 2 or text[0] != '"' or text[-1] != '"':
        raise AsmError(lineno, f"expected quoted string, got {text!r}")
    body = text[1:-1]
    out = bytearray()
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            i += 1
            if i >= len(body):
                raise AsmError(lineno, "dangling escape in string")
            esc = body[i]
            if esc not in _CHAR_ESCAPES:
                raise AsmError(lineno, f"unknown string escape \\{esc}")
            out.append(_CHAR_ESCAPES[esc])
        else:
            out.append(ord(ch))
        i += 1
    return bytes(out)


def _parse_lines(source: str) -> list[_Line]:
    lines = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        text = _strip_comment(raw).strip()
        labels = []
        while True:
            m = re.match(r"^([A-Za-z_][A-Za-z0-9_]*)\s*:\s*", text)
            if not m:
                break
            labels.append(m.group(1))
            text = text[m.end() :]
        if not text:
            lines.append(_Line(lineno, labels, "empty"))
            continue
        parts = text.split(None, 1)
        head = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if head.startswith("."):
            directive = head.lower()
            if directive == ".org":
                lines.append(_Line(lineno, labels, "org", value=rest.strip()))
            elif directive == ".word":
                lines.append(_Line(lineno, labels, "word", value=rest.strip()))
            elif directive == ".asciiz":
                data = _parse_string(lineno, rest) + b"\x00"
                lines.append(_Line(lineno, labels, "asciiz", data=data))
            else:
                raise AsmError(lineno, f"unknown directive {head}")
            continue
        mnemonic = _MNEMONICS.get(head.upper())
        if mnemonic is None:
            raise AsmError(lineno, f"unknown mnemonic {head!r}")
        operands = _split_operands(rest)
        lines.append(_Line(lineno, labels, "instr", mnemonic=mnemonic, operands=operands))
    return lines


def _parse_numeric(lineno: int, token: str) -> int:
    token = token.strip()
    if len(token) >= 3 and token[0] == "'" and token[-1] == "'":
        body = token[1:-1]
        if len(body) == 2 and body[0] == "\\":
            if body[1] not in _CHAR_ESCAPES:
                raise AsmError(lineno, f"unknown character escape {body!r}")
            return _CHAR_ESCAPES[body[1]]
        if len(body) == 1:
            return ord(body)
        raise AsmError(lineno, f"malformed character literal {token!r}")
    neg = token.startswith("-")
    mag = token[1:] if neg else token
    try:
        if mag.lower().startswith("0x"):
            value = int(mag, 16)
        else:
            value = int(mag, 10)
    except ValueError:
        raise AsmError(lineno, f"malformed operand {token!r}") from None
    return -value if neg else value


def _check_imm_range(lineno: int, value: int) -> int:
    # Accept the unsigned spellings of negative words (0xFFFFFFFF == -1).
    if IMM_MAX < value <= 2**32 - 1:
        value -= 2**32
    if not (IMM_MIN <= value <= IMM_MAX):
        raise AsmError(lineno, f"immediate {value} out of signed 32-bit range")
    return value


def _resolve_imm(lineno: int, token: str, symbols: dict[str, int] | None) -> int:
    token = token.strip()
    if _LABEL_RE.match(token) and token.upper() not in _MNEMONICS:
        if symbols is None:
            return 0  # pass 1: size does not depend on the value
        if token not in symbols:
            raise AsmError(lineno, f"undefined label {token!r}")
        return symbols[token]
    return _check_imm_range(lineno, _parse_numeric(lineno, token))


def _parse_reg(lineno: int, token: str) -> int:
    token = token.strip()
    m = re.match(r"^[rR]([0-9]+)$", token)
    if not m:
        raise AsmError(lineno, f"expected register, got {token!r}")
    idx = int(m.group(1))
    if idx >= NUM_REGS:
        raise AsmError(lineno, f"register r{idx} out of range 0..7")
    return idx


def _parse_mem(lineno: int, token: str, symbols: dict[str, int] | None) -> tuple[int, int]:
    m = _MEM_RE.match(token.strip())
    if not m:
        raise AsmError(lineno, f"expected [rN+imm] operand, got {token!r}")
    base = int(m.group(1))
    offset = 0
    if m.group(3) is not None:
        offset = _resolve_imm(lineno, m.group(3), symbols)
        if m.group(2) == "-":
            offset = -offset
    return base, _check_imm_range(lineno, offset)


def _build_instruction(line: _Line, symbols: dict[str, int] | None) -> Instruction:
    sig = _SIGNATURES[line.mnemonic]
    if len(line.operands) != len(sig):
        raise AsmError(
            line.lineno,
            f"{line.mnemonic.name} takes {len(sig)} operand(s), got {len(line.operands)}",
        )
    fields = {"rd": 0, "rs": 0, "rt": 0, "imm": 0}
    for slot, token in zip(sig, line.operands):
        if slot in ("rd", "rs", "rt"):
            fields[slot] = _parse_reg(line.lineno, token)
        elif slot == "imm":
            fields["imm"] = _resolve_imm(line.lineno, token, symbols)
        elif slot == "mem":
            base, offset = _parse_mem(line.lineno, token, symbols)
            fields["rs"] = base
            fields["imm"] = offset
    return Instruction(line.mnemonic, **fields)


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) & ~(align - 1)


class _Layout:
    """Shared pass-1/pass-2 walk: assigns addresses, optionally emits bytes."""

    def __init__(self, lines: list[_Line], symbols: dict[str, int] | None):
        self.lines = lines
        self.symbols = symbols  # None during pass 1
        self.origin: int | None = None
        self.loc = 0
        self.entry: int | None = None
        self.label_addrs: dict[str, int] = {}
        self.chunks: list[tuple[int, bytes]] = []
        self.pending_labels: list[tuple[int, str]] = []

    def _start(self, lineno: int, addr: int | None = None):
        if self.origin is None:
            self.origin = self.loc = 0 if addr is None else addr

    def _bind_labels(self, addr: int):
        for lineno, name in self.pending_labels:
            if name in self.label_addrs:
                raise AsmError(lineno, f"duplicate label {name!r}")
            self.label_addrs[name] = addr
        self.pending_labels.clear()

    def _emit(self, lineno: int, data: bytes, align: int) -> int:
        self._start(lineno)
        addr = _align_up(self.loc, align) if align > 1 else self.loc
        if addr + len(data) > MEMORY_SIZE:
            raise AsmError(lineno, "program exceeds guest memory")
        self._bind_labels(addr)
        if self.symbols is not None and data:
            self.chunks.append((addr, data))
        self.loc = addr + len(data)
        return addr

    def run(self):
        for line in self.lines:
            for name in line.labels:
                self.pending_labels.append((line.lineno, name))
            if line.kind == "empty":
                continue
            if line.kind == "org":
                target = _check_imm_range(line.lineno, _parse_numeric(line.lineno, line.value))
                if target < 0 or target >= MEMORY_SIZE:
                    raise AsmError(line.lineno, f".org 0x{target & 0xFFFFFFFF:x} outside memory")
                if self.origin is None:
                    if target % INSTR_SIZE != 0:
                        raise AsmError(line.lineno, ".org origin must be 8-byte aligned")
                    self._start(line.lineno, target)
                elif target < self.loc:
                    raise AsmError(line.lineno, ".org cannot move backwards")
                else:
                    self.loc = target
                continue
            if line.kind == "word":
                value = _resolve_imm(line.lineno, line.value, self.symbols)
                self._emit(line.lineno, struct.pack("<I", value & 0xFFFFFFFF), align=4)
                continue
            if line.kind == "asciiz":
                self._emit(line.lineno, line.data, align=1)
                continue
            # instruction
            instr = _build_instruction(line, self.symbols)
            self._start(line.lineno)
            rel = _align_up(self.loc - self.origin, INSTR_SIZE)
            self.loc = self.origin + rel
            addr = self._emit(line.lineno, encode(instr), align=1)
            if self.entry is None:
                self.entry = addr
        # trailing labels land on the current location counter
        if self.pending_labels:
            self._start(self.pending_labels[0][0])
            self._bind_labels(self.loc)


def assemble(source: str) -> ProgramImage:
    """Assemble source text into a loadable image.

    Two passes: the first computes the address of every label, the
    second encodes with the symbol table filled in.  Raises AsmError
    (with the offending line number) on any malformed input.
    """
    lines = _parse_lines(source)

    pass1 = _Layout(lines, symbols=None)
    pass1.run()
    if pass1.origin is None or pass1.loc == pass1.origin:
        raise AsmError(len(source.splitlines()) or 1, "program assembles to no bytes")
    symbols = pass1.label_addrs

    pass2 = _Layout(lines, symbols=symbols)
    pass2.run()
    if pass2.label_addrs != symbols:
        # Cannot happen: sizes are operand-independent.  Guard anyway.
        raise AsmError(1, "label addresses unstable between passes")

    if pass2.entry is None:
        raise AsmError(lines[-1].lineno if lines else 1, "program contains no instructions")
    payload = bytearray(pass2.loc - pass2.origin)
    for addr, data in pass2.chunks:
        off = addr - pass2.origin
        payload[off : off + len(data)] = data
    return ProgramImage(
        origin=pass2.origin,
        payload=bytes(payload),
        entry=pass2.entry,
        symbols=dict(symbols),
    )
