"""One-walk assembler and the loadable image container.

Source format: one instruction or directive per line, `;` starts a
comment, `label:` prefixes a line.  Directives: `.org N`, `.word N`,
`.asciiz "s"` (appends the terminating NUL).  Immediates may be decimal
or 0x-hex digits after an optional `-`, a 'c' character literal (any
one character, `;` `,` `"` and brackets included, or a backslash
escape), or a label name.

The parse gives each line a `.org` target or a builder of its bytes.
One walk moves the location counter or places the bytes each builder
makes; a label immediate leaves a fixup, patched once labels are bound.
A plain instruction line (no literal, registers r0-r7, decimal, hex or
label immediates) is read through its signature's compiled pattern;
lines with literals, and every error, go through the tokenizer and the
general operand parser.

Layout rules the loader and interpreter rely on:
  * instructions are padded to 8-byte offsets from the image origin
  * .word data is padded to 4-byte addresses
  * the entry point is the first assembled instruction (the origin if
    the program contains no instructions is rejected as unprogram-like)
"""

from __future__ import annotations

import functools
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
    Opcode,
    pack_instruction,
)

IMAGE_MAGIC = b"SCVM"
IMAGE_VERSION = 1
# magic, version, origin, entry, payload length; the payload follows
_HEADER = struct.Struct("<4sBIII")

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NUMBER = r"0[xX][0-9A-Fa-f]+|[0-9]+"  # an immediate's magnitude
_LABEL_RE = re.compile(rf"^{_NAME}$")
_NUMBER_RE = re.compile(_NUMBER)
_REG_RE = re.compile(r"^[rR]([0-9]+)$")
_LABEL_DEF_RE = re.compile(rf"^({_NAME})\s*:\s*")
_MEM_RE = re.compile(r"^\[\s*(\w+)\s*(?:([+-])\s*(.+?)\s*)?\]$")

# One line's tokens: a string literal (an unterminated one runs to the
# end of the line), a char literal, a comment, a comma, a bracketed
# operand (which may hold literals, and runs to the end of the line or
# a comment when unclosed), or anything else.
_STRING = r'"(?:[^"\\]|\\.)*"?'
_CHAR = r"'(?:\\.|[^\\])'"
_TOKEN_RE = re.compile(
    rf"{_STRING}|{_CHAR}|;.*|,|\[(?:{_STRING}|{_CHAR}|[^\];\"])*\]?|[^\"',;\[]+|."
)


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
        header = _HEADER.pack(IMAGE_MAGIC, IMAGE_VERSION, self.origin, self.entry, len(self.payload))
        return header + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProgramImage":
        if data[:4] != IMAGE_MAGIC:
            raise ImageError("bad magic, not an SCVM image")
        if len(data) < _HEADER.size:
            raise ImageError("truncated image header")
        _, version, origin, entry, length = _HEADER.unpack_from(data)
        if version != IMAGE_VERSION:
            raise ImageError(f"unsupported image version {version}")
        payload = data[_HEADER.size : _HEADER.size + length]
        if len(payload) != length:
            raise ImageError("truncated image payload")
        return cls(origin=origin, payload=payload, entry=entry)


def write_image(image: ProgramImage, path) -> None:
    with open(path, "wb") as fh:
        fh.write(image.to_bytes())


def read_image(path) -> ProgramImage:
    with open(path, "rb") as fh:
        return ProgramImage.from_bytes(fh.read())


def read_utf8(path) -> str:
    """A source or manifest file's text; one not in UTF-8 is an OSError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


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

# Each signature's plain spelling, one named group per field: an operand
# that fits these reads the same as through the general parser.
_IMM = rf"-?(?:{_NUMBER})|{_NAME}"
_PLAIN_SLOTS = {
    **{reg: rf"[rR](?P<{reg}>[0-7])" for reg in ("rd", "rs", "rt")},
    "imm": rf"(?P<imm>{_IMM})",
    "mem": rf"\[\s*[rR](?P<rs>[0-7])\s*(?:(?P<sign>[+-])\s*(?P<imm>{_IMM})\s*)?\]",
}
_PLAIN = {
    sig: re.compile(r"\s*,\s*".join(_PLAIN_SLOTS[slot] for slot in sig))
    for sig in set(_SIGNATURES.values())
}

_MNEMONICS = {op.name: op for op in Opcode}

_CHAR_ESCAPES = {"n": 10, "t": 9, "0": 0, "\\": 92, "'": 39, '"': 34}


def _split_operands(text: str) -> list[str]:
    """Split on the commas that sit outside literals and brackets."""
    parts = [""]
    for token in _TOKEN_RE.findall(text):
        if token == ",":
            parts.append("")
        else:
            parts[-1] += token
    parts = [part.strip() for part in parts]
    return parts if parts != [""] else []


def _byte(lineno: int, ch: str) -> int:
    """A literal character as one guest byte; above U+00FF there is none."""
    code = ord(ch)
    if code > 0xFF:
        raise AsmError(lineno, f"character {ch!r} (U+{code:04X}) does not fit in a byte")
    return code


def _parse_string(lineno: int, text: str) -> bytes:
    text = text.strip()
    if len(text) < 2 or text[0] != '"' or text[-1] != '"':
        raise AsmError(lineno, f"expected quoted string, got {text!r}")
    out = bytearray()
    for esc, ch in re.findall(r"(?s)\\(.?)|(.)", text[1:-1]):
        if ch:
            out.append(_byte(lineno, ch))
        elif not esc:
            raise AsmError(lineno, "dangling escape in string")
        elif esc not in _CHAR_ESCAPES:
            raise AsmError(lineno, f"unknown string escape \\{esc}")
        else:
            out.append(_CHAR_ESCAPES[esc])
    return bytes(out)


def _parse_lines(source: str) -> list[tuple]:
    """(lineno, labels, org, build) per line: (lineno, name) labels, a .org's text."""
    lines = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        if '"' in raw or "'" in raw:
            tokens = _TOKEN_RE.findall(raw)
            if tokens and tokens[-1][0] == ";":
                tokens.pop()  # the comment
            raw = "".join(tokens)
        else:  # only a literal can hold a `;` that starts no comment
            raw = raw.split(";", 1)[0]
        text = raw.strip()
        labels = []
        while True:
            m = _LABEL_DEF_RE.match(text)
            if not m:
                break
            labels.append((lineno, m.group(1)))
            text = text[m.end() :]
        org = build = None
        if text:
            parts = text.split(None, 1)
            head = parts[0]
            rest = parts[1] if len(parts) > 1 else ""
            directive = head.lower()
            if directive == ".org":
                org = rest
            elif directive == ".word":
                build = functools.partial(_word, lineno, rest)
            elif directive == ".asciiz":
                build = functools.partial(_bytes, _parse_string(lineno, rest) + b"\x00")
            elif head.startswith("."):
                raise AsmError(lineno, f"unknown directive {head}")
            elif head.upper() in _MNEMONICS:
                build = functools.partial(_instruction, lineno, _MNEMONICS[head.upper()], rest)
            else:
                raise AsmError(lineno, f"unknown mnemonic {head!r}")
        lines.append((lineno, labels, org, build))
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
            return _byte(lineno, body)
        raise AsmError(lineno, f"malformed character literal {token!r}")
    neg = token.startswith("-")
    mag = token[1:] if neg else token
    if not _NUMBER_RE.fullmatch(mag):
        raise AsmError(lineno, f"malformed operand {token!r}")
    value = int(mag, 16) if mag[:2] in ("0x", "0X") else int(mag, 10)
    return -value if neg else value


def _check_imm_range(lineno: int, value: int) -> int:
    # Accept the unsigned spellings of negative words (0xFFFFFFFF == -1).
    if IMM_MAX < value <= 2**32 - 1:
        value -= 2**32
    if not (IMM_MIN <= value <= IMM_MAX):
        raise AsmError(lineno, f"immediate {value} out of signed 32-bit range")
    return value


def _resolve_imm(lineno: int, token: str, refs: list, sign: int = 1) -> int:
    """The immediate's value.  A label reads 0 here and goes on `refs`
    with its sign, to be patched in once the walk has bound every label."""
    token = token.strip()
    if _LABEL_RE.match(token) and token.upper() not in _MNEMONICS:
        refs.append((token, sign))
        return 0
    return _check_imm_range(lineno, _parse_numeric(lineno, token))


def _parse_reg(lineno: int, token: str) -> int:
    token = token.strip()
    m = _REG_RE.match(token)
    if not m:
        raise AsmError(lineno, f"expected register, got {token!r}")
    idx = int(m.group(1))
    if idx >= NUM_REGS:
        raise AsmError(lineno, f"register r{idx} out of range 0..7")
    return idx


def _parse_mem(lineno: int, token: str, refs: list) -> tuple[int, int]:
    m = _MEM_RE.match(token.strip())
    if not m:
        raise AsmError(lineno, f"expected [rN+imm] operand, got {token!r}")
    return _parse_reg(lineno, m.group(1)), _offset(lineno, m.group(2), m.group(3), refs)


def _offset(lineno: int, sign: str | None, token: str | None, refs: list) -> int:
    """`token`'s value, negated when `sign` is "-"; no token is 0."""
    if token is None:
        return 0
    factor = -1 if sign == "-" else 1
    return _check_imm_range(lineno, factor * _resolve_imm(lineno, token, refs, factor))


# A line's builder, build(refs), parses its operands, puts each label they
# name on refs as (label, sign) and returns (data, alignment, offset of
# the immediate in data).
def _word(lineno: int, text: str, refs: list) -> tuple[bytes, int, int]:
    value = _resolve_imm(lineno, text, refs)
    return struct.pack("<I", value & 0xFFFFFFFF), 4, 0


def _bytes(data: bytes, refs: list) -> tuple[bytes, int, int]:
    return data, 1, 0


def _instruction(lineno: int, op: Opcode, text: str, refs: list) -> tuple[bytes, int, int]:
    m = _PLAIN[_SIGNATURES[op]].fullmatch(text)
    if m is None:
        fields = _parse_operands(lineno, op, text, refs)
    else:
        g = m.groupdict()
        fields = (int(g.get("rd", 0)), int(g.get("rs", 0)), int(g.get("rt", 0)),
                  _offset(lineno, g.get("sign"), g.get("imm"), refs))
    # The origin is 8-byte aligned, so this is an 8-byte offset from it.
    return pack_instruction(op, *fields), INSTR_SIZE, 4


def _parse_operands(lineno: int, op: Opcode, text: str, refs: list) -> tuple[int, ...]:
    """(rd, rs, rt, imm) of any spelling of `op`'s operands, or the AsmError."""
    sig, operands = _SIGNATURES[op], _split_operands(text)
    if len(operands) != len(sig):
        raise AsmError(lineno, f"{op.name} takes {len(sig)} operand(s), got {len(operands)}")
    fields = {"rd": 0, "rs": 0, "rt": 0, "imm": 0}
    for slot, token in zip(sig, operands):
        if slot in ("rd", "rs", "rt"):
            fields[slot] = _parse_reg(lineno, token)
        elif slot == "imm":
            fields["imm"] = _resolve_imm(lineno, token, refs)
        elif slot == "mem":
            fields["rs"], fields["imm"] = _parse_mem(lineno, token, refs)
    return tuple(fields.values())


def assemble(source: str) -> ProgramImage:
    """Assemble source text into a loadable image.

    One walk over the parsed lines lays out every byte and binds every
    label; the label immediates are patched after it.  Raises AsmError
    (with the offending line number) on any malformed input.
    """
    lines = _parse_lines(source)
    memory = bytearray(MEMORY_SIZE)
    origin = entry = None
    loc = 0
    symbols: dict[str, int] = {}
    pending: list[tuple[int, str]] = []  # (lineno, label) bound at the next address
    fixups: list[tuple[int, str, int, int]] = []  # (lineno, label, sign, field address)

    def bind(addr: int) -> None:
        for lineno, name in pending:
            if name in symbols:
                raise AsmError(lineno, f"duplicate label {name!r}")
            symbols[name] = addr
        pending.clear()

    for lineno, labels, org, build in lines:
        pending += labels
        if org is not None:
            target = _check_imm_range(lineno, _parse_numeric(lineno, org))
            if target < 0 or target >= MEMORY_SIZE:
                raise AsmError(lineno, f".org 0x{target & 0xFFFFFFFF:x} outside memory")
            if origin is None:
                if target % INSTR_SIZE != 0:
                    raise AsmError(lineno, ".org origin must be 8-byte aligned")
                origin = target
            elif target < loc:
                raise AsmError(lineno, ".org cannot move backwards")
            loc = target
        elif build is not None:
            refs = []
            data, align, field_at = build(refs)
            if origin is None:
                origin = 0
            addr = (loc + align - 1) & -align
            if addr + len(data) > MEMORY_SIZE:
                raise AsmError(lineno, "program exceeds guest memory")
            if pending:
                bind(addr)
            memory[addr : addr + len(data)] = data
            loc = addr + len(data)
            for name, sign in refs:
                fixups.append((lineno, name, sign, addr + field_at))
            if entry is None and align == INSTR_SIZE:  # only instructions align so
                entry = addr
    bind(loc)  # trailing labels land on the current location counter
    if origin is None or loc == origin:
        raise AsmError(len(lines) or 1, "program assembles to no bytes")
    for lineno, name, sign, at in fixups:
        if name not in symbols:
            raise AsmError(lineno, f"undefined label {name!r}")
        struct.pack_into("<I", memory, at, sign * symbols[name] & 0xFFFFFFFF)
    if entry is None:
        raise AsmError(len(lines), "program contains no instructions")
    return ProgramImage(
        origin=origin,
        payload=bytes(memory[origin:loc]),
        entry=entry,
        symbols=symbols,
    )
