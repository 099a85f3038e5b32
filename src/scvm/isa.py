"""Instruction set definition and the fixed 8-byte binary encoding.

Every instruction occupies 8 bytes:

    byte 0      opcode
    byte 1      register pack: low nibble rd, high nibble rs
    byte 2      rt
    byte 3      reserved, always 0
    bytes 4-7   signed 32-bit immediate, little-endian

Unused register fields and immediates are 0 in well-formed instructions,
which makes decode(encode(i)) == i hold for everything the assembler can
produce.
"""

from __future__ import annotations

import enum
import operator
import struct
from dataclasses import dataclass

NUM_REGS = 8
MEMORY_SIZE = 65536
INSTR_SIZE = 8


class Opcode(enum.IntEnum):
    MOVI = 0x01
    MOV = 0x02
    LD = 0x10
    LDB = 0x11
    ST = 0x12
    STB = 0x13
    ADD = 0x20
    SUB = 0x21
    MUL = 0x22
    AND = 0x23
    OR = 0x24
    XOR = 0x25
    CMP = 0x30
    CMPI = 0x31
    BEQ = 0x40
    BNE = 0x41
    JMP = 0x42
    CALL = 0x43
    RET = 0x44
    SYS = 0x50
    CLI = 0x60
    STI = 0x61
    HALT = 0x7F


# Each ALU opcode and the operation it applies to its two register operands.
ALU_OPS = {
    Opcode.ADD: operator.add,
    Opcode.SUB: operator.sub,
    Opcode.MUL: operator.mul,
    Opcode.AND: operator.and_,
    Opcode.OR: operator.or_,
    Opcode.XOR: operator.xor,
}

_OPCODE_VALUES = {op.value for op in Opcode}

IMM_MIN = -(2**31)
IMM_MAX = 2**31 - 1


class DecodeError(ValueError):
    """Raised for encodings that do not correspond to an instruction."""


@dataclass(frozen=True)
class Instruction:
    opcode: Opcode
    rd: int = 0
    rs: int = 0
    rt: int = 0
    imm: int = 0


_WORD = struct.Struct("<BBBBi")


def pack_instruction(opcode: int, rd: int, rs: int, rt: int, imm: int) -> bytes:
    """The 8-byte form of an instruction's fields."""
    return _WORD.pack(opcode, (rs << 4) | rd, rt, 0, imm)


def encode(instr: Instruction) -> bytes:
    """Encode a well-formed instruction into its 8-byte form."""
    return pack_instruction(instr.opcode, instr.rd, instr.rs, instr.rt, instr.imm)


def decode(raw: bytes) -> Instruction:
    """Decode 8 bytes into an Instruction.

    Raises DecodeError for an unknown opcode byte or a register field
    above 7.
    """
    if len(raw) < INSTR_SIZE:
        raise DecodeError(f"need {INSTR_SIZE} bytes, got {len(raw)}")
    opbyte, regpack, rt, _reserved, imm = _WORD.unpack(raw[:INSTR_SIZE])
    if opbyte not in _OPCODE_VALUES:
        raise DecodeError(f"unknown opcode byte 0x{opbyte:02x}")
    rd = regpack & 0x0F
    rs = regpack >> 4
    for name, val in (("rd", rd), ("rs", rs), ("rt", rt)):
        if val >= NUM_REGS:
            raise DecodeError(f"register field {name}={val} out of range 0..7")
    return Instruction(Opcode(opbyte), rd=rd, rs=rs, rt=rt, imm=imm)
