import random

import pytest
from hypothesis import given, strategies as st

from scvm.asm import assemble
from scvm.isa import (
    IMM_MAX,
    IMM_MIN,
    INSTR_SIZE,
    DecodeError,
    Instruction,
    Opcode,
    decode,
    encode,
)
from scvm.machine import load

# Opcodes and their register/immediate usage, for building random
# well-formed instructions.
THREE_REG = [Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR]


def test_halt_encodes_to_opcode_and_zeros():
    raw = encode(Instruction(Opcode.HALT))
    assert len(raw) == INSTR_SIZE
    assert raw[0] == Opcode.HALT.value
    assert raw[1:] == bytes(7)


def test_movi_imm_is_little_endian():
    raw = encode(Instruction(Opcode.MOVI, rd=1, imm=5))
    assert raw[4:8] == bytes([5, 0, 0, 0])


def test_cmpi_negative_imm_twos_complement():
    raw = encode(Instruction(Opcode.CMPI, rs=3, imm=-1))
    assert raw[4:8] == bytes([0xFF, 0xFF, 0xFF, 0xFF])


def test_mov_round_trip():
    instr = Instruction(Opcode.MOV, rd=2, rs=1)
    assert decode(encode(instr)) == instr


def test_unknown_opcode_byte_is_decode_error():
    with pytest.raises(DecodeError):
        decode(bytes([0xFF]) + bytes(7))


def test_short_buffer_is_decode_error():
    with pytest.raises(DecodeError):
        decode(bytes(4))


def test_width_by_opcode():
    """LD/ST move a word and LDB/STB a byte, as their memory events say."""
    machine = load(assemble("""
        MOVI r1, 0x8000
        LD r2, [r1]
        ST [r1], r2
        LDB r2, [r1]
        STB [r1], r2
        HALT"""))
    events = []
    machine.add_observer(events.append)
    machine.run()
    assert [(e.kind, e.width) for e in events if e.kind.startswith("mem-")] == [
        ("mem-read", 4),
        ("mem-write", 4),
        ("mem-read", 1),
        ("mem-write", 1),
    ]


def _random_instruction(rng: random.Random) -> Instruction:
    op = rng.choice(list(Opcode))
    kw = {}
    if op in THREE_REG:
        kw = dict(rd=rng.randrange(8), rs=rng.randrange(8), rt=rng.randrange(8))
    elif op in (Opcode.MOV,):
        kw = dict(rd=rng.randrange(8), rs=rng.randrange(8))
    elif op in (Opcode.LD, Opcode.LDB):
        kw = dict(rd=rng.randrange(8), rs=rng.randrange(8), imm=rng.randint(IMM_MIN, IMM_MAX))
    elif op in (Opcode.ST, Opcode.STB):
        kw = dict(rs=rng.randrange(8), rt=rng.randrange(8), imm=rng.randint(IMM_MIN, IMM_MAX))
    elif op == Opcode.MOVI:
        kw = dict(rd=rng.randrange(8), imm=rng.randint(IMM_MIN, IMM_MAX))
    elif op == Opcode.CMP:
        kw = dict(rs=rng.randrange(8), rt=rng.randrange(8))
    elif op == Opcode.CMPI:
        kw = dict(rs=rng.randrange(8), imm=rng.randint(IMM_MIN, IMM_MAX))
    elif op in (Opcode.BEQ, Opcode.BNE, Opcode.JMP, Opcode.CALL, Opcode.SYS):
        kw = dict(imm=rng.randint(IMM_MIN, IMM_MAX))
    return Instruction(op, **kw)


def test_round_trip_10000_random_instructions():
    # The inverse property is the oracle: decode must undo encode.
    rng = random.Random(0xC0FFEE)
    for _ in range(10_000):
        instr = _random_instruction(rng)
        assert decode(encode(instr)) == instr


@given(
    op=st.sampled_from(THREE_REG),
    rd=st.integers(0, 7),
    rs=st.integers(0, 7),
    rt=st.integers(0, 7),
)
def test_alu_round_trip_property(op, rd, rs, rt):
    instr = Instruction(op, rd=rd, rs=rs, rt=rt)
    assert decode(encode(instr)) == instr


@given(imm=st.integers(IMM_MIN, IMM_MAX), rd=st.integers(0, 7))
def test_movi_round_trip_property(imm, rd):
    instr = Instruction(Opcode.MOVI, rd=rd, imm=imm)
    assert decode(encode(instr)) == instr


def test_register_field_out_of_range_is_decode_error():
    # rd/rs live packed in byte 1; forge rs=8 (high nibble).
    raw = bytearray(encode(Instruction(Opcode.MOV, rd=1, rs=2)))
    raw[1] = (8 << 4) | 1
    with pytest.raises(DecodeError):
        decode(bytes(raw))
