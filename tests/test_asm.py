import pytest
from hypothesis import example, given, settings, strategies as st

from scvm.asm import (
    AsmError,
    ImageError,
    ProgramImage,
    _PLAIN,
    _SIGNATURES,
    _instruction,
    _parse_lines,
    _parse_operands,
    assemble,
    read_image,
    write_image,
)
from scvm.corpus import discover, shipped_dir
from scvm.isa import INSTR_SIZE, Instruction, Opcode, decode, pack_instruction


def decode_all(image: ProgramImage):
    """Decode the instruction stream of a code-only image."""
    out = []
    for off in range(0, len(image.payload), INSTR_SIZE):
        out.append(decode(image.payload[off : off + INSTR_SIZE]))
    return out


def test_two_instruction_program():
    image = assemble("MOVI r1, 5\nHALT")
    assert decode_all(image) == [
        Instruction(Opcode.MOVI, rd=1, imm=5),
        Instruction(Opcode.HALT),
    ]
    assert image.origin == 0
    assert image.entry == 0


def test_asciiz_appends_nul():
    image = assemble('.asciiz "%s"\nHALT')
    assert image.payload[:3] == bytes([0x25, 0x73, 0x00])


def test_label_resolves_to_absolute_address():
    # Hand-resolved: JMP sits at 0, HALT at 8, so the immediate is 8.
    image = assemble("JMP end\nend: HALT")
    jmp = decode(image.payload[:8])
    assert jmp.opcode == Opcode.JMP
    assert jmp.imm == 8
    assert image.symbols["end"] == 8


def test_undefined_label_names_line():
    with pytest.raises(AsmError) as exc:
        assemble("MOVI r1, 5\nJMP nowhere\n")
    assert exc.value.lineno == 2
    assert "nowhere" in str(exc.value)


def test_duplicate_label_rejected():
    with pytest.raises(AsmError) as exc:
        assemble("a: HALT\na: HALT")
    assert exc.value.lineno == 2


def test_imm_out_of_range():
    with pytest.raises(AsmError):
        assemble("MOVI r1, 4294967296")  # 2**32
    with pytest.raises(AsmError):
        assemble("MOVI r1, -2147483649")


def test_unsigned_spelling_of_negative_imm():
    image = assemble("MOVI r1, 0xFFFFFFFF\nHALT")
    assert decode_all(image)[0].imm == -1


def test_malformed_operand_names_line():
    with pytest.raises(AsmError) as exc:
        assemble("HALT\nMOVI r1, fish+1")
    assert exc.value.lineno == 2


def test_wrong_operand_count():
    with pytest.raises(AsmError):
        assemble("MOV r1")
    with pytest.raises(AsmError):
        assemble("HALT r1")


def test_register_out_of_range():
    with pytest.raises(AsmError):
        assemble("MOVI r9, 1")


def test_unknown_mnemonic_and_directive():
    with pytest.raises(AsmError):
        assemble("FROB r1")
    with pytest.raises(AsmError):
        assemble(".align 8")


def test_char_immediates():
    image = assemble("MOVI r1, 'A'\nMOVI r2, '\\n'\nMOVI r3, '\\0'\nHALT")
    instrs = decode_all(image)
    assert [i.imm for i in instrs[:3]] == [65, 10, 0]
    # A char literal may hold the characters that delimit comments,
    # operands and strings.
    image = assemble("MOVI r0, ';'\nMOVI r0, ','\nMOVI r0, '\"' ; note\nHALT")
    assert [i.imm for i in decode_all(image)[:3]] == [59, 44, 34]


@pytest.mark.parametrize(
    "source", ['HALT\n.asciiz "a\u20acb"', "HALT\nMOVI r1, '\u20ac'"], ids=["asciiz", "char"]
)
def test_character_above_a_byte_names_line_and_character(source):
    # A guest byte holds U+0000..U+00FF; a wider character is an
    # assembly error, neither a ValueError nor a silent wide immediate.
    with pytest.raises(AsmError) as exc:
        assemble(source)
    assert exc.value.lineno == 2
    assert "\u20ac" in str(exc.value)


def test_latin1_characters_are_bytes():
    image = assemble(".asciiz \"\u00e9\u00ff\"\nMOVI r1, '\u00ff'\nHALT")
    assert image.payload[:3] == bytes([0xE9, 0xFF, 0x00])
    assert decode(image.payload[8:16]).imm == 0xFF  # the MOVI, aligned to 8


def test_mem_operand_forms():
    image = assemble("LD r1, [r2+8]\nLD r1, [r2-4]\nLD r1, [r2]\nHALT")
    instrs = decode_all(image)
    assert (instrs[0].rs, instrs[0].imm) == (2, 8)
    assert (instrs[1].rs, instrs[1].imm) == (2, -4)
    assert (instrs[2].rs, instrs[2].imm) == (2, 0)


def test_store_operand_order():
    image = assemble("ST [r1+4], r2\nHALT")
    st_instr = decode_all(image)[0]
    assert (st_instr.rs, st_instr.imm, st_instr.rt) == (1, 4, 2)


def test_org_sets_origin_and_entry_is_first_instruction():
    image = assemble('.org 0x100\nmsg: .asciiz "hi"\nstart: MOVI r0, msg\nHALT')
    assert image.origin == 0x100
    assert image.symbols["msg"] == 0x100
    # 3 bytes of string pad to the next 8-byte boundary for code
    assert image.symbols["start"] == 0x108
    assert image.entry == 0x108


def test_org_must_not_move_backwards():
    with pytest.raises(AsmError):
        assemble(".org 0x100\nHALT\n.org 0x50\nHALT")


def test_first_org_must_be_instruction_aligned():
    with pytest.raises(AsmError):
        assemble(".org 12\nHALT")


def test_word_aligns_to_four():
    image = assemble('.asciiz "abc"\nval: .word 0x11223344\nstart: HALT')
    # string occupies [0,4); the word lands at 4
    assert image.symbols["val"] == 4
    assert image.payload[4:8] == bytes([0x44, 0x33, 0x22, 0x11])


def test_instruction_offsets_are_multiples_of_eight():
    src = '.org 0\na: .asciiz "xy"\nb: MOVI r1, 1\nc: .word 7\nd: HALT\n'
    image = assemble(src)
    for label in ("b", "d"):
        assert (image.symbols[label] - image.origin) % INSTR_SIZE == 0


def test_word_accepts_label_value():
    image = assemble("ptr: .word target\ntarget: HALT")
    target = image.symbols["target"]
    assert image.payload[0:4] == target.to_bytes(4, "little")


def test_trailing_label_binds_to_end():
    image = assemble("HALT\nend:")
    assert image.symbols["end"] == 8


# (label, mnemonic or directive, operands) of each line of one program
# that uses every directive, a label immediate and a memory operand.
_FIELDS = [
    ("", ".org", "0x100"),
    ("start:", "MOVI", "r1, val"),
    ("", "LD", "r2, [r1+4]"),
    ("loop:", "ADD", "r3, r2, r1"),
    ("", "BNE", "loop"),
    ("", ".org", "0x140"),
    ("val:", ".word", "start"),
    ("msg:", ".asciiz", '"a b"'),
    ("", "HALT", ""),
]


def _spelled(sep, directives=None):
    """The program with `sep` between its fields and each directive
    renamed as `directives` says."""
    rename = directives or {}
    return "\n".join(
        sep.join(f for f in (label, rename.get(head, head), ops) if f)
        for label, head, ops in _FIELDS
    )


@pytest.mark.parametrize(
    "sep, directives",
    [
        ("\t", None),
        ("   ", None),
        (" \t ", None),
        ("\t\t", None),
        (" ", {".org": ".ORG", ".word": ".Word", ".asciiz": ".AsciiZ"}),
        ("\t", {".org": ".Org", ".word": ".WORD", ".asciiz": ".ASCIIZ"}),
    ],
    ids=["tab", "spaces", "space-tab-space", "two-tabs", "mixed-case", "tab-mixed-case"],
)
def test_whitespace_and_directive_case_do_not_change_the_image(sep, directives):
    want = assemble(_spelled(" "))
    assert sorted(want.symbols) == ["loop", "msg", "start", "val"]
    got = assemble(_spelled(sep, directives))
    assert got.to_bytes() == want.to_bytes()
    assert got.symbols == want.symbols


def test_comments_and_blank_lines_ignored():
    image = assemble("; leading comment\n\nstart: HALT ; trailing\n")
    assert decode_all(image) == [Instruction(Opcode.HALT)]


def test_semicolon_inside_string_is_not_a_comment():
    image = assemble('.asciiz "a;b"\nHALT')
    assert image.payload[:4] == b"a;b\x00"


def test_empty_program_rejected():
    with pytest.raises(AsmError):
        assemble("; nothing here\n")
    with pytest.raises(AsmError):
        assemble('.asciiz "data only"')


@pytest.mark.parametrize(
    "source, lineno",
    [
        # Operand errors are found in line order, before a later duplicate.
        ("a: HALT\nMOVI r9, 1\nHALT\na: HALT", 2),
        # Undefined labels are found only after every other error.
        ("JMP nowhere\nHALT\nMOVI r9, 1", 3),
        ("MOVI r9, 1\n.org 0x100\n.org 0x50\nHALT", 1),
        ("x: .word 0x1FFFFFFFF\nHALT\nx: HALT", 1),
        # Unknown mnemonics are found before any layout error.
        ("MOVI r9, 1\nFROB", 2),
    ],
)
def test_error_precedence(source, lineno):
    with pytest.raises(AsmError) as exc:
        assemble(source)
    assert exc.value.lineno == lineno


@pytest.mark.parametrize(
    "source, lineno, message",
    [
        ("HALT\n.asciiz abc", 2, "expected quoted string, got 'abc'"),
        ('HALT\n.asciiz "ab\\"', 2, "dangling escape in string"),
        ('HALT\n.asciiz "a\\qb"', 2, "unknown string escape \\q"),
        ("HALT\nMOVI r0, '\\q'", 2, "unknown character escape '\\\\q'"),
        ("HALT\nMOVI r0, 'ab'", 2, "malformed character literal \"'ab'\""),
        ("HALT\nMOVI 5, 1", 2, "expected register, got '5'"),
        ("HALT\nLD r1, r2", 2, "expected [rN+imm] operand, got 'r2'"),
        ("HALT\nLD r1, [r9]", 2, "register r9 out of range 0..7"),
        ("HALT\n.org 0x10000", 2, ".org 0x10000 outside memory"),
        ("HALT\n.org -8", 2, ".org 0xfffffff8 outside memory"),
        (".org 0xFFF8\nHALT\nHALT", 3, "program exceeds guest memory"),
    ],
    ids=["unquoted-string", "dangling-escape", "string-escape", "char-escape",
         "char-literal", "register", "mem-operand", "mem-base-register", "org-past-end",
         "org-negative", "past-end-of-memory"],
)
def test_error_names_line_and_message(source, lineno, message):
    with pytest.raises(AsmError) as exc:
        assemble(source)
    assert exc.value.lineno == lineno
    assert str(exc.value) == f"line {lineno}: {message}"


def test_negated_offset_is_normalised_first():
    # 0xFFFFFFFF spells -1, so [r1-0xFFFFFFFF] is [r1+1].
    assert decode_all(assemble("LD r1, [r1-0xFFFFFFFF]\nHALT"))[0].imm == 1


@pytest.mark.parametrize(
    "source, token",
    [
        ("MOVI r1, 1_000", "1_000"),
        ("MOVI r1, +5", "+5"),
        ("MOVI r1, 0x_FF", "0x_FF"),
        ("MOVI r1, \u0661\u0662", "\u0661\u0662"),  # Arabic-Indic digits
        ("MOVI r1, - 5", "- 5"),
        ("MOVI r1, --5", "--5"),
        ("LD r1, [r2+1_0]", "1_0"),
        (".word +5", "+5"),
        (".org 1_0", "1_0"),
    ],
)
def test_only_ascii_decimal_and_hex_digits_spell_a_number(source, token):
    # A number is an optional `-`, then decimal or 0x-hex ASCII digits;
    # int()'s other spellings are not the assembler's.
    with pytest.raises(AsmError) as exc:
        assemble("HALT\n" + source)
    assert str(exc.value) == f"line 2: malformed operand {token!r}"


def test_assembly_is_deterministic():
    src = (
        '.org 0x200\nstart: MOVI r1, 10\nloop: SUB r1, r1, r2\nBNE loop\n'
        'msg: .asciiz "done"\nHALT\n'
    )
    assert assemble(src).to_bytes() == assemble(src).to_bytes()


def test_image_container_round_trip(tmp_path):
    image = assemble("MOVI r1, 5\nHALT")
    path = tmp_path / "t.img"
    write_image(image, path)
    loaded = read_image(path)
    assert loaded.origin == image.origin
    assert loaded.entry == image.entry
    assert loaded.payload == image.payload


def test_image_container_rejects_garbage():
    with pytest.raises(ImageError):
        ProgramImage.from_bytes(b"NOPE" + bytes(13))
    good = assemble("HALT").to_bytes()
    with pytest.raises(ImageError):
        ProgramImage.from_bytes(good[:10])  # truncated header
    with pytest.raises(ImageError, match="truncated image header"):
        ProgramImage.from_bytes(good[:16])  # one byte short of the header
    with pytest.raises(ImageError):
        ProgramImage.from_bytes(good[:-2])  # truncated payload
    versioned = bytearray(good)
    versioned[4] = 9
    with pytest.raises(ImageError):
        ProgramImage.from_bytes(bytes(versioned))


def test_image_invariants_enforced():
    with pytest.raises(ImageError):
        ProgramImage(origin=65530, payload=bytes(16), entry=65530)
    with pytest.raises(ImageError):
        ProgramImage(origin=0, payload=bytes(8), entry=8)


@given(
    values=st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1, max_size=8),
    org=st.sampled_from([0, 8, 0x80, 0x400]),
)
def test_generated_programs_assemble_deterministically(values, org):
    lines = [f".org {org}"]
    for i, v in enumerate(values):
        lines.append(f"l{i}: MOVI r{i % 8}, {v}")
    lines.append("HALT")
    src = "\n".join(lines)
    first = assemble(src)
    second = assemble(src)
    assert first.to_bytes() == second.to_bytes()
    assert first.symbols == second.symbols
    assert [i.imm for i in decode_all(first)[:-1]] == values


# -- a model of the layout ------------------------------------------------

_CHAR_LITERALS = {"'A'": 65, "';'": 59, "','": 44, "'\"'": 34, "'['": 91, "']'": 93,
                  "'''": 39, "'\\''": 39, "'\\n'": 10, "' '": 32}
_STRING_PIECES = {"a": b"a", ";": b";", ",": b",", '\\"': b'"', "'": b"'", "[": b"[",
                  "\\\\": b"\\", " ": b" "}
_COMMENTS = ["", " ; note", " ; it's, \"quoted\" ; [r1, 2]", "; 'x'"]


@st.composite
def modelled_programs(draw):
    """A well-formed source and the model of its image: the origin, the
    symbols, and the Instruction or data bytes at each address."""
    origin = draw(st.sampled_from([0, 8, 0x100]))
    kinds = draw(st.lists(st.sampled_from(["instr", "word", "asciiz", "org"]), max_size=12))
    # Lay out every line first: no size depends on an operand.
    loc, layout = origin, []  # (kind, address, string pieces, label)
    for i, kind in enumerate(kinds + ["instr"]):
        pieces = label = None
        if kind == "org":
            loc += draw(st.integers(0, 20))
            addr = loc
        elif kind == "asciiz":
            pieces = draw(st.lists(st.sampled_from(sorted(_STRING_PIECES)), max_size=6))
            addr = loc
            loc += sum(len(_STRING_PIECES[p]) for p in pieces) + 1
        else:
            size = 4 if kind == "word" else INSTR_SIZE
            addr = -(-loc // size) * size
            loc = addr + size
        if kind != "org" and (i == len(kinds) or draw(st.booleans())):
            label = f"L{i}"
        layout.append((kind, addr, pieces, label))
    symbols = {label: addr for _, addr, _, label in layout if label}
    names = sorted(symbols)

    def imm():
        """(source text, value) of an immediate, perhaps a label."""
        form = draw(st.sampled_from(["label", "dec", "hex", "char"]))
        if form == "label":
            name = draw(st.sampled_from(names))
            return name, symbols[name]
        if form == "char":
            text = draw(st.sampled_from(sorted(_CHAR_LITERALS)))
            return text, _CHAR_LITERALS[text]
        value = draw(st.integers(-(2**31), 2**31 - 1))
        return (str(value) if form == "dec" else hex(value)), value

    lines, want = [f".org {origin}"], {}
    for kind, addr, pieces, label in layout:
        if kind == "org":
            text = f".org {addr}"
        elif kind == "asciiz":
            text = '.asciiz "' + "".join(pieces) + '"'
            want[addr] = b"".join(_STRING_PIECES[p] for p in pieces) + b"\x00"
        elif kind == "word":
            source, value = imm()
            text = f".word {source}"
            want[addr] = (value & 0xFFFFFFFF).to_bytes(4, "little")
        else:
            d, s, t = (draw(st.integers(0, 7)) for _ in range(3))
            form = draw(st.sampled_from(["MOVI", "LD", "ST", "JMP", "ADD", "HALT"]))
            name = draw(st.sampled_from(names))
            sign = draw(st.sampled_from("+-"))
            mem = f"[r{s}{sign}{name}]"
            offset = symbols[name] if sign == "+" else -symbols[name]
            if form == "MOVI":
                source, value = imm()
                text, instr = f"MOVI r{d}, {source}", Instruction(Opcode.MOVI, rd=d, imm=value)
            elif form == "LD":
                text, instr = f"LD r{d}, {mem}", Instruction(Opcode.LD, rd=d, rs=s, imm=offset)
            elif form == "ST":
                text, instr = f"ST {mem},r{t}", Instruction(Opcode.ST, rs=s, rt=t, imm=offset)
            elif form == "JMP":
                text, instr = f"JMP {name}", Instruction(Opcode.JMP, imm=symbols[name])
            elif form == "ADD":
                text, instr = f"ADD r{d} , r{s},r{t}", Instruction(Opcode.ADD, rd=d, rs=s, rt=t)
            else:
                text, instr = "HALT", Instruction(Opcode.HALT)
            want[addr] = instr
        prefix = f"{label}: " if label else ""
        lines.append(prefix + text + draw(st.sampled_from(_COMMENTS)))
    return "\n".join(lines), origin, symbols, want


@given(modelled_programs())
def test_assembled_image_matches_the_model(program):
    source, origin, symbols, want = program
    image = assemble(source)
    assert image.origin == origin
    assert image.symbols == symbols
    assert image.entry == min(a for a, w in want.items() if isinstance(w, Instruction))
    for addr, expected in want.items():
        off = addr - origin
        if isinstance(expected, Instruction):
            assert decode(image.payload[off : off + INSTR_SIZE]) == expected, hex(addr)
        else:
            assert image.payload[off : off + len(expected)] == expected, hex(addr)


# -- plain lines against the general parser ---------------------------------

_REG_TEXTS = ["r0", "r7", "R3", "r8", "r07", "r", "x1", "5"]
_IMM_TEXTS = ["0", "42", "-7", "007", "0x1F", "0XfF", "-0x10", "0x", "2147483647",
              "-2147483648", "0xFFFFFFFF", "4294967296", "-2147483649", "-0x80000001", "'A'", "'\\n'",
              "';'", "','", "start", "_x9", "HALT", "movi", "1_000", "+5", "- 5", "5abc"]


@st.composite
def _mem_texts(draw):
    """A memory operand, plain or nearly so."""
    pad = st.sampled_from(["", " ", "\t"])
    base = draw(st.sampled_from(_REG_TEXTS))
    offset = ""
    if draw(st.booleans()):
        sign = draw(st.sampled_from(["+", "-", "+-", ",", " "]))
        offset = draw(pad) + sign + draw(pad) + draw(st.sampled_from(_IMM_TEXTS))
    return "[" + draw(pad) + base + offset + draw(pad) + draw(st.sampled_from(["]", ""]))


_OPERAND = {
    "rd": st.sampled_from(_REG_TEXTS),
    "rs": st.sampled_from(_REG_TEXTS),
    "rt": st.sampled_from(_REG_TEXTS),
    "imm": st.sampled_from(_IMM_TEXTS),
    "mem": _mem_texts(),
}


@st.composite
def _operand_texts(draw):
    """An opcode and an operand text: mostly the slots its signature asks
    for, sometimes one too few or too many, or one of another kind."""
    op = draw(st.sampled_from(list(Opcode)))
    slots = list(_SIGNATURES[op])
    count = max(0, len(slots) + draw(st.sampled_from([0, 0, 0, -1, 1])))
    kinds = (slots + ["imm"])[:count]
    texts = [draw(_OPERAND[draw(st.sampled_from(sorted(_OPERAND)))
                           if draw(st.integers(0, 5)) == 0 else kind]) for kind in kinds]
    sep = st.sampled_from([",", ", ", " ,", " , ", "\t,"])
    text = texts[0] if texts else ""
    for more in texts[1:]:
        text += draw(sep) + more
    return op, text


def _outcome(build):
    refs = []
    try:
        return build(refs), refs
    except AsmError as exc:
        return exc.lineno, exc.message


@settings(max_examples=400, deadline=None)
@given(_operand_texts())
@example((Opcode.LD, "r1, [r2-4]"))
@example((Opcode.ST, "[ R1 - start ] , r8"))
@example((Opcode.JMP, "HALT"))
@example((Opcode.LD, "r1, [r2--2147483648]"))
def test_plain_operands_read_as_the_general_parser_reads_them(case):
    # _instruction reads an operand text that fits its signature's compiled
    # pattern without the tokenizer; the bytes, label refs or error must be
    # the general parser's.
    op, text = case
    fast = _outcome(lambda refs: _instruction(7, op, text, refs)[0])
    general = _outcome(lambda refs: pack_instruction(op, *_parse_operands(7, op, text, refs)))
    assert fast == general


def _assembled(source):
    try:
        image = assemble(source)
        return image.to_bytes(), image.symbols
    except AsmError as exc:
        return exc.lineno, exc.message


_LINE_PIECES = ["MOVI", "LD", "HALT", "r1", "r2", ",", " ", "\t", ";", "[", "]", "+4", "c",
                "label:", "x", "0x10", "-3", ".word", ".org", "8"]


@given(st.lists(st.sampled_from(_LINE_PIECES), max_size=10).map("".join))
@example("LD r1, [r2+4 ; c")
@example("label:;c")
@example("HALT ; LD r1, [r2]")
def test_quote_free_lines_drop_the_comment_as_the_tokenizer_does(line):
    # A trailing `;"` makes the line go through the tokenizer, and adds
    # only to its comment.
    program = "start: HALT\n{}\nMOVI r3, 1"
    assert _assembled(program.format(line)) == _assembled(program.format(line + ';"'))


def test_every_corpus_instruction_line_is_plain():
    # The assembler's speed on the shipped corpus rests on each instruction
    # line matching its compiled pattern, not the general parser.
    lines = 0
    for entry in discover(shipped_dir()):
        for _, _, _, build in _parse_lines(entry.source.read_text()):
            if build is not None and build.func is _instruction:
                lineno, op, text = build.args
                assert _PLAIN[_SIGNATURES[op]].fullmatch(text), f"{entry.name}:{lineno}"
                lines += 1
    assert lines > 200
