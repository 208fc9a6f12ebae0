"""A two-pass MIPS-I assembler.

The workload suite (:mod:`repro.workloads`) writes its kernels in assembly
source; this module turns that source into the binary images the CCRP
compresses and the functional simulator executes.

Supported syntax
----------------

* one instruction, directive, or label per line; ``#`` starts a comment;
* labels: ``name:`` (may share a line with an instruction);
* sections: ``.text`` and ``.data`` (text precedes data in memory);
* data directives: ``.word``, ``.half``, ``.byte``, ``.float``, ``.double``,
  ``.space N``, ``.align N`` (power-of-two byte alignment), ``.asciiz``;
* every real instruction listed in :mod:`repro.isa.opcodes`;
* pseudo-instructions: ``nop``, ``move``, ``li``, ``la``, ``b``, ``beqz``,
  ``bnez``, ``blt``, ``bge``, ``bgt``, ``ble``, ``mul``, ``neg``, ``not``,
  ``l.d``/``s.d`` (double load/store as two word transfers).

Pseudo-instructions expand exactly as classic MIPS assemblers expand them
(using ``$at`` as the assembler temporary), so the emitted byte statistics
match real R2000 output.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass

from repro.errors import AssemblerError
from repro.isa.encoding import encode_bytes
from repro.isa.instruction import Instruction
from repro.isa.opcodes import SPECS_BY_MNEMONIC
from repro.isa.registers import fp_register_number, register_number

#: Default load addresses within the paper's 24-bit physical space.
DEFAULT_TEXT_BASE = 0x000000
DEFAULT_DATA_BASE = 0x400000

_AT = 1  # assembler temporary register ($at)

_LABEL_RE = re.compile(r"^[A-Za-z_.$][\w.$]*$")

#: Mnemonics whose expansion depends on the PC or on a label's address:
#: branches (pseudo and real), jumps, and ``la``.  Every other line
#: expands the same wherever it sits.
_POSITION_DEPENDENT = frozenset(
    ["la", "b", "beqz", "bnez", "blt", "bge", "bgt", "ble"]
    + [
        mnemonic
        for mnemonic, spec in SPECS_BY_MNEMONIC.items()
        if spec.operands in ("rs,rt,rel", "rs,rel", "rel", "target")
    ]
)


@dataclass(frozen=True)
class AssembledProgram:
    """The output of :meth:`Assembler.assemble`.

    Attributes:
        text: Encoded instruction bytes (big-endian words).
        data: Initialised data-segment bytes.
        text_base: Load address of the text segment.
        data_base: Load address of the data segment.
        labels: Label name -> absolute address.
        instructions: The expanded instruction list, index = word offset;
            equal instructions are the same object.
    """

    text: bytes
    data: bytes
    text_base: int
    data_base: int
    labels: dict[str, int]
    instructions: tuple[Instruction, ...]

    @property
    def entry(self) -> int:
        """Program entry point: the ``main`` label if defined, else text_base."""
        return self.labels.get("main", self.text_base)

    @property
    def size(self) -> int:
        """Text-segment size in bytes (the quantity Figure 5 reports)."""
        return len(self.text)


@dataclass(slots=True, eq=False)
class _Line:
    """One distinct source line after parsing: mnemonic + raw operand
    string, numbered at its first occurrence (identity-hashed)."""

    number: int
    mnemonic: str
    operands: str


@dataclass
class _DataItem:
    """A pending data directive recorded during pass 1."""

    kind: str
    values: list
    address: int


class Assembler:
    """Two-pass assembler producing :class:`AssembledProgram` images.

    Example::

        program = Assembler().assemble('''
            main:   li   $t0, 10
            loop:   addi $t0, $t0, -1
                    bnez $t0, loop
                    nop
                    li   $v0, 10       # exit syscall
                    syscall
        ''')
    """

    def __init__(
        self,
        text_base: int = DEFAULT_TEXT_BASE,
        data_base: int = DEFAULT_DATA_BASE,
    ) -> None:
        if text_base % 4 or data_base % 4:
            raise AssemblerError("segment bases must be word aligned")
        self.text_base = text_base
        self.data_base = data_base

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def assemble(self, source: str) -> AssembledProgram:
        """Assemble ``source`` into a program image."""
        text_lines, numbers, data_items, labels = self._pass_one(source)
        instructions, text = self._pass_two(text_lines, numbers, labels)
        data = self._emit_data(data_items, labels)
        return AssembledProgram(
            text=text,
            data=data,
            text_base=self.text_base,
            data_base=self.data_base,
            labels=labels,
            instructions=tuple(instructions),
        )

    # ------------------------------------------------------------------
    # Pass 1: layout and label resolution
    # ------------------------------------------------------------------

    def _pass_one(
        self, source: str
    ) -> tuple[list[_Line], list[int], list[_DataItem], dict[str, int]]:
        """Lay out both sections: every text line (one shared
        :class:`_Line` per distinct text) with its line number, the data
        items, and the labels."""
        labels: dict[str, int] = {}
        text_lines: list[_Line] = []
        numbers: list[int] = []
        data_items: list[_DataItem] = []
        text_pc = self.text_base
        data_pc = self.data_base
        section = "text"
        # Generated sources repeat most lines: split, parse and size each
        # distinct line text once.  Labels, sections and line numbers
        # stay per occurrence, and a line is kept only once sized, so a
        # repeated bad line raises at its first occurrence.
        distinct: dict[str, list] = {}

        for number, raw in enumerate(source.splitlines(), start=1):
            parsed = distinct.get(raw)
            if parsed is None:
                parsed = distinct[raw] = [*_split_line(raw), None, 0]
            line_labels, mnemonic, operands, line, size = parsed
            for label in line_labels:
                if label in labels:
                    raise AssemblerError(f"duplicate label {label!r}", number)
                labels[label] = text_pc if section == "text" else data_pc
            if not mnemonic:
                continue

            if mnemonic[0] == ".":
                if mnemonic == ".text":
                    section = "text"
                elif mnemonic == ".data":
                    section = "data"
                elif section == "data":
                    item, data_pc = self._layout_data(mnemonic, operands, data_pc, number)
                    if item is not None:
                        data_items.append(item)
                elif mnemonic == ".align":
                    # Pad with zero words (nops) up to the boundary, so
                    # the labels after it name the words laid out there.
                    aligned = _align(text_pc, 1 << _parse_int(operands, number))
                    words = (aligned - text_pc) // 4
                    text_lines += [_Line(number, "nop", "")] * words
                    numbers += [number] * words
                    text_pc = aligned
                else:
                    raise AssemblerError(f"directive {mnemonic} not allowed in .text", number)
                continue

            if section != "text":
                raise AssemblerError("instructions must appear in .text", number)
            if line is None:
                line = _Line(number, mnemonic, operands)
                size = self._expansion_size(line)
                parsed[3:] = line, size
            text_lines.append(line)
            numbers.append(number)
            text_pc += 4 * size

        return text_lines, numbers, data_items, labels

    def _layout_data(
        self, directive: str, operands: str, data_pc: int, number: int
    ) -> tuple[_DataItem | None, int]:
        if directive == ".align":
            return None, _align(data_pc, 1 << _parse_int(operands, number))
        if directive == ".space":
            size = _parse_int(operands, number)
            if size < 0:
                raise AssemblerError(".space size must be non-negative", number)
            return _DataItem("space", [size], data_pc), data_pc + size
        if directive == ".word":
            values = _split_operands(operands)
            data_pc = _align(data_pc, 4)
            return _DataItem("word", values, data_pc), data_pc + 4 * len(values)
        if directive == ".half":
            values = _split_operands(operands)
            data_pc = _align(data_pc, 2)
            return _DataItem("half", values, data_pc), data_pc + 2 * len(values)
        if directive == ".byte":
            values = _split_operands(operands)
            return _DataItem("byte", values, data_pc), data_pc + len(values)
        if directive == ".float":
            values = _split_operands(operands)
            data_pc = _align(data_pc, 4)
            return _DataItem("float", values, data_pc), data_pc + 4 * len(values)
        if directive == ".double":
            values = _split_operands(operands)
            data_pc = _align(data_pc, 8)
            return _DataItem("double", values, data_pc), data_pc + 8 * len(values)
        if directive == ".asciiz":
            text = operands.strip()
            if len(text) < 2 or text[0] != '"' or text[-1] != '"':
                raise AssemblerError('.asciiz expects a double-quoted string', number)
            payload = text[1:-1].encode("ascii").decode("unicode_escape").encode("latin-1")
            return _DataItem("bytes", [payload + b"\0"], data_pc), data_pc + len(payload) + 1
        raise AssemblerError(f"unknown data directive {directive}", number)

    def _expansion_size(self, line: _Line) -> int:
        """Number of machine instructions ``line`` expands to."""
        mnemonic = line.mnemonic
        if mnemonic in SPECS_BY_MNEMONIC:
            return 1
        if mnemonic in ("nop", "move", "b", "beqz", "bnez", "neg", "not"):
            return 1
        if mnemonic == "li":
            value = _parse_int(_split_operands(line.operands)[-1], line.number)
            return 1 if -0x8000 <= value <= 0xFFFF else 2
        if mnemonic == "la":
            return 2
        if mnemonic in ("blt", "bge", "bgt", "ble"):
            return 2
        if mnemonic == "mul":
            return 2
        if mnemonic in ("l.d", "s.d"):
            return 2
        raise AssemblerError(f"unknown mnemonic {mnemonic!r}", line.number)

    # ------------------------------------------------------------------
    # Pass 2: instruction emission
    # ------------------------------------------------------------------

    def _pass_two(
        self, lines: list[_Line], numbers: list[int], labels: dict[str, int]
    ) -> tuple[list[Instruction], bytes]:
        """Expand and encode every text line: the instructions and the text."""
        # Equal instructions share one object: a program holds (and its
        # pickle stores) one Instruction per distinct instruction.
        interned: dict[Instruction, Instruction] = {}
        # A position-independent line is expanded and encoded once per
        # distinct text; only successful expansions are kept, so a
        # repeated bad line raises at its first occurrence.
        expansions: dict[_Line, tuple[list[Instruction], bytes]] = {}
        instructions: list[Instruction] = []
        words: list[bytes] = []
        pc = self.text_base
        for line, number in zip(lines, numbers):
            expansion = expansions.get(line)
            if expansion is None:
                if line.number != number:
                    # A later occurrence of a position-dependent line.
                    line = _Line(number, line.mnemonic, line.operands)
                expanded = [
                    interned.setdefault(item, item)
                    for item in self._expand(line, pc, labels)
                ]
                expansion = (expanded, b"".join(map(encode_bytes, expanded)))
                if line.mnemonic not in _POSITION_DEPENDENT:
                    expansions[line] = expansion
            instructions.extend(expansion[0])
            words.append(expansion[1])
            pc += 4 * len(expansion[0])
        return instructions, b"".join(words)

    def _expand(
        self, line: _Line, pc: int, labels: dict[str, int]
    ) -> list[Instruction]:
        mnemonic, operands, number = line.mnemonic, line.operands, line.number
        parts = _split_operands(operands)

        # --- pseudo-instructions ---------------------------------------
        if mnemonic == "nop":
            return [Instruction.make("sll")]
        if mnemonic == "move":
            _expect(parts, 2, line)
            return [
                Instruction.make(
                    "addu", rd=register_number(parts[0]), rs=register_number(parts[1])
                )
            ]
        if mnemonic == "li":
            _expect(parts, 2, line)
            rt = register_number(parts[0])
            value = _parse_int(parts[1], number)
            if -0x8000 <= value < 0x8000:
                return [Instruction.make("addiu", rt=rt, rs=0, imm=value)]
            if 0 <= value <= 0xFFFF:
                return [Instruction.make("ori", rt=rt, rs=0, imm=value)]
            value &= 0xFFFFFFFF
            return [
                Instruction.make("lui", rt=rt, imm=(value >> 16) & 0xFFFF),
                Instruction.make("ori", rt=rt, rs=rt, imm=value & 0xFFFF),
            ]
        if mnemonic == "la":
            _expect(parts, 2, line)
            rt = register_number(parts[0])
            address = self._resolve(parts[1], labels, number) & 0xFFFFFFFF
            return [
                Instruction.make("lui", rt=rt, imm=(address >> 16) & 0xFFFF),
                Instruction.make("ori", rt=rt, rs=rt, imm=address & 0xFFFF),
            ]
        if mnemonic == "b":
            _expect(parts, 1, line)
            return [Instruction.make("beq", imm=self._branch_offset(parts[0], pc, labels, number))]
        if mnemonic == "beqz":
            _expect(parts, 2, line)
            return [
                Instruction.make(
                    "beq",
                    rs=register_number(parts[0]),
                    imm=self._branch_offset(parts[1], pc, labels, number),
                )
            ]
        if mnemonic == "bnez":
            _expect(parts, 2, line)
            return [
                Instruction.make(
                    "bne",
                    rs=register_number(parts[0]),
                    imm=self._branch_offset(parts[1], pc, labels, number),
                )
            ]
        if mnemonic in ("blt", "bge", "bgt", "ble"):
            _expect(parts, 3, line)
            rs, rt = register_number(parts[0]), register_number(parts[1])
            if mnemonic in ("bgt", "ble"):
                rs, rt = rt, rs
            branch = "bne" if mnemonic in ("blt", "bgt") else "beq"
            offset = self._branch_offset(parts[2], pc + 4, labels, number)
            return [
                Instruction.make("slt", rd=_AT, rs=rs, rt=rt),
                Instruction.make(branch, rs=_AT, rt=0, imm=offset),
            ]
        if mnemonic == "mul":
            _expect(parts, 3, line)
            return [
                Instruction.make(
                    "mult", rs=register_number(parts[1]), rt=register_number(parts[2])
                ),
                Instruction.make("mflo", rd=register_number(parts[0])),
            ]
        if mnemonic == "neg":
            _expect(parts, 2, line)
            return [
                Instruction.make(
                    "subu", rd=register_number(parts[0]), rs=0, rt=register_number(parts[1])
                )
            ]
        if mnemonic == "not":
            _expect(parts, 2, line)
            return [
                Instruction.make(
                    "nor", rd=register_number(parts[0]), rs=register_number(parts[1]), rt=0
                )
            ]
        if mnemonic in ("l.d", "s.d"):
            _expect(parts, 2, line)
            ft = fp_register_number(parts[0])
            if ft % 2:
                raise AssemblerError("l.d/s.d require an even FP register", number)
            offset, base = _parse_mem_operand(parts[1], number)
            word = "lwc1" if mnemonic == "l.d" else "swc1"
            return [
                Instruction.make(word, rt=ft, rs=base, imm=offset),
                Instruction.make(word, rt=ft + 1, rs=base, imm=offset + 4),
            ]

        # --- real instructions -------------------------------------------
        spec = SPECS_BY_MNEMONIC.get(mnemonic)
        if spec is None:
            raise AssemblerError(f"unknown mnemonic {mnemonic!r}", number)
        return [self._build(spec, parts, pc, labels, line)]

    def _build(self, spec, parts, pc, labels, line: _Line) -> Instruction:
        signature = spec.operands
        number = line.number
        make = lambda **fields: Instruction(spec, **fields)  # noqa: E731

        if signature == "":
            _expect(parts, 0, line)
            return make()
        if signature == "rd,rs,rt":
            _expect(parts, 3, line)
            return make(
                rd=register_number(parts[0]),
                rs=register_number(parts[1]),
                rt=register_number(parts[2]),
            )
        if signature == "rd,rt,sha":
            _expect(parts, 3, line)
            shamt = _parse_int(parts[2], number)
            if not 0 <= shamt < 32:
                raise AssemblerError(f"shift amount {shamt} out of range", number)
            return make(
                rd=register_number(parts[0]), rt=register_number(parts[1]), shamt=shamt
            )
        if signature == "rd,rt,rs":
            _expect(parts, 3, line)
            return make(
                rd=register_number(parts[0]),
                rt=register_number(parts[1]),
                rs=register_number(parts[2]),
            )
        if signature == "rs":
            _expect(parts, 1, line)
            return make(rs=register_number(parts[0]))
        if signature == "rd,rs":
            if len(parts) == 1:  # ``jalr $rs`` defaults rd to $ra
                return make(rd=31, rs=register_number(parts[0]))
            _expect(parts, 2, line)
            return make(rd=register_number(parts[0]), rs=register_number(parts[1]))
        if signature == "rd":
            _expect(parts, 1, line)
            return make(rd=register_number(parts[0]))
        if signature == "rs,rt":
            _expect(parts, 2, line)
            return make(rs=register_number(parts[0]), rt=register_number(parts[1]))
        if signature in ("rt,rs,imm", "rt,rs,uimm"):
            _expect(parts, 3, line)
            imm = _parse_int(parts[2], number)
            _check_imm(imm, signature.endswith("uimm"), number)
            return make(
                rt=register_number(parts[0]), rs=register_number(parts[1]), imm=imm
            )
        if signature == "rt,uimm":
            _expect(parts, 2, line)
            imm = _parse_int(parts[1], number)
            _check_imm(imm, True, number)
            return make(rt=register_number(parts[0]), imm=imm)
        if signature == "rt,off(rs)":
            _expect(parts, 2, line)
            offset, base = _parse_mem_operand(parts[1], number)
            return make(rt=register_number(parts[0]), rs=base, imm=offset)
        if signature == "ft,off(rs)":
            _expect(parts, 2, line)
            offset, base = _parse_mem_operand(parts[1], number)
            return make(rt=fp_register_number(parts[0]), rs=base, imm=offset)
        if signature == "rs,rt,rel":
            _expect(parts, 3, line)
            return make(
                rs=register_number(parts[0]),
                rt=register_number(parts[1]),
                imm=self._branch_offset(parts[2], pc, labels, number),
            )
        if signature == "rs,rel":
            _expect(parts, 2, line)
            return make(
                rs=register_number(parts[0]),
                imm=self._branch_offset(parts[1], pc, labels, number),
            )
        if signature == "rel":
            _expect(parts, 1, line)
            return make(imm=self._branch_offset(parts[0], pc, labels, number))
        if signature == "target":
            _expect(parts, 1, line)
            address = self._resolve(parts[0], labels, number)
            if address % 4:
                raise AssemblerError(f"jump target {address:#x} not word aligned", number)
            return make(target=(address >> 2) & 0x03FF_FFFF)
        if signature == "fd,fs,ft":
            _expect(parts, 3, line)
            return make(
                shamt=fp_register_number(parts[0]),
                rd=fp_register_number(parts[1]),
                rt=fp_register_number(parts[2]),
            )
        if signature == "fd,fs":
            _expect(parts, 2, line)
            return make(
                shamt=fp_register_number(parts[0]), rd=fp_register_number(parts[1])
            )
        if signature == "fs,ft":
            _expect(parts, 2, line)
            return make(rd=fp_register_number(parts[0]), rt=fp_register_number(parts[1]))
        if signature == "rt,fs":
            _expect(parts, 2, line)
            return make(rt=register_number(parts[0]), rd=fp_register_number(parts[1]))
        raise AssemblerError(f"unhandled operand signature {signature!r}", number)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _resolve(self, token: str, labels: dict[str, int], number: int) -> int:
        token = token.strip()
        if token in labels:
            return labels[token]
        try:
            return _parse_int(token, number)
        except AssemblerError:
            raise AssemblerError(f"undefined label {token!r}", number) from None

    def _branch_offset(
        self, token: str, pc: int, labels: dict[str, int], number: int
    ) -> int:
        target = self._resolve(token, labels, number)
        delta = target - (pc + 4)
        if delta % 4:
            raise AssemblerError(f"branch target {target:#x} not word aligned", number)
        offset = delta >> 2
        if not -0x8000 <= offset < 0x8000:
            raise AssemblerError(f"branch to {token!r} out of 16-bit range", number)
        return offset

    def _emit_data(self, items: list[_DataItem], labels: dict[str, int]) -> bytes:
        if not items:
            return b""
        end = max(item.address + _data_size(item) for item in items)
        buffer = bytearray(end - self.data_base)
        for item in items:
            offset = item.address - self.data_base
            payload = self._data_payload(item, labels)
            buffer[offset : offset + len(payload)] = payload
        return bytes(buffer)

    def _data_payload(self, item: _DataItem, labels: dict[str, int]) -> bytes:
        if item.kind == "space":
            return bytes(item.values[0])
        if item.kind == "bytes":
            return item.values[0]
        if item.kind == "word":
            return b"".join(
                (self._resolve(str(v), labels, 0) & 0xFFFFFFFF).to_bytes(4, "big")
                for v in item.values
            )
        if item.kind == "half":
            return b"".join(
                (_parse_int(str(v), 0) & 0xFFFF).to_bytes(2, "big") for v in item.values
            )
        if item.kind == "byte":
            return bytes(_parse_int(str(v), 0) & 0xFF for v in item.values)
        if item.kind == "float":
            return b"".join(struct.pack(">f", float(v)) for v in item.values)
        if item.kind == "double":
            return b"".join(struct.pack(">d", float(v)) for v in item.values)
        raise AssemblerError(f"unknown data item kind {item.kind!r}")


# ---------------------------------------------------------------------------
# Module-level parsing helpers
# ---------------------------------------------------------------------------


def _split_line(raw: str) -> tuple[tuple[str, ...], str, str]:
    """One source line's labels, lower-cased mnemonic and operand string
    (an empty mnemonic for a blank or label-only line)."""
    line = raw.split("#", 1)[0].strip()
    labels = []
    while line:
        head, colon, rest = line.partition(":")
        label = head.strip()
        if not (colon and _LABEL_RE.match(label) and " " not in label):
            break
        labels.append(label)
        line = rest.strip()
    mnemonic, _, operands = line.partition(" ")
    return tuple(labels), mnemonic.lower(), operands.strip()


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


def _data_size(item: _DataItem) -> int:
    """Byte size a data item occupies in the data segment."""
    if item.kind == "space":
        return item.values[0]
    if item.kind == "bytes":
        return len(item.values[0])
    width = {"word": 4, "half": 2, "byte": 1, "float": 4, "double": 8}[item.kind]
    return width * len(item.values)


def _split_operands(operands: str) -> list[str]:
    if not operands.strip():
        return []
    return [part.strip() for part in operands.split(",")]


def _parse_int(token: str, line_number: int) -> int:
    token = token.strip()
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblerError(f"expected an integer, got {token!r}", line_number) from None


def _parse_mem_operand(token: str, line_number: int) -> tuple[int, int]:
    """Parse ``offset($base)`` into (offset, base register number)."""
    match = re.match(r"^(-?\w*)\((\$?\w+)\)$", token.strip())
    if not match:
        raise AssemblerError(f"expected offset(base), got {token!r}", line_number)
    offset_text = match.group(1) or "0"
    offset = _parse_int(offset_text, line_number)
    if not -0x8000 <= offset < 0x8000:
        raise AssemblerError(f"memory offset {offset} out of 16-bit range", line_number)
    return offset, register_number(match.group(2))


def _check_imm(value: int, unsigned: bool, line_number: int) -> None:
    low, high = (0, 0xFFFF) if unsigned else (-0x8000, 0x7FFF)
    if not low <= value <= high:
        raise AssemblerError(f"immediate {value} out of range [{low}, {high}]", line_number)


def _expect(parts: list[str], count: int, line: _Line) -> None:
    if len(parts) != count:
        raise AssemblerError(
            f"{line.mnemonic} expects {count} operands, got {len(parts)}", line.number
        )
