"""Deterministic synthetic MIPS code generation.

Real 1992 DECstation binaries are unavailable, so the suite synthesises
programs whose *encoded byte statistics* and *cache behaviour* play the
same role (see DESIGN.md for the substitution argument).  Three generators
are provided:

* :meth:`CodeGenerator.static_program` — non-executing but fully
  assemblable code at an exact text-segment size, used for the Figure 5
  compression corpus.  Instruction mix, register skew, and immediate
  distributions follow a per-program :class:`Personality`.
* :meth:`CodeGenerator.pool_program` — an *executable* program built from
  a pool of generated functions invoked data-dependently through a jump
  table by an in-program linear-congruential generator.  This reproduces
  the irregular instruction working set of pointer-chasing programs like
  espresso.
* :meth:`CodeGenerator.straightline_fp_program` — an *executable* program
  whose inner loop is one enormous straight-line FP basic block stuffed
  with addressing constants: fpppp's signature, responsible both for its
  cache thrashing below 2 KB and for being the preselected code's outlier.

All output is plain assembly for :class:`repro.isa.assembler.Assembler`;
every generated line encodes to exactly one machine word, so byte sizes
are exact by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate

from repro.workloads.rng import rng_for, weighted_choice

#: Registers a generated leaf body may scribble on freely.  $t6 is
#: reserved as the masked memory pointer, $t8/$t9 as worker bookkeeping.
_SCRATCH = ["$t0", "$t1", "$t2", "$t3", "$t4", "$t5", "$t7", "$v0", "$v1", "$a1", "$a2", "$a3"]

#: Even-numbered FP registers usable for doubles.
_FP_EVEN = [f"$f{n}" for n in range(0, 30, 2)]


@dataclass(frozen=True)
class Personality:
    """Statistical fingerprint of one synthetic program.

    Attributes:
        mix: Relative weights of instruction categories in function
            bodies (keys: alu3, alui, load, store, shift, lui_pair,
            branch, call, multdiv, fp).
        fp_double_fraction: Among FP operations, how many are double
            precision.
        wild_constants: Fraction of lui/ori constant pairs drawn uniformly
            from the full 32-bit space rather than from data-segment-like
            addresses.  High values reproduce fpppp's unusual byte mix.
        small_immediate_bias: Probability an ALU immediate is small
            (0-64); the rest are drawn up to 16 bits.
        mean_function_words: Average generated function length in words.
    """

    mix: dict[str, float] = field(
        default_factory=lambda: {
            "alu3": 22.0,
            "alui": 18.0,
            "load": 20.0,
            "store": 9.0,
            "shift": 7.0,
            "lui_pair": 4.0,
            "branch": 11.0,
            "call": 4.0,
            "multdiv": 1.0,
            "fp": 4.0,
        }
    )
    fp_double_fraction: float = 0.6
    wild_constants: float = 0.05
    small_immediate_bias: float = 0.75
    mean_function_words: int = 120


#: Integer-heavy system code (yacc, who, espresso, spim, xlisp, tex).
INTEGER_PERSONALITY = Personality()

#: FP-heavy scientific code (matrix25A, NASA kernels, tomcatv).
FP_PERSONALITY = Personality(
    mix={
        "alu3": 14.0,
        "alui": 16.0,
        "load": 12.0,
        "store": 6.0,
        "shift": 5.0,
        "lui_pair": 3.0,
        "branch": 8.0,
        "call": 2.0,
        "multdiv": 1.0,
        "fp": 33.0,
    },
    mean_function_words=220,
)

#: fpppp-like: FP plus a flood of unusual addressing constants.
FPPPP_PERSONALITY = Personality(
    mix={
        "alu3": 10.0,
        "alui": 12.0,
        "load": 12.0,
        "store": 7.0,
        "shift": 3.0,
        "lui_pair": 16.0,
        "branch": 4.0,
        "call": 1.0,
        "multdiv": 0.5,
        "fp": 34.5,
    },
    wild_constants=0.85,
    mean_function_words=600,
)


class CodeGenerator:
    """Seeded generator of synthetic MIPS assembly.

    Args:
        name: Workload name; seeds all randomness.
        personality: Statistical fingerprint to imitate.
    """

    def __init__(self, name: str, personality: Personality = INTEGER_PERSONALITY) -> None:
        self.name = name
        self.personality = personality
        self.rng: random.Random = rng_for(name)

    # ==================================================================
    # Static (non-executing) programs — the Figure 5 corpus
    # ==================================================================

    def static_program(self, text_bytes: int, prologue: str | None = None) -> str:
        """Generate assemblable code of exactly ``text_bytes`` bytes.

        Args:
            text_bytes: Target text-segment size; rounded up to a word.
            prologue: Optional hand-written assembly to place first (e.g.
                a real kernel); generated library functions fill the rest.
        """
        target_words = (text_bytes + 3) // 4
        lines: list[str] = []
        words = 0
        if prologue:
            lines.append(prologue)
            words += _count_words(prologue)
        # The prologue may have left the assembler in .data; the generated
        # library functions always belong to the text segment.
        lines.append(".text")
        stem = "".join(ch if ch.isalnum() else "_" for ch in self.name)
        function_names = [f"lib_{stem}_{index}" for index in range(4096)]
        index = 0
        while words < target_words:
            budget = target_words - words
            if budget < 16:
                lines.append("\n".join(["    nop"] * budget))
                words += budget
                break
            # Calls may only target functions that actually get emitted,
            # i.e. this one and its predecessors.
            body, body_words = self._static_function(
                function_names[index], function_names[: index + 1], budget
            )
            lines.append(body)
            words += body_words
            index += 1
        return "\n".join(lines)

    def _static_function(
        self, name: str, pool: list[str], budget: int
    ) -> tuple[str, int]:
        """One library function of exactly min(budget, ~gauss(mean)) words.

        Returns the source and that word count (every line it emits is
        one machine word).

        Bodies are assembled from a Zipf-reused pool of concrete
        instruction *phrases* rather than independent random instructions:
        compiled code repeats its idioms (the same spill, the same
        compare-and-mask, the same address computation) and that sequence-
        level redundancy is exactly what dictionary compressors like Unix
        ``compress`` feed on.  Branches and calls are generated fresh
        because their offsets are position-dependent, as in real code.
        """
        rng = self.rng
        mean = self.personality.mean_function_words
        size = min(budget, max(16, int(rng.gauss(mean, mean / 2))))
        out: list[str] = [f"{name}:"]
        frame = rng.choice([24, 32, 32, 40])
        out.append(f"    addiu $sp, $sp, -{frame}")
        out.append(f"    sw $ra, {frame - 4}($sp)")
        # 2 prologue words emitted; reserve 4 words for the epilogue.
        body_words = size - 6
        # Pre-place local labels so branches always have a target.
        label_slots = sorted(
            rng.sample(range(max(1, body_words)), k=max(1, body_words // 12))
        )
        labels = [f"{name}_L{j}" for j in range(len(label_slots))]
        phrases, cum_weights = self._phrase_pool()
        wild = self.personality.wild_constants
        slot_cursor = 0
        position = 0
        while position < body_words:
            while slot_cursor < len(label_slots) and label_slots[slot_cursor] <= position:
                out.append(f"{labels[slot_cursor]}:")
                slot_cursor += 1
            remaining = body_words - position
            roll = rng.random()
            if roll < 0.085 and remaining >= 2:
                label = rng.choice(labels)
                if rng.random() < 0.5:
                    branch = f"{rng.choice(['beq', 'bne'])} {self._reg()}, {self._reg()}, {label}"
                else:
                    branch = f"{rng.choice(['blez', 'bgtz', 'bltz', 'bgez'])} {self._reg()}, {label}"
                out.append(f"    {branch}")
                out.append(f"    {self._delay_slot() or 'nop'}")
                position += 2
            elif roll < 0.115 and remaining >= 2:
                target = rng.choice(pool[: max(1, len(pool) // 2)])
                out.append(f"    jal {target}")
                out.append(f"    {self._delay_slot() or 'nop'}")
                position += 2
            elif roll < 0.115 + wild * 0.25 and remaining >= 2:
                # Fresh (never reused) address constants — fpppp's flood.
                register = self._reg()
                out.append(f"    lui {register}, {rng.randrange(1 << 16):#x}")
                out.append(f"    ori {register}, {register}, {rng.randrange(1 << 16):#x}")
                position += 2
            else:
                phrase = rng.choices(phrases, cum_weights=cum_weights)[0]
                for instruction in phrase[:remaining]:
                    out.append(f"    {instruction}")
                position += min(len(phrase), remaining)
        for j in range(slot_cursor, len(labels)):
            out.append(f"{labels[j]}:")
        out.append(f"    lw $ra, {frame - 4}($sp)")
        out.append(f"    addiu $sp, $sp, {frame}")
        out.append("    jr $ra")
        out.append("    nop")
        return "\n".join(out), size

    def _phrase_pool(self) -> tuple[list[list[str]], list[float]]:
        """The personality's concrete phrase pool with cumulative Zipf
        reuse weights (accumulated once, exactly as ``rng.choices``
        would accumulate plain weights on every draw)."""
        cached = getattr(self, "_phrases_cache", None)
        if cached is None:
            phrases = [self._make_phrase() for _ in range(560)]
            weights = [1.0 / (rank + 24) for rank in range(len(phrases))]
            cached = (phrases, list(accumulate(weights)))
            self._phrases_cache = cached
        return cached

    def _make_phrase(self) -> list[str]:
        """A short, fully concrete instruction idiom (no labels inside)."""
        rng = self.rng
        length = rng.choice([2, 3, 3, 4, 4, 4, 5, 5, 6, 8])
        phrase = []
        while len(phrase) < length:
            instruction, extra = self._static_instruction([], [], frame=24, phrase_mode=True)
            phrase.append(instruction)
            if extra:
                phrase.append(extra)
        return phrase[:length]

    def _static_instruction(
        self, labels: list[str], pool: list[str], frame: int, phrase_mode: bool = False
    ) -> tuple[str, str | None]:
        """One realistic instruction; second element is a forced follow-up
        (branch/call delay slots, lui/ori pairs).

        In ``phrase_mode`` the position-dependent categories (branch,
        call) are excluded, so the result is a reusable concrete idiom.
        """
        rng = self.rng
        p = self.personality
        category = weighted_choice(rng, p.mix)
        while phrase_mode and category in ("branch", "call"):
            category = weighted_choice(rng, p.mix)
        if category == "alu3":
            op = rng.choice(
                ["addu"] * 5 + ["or", "subu", "and", "slt", "xor", "sltu", "or", "addu"]
            )
            destination = self._reg()
            source = destination if rng.random() < 0.35 else self._reg()
            return f"{op} {destination}, {source}, {self._reg()}", None
        if category == "alui":
            op = rng.choice(["addiu"] * 5 + ["slti", "andi", "ori"])
            destination = self._reg()
            source = destination if rng.random() < 0.4 else self._reg()
            return f"{op} {destination}, {source}, {self._immediate(op)}", None
        if category == "load":
            op = rng.choice(["lw"] * 6 + ["lbu", "lb", "lhu"])
            return f"{op} {self._reg()}, {self._offset(frame)}({self._base_reg()})", None
        if category == "store":
            op = rng.choice(["sw"] * 5 + ["sb", "sh"])
            return f"{op} {self._reg()}, {self._offset(frame)}({self._base_reg()})", None
        if category == "shift":
            op = rng.choice(["sll", "sll", "sll", "srl", "sra"])
            amount = rng.choice([2, 2, 2, 3, 3, 1, 4, 16])
            return f"{op} {self._reg()}, {self._reg()}, {amount}", None
        if category == "lui_pair":
            register = self._reg()
            high, low = self._address_constant()
            return f"lui {register}, {high:#x}", f"ori {register}, {register}, {low:#x}"
        if category == "branch":
            label = rng.choice(labels)
            kind = rng.random()
            if kind < 0.5:
                branch = f"{rng.choice(['beq', 'bne'])} {self._reg()}, {self._reg()}, {label}"
            else:
                branch = f"{rng.choice(['blez', 'bgtz', 'bltz', 'bgez'])} {self._reg()}, {label}"
            return branch, self._delay_slot()
        if category == "call":
            target = rng.choice(pool[: max(1, len(pool) // 2)])
            return f"jal {target}", self._delay_slot()
        if category == "multdiv":
            op = rng.choice(["mult", "mult", "multu", "div", "divu"])
            first = f"{op} {self._reg()}, {self._reg()}"
            return first, f"{rng.choice(['mflo', 'mfhi'])} {self._reg()}"
        # FP.
        if rng.random() < 0.45:
            op = rng.choice(["lwc1", "lwc1", "swc1"])
            return f"{op} $f{rng.randrange(32)}, {self._offset(frame)}({self._base_reg()})", None
        suffix = "d" if rng.random() < self.personality.fp_double_fraction else "s"
        registers = _FP_EVEN if suffix == "d" else [f"$f{n}" for n in range(32)]
        op = rng.choice(["add", "add", "mul", "mul", "sub", "div"])
        fd, fs, ft = (rng.choice(registers) for _ in range(3))
        return f"{op}.{suffix} {fd}, {fs}, {ft}", None

    # ------------------------------------------------------------------
    # Operand distributions
    # ------------------------------------------------------------------

    #: Compiler register pressure concentrates on a small hot palette.
    _REG_NAMES = (
        ["$v0"] * 20 + ["$t0"] * 17 + ["$zero"] * 16 + ["$a0"] * 13 + ["$t1"] * 10
        + ["$v1"] * 6 + ["$a1"] * 5 + ["$s0"] * 4 + ["$t2"] * 3 + ["$s1"] * 2
        + ["$sp"] * 2 + ["$t3", "$a2", "$gp", "$ra"]
    )

    def _reg(self) -> str:
        """A register, skewed the way compiled code is."""
        return self.rng.choice(self._REG_NAMES)

    def _base_reg(self) -> str:
        roll = self.rng.random()
        if roll < 0.35:
            return "$sp"
        if roll < 0.5:
            return "$gp"
        return self._reg()

    def _offset(self, frame: int) -> int:
        rng = self.rng
        roll = rng.random()
        if roll < 0.70:
            return 4 * rng.randrange(0, max(1, frame // 4))
        if roll < 0.92:
            return rng.choice([0, 0, 4, 4, 8, 8, 12, 16, 16, 20, 24, 32, 40, 48, 64])
        return rng.choice([-4, -8]) if roll < 0.95 else 4 * rng.randrange(0, 512)

    def _immediate(self, op: str) -> int:
        rng = self.rng
        if op in ("andi", "ori"):
            return rng.choice([1, 1, 3, 7, 0xF, 0xFF, 0xFF, 0xFFFF, 0x7F])
        if rng.random() < self.personality.small_immediate_bias:
            return rng.choice([1, 1, 1, -1, -1, 2, 4, 4, 8, -4, -8, 16, 24, 32])
        return rng.randrange(-0x8000, 0x8000)

    def _address_constant(self) -> tuple[int, int]:
        rng = self.rng
        if rng.random() < self.personality.wild_constants:
            return rng.randrange(1 << 16), rng.randrange(1 << 16)
        # Data-segment-like addresses: high half near 0x0040, low varied.
        return rng.choice([0x0040, 0x0041, 0x0040, 0x0044, 0x0000]), rng.randrange(1 << 16)

    def _delay_slot(self) -> str | None:
        """Branch delay slot: often a useful ALU op, sometimes a nop."""
        rng = self.rng
        if rng.random() < 0.4:
            return "nop"
        return f"addiu {self._reg()}, {self._reg()}, {self._immediate('addiu')}"

    # ==================================================================
    # Executable pool programs — espresso-like irregular code
    # ==================================================================

    def pool_program(
        self,
        functions: int = 48,
        iterations: int = 3000,
        body_loops: int = 2,
        body_words: int = 120,
        static_pad_bytes: int | None = None,
    ) -> str:
        """An executable program with a data-driven irregular working set.

        A driver loop runs ``iterations`` times; each pass advances an
        in-program LCG and calls one of ``functions`` generated worker
        functions through a jump table.  Workers loop ``body_loops`` times
        over a generated ALU/memory body of about ``body_words`` words on
        a shared scratch buffer, so the dynamic instruction working set
        follows the LCG — large and irregular, like espresso's.

        Args:
            static_pad_bytes: If given, append never-executed library code
                until the text segment reaches this size.
        """
        if not functions or functions & (functions - 1):
            raise ValueError(f"functions must be a power of two, got {functions}")
        out: list[str] = [".text"]
        out.append(
            f"""
main:
    lui $s0, {0x40:#x}          # workbuf (data base)
    ori $s0, $s0, 0x0000
    li  $s1, 12345              # LCG state
    li  $s2, {iterations}       # driver iterations
    lui $s3, {0x40:#x}          # jump table base
    ori $s3, $s3, 0x1000
driver:
    lui $t0, 0x41C6             # LCG: s1 = s1 * 1103515245 + 12345
    ori $t0, $t0, 0x4E6D
    mult $s1, $t0
    mflo $s1
    addiu $s1, $s1, 12345
    srl $t1, $s1, 8             # pick a worker
    andi $t1, $t1, {functions - 1:#x}
    sll $t1, $t1, 2
    addu $t2, $s3, $t1
    lw $t3, 0($t2)
    jalr $ra, $t3
    nop
    addiu $s2, $s2, -1
    bnez $s2, driver
    nop
    li $a0, 0
    li $v0, 10
    syscall
"""
        )
        for index in range(functions):
            out.append(self._worker_function(f"work{index}", body_loops, body_words))
        out.append(
            """
.data
workbuf: .space 4096
"""
        )
        table = "\n".join(f"    .word work{index}" for index in range(functions))
        out.append(".align 2\njumptable:\n" + table)
        source = "\n".join(out)
        if static_pad_bytes is not None:
            current = _count_words(source) * 4
            if static_pad_bytes > current:
                source += "\n" + self.static_program(static_pad_bytes - current)
        return source

    def _worker_function(self, name: str, body_loops: int, body_words: int) -> str:
        """One executable leaf worker: loops a generated safe body."""
        rng = self.rng
        out = [f"{name}:"]
        out.append("    lui $t8, 0x40")
        out.append("    ori $t8, $t8, 0x0000    # workbuf")
        out.append(f"    li $t9, {body_loops}")
        out.append(f"{name}_loop:")
        emitted = 0
        target = max(8, int(rng.gauss(body_words, body_words / 4)))
        while emitted < target:
            out.append(f"    {self._safe_body_instruction()}")
            emitted += 1
        out.append("    addiu $t9, $t9, -1")
        out.append(f"    bnez $t9, {name}_loop")
        out.append("    nop")
        out.append("    jr $ra")
        out.append("    nop")
        return "\n".join(out)

    def _safe_body_instruction(self) -> str:
        """An instruction that is always safe to execute in a worker body.

        Only scratch registers are written; memory accesses stay inside
        the 4 KB ``workbuf`` via an ``andi`` mask computed into $t6.
        """
        rng = self.rng
        roll = rng.random()
        scratch = _SCRATCH
        if roll < 0.30:
            op = rng.choice(["addu", "subu", "and", "or", "xor", "slt", "sltu"])
            return f"{op} {rng.choice(scratch)}, {rng.choice(scratch)}, {rng.choice(scratch)}"
        if roll < 0.50:
            op = rng.choice(["addiu", "addiu", "slti", "andi", "ori", "xori"])
            imm = rng.randrange(256) if op != "addiu" else rng.randrange(-128, 128)
            return f"{op} {rng.choice(scratch)}, {rng.choice(scratch)}, {imm}"
        if roll < 0.62:
            op = rng.choice(["sll", "srl", "sra"])
            return f"{op} {rng.choice(scratch)}, {rng.choice(scratch)}, {rng.randrange(1, 31)}"
        if roll < 0.74:
            # Masked load: t6 = (reg & 0xFFC); lw x, workbuf[t6].
            if rng.random() < 0.5:
                return f"andi $t6, {rng.choice(scratch)}, 0xFFC"
            return f"addu $t6, $t8, $t6"
        if roll < 0.86:
            return f"lw {rng.choice(scratch)}, 0($t6)" if rng.random() < 0.7 else f"sw {rng.choice(scratch)}, 0($t6)"
        if roll < 0.94:
            return f"lbu {rng.choice(scratch)}, {rng.randrange(0, 64)}($t8)"
        if roll < 0.97:
            return f"mult {rng.choice(scratch)}, {rng.choice(scratch)}"
        return f"mflo {rng.choice(scratch)}"

    # ==================================================================
    # Straight-line FP programs — fpppp-like
    # ==================================================================

    def straightline_fp_program(
        self,
        block_words: int = 420,
        iterations: int = 280,
        static_pad_bytes: int | None = None,
    ) -> str:
        """An executable program dominated by one giant FP basic block.

        The block is ``block_words`` instructions of straight-line double
        arithmetic and constant-address loads (fpppp's signature).  It runs
        ``iterations`` times.  A block larger than the instruction cache
        misses on every line every iteration; once the cache holds it, the
        miss rate collapses — exactly the fpppp cliff in Tables 3.
        """
        rng = self.rng
        out = [".text"]
        out.append(
            f"""
main:
    lui $s0, 0x40
    ori $s0, $s0, 0x0000      # constants array
    li  $s2, {iterations}
bigblock:
"""
        )
        # FP register pressure concentrates, as in compiled FORTRAN.
        fp_palette = ["$f0"] * 5 + ["$f2"] * 4 + ["$f4"] * 3 + ["$f6"] * 3 + [
            "$f8", "$f8", "$f10", "$f12", "$f14", "$f16", "$f20", "$f24"
        ]
        emitted = 0
        while emitted < block_words:
            roll = rng.random()
            if roll < 0.22:
                offset = 8 * rng.randrange(0, 60)
                out.append(f"    l.d {rng.choice(fp_palette)}, {offset}($s0)")
                emitted += 2
            elif roll < 0.30:
                offset = 8 * rng.randrange(120, 180)
                out.append(f"    s.d {rng.choice(fp_palette)}, {offset}($s0)")
                emitted += 2
            elif roll < 0.42:
                # Addressing constants: fpppp's flood of odd byte values
                # (a third wild, the rest ordinary data addresses).
                register = rng.choice(["$t0", "$t1", "$t2", "$t3"])
                if rng.random() < 0.35:
                    high, low = rng.randrange(1 << 16), rng.randrange(1 << 16)
                else:
                    high, low = rng.choice([0x0040, 0x0040, 0x0041, 0x0044]), rng.randrange(1 << 12)
                out.append(f"    lui {register}, {high:#x}")
                out.append(f"    ori {register}, {register}, {low:#x}")
                emitted += 2
            elif roll < 0.52:
                out.append(
                    rng.choice(
                        [
                            "    addu $t4, $t5, $t6",
                            f"    sll $t5, $t6, {rng.choice([2, 3])}",
                            "    addiu $t4, $t5, 8",
                        ]
                    )
                )
                emitted += 1
            else:
                op = rng.choice(["add.d", "add.d", "mul.d", "mul.d", "sub.d"])
                fd, fs, ft = (rng.choice(fp_palette) for _ in range(3))
                out.append(f"    {op} {fd}, {fs}, {ft}")
                emitted += 1
        out.append(
            """
    addiu $s2, $s2, -1
    bnez $s2, bigblock
    nop
    li $a0, 0
    li $v0, 10
    syscall
"""
        )
        out.append(".data\nfpconsts: .space 4096")
        source = "\n".join(out)
        if static_pad_bytes is not None:
            current = _count_words(source) * 4
            if static_pad_bytes > current:
                source += "\n" + self.static_program(static_pad_bytes - current)
        return source


def _count_words(source: str) -> int:
    """Machine words a source fragment assembles to (1 per instruction
    line; generated code avoids multi-word pseudo-instructions except the
    known two-word ones counted here)."""
    words = 0
    for raw in source.splitlines():
        line = raw.split("#", 1)[0].strip()
        while ":" in line and not line.startswith("."):
            line = line.partition(":")[2].strip()
        if not line or line.startswith("."):
            continue
        mnemonic = line.split()[0]
        if mnemonic in ("l.d", "s.d", "la", "blt", "bge", "bgt", "ble", "mul"):
            words += 2
        elif mnemonic == "li":
            operand = line.split(",")[-1].strip()
            try:
                value = int(operand, 0)
            except ValueError:
                value = 0
            words += 1 if -0x8000 <= value <= 0xFFFF else 2
        else:
            words += 1
    return words
