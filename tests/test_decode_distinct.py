"""Decode-once consumers against their per-word oracles.

:func:`~repro.isa.decoding.decode_distinct` decodes each distinct word of
a text segment once; :func:`~repro.isa.altisa.reencode_program` and
:func:`~repro.isa.dense.analyze_dense_encoding` apply their per-word
functions to those and scatter the results back.  The per-word loops they
replaced live here as the oracles: every word through
:func:`~repro.isa.decoding.decode_program`, one at a time.  Results, and
the :class:`~repro.errors.DecodingError` raised for a bad segment, must be
identical.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DecodingError
from repro.isa.altisa import reencode_instruction, reencode_program
from repro.isa.decoding import decode, decode_distinct, decode_program
from repro.isa.dense import DenseEncodingReport, analyze_dense_encoding, is_dense_encodable
from repro.isa.opcodes import (
    COP1_BC,
    COP1_BY_FMT_FUNCT,
    COP1_MFC1,
    COP1_MTC1,
    I_J_BY_OPCODE,
    R_BY_FUNCT,
    REGIMM_BY_SELECTOR,
)
from repro.workloads import FIGURE5_PROGRAMS, load


def reencode_per_word(text: bytes) -> bytes:
    return b"".join(
        reencode_instruction(instruction).to_bytes(4, "big")
        for instruction in decode_program(text)
    )


def analyze_dense_per_word(text: bytes) -> DenseEncodingReport:
    instructions = decode_program(text)
    dense = sum(1 for instruction in instructions if is_dense_encodable(instruction))
    return DenseEncodingReport(instructions=len(instructions), dense_count=dense)


def outcome(function, text: bytes):
    """``("ok", result)`` or ``("error", message)``: what a caller observes."""
    try:
        return "ok", function(text)
    except DecodingError as error:
        return "error", str(error)


def words_to_text(words) -> bytes:
    return b"".join(word.to_bytes(4, "big") for word in words)


def _decodes(word: int) -> bool:
    try:
        decode(word)
    except DecodingError:
        return False
    return True


# ---- word strategies --------------------------------------------------

_BAD_OPCODES = [
    opcode for opcode in range(64) if opcode not in (0, 1, 0x11, *I_J_BY_OPCODE)
]
_BAD_FUNCTS = [funct for funct in range(64) if funct not in R_BY_FUNCT]
_BAD_SELECTORS = [rt for rt in range(32) if rt not in REGIMM_BY_SELECTOR]
_BAD_COP1 = [
    (fmt, funct)
    for fmt in range(32)
    for funct in range(64)
    if fmt not in (COP1_BC, COP1_MFC1, COP1_MTC1)
    and (fmt, funct) not in COP1_BY_FMT_FUNCT
]

any_word = st.integers(0, 2**32 - 1)
valid_word = any_word.filter(_decodes)
invalid_opcode = st.builds(
    lambda opcode, rest: opcode << 26 | rest,
    st.sampled_from(_BAD_OPCODES),
    st.integers(0, 2**26 - 1),
)
invalid_funct = st.builds(
    lambda funct, fields: fields << 6 | funct,
    st.sampled_from(_BAD_FUNCTS),
    st.integers(0, 2**20 - 1),
)
invalid_regimm = st.builds(
    lambda selector, rs, imm: 0x01 << 26 | rs << 21 | selector << 16 | imm,
    st.sampled_from(_BAD_SELECTORS),
    st.integers(0, 31),
    st.integers(0, 0xFFFF),
)
invalid_cop1 = st.builds(
    lambda pair, fields: 0x11 << 26 | pair[0] << 21 | fields << 6 | pair[1],
    st.sampled_from(_BAD_COP1),
    st.integers(0, 2**15 - 1),
)
invalid_word = st.one_of(invalid_opcode, invalid_funct, invalid_regimm, invalid_cop1)


def duplicated(words, max_pool: int = 12, max_size: int = 300):
    """Arrays drawn from a small pool of words: heavy duplication."""
    pools = st.lists(words, min_size=1, max_size=max_pool, unique=True)
    return pools.flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=max_size))


# ---- the Figure 5 corpus ----------------------------------------------


@pytest.fixture(scope="module")
def corpus() -> dict[str, bytes]:
    return {name: load(name).text for name in FIGURE5_PROGRAMS}


def test_corpus_reencoding_and_dense_analysis_match_per_word(corpus):
    for name, text in corpus.items():
        assert reencode_program(text) == reencode_per_word(text), name
        assert analyze_dense_encoding(text) == analyze_dense_per_word(text), name


def test_corpus_distinct_decode_rebuilds_the_program(corpus):
    for name, text in corpus.items():
        instructions, inverse = decode_distinct(text)
        assert len(instructions) < len(inverse)
        assert [instructions[index] for index in inverse] == list(
            load(name).program.instructions
        ), name


# ---- decode_distinct itself ---------------------------------------------


def test_distinct_words_come_in_first_occurrence_order():
    words = [0x24020005, 0x00851021, 0x24020005, 0x00000000, 0x00851021]
    instructions, inverse = decode_distinct(words_to_text(words))
    assert instructions == [decode(0x24020005), decode(0x00851021), decode(0)]
    assert inverse.tolist() == [0, 1, 0, 2, 1]


def test_error_names_the_first_invalid_word_in_text_order():
    first_bad = _BAD_OPCODES[-1] << 26  # numerically large
    later_bad = _BAD_FUNCTS[0]  # numerically small, opcode 0
    text = words_to_text([0x24020005, first_bad, later_bad, first_bad])
    with pytest.raises(DecodingError, match=f"{first_bad:#010x}"):
        decode_distinct(text)
    for function in (reencode_program, analyze_dense_encoding):
        assert outcome(function, text) == outcome(decode_program, text)


def test_empty_text():
    instructions, inverse = decode_distinct(b"")
    assert instructions == [] and len(inverse) == 0
    assert reencode_program(b"") == b""
    assert analyze_dense_encoding(b"") == analyze_dense_per_word(b"")


# ---- property tests against the oracles ---------------------------------


def _assert_matches_oracles(text: bytes) -> None:
    assert outcome(reencode_program, text) == outcome(reencode_per_word, text)
    assert outcome(analyze_dense_encoding, text) == outcome(analyze_dense_per_word, text)


@settings(max_examples=60, deadline=None)
@given(duplicated(valid_word))
def test_valid_duplicated_arrays_match(words):
    _assert_matches_oracles(words_to_text(words))


@settings(max_examples=60, deadline=None)
@given(st.lists(any_word, max_size=200))
def test_full_range_arrays_match(words):
    _assert_matches_oracles(words_to_text(words))


@settings(max_examples=100, deadline=None)
@given(duplicated(st.one_of(valid_word, valid_word, invalid_word)))
def test_arrays_with_invalid_words_match(words):
    _assert_matches_oracles(words_to_text(words))


@settings(max_examples=30, deadline=None)
@given(st.binary(max_size=64).filter(lambda data: len(data) % 4))
def test_ragged_length_error_matches(data):
    _assert_matches_oracles(data)
    assert outcome(lambda text: decode_distinct(text)[0], data) == outcome(
        decode_program, data
    )
