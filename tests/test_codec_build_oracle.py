"""Oracles for the one-pass squash encoder and the word-wise region CRC.

``reference_build`` is the earlier three-walk :meth:`ProgramCodec.build`
(frequency pass, bigram pass, then one ``write_bits`` per symbol, with
the conditioned-opcode encoder ``_reference_encode_stream_ctx``), kept
verbatim.  The one-pass build must give a field-for-field identical
:class:`CompressedBlob` for every codec variant.  The drawn regions use
real opcodes and the XCALLD/XCALLI pseudo-ops with field values from
pools of at most three, so stream frequencies tie and the Huffman and
dictionary builders' tie-breaks (first appearance in the merged stream,
the sentinel right after region 0's items) decide the codes.

``reference_bit_range_crc`` is the earlier byte-at-a-time
:func:`bit_range_crc`; the word-wise one must agree with it on every
start and end alignment, on empty ranges and on words with bits set
above 32, read through a list and through the runtime's memory view.
"""

from __future__ import annotations

import dataclasses
import random
from types import SimpleNamespace
from typing import Sequence
from zlib import crc32

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.compress.bitstream import BitWriter
from repro.compress.canonical import CanonicalCode
from repro.compress.codec import (
    CODEC_VARIANTS,
    CodecConfig,
    CompressedBlob,
    ProgramCodec,
    _value_bits,
    codec_variant,
)
from repro.compress.dictionary import DictionaryCode
from repro.compress.model import (
    StreamModel,
    select_context_models,
    start_symbol,
)
from repro.compress.mtf import MoveToFront
from repro.compress.streams import (
    OP_SENTINEL,
    OP_XCALLD,
    OP_XCALLI,
    CodecInstr,
    codec_fields,
    sentinel_item,
)
from repro.core.integrity import bit_range_crc
from repro.core.runtime import _MemWords
from repro.isa.fields import FIELD_WIDTHS, FieldKind

# -- the earlier encoder, verbatim -------------------------------------------


def reference_build(
    regions: Sequence[Sequence[CodecInstr]],
    config: CodecConfig | None = None,
) -> tuple[ProgramCodec, CompressedBlob]:
    """Build codes over *regions* and encode them all.

    A sentinel is appended to every region.  Returns the codec and
    the compressed blob (tables + merged stream + region offsets).
    """
    config = config or CodecConfig()
    closed: list[list[CodecInstr]] = [
        [*region, sentinel_item()] for region in regions
    ]

    # Pass 1: gather per-kind value sequences (with per-region MTF
    # reset) and count frequencies.
    mtf_alphabets: dict[FieldKind, tuple[int, ...]] = {}
    if config.mtf_kinds:
        raw_values: dict[FieldKind, set[int]] = {}
        for region in closed:
            for item in region:
                for kind, value in zip(
                    codec_fields(item.opcode), item.fields
                ):
                    if kind in config.mtf_kinds:
                        raw_values.setdefault(kind, set()).add(value)
        mtf_alphabets = {
            kind: tuple(sorted(values))
            for kind, values in raw_values.items()
        }

    frequencies: dict[FieldKind, dict[int, int]] = {
        FieldKind.OPCODE: {}
    }
    for region in closed:
        transforms = {
            kind: MoveToFront(alphabet)
            for kind, alphabet in mtf_alphabets.items()
        }
        for item in region:
            opfreq = frequencies[FieldKind.OPCODE]
            opfreq[item.opcode] = opfreq.get(item.opcode, 0) + 1
            for kind, value in zip(
                codec_fields(item.opcode), item.fields
            ):
                if kind in transforms:
                    value = transforms[kind].encode_one(value)
                kfreq = frequencies.setdefault(kind, {})
                kfreq[value] = kfreq.get(value, 0) + 1

    # Order-1 candidate: count opcode bigrams under the region-reset
    # convention, then let the exact cost model pick a context
    # partition (possibly order-0) with a global fallback that
    # guarantees the context format never loses to the legacy one.
    models: dict[FieldKind, StreamModel] = {}
    if config.context_kinds:
        bigrams: dict[int, dict[int, int]] = {}
        for region in closed:
            prev = start_symbol(FieldKind.OPCODE)
            for item in region:
                by_prev = bigrams.setdefault(prev, {})
                by_prev[item.opcode] = by_prev.get(item.opcode, 0) + 1
                prev = item.opcode
        models = select_context_models(
            {FieldKind.OPCODE: bigrams},
            {FieldKind.OPCODE: _value_bits(FieldKind.OPCODE, None)},
            max_contexts=config.max_contexts,
            total_streams=len(frequencies),
        )

    def build_code(kind: FieldKind, freq: dict[int, int]):
        if config.coder == "dict":
            bits = _value_bits(
                kind, len(mtf_alphabets[kind])
                if kind in mtf_alphabets else None
            )
            return DictionaryCode.from_frequencies(freq, bits)
        return CanonicalCode.from_frequencies(freq)

    codes = {
        kind: (
            models[kind].tables[0]
            if kind in models
            else build_code(kind, freq)
        )
        for kind, freq in frequencies.items()
    }
    codec = ProgramCodec(
        codes=codes,
        mtf_alphabets=mtf_alphabets,
        coder=config.coder,
        models=models,
    )

    # Pass 2: encode the merged stream.
    writer = BitWriter()
    offsets: list[int] = []
    if models:
        _reference_encode_stream_ctx(codec, closed, writer, offsets)
    else:
        encoders = {
            kind: code.encoder() for kind, code in codes.items()
        }
        for region in closed:
            offsets.append(writer.bit_length)
            transforms = {
                kind: MoveToFront(alphabet)
                for kind, alphabet in mtf_alphabets.items()
            }
            for item in region:
                code, length = encoders[FieldKind.OPCODE][item.opcode]
                writer.write_bits(code, length)
                for kind, value in zip(
                    codec_fields(item.opcode), item.fields
                ):
                    if kind in transforms:
                        value = transforms[kind].encode_one(value)
                    code, length = encoders[kind][value]
                    writer.write_bits(code, length)

    table_writer = BitWriter()
    spans: list[tuple[int, int, int, int]] = []
    codec._serialise_tables(table_writer, spans)
    blob = CompressedBlob(
        table_words=table_writer.to_words(),
        stream_words=writer.to_words(),
        region_bit_offsets=offsets,
        table_bits=table_writer.bit_length,
        stream_bits=writer.bit_length,
        context_spans=spans,
    )
    return codec, blob


def _reference_encode_stream_ctx(
    self: ProgramCodec,
    closed: Sequence[Sequence[CodecInstr]],
    writer: BitWriter,
    offsets: list[int],
) -> None:
    """Encode the merged stream with a conditioned opcode stream.

    The opcode is coded against the context its predecessor maps to
    (reset per region per :func:`~repro.compress.model.start_symbol`);
    field streams use their single table exactly as the order-0
    loop in :meth:`build` does.
    """
    op_model = self.models[FieldKind.OPCODE]
    op_bank = tuple(t.encoder() for t in op_model.tables)
    encoders = {kind: code.encoder() for kind, code in self.codes.items()}
    for region in closed:
        offsets.append(writer.bit_length)
        transforms = {
            kind: MoveToFront(alphabet)
            for kind, alphabet in self.mtf_alphabets.items()
        }
        prev = start_symbol(FieldKind.OPCODE)
        for item in region:
            encoder = op_bank[op_model.context_of(prev)]
            prev = item.opcode
            code, length = encoder[item.opcode]
            writer.write_bits(code, length)
            for kind, value in zip(
                codec_fields(item.opcode), item.fields
            ):
                if kind in transforms:
                    value = transforms[kind].encode_one(value)
                code, length = encoders[kind][value]
                writer.write_bits(code, length)


# -- the earlier region CRC, verbatim ----------------------------------------


def reference_bit_range_crc(words: Sequence[int], start_bit: int, end_bit: int) -> int:
    """CRC32 over the MSB-first bit range ``[start_bit, end_bit)``.

    *words* may be any word-indexable source (a list, or the runtime's
    view of machine memory); a trailing partial byte is left-aligned.
    """
    if not 0 <= start_bit <= end_bit:
        raise ValueError(f"bad bit range [{start_bit}, {end_bit})")
    out = bytearray()
    pos = start_bit
    remaining = end_bit - start_bit
    while remaining >= 8:
        take = min(remaining, 32) & ~7  # whole bytes, at most one word
        out.extend(_reference_read_bits(words, pos, take).to_bytes(take // 8, "big"))
        pos += take
        remaining -= take
    if remaining:
        out.append(_reference_read_bits(words, pos, remaining) << (8 - remaining))
    return crc32(bytes(out))


def _reference_read_bits(words: Sequence[int], pos: int, nbits: int) -> int:
    """Read *nbits* MSB-first at absolute bit position *pos*."""
    value = 0
    while nbits > 0:
        word_index, bit_index = divmod(pos, 32)
        take = min(nbits, 32 - bit_index)
        word = words[word_index]
        value = (value << take) | (
            (word >> (32 - bit_index - take)) & ((1 << take) - 1)
        )
        pos += take
        nbits -= take
    return value


# -- build oracle ------------------------------------------------------------

#: Every registered codec variant (``huffman`` and ``baseline`` name the
#: same config; both are listed so neither can drift).
VARIANTS = tuple(sorted(CODEC_VARIANTS))


def _opcode_table() -> tuple[tuple[int, tuple[FieldKind, ...]], ...]:
    table = []
    for op in range(64):
        if op == OP_SENTINEL:
            continue
        try:
            table.append((op, codec_fields(op)))
        except ValueError:
            continue
    return tuple(table)


#: Real opcodes plus the XCALLD/XCALLI pseudo-ops, with their fields.
OPCODES = _opcode_table()
assert {OP_XCALLD, OP_XCALLI} <= {op for op, _ in OPCODES}

#: Field kinds of the codec's field streams.
FIELD_KINDS = tuple(
    sorted({kind for _, kinds in OPCODES for kind in kinds}, key=int)
)


@st.composite
def field_pools(draw) -> dict[FieldKind, list[int]]:
    """At most three values per field kind, so frequencies tie."""
    return {
        kind: draw(
            st.lists(
                st.integers(0, (1 << FIELD_WIDTHS[kind]) - 1),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        for kind in FIELD_KINDS
    }


@st.composite
def tied_regions(draw) -> list[list[CodecInstr]]:
    """Regions (empty ones included) over a few opcodes and pooled
    field values."""
    ops = draw(st.lists(st.sampled_from(OPCODES), min_size=1, max_size=4))
    pools = draw(field_pools())
    item = st.sampled_from(ops).flatmap(
        lambda entry: st.tuples(
            *(st.sampled_from(pools[kind]) for kind in entry[1])
        ).map(lambda fields, op=entry[0]: CodecInstr(op, fields))
    )
    return draw(
        st.lists(st.lists(item, max_size=12), min_size=1, max_size=5)
    )


def chain_regions(seed: int, pools: dict[FieldKind, list[int]]):
    """Regions whose opcodes follow a first-order chain: long and
    skewed enough that ``ctx1`` conditions the opcode stream."""
    rng = random.Random(seed)
    ops = rng.sample(OPCODES, 10)
    successor = {op: ops[(i + 1) % len(ops)] for i, op in enumerate(ops)}
    regions = []
    for _ in range(rng.randint(1, 6)):
        current = rng.choice(ops)
        region = []
        for _ in range(rng.choice((0, 1, 100, 300))):
            op, kinds = current
            region.append(
                CodecInstr(op, tuple(rng.choice(pools[k]) for k in kinds))
            )
            if rng.random() < 0.95:
                current = successor[current]
            else:
                current = rng.choice(ops)
        regions.append(region)
    return regions


@st.composite
def any_regions(draw) -> list[list[CodecInstr]]:
    if draw(st.booleans()):
        return draw(tied_regions())
    return chain_regions(draw(st.integers(0, 2**32 - 1)), draw(field_pools()))


def _assert_same_build(regions, config: CodecConfig) -> ProgramCodec:
    ref_codec, ref_blob = reference_build(regions, config)
    codec, blob = ProgramCodec.build(regions, config)
    for f in dataclasses.fields(CompressedBlob):
        assert getattr(blob, f.name) == getattr(ref_blob, f.name), f.name
    assert codec.codes == ref_codec.codes
    assert codec.models == ref_codec.models
    assert codec.mtf_alphabets == ref_codec.mtf_alphabets
    return codec


@pytest.mark.parametrize("variant", VARIANTS)
@hyp_settings(max_examples=100, deadline=None)
@given(regions=any_regions())
def test_build_matches_reference(variant, regions):
    _assert_same_build(regions, codec_variant(variant))


#: Regions on which counting the sentinel after every region, instead
#: of where it first appears (right after region 0's items), changes
#: the order-0 Huffman codes (and, for the second, the dictionary's).
SENTINEL_ORDER_CASES = (
    (
        ((22, (0, 1)), (16, (1, 1)), (22, (1, 1))),
        ((22, (1, 0)), (11, (1, 1, 1)), (22, (1, 0))),
        ((11, (1, 0, 1)), (22, (1, 0)), (11, (0, 1, 0)), (22, (0, 0))),
    ),
    (
        ((25, (0, 0)), (25, (0, 0)), (27, (0, 0, 1))),
        ((19, (1, 0)), (25, (1, 0)), (27, (0, 0, 1)), (19, (0, 0))),
    ),
)


@pytest.mark.parametrize("variant", VARIANTS)
def test_pinned_regions_match_reference(variant):
    config = codec_variant(variant)
    item = CodecInstr(OP_XCALLI, (3, 4))
    for regions in ([[]], [[], []], [[item]], [[item] * 5, [], [item]]):
        _assert_same_build(regions, config)
    for case in SENTINEL_ORDER_CASES:
        regions = [[CodecInstr(*entry) for entry in r] for r in case]
        _assert_same_build(regions, config)


def test_ctx1_oracle_covers_conditioned_codecs():
    """The chains above do condition the opcode stream, so the
    conditioned encode path is compared too, not only ctx1's order-0
    fallback."""
    pools = {kind: [0, 1] for kind in FIELD_KINDS}
    conditioned = 0
    for seed in range(12):
        codec = _assert_same_build(
            chain_regions(seed, pools), codec_variant("ctx1")
        )
        conditioned += bool(codec.models)
    assert conditioned >= 4


def test_no_regions_fails_like_reference():
    for variant in VARIANTS:
        config = codec_variant(variant)
        with pytest.raises(ValueError) as want:
            reference_build([], config)
        with pytest.raises(ValueError) as got:
            ProgramCodec.build([], config)
        assert str(got.value) == str(want.value)


# -- CRC oracle --------------------------------------------------------------


def _views(words: list[int]):
    """*words* as a list and through the runtime's memory view (placed
    at a nonzero base of a larger memory)."""
    memory = SimpleNamespace(mem=[0xDEAD] * 3 + list(words) + [0xBEEF])
    return (words, _MemWords(memory, 3, len(words)))


def _crc_or_error(fn, words, start, end):
    try:
        return ("ok", fn(words, start, end))
    except (IndexError, ValueError) as exc:
        return ("error", type(exc))


def test_crc_matches_reference_at_every_alignment():
    rng = random.Random(7)
    words = [rng.getrandbits(40) for _ in range(3)] + [-1, -(2**35) + 5]
    for view in _views(words):
        total = len(words) * 32
        for start in range(total + 1):
            for end in range(start, min(total, start + 72) + 1):
                assert bit_range_crc(view, start, end) == (
                    reference_bit_range_crc(view, start, end)
                ), (start, end)


@hyp_settings(max_examples=200, deadline=None)
@given(
    words=st.lists(
        st.integers(-(2**40), 2**40), min_size=0, max_size=40
    ),
    data=st.data(),
)
def test_crc_matches_reference_on_random_ranges(words, data):
    total = len(words) * 32
    start = data.draw(st.integers(0, total + 40))
    end = data.draw(st.integers(start, total + 80))
    for view in _views(words):
        assert _crc_or_error(bit_range_crc, view, start, end) == (
            _crc_or_error(reference_bit_range_crc, view, start, end)
        )


def test_crc_empty_and_bad_ranges():
    for view in _views([1, 2]):
        assert bit_range_crc(view, 64, 64) == crc32(b"") == 0
        assert bit_range_crc(view, 500, 500) == 0
        with pytest.raises(ValueError, match="bad bit range"):
            bit_range_crc(view, 9, 8)
        with pytest.raises(IndexError):
            bit_range_crc(view, 60, 65)
