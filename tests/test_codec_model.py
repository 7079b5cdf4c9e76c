"""The CodecModel layer: context-conditioned streams are exactly as
decodable as order-0 ones, on both backends, with sealed tables.

Property tests drive symbol streams through the encoder and the
``reference`` and ``table`` decode backends under ``baseline``,
``ctx1``, ``mtf+huffman`` and ``dict``, requiring identical items
(including from a codec re-parsed out of its own serialised table
words) and identical error shapes on truncated or corrupted streams.
The ``ctx1`` cases draw first-order opcode chains, under which
conditioning pays, and keep only examples whose opcode stream is
conditioned.  Separate unit tests pin the cost-model guarantee (a
context variant never produces a larger blob than ``baseline``), the
opcode-only conditioning rule, the per-context seal checks, the
image-format-v3 round trip, the unknown-variant fallback, and both
CodecModel fault kinds of the injection harness.
"""

from __future__ import annotations

import dataclasses
import random
import warnings

import pytest
from hypothesis import assume, given, settings as hyp_settings, strategies as st

from repro.compress.bitstream import BitWriter
from repro.compress.canonical import CanonicalCode
from repro.compress.codec import (
    _CTX_CODER_ID,
    _KIND_BITS,
    CODEC_VARIANTS,
    DECODE_BACKENDS,
    CodecConfig,
    ProgramCodec,
    codec_variant,
    resolve_codec_variant,
)
from repro.compress.model import (
    MAX_CONTEXTS,
    StreamModel,
    context_bits,
    context_domain,
    serialise_stream_model,
)
from repro.compress.streams import OP_SENTINEL, CodecInstr, codec_fields
from repro.core.integrity import (
    ContextIntegrity,
    ImageIntegrity,
    blob_integrity,
    check_context_seals,
)
from repro.errors import CodecTableError
from repro.faultinject.inject import (
    CONTEXT_FAULT_KINDS,
    apply_fault,
    plan_fault,
)
from repro.isa.fields import FIELD_WIDTHS, FieldKind

VARIANTS = ("baseline", "ctx1", "mtf+huffman", "dict")

BACKENDS = ("reference", "table")


def _opcode_table():
    table = []
    for op in range(64):
        if op == OP_SENTINEL:
            continue
        try:
            table.append((op, codec_fields(op)))
        except ValueError:
            continue
    return table


OPCODES = _opcode_table()


@st.composite
def instr_strategy(draw):
    op, kinds = draw(st.sampled_from(OPCODES))
    fields = tuple(
        draw(st.integers(0, (1 << FIELD_WIDTHS[kind]) - 1))
        for kind in kinds
    )
    return CodecInstr(opcode=op, fields=fields)


@st.composite
def regions_strategy(draw, max_regions=5, max_instrs=12):
    return draw(
        st.lists(
            st.lists(instr_strategy(), min_size=0, max_size=max_instrs),
            min_size=1,
            max_size=max_regions,
        )
    )


@st.composite
def opcode_chains(draw, regions=6, max_instrs=200, n_opcodes=12):
    """Regions whose opcodes follow a first-order chain over
    *n_opcodes* opcodes: each keeps its fixed successor with
    probability 0.95.  Streams of this size and shape condition the
    opcode stream under ``ctx1`` for most seeds (uniform streams of
    any tier-1 size never do)."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    ops = rng.sample(OPCODES, n_opcodes)
    successor = {op: rng.choice(ops) for op, _kinds in ops}
    out = []
    for _ in range(regions):
        current = rng.choice(ops)
        region = []
        for _ in range(rng.randint(0, max_instrs)):
            op, kinds = current
            region.append(
                CodecInstr(
                    opcode=op,
                    fields=tuple(
                        rng.randrange(1 << FIELD_WIDTHS[kind])
                        for kind in kinds
                    ),
                )
            )
            current = (
                successor[op] if rng.random() < 0.95 else rng.choice(ops)
            )
        out.append(region)
    return out


def _regions_for(variant, data, **small):
    """ctx1 draws opcode chains; the other variants small uniform
    streams (*small* sizes them)."""
    if variant == "ctx1":
        return data.draw(opcode_chains())
    return data.draw(regions_strategy(**small))


def _build(variant, regions):
    codec, blob = ProgramCodec.build(regions, codec_variant(variant))
    if variant == "ctx1":
        # Only a conditioned codec runs the context decoders; if the
        # strategy stops conditioning, Hypothesis fails its health
        # check instead of passing vacuously.
        assume(codec.models)
    return codec, blob


def _error_shape(exc: BaseException):
    return (type(exc), getattr(exc, "bit_offset", None), str(exc))


def _decode_or_error(fn):
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 - shape-compared below
        return ("error", _error_shape(exc))


def _decode_all(codec, words, offsets, backend):
    return [
        codec.decode_region(words, off, backend=backend) for off in offsets
    ]


def _assert_error_parity(codec, words, offsets):
    for off in offsets:
        reference, table = (
            _decode_or_error(
                lambda b=backend: codec.decode_region(words, off, backend=b)
            )
            for backend in BACKENDS
        )
        assert table == reference


def _descriptor(**kw):
    """A SquashDescriptor with every unused field at a neutral value."""
    from repro.core.costmodel import CostModel
    from repro.core.descriptor import (
        BufferStrategy,
        RestoreStubScheme,
        SquashDescriptor,
    )

    base = dict(
        strategy=BufferStrategy.OVERWRITE,
        restore_scheme=RestoreStubScheme.RUNTIME,
        cost=CostModel(),
        decomp_base=0,
        decomp_words=0,
        offset_table_addr=0,
        table_addr=0,
        table_words=0,
        stream_addr=0,
        stream_words=0,
        stub_area_base=0,
        stub_area_words=0,
        stub_capacity=0,
        buffer_base=0,
        buffer_words=0,
    )
    base.update(kw)
    return SquashDescriptor(**base)


# -- backend identity under every variant ------------------------------------


@pytest.mark.parametrize("variant", VARIANTS)
@given(data=st.data())
@hyp_settings(max_examples=40, deadline=None)
def test_all_backends_decode_identically(variant, data):
    regions = _regions_for(variant, data)
    codec, blob = _build(variant, regions)
    words = list(blob.stream_words)
    offsets = list(blob.region_bit_offsets)
    reference = _decode_all(codec, words, offsets, "reference")
    assert _decode_all(codec, words, offsets, "table") == reference
    # The decoded items are the encoded items.
    assert [items for items, _bits in reference] == [
        list(region) for region in regions
    ]


@pytest.mark.parametrize("variant", ("baseline", "ctx1"))
@given(data=st.data())
@hyp_settings(max_examples=25, deadline=None)
def test_reparsed_codec_decodes_identically(variant, data):
    """A codec re-parsed from its own serialised table words is the
    same decoder: same layouts, same models, same decodes."""
    regions = _regions_for(variant, data, max_regions=4, max_instrs=10)
    codec, blob = _build(variant, regions)
    reparsed = ProgramCodec.from_table_words(blob.table_words)
    words = list(blob.stream_words)
    offsets = list(blob.region_bit_offsets)
    assert set(reparsed.models) == set(codec.models)
    for backend in BACKENDS:
        assert _decode_all(reparsed, words, offsets, backend) == _decode_all(
            codec, words, offsets, backend
        )


# -- error parity ------------------------------------------------------------


@pytest.mark.parametrize("variant", ("baseline", "ctx1"))
@given(data=st.data())
@hyp_settings(max_examples=25, deadline=None)
def test_truncated_stream_error_parity(variant, data):
    regions = _regions_for(variant, data, max_regions=3, max_instrs=8)
    codec, blob = _build(variant, regions)
    words = list(blob.stream_words)
    if len(words) < 2:
        return
    cut = data.draw(st.integers(0, len(words) - 1))
    _assert_error_parity(codec, words[:cut], blob.region_bit_offsets)


@pytest.mark.parametrize("variant", ("baseline", "ctx1"))
@given(data=st.data())
@hyp_settings(max_examples=25, deadline=None)
def test_corrupt_stream_error_parity(variant, data):
    regions = _regions_for(variant, data, max_regions=3, max_instrs=8)
    codec, blob = _build(variant, regions)
    words = list(blob.stream_words)
    if not words:
        return
    flip = data.draw(st.integers(0, len(words) - 1))
    corrupt = list(words)
    corrupt[flip] ^= 0xFFFFFFFF
    _assert_error_parity(codec, corrupt, blob.region_bit_offsets)


# -- cost model guarantee ----------------------------------------------------


@given(regions=st.one_of(regions_strategy(), opcode_chains()))
@hyp_settings(max_examples=40, deadline=None)
def test_context_variants_never_larger_than_baseline(regions):
    """The cost-driven context selection falls back to order-0 whenever
    conditioning does not pay for its own mapping + table overhead, so
    a context variant's blob is never bigger than baseline's."""
    _, base = ProgramCodec.build(regions, codec_variant("baseline"))
    _, blob = ProgramCodec.build(regions, codec_variant("ctx1"))
    assert (
        blob.table_bits + blob.stream_bits
        <= base.table_bits + base.stream_bits
    )


# -- only the opcode stream is conditioned -----------------------------------


def test_config_rejects_field_stream_contexts():
    for kinds in ({FieldKind.RA}, {FieldKind.OPCODE, FieldKind.RB}):
        with pytest.raises(ValueError, match="only the opcode stream"):
            CodecConfig(context_kinds=frozenset(kinds))


def _conditioned_ra_tables() -> list[int]:
    """Context-format tables (hand-serialised) whose RA stream is
    conditioned on the previous register."""
    opcode = CanonicalCode.from_lengths({0x31: 1, OP_SENTINEL: 1})
    rb = CanonicalCode.from_lengths({0: 1, 1: 1})
    ra = StreamModel(
        FieldKind.RA,
        (
            CanonicalCode.from_lengths({1: 1, 2: 1}),
            CanonicalCode.from_lengths({3: 1, 4: 1}),
        ),
        tuple(prev % 2 for prev in range(context_domain(FieldKind.RA))),
    )
    streams = (
        StreamModel(FieldKind.OPCODE, (opcode,)),
        ra,
        StreamModel(FieldKind.RB, (rb,)),
    )
    writer = BitWriter()
    writer.write_bits(len(streams), _KIND_BITS)
    writer.write_bits(_CTX_CODER_ID, 2)
    for model in streams:
        writer.write_bits(int(model.kind), _KIND_BITS)
        writer.write_bits(0, 1)  # no MTF alphabet
        value_bits = 6 if model.kind is FieldKind.OPCODE else (
            FIELD_WIDTHS[model.kind]
        )
        serialise_stream_model(writer, model, value_bits)
    return writer.to_words()


def _ra_only_tables() -> list[int]:
    """Order-0 tables (hand-serialised) listing only an RA stream."""
    writer = BitWriter()
    writer.write_bits(1, _KIND_BITS)
    writer.write_bits(0, 2)  # huffman
    writer.write_bits(int(FieldKind.RA), _KIND_BITS)
    writer.write_bits(0, 1)  # no MTF alphabet
    CanonicalCode.from_lengths({1: 1, 2: 1}).serialise(
        writer, FIELD_WIDTHS[FieldKind.RA]
    )
    return writer.to_words()


def test_conditioned_field_stream_is_a_parse_error():
    with pytest.raises(CodecTableError, match="stream RA is conditioned"):
        ProgramCodec.from_table_words(_conditioned_ra_tables())


def _machine_with_tables(mini_program, mini_profile, tables: list[int]):
    """A machine running the mini program's squashed image with its
    table area replaced by *tables*."""
    from repro.core.pipeline import SquashConfig, squash_program
    from repro.core.runtime import SquashRuntime
    from repro.vm.machine import Machine
    from tests.conftest import MINI_TIMING_INPUT

    result = squash_program(
        mini_program, mini_profile, SquashConfig(theta=1.0)
    )
    # Without integrity metadata the table CRC and seals do not run
    # first, so the parser sees the tables.
    desc = dataclasses.replace(result.descriptor, integrity=None)
    assert len(tables) <= desc.table_words
    memory = list(result.image.memory)
    start = desc.table_addr - result.image.base
    memory[start : start + desc.table_words] = tables + [0] * (
        desc.table_words - len(tables)
    )
    image = dataclasses.replace(result.image, memory=memory)
    runtime = SquashRuntime(desc, region_cache=False)
    return Machine(
        image, input_words=MINI_TIMING_INPUT, services=runtime.services()
    )


def test_runtime_rejects_conditioned_field_stream(mini_program, mini_profile):
    """An image whose tables condition RA fails at table parse, through
    the runtime, with the same typed error."""
    machine = _machine_with_tables(
        mini_program, mini_profile, _conditioned_ra_tables()
    )
    with pytest.raises(CodecTableError, match="stream RA is conditioned"):
        machine.run(max_steps=5_000_000)


def test_tables_without_opcode_stream_are_rejected(mini_program, mini_profile):
    """Tables with no OPCODE stream fail at parse with a typed error
    naming it, directly and through the runtime (not a raw KeyError
    from the reference decoder at the first region)."""
    from repro import settings

    with pytest.raises(CodecTableError, match="no code for stream OPCODE"):
        ProgramCodec.from_table_words(_ra_only_tables())
    for backend in BACKENDS:
        machine = _machine_with_tables(
            mini_program, mini_profile, _ra_only_tables()
        )
        with settings.use_settings(decode_backend=backend):
            with pytest.raises(
                CodecTableError, match="no code for stream OPCODE"
            ):
                machine.run(max_steps=5_000_000)


# -- model layer validation --------------------------------------------------


def test_stream_model_context_routing():
    from repro.compress.canonical import CanonicalCode

    tables = tuple(
        CanonicalCode.from_lengths({0: 1, 1 + i: 1}) for i in range(3)
    )
    mapping = tuple(i % 3 for i in range(context_domain(FieldKind.OPCODE)))
    model = StreamModel(
        kind=FieldKind.OPCODE, tables=tables, mapping=mapping
    )
    assert model.conditioned
    assert model.n_contexts == 3
    for prev in (0, 5, OP_SENTINEL):
        assert model.context_of(prev) == mapping[prev]


def test_context_bits_always_encode_out_of_range():
    """ctx_bits = bit_length(n) leaves headroom, so every mapping can
    hold at least one out-of-range value -- which is what makes the
    index-corrupt fault always expressible and always detectable."""
    for n in range(1, MAX_CONTEXTS + 1):
        assert (1 << context_bits(n)) > n


def test_mapping_out_of_range_is_typed_table_error():
    _, blob = _ctx1_blob()
    # Layouts are recovered by the parser; reparse to locate the
    # mapping bits of the conditioned stream.
    parsed = ProgramCodec.from_table_words(blob.table_words)
    layout = next(
        lo for lo in parsed.table_layouts.values() if lo.n_contexts > 1
    )
    from repro.faultinject.inject import _write_table_bits

    words = list(blob.table_words)
    _write_table_bits(
        words, 0, layout.mapping_start_bit, layout.ctx_bits,
        layout.n_contexts,
    )
    with pytest.raises(CodecTableError) as err:
        ProgramCodec.from_table_words(words)
    assert "context index" in str(err.value)
    assert "[context" in str(err.value)


# -- per-context seals -------------------------------------------------------


def _ctx1_blob():
    """A workload with hard opcode bigram structure, so the cost model
    actually conditions the opcode stream under ctx1."""
    pattern = [
        CodecInstr(opcode=0x08, fields=(1, 2, 40)),
        CodecInstr(opcode=0x10, fields=(26, 3)),
        CodecInstr(opcode=0x09, fields=(4, 5, 6)),
        CodecInstr(opcode=0x00, fields=(2,)),
    ]
    regions = [pattern * 12 for _ in range(4)]
    codec, blob = ProgramCodec.build(regions, codec_variant("ctx1"))
    assert codec.models, "fixture must produce a conditioned stream"
    return codec, blob


def test_blob_integrity_carries_per_context_records():
    codec, blob = _ctx1_blob()
    integ = blob_integrity(blob)
    assert integ.contexts
    assert [
        (r.kind, r.ctx, r.start_bit, r.end_bit) for r in integ.contexts
    ] == list(blob.context_spans)
    # Seals verify against the clean table area.
    check_context_seals(blob.table_words, integ)


def test_corrupt_seal_raises_with_context_id():
    _, blob = _ctx1_blob()
    integ = blob_integrity(blob)
    victim = max(range(len(integ.contexts)),
                 key=lambda i: integ.contexts[i].ctx)
    record = integ.contexts[victim]
    integ.contexts[victim] = dataclasses.replace(
        record, crc=record.crc ^ 1
    )
    with pytest.raises(CodecTableError) as err:
        check_context_seals(blob.table_words, integ)
    assert f"[context {record.ctx}]" in str(err.value)
    assert FieldKind(record.kind).name in str(err.value)


def test_seal_span_outside_table_area_is_rejected():
    _, blob = _ctx1_blob()
    integ = blob_integrity(blob)
    integ.contexts[0] = dataclasses.replace(
        integ.contexts[0], end_bit=len(blob.table_words) * 32 + 1
    )
    with pytest.raises(CodecTableError):
        check_context_seals(blob.table_words, integ)


def test_old_integrity_json_without_contexts_parses():
    """Integrity dicts written before the contexts field existed (image
    descriptors on disk) still round-trip."""
    from repro.core.descriptor import (
        descriptor_from_dict,
        descriptor_to_dict,
    )

    _, blob = _ctx1_blob()
    integ = blob_integrity(blob)
    desc = _descriptor(
        table_words=len(blob.table_words),
        stream_words=len(blob.stream_words),
        integrity=integ,
    )
    payload = descriptor_to_dict(desc)
    # New-format round trip keeps typed records.
    again = descriptor_from_dict(payload)
    assert again.integrity.contexts == integ.contexts
    # Old-format payload: no contexts key at all.
    payload["integrity"].pop("contexts")
    legacy = descriptor_from_dict(payload)
    assert legacy.integrity.contexts == []


# -- image format v3 ---------------------------------------------------------


def test_image_v3_round_trips_codec_contexts(tmp_path):
    from repro.program.image import LoadedImage, Segment
    from repro.program.imagefile import load_image, save_image

    image = LoadedImage(
        memory=[i * 7 & 0xFFFFFFFF for i in range(64)],
        base=0x1000,
        entry_pc=0x1004,
        segments=[Segment("text", 0x1000, 64)],
    )
    records = [
        ContextIntegrity(
            kind=0, ctx=0, start_bit=0, end_bit=96, crc=0xDEADBEEF
        ),
        ContextIntegrity(
            kind=3, ctx=2, start_bit=96, end_bit=200, crc=0x12345678
        ),
    ]
    path = tmp_path / "ctx.img"
    save_image(image, path, contexts=records)
    loaded = load_image(path)
    assert loaded.memory == image.memory
    assert loaded.codec_contexts == [
        (0, 0, 0, 96, 0xDEADBEEF),
        (3, 2, 96, 200, 0x12345678),
    ]


def test_image_v3_without_contexts(tmp_path):
    from repro.program.image import LoadedImage
    from repro.program.imagefile import load_image, save_image

    image = LoadedImage(memory=[1, 2, 3], base=0, entry_pc=0)
    path = tmp_path / "plain.img"
    save_image(image, path)
    assert load_image(path).codec_contexts == []


# -- codec variants ----------------------------------------------------------


def test_registry_lists_context_variants():
    names = set(CODEC_VARIANTS)
    assert names == {
        "huffman", "mtf+huffman", "dict", "mtf+dict", "baseline", "ctx1",
    }


def test_decode_backend_registry():
    assert set(DECODE_BACKENDS) == {"reference", "table"}


def test_baseline_is_order0_huffman():
    config = codec_variant("baseline")
    assert config.coder == "huffman"
    assert not config.context_kinds
    assert config == codec_variant("huffman")


def test_unknown_variant_warns_once_and_falls_back():
    from repro.compress import codec as codec_mod
    from repro.obs.metrics import get_registry

    def fallbacks():
        snap = get_registry().snapshot()
        return snap.get("counters", {}).get("codec.variant_fallback", 0)

    name = "no-such-variant-xyzzy"
    codec_mod._VARIANT_WARNED.discard(name)
    before = fallbacks()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = resolve_codec_variant(name)
        second = resolve_codec_variant(name)
    assert first == codec_variant("baseline")
    assert second == codec_variant("baseline")
    assert len(caught) == 1  # warned once, not per call
    assert name in str(caught[0].message)
    after = fallbacks()
    assert after == before + 2  # but every fallback is counted
    codec_mod._VARIANT_WARNED.discard(name)


def test_effective_codec_precedence():
    from repro import settings
    from repro.core.config import SquashConfig

    assert SquashConfig().effective_codec() == codec_variant("baseline")
    with settings.use_settings(codec_variant="ctx1"):
        assert (
            SquashConfig().effective_codec() == codec_variant("ctx1")
        )
        # The explicit config field wins over the settings knob.
        assert (
            SquashConfig(codec_variant="baseline").effective_codec()
            == codec_variant("baseline")
        )


# -- CodecModel fault kinds --------------------------------------------------


def _fault_fixture():
    """A descriptor + image pair shaped like a squashed table area."""
    from repro.program.image import LoadedImage

    codec, blob = _ctx1_blob()
    integ = blob_integrity(blob)
    memory = list(blob.table_words) + list(blob.stream_words)
    image = LoadedImage(memory=memory, base=0x2000, entry_pc=0x2000)
    desc = _descriptor(
        table_addr=0x2000,
        table_words=len(blob.table_words),
        stream_addr=0x2000 + len(blob.table_words),
        stream_words=len(blob.stream_words),
        offset_table_addr=0x2000 + len(memory),
        integrity=integ,
    )
    return codec, image, desc


def test_plan_covers_both_context_kinds():
    assert CONTEXT_FAULT_KINDS == (
        "context-seal-corrupt", "context-index-corrupt",
    )


def test_seal_fault_is_caught_by_seal_check():
    _, image, desc = _fault_fixture()
    rng = random.Random(7)
    spec = plan_fault("context-seal-corrupt", desc, rng, image)
    faulty_image, faulty_desc = apply_fault(image, desc, spec)
    # The image itself is untouched; the descriptor's seal lies.
    assert faulty_image.memory == image.memory
    start = desc.table_addr - image.base
    table = faulty_image.memory[start : start + desc.table_words]
    with pytest.raises(CodecTableError) as err:
        check_context_seals(table, faulty_desc.integrity)
    assert "[context" in str(err.value)
    # The clean descriptor still verifies.
    check_context_seals(table, desc.integrity)


def test_index_fault_is_caught_by_the_parser():
    from repro.core.integrity import check_area_crc, words_crc

    _, image, desc = _fault_fixture()
    rng = random.Random(11)
    spec = plan_fault("context-index-corrupt", desc, rng, image)
    faulty_image, faulty_desc = apply_fault(image, desc, spec)
    start = desc.table_addr - image.base
    table = faulty_image.memory[start : start + desc.table_words]
    # Seals and the (recomputed) whole-area CRC both pass: the mapping
    # lies outside every span, so only the parser can catch this.
    check_context_seals(table, faulty_desc.integrity)
    assert faulty_desc.integrity.table_crc == words_crc(table)
    with pytest.raises(CodecTableError) as err:
        ProgramCodec.from_table_words(table)
    assert "context index" in str(err.value)


def test_context_faults_refuse_unconditioned_images():
    from repro.program.image import LoadedImage

    desc = _descriptor(
        table_words=1, stream_addr=1, stream_words=1,
        offset_table_addr=2,
        integrity=ImageIntegrity(
            table_crc=0, stream_crc=0, offset_table_crc=0,
            table_bits=0, stream_bits=0, regions=[], contexts=[],
        ),
    )
    image = LoadedImage(memory=[0, 0], base=0, entry_pc=0)
    rng = random.Random(0)
    with pytest.raises(ValueError):
        plan_fault("context-seal-corrupt", desc, rng, image)
    with pytest.raises(ValueError):
        plan_fault("context-index-corrupt", desc, rng, None)
