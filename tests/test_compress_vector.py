"""The vector batch decoder is indistinguishable from the table path.

Property tests drive random codec tables and random region streams
through all three registered backends (``reference``, ``table``,
``vector``) and require identical items and identical consumed bit
counts; truncated and corrupted streams must raise the same
:mod:`repro.errors` type at the same bit offset as the sequential
decoder.  The vector machine may only ever be a faster spelling of the
paper's DECODE loop — never a different decoder.
"""

from __future__ import annotations

from hypothesis import given, settings as hyp_settings, strategies as st

from repro import settings
from repro.compress import vector
from repro.compress.codec import (
    DECODE_BACKENDS,
    CodecConfig,
    ProgramCodec,
    resolve_decode_backend,
)
from repro.compress.streams import OP_SENTINEL, CodecInstr, codec_fields
from repro.errors import TruncatedStreamError
from repro.isa.fields import FIELD_WIDTHS

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
def regions_strategy(draw, max_regions=6, max_instrs=12):
    return draw(
        st.lists(
            st.lists(instr_strategy(), min_size=0, max_size=max_instrs),
            min_size=1,
            max_size=max_regions,
        )
    )


def _decode_all(codec, words, offsets, backend):
    return [
        codec.decode_region(words, off, backend=backend) for off in offsets
    ]


def _error_shape(exc: BaseException):
    return (type(exc), getattr(exc, "bit_offset", None), str(exc))


def _decode_or_error(fn):
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 - shape-compared below
        return ("error", _error_shape(exc))


# -- identity across backends ------------------------------------------------


@given(regions_strategy())
@hyp_settings(max_examples=60, deadline=None)
def test_all_backends_decode_identically(regions):
    codec, blob = ProgramCodec.build(regions, CodecConfig())
    words = list(blob.stream_words)
    offsets = list(blob.region_bit_offsets)
    reference = _decode_all(codec, words, offsets, "reference")
    table = _decode_all(codec, words, offsets, "table")
    batch = vector.decode_batch([(codec, words, offsets)])[0]
    assert table == reference
    assert batch == reference  # items AND consumed bit counts


@given(regions_strategy(max_regions=4, max_instrs=8))
@hyp_settings(max_examples=30, deadline=None)
def test_mtf_variant_decodes_identically(regions):
    config = CodecConfig(
        mtf_kinds=frozenset(
            kind
            for kind in FIELD_WIDTHS
            if kind.name in ("RA", "RB", "RC")
        )
    )
    codec, blob = ProgramCodec.build(regions, config)
    words = list(blob.stream_words)
    offsets = list(blob.region_bit_offsets)
    table = _decode_all(codec, words, offsets, "table")
    batch = vector.decode_batch([(codec, words, offsets)])[0]
    assert batch == table


def test_multi_codec_batch_matches_per_codec_sequential():
    """One decode_batch over several codecs equals per-codec loops."""
    jobs = []
    expected = []
    for seed in range(3):
        regions = [
            [
                CodecInstr(opcode=0x08, fields=(seed, 2, 37 + seed)),
                CodecInstr(opcode=0x10, fields=(26, seed)),
            ],
            [CodecInstr(opcode=0x08, fields=(4, 5, 1000 + seed))] * 5,
        ]
        codec, blob = ProgramCodec.build(regions, CodecConfig())
        words = list(blob.stream_words)
        offsets = list(blob.region_bit_offsets)
        jobs.append((codec, words, offsets))
        expected.append(_decode_all(codec, words, offsets, "table"))
    assert vector.decode_batch(jobs) == expected


def test_dict_coder_falls_back_to_sequential():
    regions = [[CodecInstr(opcode=0x10, fields=(3, 9))] * 4]
    codec, blob = ProgramCodec.build(regions, CodecConfig(coder="dict"))
    words = list(blob.stream_words)
    offsets = list(blob.region_bit_offsets)
    table = _decode_all(codec, words, offsets, "table")
    assert vector.decode_batch([(codec, words, offsets)])[0] == table
    # The dispatcher-level backend degrades identically.
    assert _decode_all(codec, words, offsets, "vector") == table


def test_interning_shares_repeated_instructions():
    """Identical decoded instructions are one shared immutable object
    (CodecInstr is frozen, so sharing is observable only as identity)."""
    regions = [[CodecInstr(opcode=0x10, fields=(1, 2))] * 6]
    codec, blob = ProgramCodec.build(regions, CodecConfig())
    (items, _bits), = vector.decode_batch(
        [(codec, list(blob.stream_words), list(blob.region_bit_offsets))]
    )[0]
    assert len({id(item) for item in items}) == 1
    assert all(item == items[0] for item in items)


# -- error parity ------------------------------------------------------------


@given(regions_strategy(max_regions=4, max_instrs=10), st.data())
@hyp_settings(max_examples=40, deadline=None)
def test_truncated_stream_raises_identically(regions, data):
    """Chopping the stream anywhere yields the same error type at the
    same bit offset from the vector path as from the table path."""
    codec, blob = ProgramCodec.build(regions, CodecConfig())
    words = list(blob.stream_words)
    if len(words) < 2:
        return
    cut = data.draw(st.integers(0, len(words) - 1))
    truncated = words[:cut]
    offsets = list(blob.region_bit_offsets)
    sequential = [
        _decode_or_error(
            lambda off=off: codec.decode_region(
                truncated, off, backend="table"
            )
        )
        for off in offsets
    ]
    failed = [shape for kind, shape in sequential if kind == "error"]
    batch = _decode_or_error(
        lambda: vector.decode_batch([(codec, truncated, offsets)])
    )
    if not failed:
        assert batch[0] == "ok"
        assert batch[1][0] == [
            result for _kind, result in sequential
        ]
        return
    assert batch[0] == "error"
    # The batch raises what an in-order sequential loop raises first.
    assert batch[1] == failed[0]
    assert batch[1][0] is TruncatedStreamError
    assert batch[1][1] is not None  # carries the offending bit offset


def test_corrupt_opcode_raises_identically():
    """A stream of garbage bits produces the same error shape (type
    and message) from both paths, region by region."""
    regions = [
        [CodecInstr(opcode=0x08, fields=(1, 2, 3))] * 3,
        [CodecInstr(opcode=0x10, fields=(7, 8))] * 2,
    ]
    codec, blob = ProgramCodec.build(regions, CodecConfig())
    words = list(blob.stream_words)
    for flip in (0, 1):
        corrupt = list(words)
        corrupt[flip % len(corrupt)] ^= 0xFFFFFFFF
        for off in blob.region_bit_offsets:
            seq = _decode_or_error(
                lambda: codec.decode_region(corrupt, off, backend="table")
            )
            vec = _decode_or_error(
                lambda: codec.decode_region(corrupt, off, backend="vector")
            )
            assert vec == seq


# -- dispatcher / settings ---------------------------------------------------


def test_backend_registry_lists_all_three():
    assert set(DECODE_BACKENDS.names()) >= {
        "reference", "table", "vector",
    }


def test_resolve_precedence():
    # The explicit backend argument wins over the settings knob.
    with settings.use_settings(decode_backend="reference"):
        assert resolve_decode_backend(backend="vector") == "vector"
    # Then the settings knob.
    with settings.use_settings(decode_backend="vector"):
        assert resolve_decode_backend() == "vector"
    # Finally the default.
    assert resolve_decode_backend() == "table"


def test_env_knob_validates(monkeypatch):
    monkeypatch.setenv("REPRO_DECODE_BACKEND", "warp-drive")
    resolved = settings.current()
    assert resolved.decode_backend == "table"  # fell back to the default
    assert "REPRO_DECODE_BACKEND" in resolved.invalid
    monkeypatch.setenv("REPRO_DECODE_BACKEND", "VECTOR")
    assert settings.current().decode_backend == "vector"
