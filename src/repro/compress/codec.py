"""The program-level codec: compress regions, decompress on demand.

The whole compressed area of a squashed image is produced here:

* one canonical Huffman code per field-kind stream, built over the
  union of all compressed regions (the tables are stored once for the
  whole program);
* a single merged codeword bitstream, region after region, with the
  function offset table holding each region's starting *bit* offset;
* a decoder that starts at any region's bit offset and decodes until
  the sentinel, exactly what the runtime decompressor does.

Optionally, selected streams get a move-to-front pre-pass (Section 3's
variant); the MTF recency list resets at region boundaries so regions
remain independently decodable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.compress.bitstream import BitReader, BitWriter
from repro.compress.canonical import CanonicalCode
from repro.compress.dictionary import DictionaryCode
from repro.errors import (
    CodecTableError,
    CorruptBlobError,
    TruncatedStreamError,
)
from repro.compress.model import (
    MAX_CONTEXT_DOMAIN,
    MAX_CONTEXTS,
    StreamLayout,
    StreamModel,
    CodecModel,
    context_domain,
    deserialise_stream_model,
    select_context_models,
    serialise_stream_model,
    start_symbol,
)
from repro.compress.mtf import MoveToFront
from repro.compress.streams import (
    CodecInstr,
    OP_SENTINEL,
    codec_fields,
    sentinel_item,
)
from repro.isa.fields import FIELD_WIDTHS, FieldKind
from repro.pipeline.registry import Registry, RegistryError

_OPCODE_BITS = 6
_KIND_BITS = 5
_COUNT_BITS = 16


#: Coder identifiers stored in the serialized tables.
_CODER_IDS = {"huffman": 0, "dict": 1}
_CODER_CLASSES = {0: CanonicalCode, 1: DictionaryCode}
#: Coder id of the context-model table format (huffman-only); used
#: exactly when some stream is conditioned, so order-0 codecs keep the
#: legacy byte layout bit-for-bit.
_CTX_CODER_ID = 2


def resolve_decode_backend(backend: str | None = None) -> str:
    """The decode-backend name a region decode should use: *backend*
    when given, else ``REPRO_DECODE_BACKEND`` (via
    :mod:`repro.settings`; default ``table``)."""
    if backend:
        return backend
    from repro import settings

    return settings.current().decode_backend


@dataclass(frozen=True)
class CodecConfig:
    """Compression options."""

    #: Field kinds that get a move-to-front pre-pass before Huffman.
    mtf_kinds: frozenset[FieldKind] = frozenset()
    #: Per-stream coder: "huffman" (canonical Huffman, the paper's) or
    #: "dict" (split-stream dictionary coding; faster, less compact).
    coder: str = "huffman"
    #: Field kinds whose table is conditioned on the stream's previous
    #: symbol (order-1 context modeling; empty = order-0 everywhere).
    #: Conditioning is cost-driven per stream — a stream that does not
    #: pay for its extra tables stays order-0.
    context_kinds: frozenset[FieldKind] = frozenset()
    #: Cap on contexts per conditioned stream (top-M previous symbols
    #: get singleton contexts, the rest share one).
    max_contexts: int = 9

    def __post_init__(self) -> None:
        if self.coder not in _CODER_IDS:
            raise ValueError(f"unknown coder {self.coder!r}")
        if self.context_kinds:
            if self.coder != "huffman":
                raise ValueError(
                    "context modeling requires the huffman coder"
                )
            overlap = self.context_kinds & self.mtf_kinds
            if overlap:
                names = ", ".join(sorted(k.name for k in overlap))
                raise ValueError(
                    f"context modeling cannot stack on MTF streams: {names}"
                )
            for kind in self.context_kinds:
                if context_domain(kind) > MAX_CONTEXT_DOMAIN:
                    raise ValueError(
                        f"stream {kind.name} is too wide to condition on "
                        f"({context_domain(kind)} previous symbols)"
                    )
            if not 2 <= self.max_contexts <= MAX_CONTEXTS:
                raise ValueError(
                    f"max_contexts {self.max_contexts} outside "
                    f"[2, {MAX_CONTEXTS}]"
                )


#: Named codec presets: variant name -> f() -> CodecConfig.  The
#: experiment harness and CLI select codecs by these names; a new
#: variant (different coder, different MTF stream selection) is added
#: by registering a factory, not by editing call sites.
CODEC_VARIANTS: "Registry[Callable[[], CodecConfig]]" = Registry(
    "codec variant"
)

CODEC_VARIANTS.register("huffman", CodecConfig)
CODEC_VARIANTS.register(
    "mtf+huffman",
    lambda: CodecConfig(
        mtf_kinds=frozenset({FieldKind.RA, FieldKind.RB, FieldKind.LIT8})
    ),
)
CODEC_VARIANTS.register("dict", lambda: CodecConfig(coder="dict"))
CODEC_VARIANTS.register(
    "mtf+dict",
    lambda: CodecConfig(
        coder="dict",
        mtf_kinds=frozenset({FieldKind.RA, FieldKind.RB, FieldKind.LIT8}),
    ),
)
#: "baseline" is the reference point the context variants are measured
#: against on the Fig. 6/7 frontier: the paper's order-0 canonical
#: Huffman codec (an alias of "huffman" by construction).
CODEC_VARIANTS.register("baseline", CodecConfig)
#: Order-1 opcode bigrams: the opcode stream's table is conditioned on
#: the previous opcode.  Fully vector-native (the lane machine grows
#: one LUT bank per opcode context).
CODEC_VARIANTS.register(
    "ctx1",
    lambda: CodecConfig(context_kinds=frozenset({FieldKind.OPCODE})),
)
#: ctx1 plus register-reuse locality: RA/RB streams conditioned on
#: their previous register.  Conditioned field streams degrade the
#: vector backend to the table path (same precedent as the dict coder).
CODEC_VARIANTS.register(
    "ctx1+reg",
    lambda: CodecConfig(
        context_kinds=frozenset(
            {FieldKind.OPCODE, FieldKind.RA, FieldKind.RB}
        )
    ),
)


def codec_variant(name: str) -> CodecConfig:
    """The preset :class:`CodecConfig` registered under *name*."""
    return CODEC_VARIANTS.get(name)()


_VARIANT_FALLBACK = "baseline"
_VARIANT_WARNED: set[str] = set()


def resolve_codec_variant(name: str) -> CodecConfig:
    """Like :func:`codec_variant`, but an unknown *name* warns once and
    falls back to ``baseline`` (mirroring the artifact store's
    eviction-policy registry) instead of failing the squash — variant
    names arrive from the environment, and a typo'd knob should cost a
    warning, not a pipeline."""
    try:
        return CODEC_VARIANTS.get(name)()
    except RegistryError:
        import warnings

        from repro.obs.metrics import get_registry

        if name not in _VARIANT_WARNED:
            _VARIANT_WARNED.add(name)
            warnings.warn(
                f"unknown codec variant {name!r}; falling back to "
                f"{_VARIANT_FALLBACK!r} (known: "
                f"{', '.join(sorted(CODEC_VARIANTS.names()))})",
                stacklevel=2,
            )
        get_registry().inc("codec.variant_fallback")
        return CODEC_VARIANTS.get(_VARIANT_FALLBACK)()


@dataclass
class CompressedBlob:
    """The compressed program area: tables + merged bitstream."""

    table_words: list[int]
    stream_words: list[int]
    #: Bit offset of each region within the stream, in region order.
    #: This is the content of the paper's function offset table.
    region_bit_offsets: list[int]
    table_bits: int
    stream_bits: int
    #: ``(kind, ctx, start_bit, end_bit)`` of every context's table
    #: within the serialised table area (order-0 streams contribute
    #: their single context 0).  Mapping arrays fall outside the spans:
    #: they are sealed by the whole-area CRC only, so per-context seals
    #: survive mapping corruption and vice versa.
    context_spans: list[tuple[int, int, int, int]] = field(
        default_factory=list
    )

    @property
    def total_words(self) -> int:
        """Words occupied by tables plus stream."""
        return len(self.table_words) + len(self.stream_words)


def _decode_overflow(
    acc: int, navail: int, k: int, overflow: tuple
) -> tuple[int, int]:
    """Resolve a codeword longer than the first-level table width.

    ``acc`` holds ``navail`` upcoming bits; the table already ruled out
    every length <= ``k``.  Canonical codes keep the length-L codewords
    in ``[firsts[L-1], firsts[L-1] + N[L])``, so extend the peek one
    length class at a time.
    """
    counts, firsts, leads, values, max_len = overflow
    for length in range(k + 1, max_len + 1):
        count = counts[length]
        if not count:
            continue
        value = acc >> (navail - length)
        base = firsts[length - 1]
        if value < base + count:
            return values[leads[length] + value - base], length
    raise CorruptBlobError("corrupt bitstream: ran past longest code")


def _overflow_at(
    acc: int,
    navail: int,
    k: int,
    overflow: tuple,
    sym_start: int,
    hard_limit: int,
) -> tuple[int, int]:
    """:func:`_decode_overflow` with the reference DECODE's error
    shapes: the longest-code error carries the bit position where
    DECODE gives up (symbol start + max length), and truncation
    outranks it when the probe would have had to read past the end of
    the stream (the fast window only sees zero padding there)."""
    try:
        return _decode_overflow(acc, navail, k, overflow)
    except CorruptBlobError:
        end = sym_start + overflow[4]
        if end > hard_limit:
            raise TruncatedStreamError(
                f"bit position {hard_limit} past end of stream",
                bit_offset=hard_limit,
            ) from None
        raise CorruptBlobError(
            "corrupt bitstream: ran past longest code", bit_offset=end
        ) from None


def _require_tables(tables: dict, kind: FieldKind) -> tuple:
    entry = tables.get(kind)
    if entry is None:
        raise CodecTableError(
            f"corrupt tables: no code for stream {kind.name}"
        )
    return entry


def _value_bits(kind: FieldKind, mtf_alphabet_size: int | None) -> int:
    if kind is FieldKind.OPCODE:
        width = _OPCODE_BITS
    else:
        width = FIELD_WIDTHS[kind]
    if mtf_alphabet_size is not None:
        width = max(1, math.ceil(math.log2(max(2, mtf_alphabet_size))))
    return width


@dataclass
class ProgramCodec:
    """Per-stream codes shared by all compressed regions.

    ``codes[kind]`` is the stream's context-0 table — for an order-0
    stream that *is* the stream's only table; a conditioned stream
    additionally appears in ``models`` with its full per-context table
    bank and mapping.  :attr:`model` assembles the declarative
    :class:`~repro.compress.model.CodecModel` covering every stream,
    which is what the decode backends compile from.
    """

    codes: dict[FieldKind, CanonicalCode | DictionaryCode]
    mtf_alphabets: dict[FieldKind, tuple[int, ...]] = field(
        default_factory=dict
    )
    coder: str = "huffman"
    #: Conditioned streams only (order-1+); order-0 streams live in
    #: ``codes`` alone.
    models: dict[FieldKind, StreamModel] = field(default_factory=dict)
    #: Bit layout of the serialised tables, per stream kind — recorded
    #: by :meth:`from_table_words` for the fault planner and per-context
    #: integrity checks.
    table_layouts: dict[int, StreamLayout] = field(default_factory=dict)

    @property
    def model(self) -> CodecModel:
        """The whole-codec declarative model (one StreamModel per
        stream, order-0 streams as single-context models)."""
        streams = {}
        for kind, code in self.codes.items():
            sm = self.models.get(kind)
            streams[kind] = (
                sm if sm is not None else StreamModel(kind, (code,))
            )
        return CodecModel(streams=streams)

    def stream_model(self, kind: FieldKind) -> StreamModel:
        """*kind*'s :class:`StreamModel` (single-context when order-0)."""
        sm = self.models.get(kind)
        if sm is not None:
            return sm
        return StreamModel(kind, (self.codes[kind],))

    # -- building --------------------------------------------------------

    @classmethod
    def build(
        cls,
        regions: Sequence[Sequence[CodecInstr]],
        config: CodecConfig | None = None,
    ) -> tuple["ProgramCodec", CompressedBlob]:
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

        # Order-1 candidates: count per-stream bigrams under the
        # region-reset convention, then let the exact cost model pick a
        # context partition per stream (possibly order-0) with a global
        # fallback that guarantees the context format never loses to
        # the legacy one.
        models: dict[FieldKind, StreamModel] = {}
        if config.context_kinds:
            bigrams: dict[FieldKind, dict[int, dict[int, int]]] = {
                kind: {}
                for kind in config.context_kinds
                if kind in frequencies
            }
            for region in closed:
                prev = {kind: start_symbol(kind) for kind in bigrams}
                for item in region:
                    row = bigrams.get(FieldKind.OPCODE)
                    if row is not None:
                        by_prev = row.setdefault(
                            prev[FieldKind.OPCODE], {}
                        )
                        by_prev[item.opcode] = (
                            by_prev.get(item.opcode, 0) + 1
                        )
                        prev[FieldKind.OPCODE] = item.opcode
                    for kind, value in zip(
                        codec_fields(item.opcode), item.fields
                    ):
                        row = bigrams.get(kind)
                        if row is not None:
                            by_prev = row.setdefault(prev[kind], {})
                            by_prev[value] = by_prev.get(value, 0) + 1
                            prev[kind] = value
            models = select_context_models(
                {k: g for k, g in bigrams.items() if g},
                {k: _value_bits(k, None) for k in bigrams},
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
        codec = cls(
            codes=codes,
            mtf_alphabets=mtf_alphabets,
            coder=config.coder,
            models=models,
        )

        # Pass 2: encode the merged stream.
        writer = BitWriter()
        offsets: list[int] = []
        if models:
            codec._encode_stream_ctx(closed, writer, offsets)
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

    def _encode_stream_ctx(
        self,
        closed: Sequence[Sequence[CodecInstr]],
        writer: BitWriter,
        offsets: list[int],
    ) -> None:
        """Context-aware encode of the merged stream.

        Each conditioned stream tracks its previous symbol (reset per
        region per :func:`~repro.compress.model.start_symbol`) and
        encodes against the context that symbol maps to; order-0
        streams use their single table exactly as the legacy loop
        does, so a codec with no conditioned streams emits identical
        bits either way.
        """
        banks = {
            kind: tuple(t.encoder() for t in sm.tables)
            for kind, sm in self.models.items()
        }
        flat = {
            kind: code.encoder()
            for kind, code in self.codes.items()
            if kind not in self.models
        }
        op_model = self.models.get(FieldKind.OPCODE)
        op_bank = banks.get(FieldKind.OPCODE)
        op_flat = flat.get(FieldKind.OPCODE)
        for region in closed:
            offsets.append(writer.bit_length)
            transforms = {
                kind: MoveToFront(alphabet)
                for kind, alphabet in self.mtf_alphabets.items()
            }
            prev = {
                kind: start_symbol(kind) for kind in self.models
            }
            for item in region:
                if op_model is not None:
                    encoder = op_bank[
                        op_model.context_of(prev[FieldKind.OPCODE])
                    ]
                    prev[FieldKind.OPCODE] = item.opcode
                else:
                    encoder = op_flat
                code, length = encoder[item.opcode]
                writer.write_bits(code, length)
                for kind, value in zip(
                    codec_fields(item.opcode), item.fields
                ):
                    if kind in transforms:
                        value = transforms[kind].encode_one(value)
                    sm = self.models.get(kind)
                    if sm is not None:
                        encoder = banks[kind][sm.context_of(prev[kind])]
                        prev[kind] = value
                    else:
                        encoder = flat[kind]
                    code, length = encoder[value]
                    writer.write_bits(code, length)

    # -- table (de)serialisation ------------------------------------------

    def _serialise_tables(
        self,
        writer: BitWriter,
        spans: list[tuple[int, int, int, int]] | None = None,
    ) -> None:
        """Serialise the table area; *spans* collects per-context
        ``(kind, ctx, start_bit, end_bit)`` table positions.

        A codec with conditioned streams uses the context format
        (coder id :data:`_CTX_CODER_ID`: per stream a context count,
        the mapping array when conditioned, then each context's
        table); an order-0 codec keeps the legacy format bit-for-bit,
        which is what pins the ``baseline`` variant's byte identity.
        """
        kinds = sorted(self.codes, key=int)
        writer.write_bits(len(kinds), _KIND_BITS)
        coder_id = _CTX_CODER_ID if self.models else _CODER_IDS[self.coder]
        writer.write_bits(coder_id, 2)
        for kind in kinds:
            writer.write_bits(int(kind), _KIND_BITS)
            alphabet = self.mtf_alphabets.get(kind)
            writer.write_bits(1 if alphabet is not None else 0, 1)
            if alphabet is not None:
                writer.write_bits(len(alphabet), _COUNT_BITS)
                raw_bits = _value_bits(kind, None)
                for value in alphabet:
                    writer.write_bits(value, raw_bits)
                value_bits = _value_bits(kind, len(alphabet))
            else:
                value_bits = _value_bits(kind, None)
            if coder_id == _CTX_CODER_ID:
                serialise_stream_model(
                    writer, self.stream_model(kind), value_bits, spans
                )
            else:
                start = writer.bit_length
                self.codes[kind].serialise(writer, value_bits)
                if spans is not None:
                    spans.append((int(kind), 0, start, writer.bit_length))

    @classmethod
    def from_table_words(cls, words: Sequence[int]) -> "ProgramCodec":
        """Rebuild the codec from the serialised tables in memory.

        This is what the runtime decompressor does once, at load time,
        from the compressed area of the image.
        """
        reader = BitReader(words)
        count = reader.read_bits(_KIND_BITS)
        coder_id = reader.read_bits(2)
        is_ctx = coder_id == _CTX_CODER_ID
        code_class = _CODER_CLASSES.get(coder_id)
        if code_class is None and not is_ctx:
            raise CodecTableError(
                f"corrupt tables: unknown coder id {coder_id}",
                bit_offset=reader.bit_pos,
            )
        codes: dict[FieldKind, CanonicalCode | DictionaryCode] = {}
        alphabets: dict[FieldKind, tuple[int, ...]] = {}
        models: dict[FieldKind, StreamModel] = {}
        layouts: dict[int, StreamLayout] = {}
        for _ in range(count):
            try:
                kind = FieldKind(reader.read_bits(_KIND_BITS))
            except ValueError as exc:
                raise CodecTableError(
                    f"corrupt tables: {exc}", bit_offset=reader.bit_pos
                ) from exc
            has_mtf = reader.read_bits(1)
            if has_mtf:
                size = reader.read_bits(_COUNT_BITS)
                raw_bits = _value_bits(kind, None)
                alphabet = tuple(
                    reader.read_bits(raw_bits) for _ in range(size)
                )
                alphabets[kind] = alphabet
                value_bits = _value_bits(kind, size)
            else:
                value_bits = _value_bits(kind, None)
            if is_ctx:
                model, layout = deserialise_stream_model(
                    reader, kind, value_bits
                )
                codes[kind] = model.tables[0]
                if model.conditioned:
                    models[kind] = model
                layouts[int(kind)] = layout
            else:
                start = reader.bit_pos
                codes[kind] = code_class.deserialise(reader, value_bits)
                layouts[int(kind)] = StreamLayout(
                    kind=int(kind),
                    n_contexts=1,
                    ctx_bits=0,
                    mapping_start_bit=-1,
                    spans=((start, reader.bit_pos),),
                )
        coder_name = (
            "huffman"
            if is_ctx
            else {v: k for k, v in _CODER_IDS.items()}[coder_id]
        )
        return cls(
            codes=codes,
            mtf_alphabets=alphabets,
            coder=coder_name,
            models=models,
            table_layouts=layouts,
        )

    # -- decoding ----------------------------------------------------------

    def decode_region(
        self,
        words: Sequence[int],
        bit_offset: int,
        backend: str | None = None,
    ) -> tuple[list[CodecInstr], int]:
        """Decode one region starting at *bit_offset*.

        Stops after the sentinel.  Returns the decoded items (sentinel
        excluded) and the number of bits consumed -- the runtime charges
        decompression cost proportional to it.

        The mechanics are chosen by :func:`resolve_decode_backend`
        (*backend* is an explicit override; the environment picks
        otherwise): ``reference`` is the paper-verbatim bit-at-a-time
        loop, ``table`` the specialised first-level-table loop,
        ``vector`` the numpy batch machine of
        :mod:`repro.compress.vector`.  All three decode the same items
        from the same bits.
        """
        name = resolve_decode_backend(backend)
        return DECODE_BACKENDS.get(name)(self, words, bit_offset)

    def decode_regions(
        self,
        words: Sequence[int],
        bit_offsets: Sequence[int],
        backend: str | None = None,
    ) -> list[tuple[list[CodecInstr], int]]:
        """Decode many regions of one stream, in order.

        With the ``vector`` backend the whole batch decodes in one
        lane-parallel pass -- this is the throughput entry point the
        runtime warm path and the benchmarks use; other backends loop.
        """
        name = resolve_decode_backend(backend)
        if name == "vector":
            from repro.compress import vector

            return vector.decode_regions(self, words, list(bit_offsets))
        return [
            self.decode_region(words, offset, backend=name)
            for offset in bit_offsets
        ]

    def _decode_region_generic(
        self, words: Sequence[int], bit_offset: int, fast: bool
    ) -> tuple[list[CodecInstr], int]:
        """The coder-agnostic symbol loop behind the backends.

        With *fast*, canonical Huffman streams use the table-driven
        :meth:`~repro.compress.canonical.CanonicalCode.fast_decode`;
        otherwise every stream uses its paper-verbatim ``decode``.
        """
        if self.models:
            return self._decode_region_generic_ctx(words, bit_offset, fast)
        reader = BitReader(words, bit_offset)
        decoders = {
            kind: code.fast_decode
            if fast and isinstance(code, CanonicalCode)
            else code.decode
            for kind, code in self.codes.items()
        }
        opcode_decode = decoders[FieldKind.OPCODE]
        transforms = {
            kind: MoveToFront(alphabet)
            for kind, alphabet in self.mtf_alphabets.items()
        }
        items: list[CodecInstr] = []
        while True:
            opcode = opcode_decode(reader)
            if opcode == OP_SENTINEL:
                break
            values: list[int] = []
            for kind in codec_fields(opcode):
                decode = decoders.get(kind)
                if decode is None:
                    raise CodecTableError(
                        f"corrupt tables: no code for stream {kind.name}"
                    )
                value = decode(reader)
                if kind in transforms:
                    value = transforms[kind].decode_one(value)
                values.append(value)
            items.append(CodecInstr(opcode=opcode, fields=tuple(values)))
        return items, reader.bit_pos - bit_offset

    def _decode_region_generic_ctx(
        self, words: Sequence[int], bit_offset: int, fast: bool
    ) -> tuple[list[CodecInstr], int]:
        """The generic loop for context-modeled codecs.

        Mirrors :meth:`_decode_region_generic` with one decode
        callable per (stream, context): each conditioned stream tracks
        its previous symbol and decodes via the context it maps to.
        """
        reader = BitReader(words, bit_offset)
        banks: dict[FieldKind, tuple] = {}
        for kind, code in self.codes.items():
            sm = self.models.get(kind)
            tables = sm.tables if sm is not None else (code,)
            if fast:
                banks[kind] = tuple(t.fast_decode for t in tables)
            else:
                banks[kind] = tuple(t.decode for t in tables)
        op_model = self.models.get(FieldKind.OPCODE)
        op_bank = banks[FieldKind.OPCODE]
        transforms = {
            kind: MoveToFront(alphabet)
            for kind, alphabet in self.mtf_alphabets.items()
        }
        prev = {kind: start_symbol(kind) for kind in self.models}
        items: list[CodecInstr] = []
        while True:
            if op_model is not None:
                decode = op_bank[
                    op_model.context_of(prev[FieldKind.OPCODE])
                ]
            else:
                decode = op_bank[0]
            opcode = decode(reader)
            if op_model is not None:
                prev[FieldKind.OPCODE] = opcode
            if opcode == OP_SENTINEL:
                break
            values: list[int] = []
            for kind in codec_fields(opcode):
                bank = banks.get(kind)
                if bank is None:
                    raise CodecTableError(
                        f"corrupt tables: no code for stream {kind.name}"
                    )
                sm = self.models.get(kind)
                if sm is not None:
                    value = bank[sm.context_of(prev[kind])](reader)
                    prev[kind] = value
                else:
                    value = bank[0](reader)
                if kind in transforms:
                    value = transforms[kind].decode_one(value)
                values.append(value)
            items.append(CodecInstr(opcode=opcode, fields=tuple(values)))
        return items, reader.bit_pos - bit_offset

    def _fast_tables(self) -> tuple[dict, dict, int]:
        """Per-stream decode tables and per-opcode field plans.

        Returns ``(tables, plans, window)``: ``tables[kind]`` is
        ``(K, table, overflow)`` for that stream's canonical code
        (``overflow`` being ``(counts, firsts, leads, values,
        max_length)`` for codewords longer than K); ``plans[opcode]``
        is the pre-resolved ``(kind, K, table, overflow)`` sequence of
        that opcode's field streams; ``window`` is the largest codeword
        length over all streams (how many bits the decode loop keeps
        buffered).
        """
        cached = getattr(self, "_fast_decode_tables", None)
        if cached is None:
            tables = {}
            window = 1
            for kind, code in self.codes.items():
                k, table = code.decode_table()
                firsts, leads = code.overflow_tables()
                overflow = (
                    code.counts,
                    firsts,
                    leads,
                    code.values,
                    code.max_length,
                )
                tables[kind] = (k, table, overflow)
                window = max(window, code.max_length)
            plans: dict[int, tuple] = {}
            cached = (tables, plans, window)
            self._fast_decode_tables = cached
        return cached

    def _decode_region_fast(
        self, words: Sequence[int], bit_offset: int
    ) -> tuple[list[CodecInstr], int]:
        """Table-driven region decode with the bit window in locals.

        Decodes exactly the items (and consumes exactly the bits) of
        the generic loop in :meth:`decode_region`; only the mechanics
        differ -- a K-bit prefix lookup per symbol instead of the
        bit-at-a-time DECODE, and zero-padded whole-word refills with a
        hard end-of-stream check wherever padding may have been
        consumed.
        """
        if self.models:
            return self._decode_region_fast_ctx(words, bit_offset)
        tables, plans, window = self._fast_tables()
        opcode_tables = tables.get(FieldKind.OPCODE)
        if opcode_tables is None:
            raise CodecTableError("corrupt tables: no code for stream OPCODE")
        op_k, op_table, op_overflow = opcode_tables
        transforms = {
            kind: MoveToFront(alphabet)
            for kind, alphabet in self.mtf_alphabets.items()
        }
        nwords = len(words)
        hard_limit = nwords * 32
        if bit_offset > hard_limit:
            # The sequential path truncates on the very first read,
            # naming the (out-of-range) read position.
            raise TruncatedStreamError(
                f"bit position {bit_offset} past end of stream",
                bit_offset=bit_offset,
            )
        new_instr = CodecInstr.__new__
        instr_cls = CodecInstr
        set_attr = object.__setattr__
        # The window: `acc` holds exactly `navail` upcoming bits;
        # `wi` counts words pulled in, including virtual zero-pad words
        # past the end (the hard-limit check rejects symbols that would
        # consume padding, which is only possible once `wi` passes the
        # real word count).
        word_index, bit_index = divmod(bit_offset, 32)
        acc = 0
        navail = 0
        wi = word_index
        if bit_index:
            word = words[wi] if wi < nwords else 0
            acc = word & ((1 << (32 - bit_index)) - 1)
            navail = 32 - bit_index
            wi += 1

        items: list[CodecInstr] = []
        while True:
            while navail < window:
                acc <<= 32
                if wi < nwords:
                    acc |= words[wi]
                wi += 1
                navail += 32

            entry = op_table[acc >> (navail - op_k)]
            if entry is not None:
                opcode, length = entry
            else:
                opcode, length = _overflow_at(
                    acc, navail, op_k, op_overflow,
                    wi * 32 - navail, hard_limit,
                )
            navail -= length
            acc &= (1 << navail) - 1
            if wi > nwords and wi * 32 - navail > hard_limit:
                raise TruncatedStreamError(
                    f"bit position {hard_limit} past end of stream",
                    bit_offset=hard_limit,
                )
            if opcode == OP_SENTINEL:
                break

            plan = plans.get(opcode)
            if plan is None:
                plan = plans[opcode] = tuple(
                    (kind, *_require_tables(tables, kind))
                    for kind in codec_fields(opcode)
                )
            values_out: list[int] = []
            for kind, k, table, overflow in plan:
                while navail < window:
                    acc <<= 32
                    if wi < nwords:
                        acc |= words[wi]
                    wi += 1
                    navail += 32
                entry = table[acc >> (navail - k)]
                if entry is not None:
                    symbol, length = entry
                else:
                    symbol, length = _overflow_at(
                        acc, navail, k, overflow,
                        wi * 32 - navail, hard_limit,
                    )
                navail -= length
                acc &= (1 << navail) - 1
                if wi > nwords and wi * 32 - navail > hard_limit:
                    raise TruncatedStreamError(
                        f"bit position {hard_limit} past end of stream",
                        bit_offset=hard_limit,
                    )
                if transforms:
                    transform = transforms.get(kind)
                    if transform is not None:
                        symbol = transform.decode_one(symbol)
                values_out.append(symbol)
            # CodecInstr.__init__ only re-validates the field count
            # against the opcode's layout, which holds by construction
            # here (the plan came from codec_fields); build directly.
            item = new_instr(instr_cls)
            set_attr(item, "opcode", opcode)
            set_attr(item, "fields", tuple(values_out))
            items.append(item)
        return items, wi * 32 - navail - bit_offset

    def _fast_tables_ctx(self) -> tuple[dict, dict, int]:
        """Context-banked analogue of :meth:`_fast_tables`.

        ``banks[kind]`` is ``(mapping, tables)``: ``mapping`` the
        stream's previous-symbol -> context array (``None`` for
        order-0 streams) and ``tables[ctx]`` the familiar
        ``(K, table, overflow)`` triple of that context's code.
        """
        cached = getattr(self, "_fast_ctx_tables", None)
        if cached is None:
            banks = {}
            window = 1
            for kind, code in self.codes.items():
                sm = self.models.get(kind)
                triples = []
                for ctx_code in (sm.tables if sm is not None else (code,)):
                    k, table = ctx_code.decode_table()
                    firsts, leads = ctx_code.overflow_tables()
                    triples.append((
                        k,
                        table,
                        (
                            ctx_code.counts,
                            firsts,
                            leads,
                            ctx_code.values,
                            ctx_code.max_length,
                        ),
                    ))
                    window = max(window, ctx_code.max_length)
                banks[kind] = (
                    sm.mapping if sm is not None else None,
                    tuple(triples),
                )
            plans: dict[int, tuple] = {}
            cached = (banks, plans, window)
            self._fast_ctx_tables = cached
        return cached

    def _decode_region_fast_ctx(
        self, words: Sequence[int], bit_offset: int
    ) -> tuple[list[CodecInstr], int]:
        """Table-driven region decode for context-modeled codecs.

        The window mechanics (refills, hard end-of-stream checks) are
        those of :meth:`_decode_region_fast` verbatim; the only
        addition is per-stream previous-symbol tracking selecting the
        ``(K, table, overflow)`` triple of the active context before
        each lookup.
        """
        banks, plans, window = self._fast_tables_ctx()
        op_bank = banks.get(FieldKind.OPCODE)
        if op_bank is None:
            raise CodecTableError("corrupt tables: no code for stream OPCODE")
        op_mapping, op_tables = op_bank
        transforms = {
            kind: MoveToFront(alphabet)
            for kind, alphabet in self.mtf_alphabets.items()
        }
        nwords = len(words)
        hard_limit = nwords * 32
        if bit_offset > hard_limit:
            raise TruncatedStreamError(
                f"bit position {bit_offset} past end of stream",
                bit_offset=bit_offset,
            )
        new_instr = CodecInstr.__new__
        instr_cls = CodecInstr
        set_attr = object.__setattr__
        word_index, bit_index = divmod(bit_offset, 32)
        acc = 0
        navail = 0
        wi = word_index
        if bit_index:
            word = words[wi] if wi < nwords else 0
            acc = word & ((1 << (32 - bit_index)) - 1)
            navail = 32 - bit_index
            wi += 1

        op_prev = start_symbol(FieldKind.OPCODE)
        prev: dict[FieldKind, int] = {
            kind: start_symbol(kind)
            for kind in self.models
            if kind is not FieldKind.OPCODE
        }
        items: list[CodecInstr] = []
        while True:
            while navail < window:
                acc <<= 32
                if wi < nwords:
                    acc |= words[wi]
                wi += 1
                navail += 32

            if op_mapping is not None:
                op_k, op_table, op_overflow = op_tables[op_mapping[op_prev]]
            else:
                op_k, op_table, op_overflow = op_tables[0]
            entry = op_table[acc >> (navail - op_k)]
            if entry is not None:
                opcode, length = entry
            else:
                opcode, length = _overflow_at(
                    acc, navail, op_k, op_overflow,
                    wi * 32 - navail, hard_limit,
                )
            navail -= length
            acc &= (1 << navail) - 1
            if wi > nwords and wi * 32 - navail > hard_limit:
                raise TruncatedStreamError(
                    f"bit position {hard_limit} past end of stream",
                    bit_offset=hard_limit,
                )
            if op_mapping is not None:
                op_prev = opcode
            if opcode == OP_SENTINEL:
                break

            plan = plans.get(opcode)
            if plan is None:
                plan = plans[opcode] = tuple(
                    (kind, *_require_tables(banks, kind))
                    for kind in codec_fields(opcode)
                )
            values_out: list[int] = []
            for kind, mapping, ctx_tables in plan:
                while navail < window:
                    acc <<= 32
                    if wi < nwords:
                        acc |= words[wi]
                    wi += 1
                    navail += 32
                if mapping is not None:
                    k, table, overflow = ctx_tables[mapping[prev[kind]]]
                else:
                    k, table, overflow = ctx_tables[0]
                entry = table[acc >> (navail - k)]
                if entry is not None:
                    symbol, length = entry
                else:
                    symbol, length = _overflow_at(
                        acc, navail, k, overflow,
                        wi * 32 - navail, hard_limit,
                    )
                navail -= length
                acc &= (1 << navail) - 1
                if wi > nwords and wi * 32 - navail > hard_limit:
                    raise TruncatedStreamError(
                        f"bit position {hard_limit} past end of stream",
                        bit_offset=hard_limit,
                    )
                if mapping is not None:
                    # Conditioning applies to the symbols as coded;
                    # conditioned streams are never MTF streams.
                    prev[kind] = symbol
                if transforms:
                    transform = transforms.get(kind)
                    if transform is not None:
                        symbol = transform.decode_one(symbol)
                values_out.append(symbol)
            item = new_instr(instr_cls)
            set_attr(item, "opcode", opcode)
            set_attr(item, "fields", tuple(values_out))
            items.append(item)
        return items, wi * 32 - navail - bit_offset


# -- decode backends ---------------------------------------------------------
#
# Region decode mechanics are selected by name through the same
# Registry machinery as the codec variants: "reference" is the paper's
# bit-at-a-time loop, "table" the first-level-table loop above,
# "vector" the numpy lane-parallel batch machine.  All three produce
# identical items and bit counts; a backend that cannot express a
# stream (vector with the dictionary coder) degrades to the next one
# down rather than erroring.


def _backend_reference(
    codec: ProgramCodec, words: Sequence[int], bit_offset: int
) -> tuple[list[CodecInstr], int]:
    return codec._decode_region_generic(words, bit_offset, fast=False)


def _backend_table(
    codec: ProgramCodec, words: Sequence[int], bit_offset: int
) -> tuple[list[CodecInstr], int]:
    if codec.coder == "huffman":
        return codec._decode_region_fast(words, bit_offset)
    return codec._decode_region_generic(words, bit_offset, fast=True)


def _backend_vector(
    codec: ProgramCodec, words: Sequence[int], bit_offset: int
) -> tuple[list[CodecInstr], int]:
    from repro.compress import vector

    if codec.coder == "huffman":
        return vector.decode_region(codec, words, bit_offset)
    return _backend_table(codec, words, bit_offset)


#: name -> f(codec, words, bit_offset) -> (items, bits).
DECODE_BACKENDS: "Registry[Callable[..., tuple[list[CodecInstr], int]]]" = (
    Registry("decode backend")
)
DECODE_BACKENDS.register("reference", _backend_reference)
DECODE_BACKENDS.register("table", _backend_table)
DECODE_BACKENDS.register("vector", _backend_vector)
