"""The program-level codec: compress regions, decompress on demand.

The whole compressed area of a squashed image is produced here:

* one canonical Huffman code per field-kind stream, built over the
  union of all compressed regions (the tables are stored once for the
  whole program);
* a single merged codeword bitstream, region after region, with the
  function offset table holding each region's starting *bit* offset;
* a decoder that starts at any region's bit offset and decodes until
  the sentinel, exactly what the runtime decompressor does.

Regions decode two ways: the paper-verbatim DECODE loop (the
``reference`` backend, kept as the oracle) and one first-level-table
loop (``table``, the default) that reads both table formats.  This
module is the only place that knows how a region is decoded.

Optionally, selected streams get a move-to-front pre-pass (Section 3's
variant); the MTF recency list resets at region boundaries so regions
remain independently decodable.  The ``ctx1`` variant conditions the
opcode stream on the previous opcode; field streams are never
conditioned.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.compress.bitstream import BitReader, BitWriter, bits_to_words
from repro.compress.canonical import CanonicalCode
from repro.compress.dictionary import DictionaryCode
from repro.errors import (
    CodecTableError,
    CorruptBlobError,
    TruncatedStreamError,
)
from repro.compress.model import (
    MAX_CONTEXTS,
    StreamLayout,
    StreamModel,
    CodecModel,
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
    new_codec_item,
)
from repro.isa.fields import FIELD_WIDTHS, FieldKind

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
    #: Only the opcode stream may be conditioned, and only when that
    #: pays for its extra tables (the cost model may keep it order-0).
    context_kinds: frozenset[FieldKind] = frozenset()
    #: Cap on contexts per conditioned stream (top-M previous symbols
    #: get singleton contexts, the rest share one).
    max_contexts: int = 9

    def __post_init__(self) -> None:
        if self.coder not in _CODER_IDS:
            raise ValueError(f"unknown coder {self.coder!r}")
        if self.context_kinds:
            fields = self.context_kinds - {FieldKind.OPCODE}
            if fields:
                names = ", ".join(sorted(k.name for k in fields))
                raise ValueError(
                    f"only the opcode stream can be conditioned, not {names}"
                )
            if self.coder != "huffman":
                raise ValueError(
                    "context modeling requires the huffman coder"
                )
            if FieldKind.OPCODE in self.mtf_kinds:
                raise ValueError(
                    "context modeling cannot stack on MTF streams: OPCODE"
                )
            if not 2 <= self.max_contexts <= MAX_CONTEXTS:
                raise ValueError(
                    f"max_contexts {self.max_contexts} outside "
                    f"[2, {MAX_CONTEXTS}]"
                )


_MTF_FIELDS = frozenset({FieldKind.RA, FieldKind.RB, FieldKind.LIT8})

#: Named codec presets: variant name -> f() -> CodecConfig.  The
#: experiment harness and CLI select codecs by these names.
CODEC_VARIANTS: dict[str, Callable[[], CodecConfig]] = {
    "huffman": CodecConfig,
    "mtf+huffman": lambda: CodecConfig(mtf_kinds=_MTF_FIELDS),
    "dict": lambda: CodecConfig(coder="dict"),
    "mtf+dict": lambda: CodecConfig(coder="dict", mtf_kinds=_MTF_FIELDS),
    # The reference point the context variants are measured against
    # on the Fig. 6/7 frontier: the paper's order-0 canonical Huffman
    # codec (an alias of "huffman" by construction).
    "baseline": CodecConfig,
    # Order-1 opcode bigrams: the opcode stream's table is conditioned
    # on the previous opcode.
    "ctx1": lambda: CodecConfig(context_kinds=frozenset({FieldKind.OPCODE})),
}


def codec_variant(name: str) -> CodecConfig:
    """The preset :class:`CodecConfig` named *name*; an unknown name
    raises a ``ValueError`` listing the known ones."""
    factory = CODEC_VARIANTS.get(name)
    if factory is None:
        raise ValueError(
            f"unknown codec variant {name!r}; known: "
            f"{', '.join(sorted(CODEC_VARIANTS))}"
        )
    return factory()


_VARIANT_FALLBACK = "baseline"
_VARIANT_WARNED: set[str] = set()


def resolve_codec_variant(name: str) -> CodecConfig:
    """Like :func:`codec_variant`, but an unknown *name* warns once and
    falls back to ``baseline`` instead of failing the squash — variant
    names arrive from the environment, and a typo'd knob should cost a
    warning, not a pipeline."""
    if name in CODEC_VARIANTS:
        return CODEC_VARIANTS[name]()
    import warnings

    from repro.obs.metrics import get_registry

    if name not in _VARIANT_WARNED:
        _VARIANT_WARNED.add(name)
        warnings.warn(
            f"unknown codec variant {name!r}; falling back to "
            f"{_VARIANT_FALLBACK!r} (known: "
            f"{', '.join(sorted(CODEC_VARIANTS))})",
            stacklevel=2,
        )
    get_registry().inc("codec.variant_fallback")
    return CODEC_VARIANTS[_VARIANT_FALLBACK]()


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


def _require_tables(tables: dict, kind: FieldKind):
    """*kind*'s entry in the per-stream dict *tables*; a missing stream
    is a :class:`CodecTableError` naming it."""
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


#: The key of the end-of-region sentinel item.
_SENTINEL_KEY = (OP_SENTINEL, ())


def _region_keys(
    region: Sequence[CodecInstr],
    mtf_alphabets: dict[FieldKind, tuple[int, ...]],
) -> list[tuple[int, tuple[int, ...]]]:
    """``(opcode, fields)`` of every item of *region* and its sentinel,
    MTF streams transformed with the recency lists reset here."""
    if not mtf_alphabets:
        # An item is its own (opcode, fields) key.
        keys = list(region)
    else:
        transforms = {
            kind: MoveToFront(alphabet)
            for kind, alphabet in mtf_alphabets.items()
        }
        keys = []
        for item in region:
            kinds = codec_fields(item.opcode)
            fields = tuple(
                transforms[kind].encode_one(value)
                if kind in transforms
                else value
                for kind, value in zip(kinds, item.fields)
            )
            keys.append((item.opcode, fields))
    keys.append(_SENTINEL_KEY)
    return keys


def _code_strings(
    encoder: dict[int, tuple[int, int]], symbols
) -> dict[int, str]:
    """Each of *symbols*' codewords from *encoder*, as a bit string
    (symbols a context table does not code are left out)."""
    strings = {}
    for symbol in symbols:
        try:
            code, length = encoder[symbol]
        except KeyError:
            continue
        strings[symbol] = format(code, f"0{length}b")
    return strings


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

        One pass for every variant: each item becomes a key -- its
        opcode and (MTF-transformed) fields, plus the previous opcode
        when the opcode stream may be conditioned -- and each distinct
        key is counted, then coded, once.  Every stream's frequency
        dict lists its symbols in the order they first appear in the
        merged stream (the sentinel right after region 0's items),
        because the Huffman and dictionary builders break ties by that
        order.
        """
        config = config or CodecConfig()
        mtf_alphabets: dict[FieldKind, tuple[int, ...]] = {}
        if config.mtf_kinds:
            raw_values: dict[FieldKind, set[int]] = {}
            for region in regions:
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
        by_prev = bool(config.context_kinds)

        # Pass 1: one key per item (MTF reset per region), counted in
        # first-appearance order.
        region_keys: list[list] = []
        counts: Counter = Counter()
        for region in regions:
            keys: list = _region_keys(region, mtf_alphabets)
            if by_prev:
                prevs = [start_symbol(FieldKind.OPCODE)]
                prevs += [key[0] for key in keys[:-1]]
                keys = list(zip(prevs, keys))
            counts.update(keys)
            region_keys.append(keys)

        # Stream frequencies (and opcode bigrams) from the distinct
        # keys: a symbol first appears with the first key holding it.
        frequencies: dict[FieldKind, dict[int, int]] = {
            FieldKind.OPCODE: {}
        }
        bigrams: dict[int, dict[int, int]] = {}
        # opcode -> the frequency dicts of its field streams.
        freq_plans: dict[int, tuple[dict[int, int], ...]] = {}
        if by_prev:
            for (prev, (opcode, _)), n in counts.items():
                row = bigrams.setdefault(prev, {})
                row[opcode] = row.get(opcode, 0) + n
            distinct: Counter = Counter()
            for (_, key), n in counts.items():
                distinct[key] += n
        else:
            distinct = counts
        opfreq = frequencies[FieldKind.OPCODE]
        for (opcode, fields), n in distinct.items():
            opfreq[opcode] = opfreq.get(opcode, 0) + n
            plan = freq_plans.get(opcode)
            if plan is None:
                plan = freq_plans[opcode] = tuple(
                    frequencies.setdefault(kind, {})
                    for kind in codec_fields(opcode)
                )
            for kfreq, value in zip(plan, fields):
                kfreq[value] = kfreq.get(value, 0) + n

        # Order-1 candidate: let the exact cost model pick a context
        # partition of the opcode bigrams (possibly order-0) with a
        # global fallback that guarantees the context format never
        # loses to the legacy one.
        models: dict[FieldKind, StreamModel] = {}
        if by_prev:
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
        codec = cls(
            codes=codes,
            mtf_alphabets=mtf_alphabets,
            coder=config.coder,
            models=models,
        )

        # Pass 2: each symbol's codeword as a bit string once per
        # stream, then each distinct key's bits once (the opcode coded
        # in the context of its predecessor when conditioned), then
        # each region is one join.
        strings = {
            kind: _code_strings(codes[kind].encoder(), freq)
            for kind, freq in frequencies.items()
        }
        # opcode -> the codeword strings of its field streams.
        code_plans = {
            opcode: tuple(strings[kind] for kind in codec_fields(opcode))
            for opcode in opfreq
        }
        getitem = dict.__getitem__
        op_model = models.get(FieldKind.OPCODE)
        if op_model is None:
            op_strings = strings[FieldKind.OPCODE]
            bits_of = {
                key: op_strings[key[0]] + "".join(
                    map(getitem, code_plans[key[0]], key[1])
                )
                for key in distinct
            }
        else:
            # Each context's table codes the opcodes that follow it.
            op_bank = [
                _code_strings(table.encoder(), opfreq)
                for table in op_model.tables
            ]
            context_of = op_model.context_of
            bits_of = {}
            for prev, key in counts:
                opcode = key[0]
                bits_of[prev, key] = op_bank[context_of(prev)][
                    opcode
                ] + "".join(map(getitem, code_plans[opcode], key[1]))
        if by_prev and op_model is None:
            bits_of = {pair: bits_of[pair[1]] for pair in counts}

        offsets: list[int] = []
        chunks: list[str] = []
        stream_bits = 0
        for keys in region_keys:
            offsets.append(stream_bits)
            chunk = "".join(map(bits_of.__getitem__, keys))
            chunks.append(chunk)
            stream_bits += len(chunk)

        table_writer = BitWriter()
        spans: list[tuple[int, int, int, int]] = []
        codec._serialise_tables(table_writer, spans)
        blob = CompressedBlob(
            table_words=table_writer.to_words(),
            stream_words=bits_to_words("".join(chunks)),
            region_bit_offsets=offsets,
            table_bits=table_writer.bit_length,
            stream_bits=stream_bits,
            context_spans=spans,
        )
        return codec, blob

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
                    if kind is not FieldKind.OPCODE:
                        # The table loop conditions the opcode stream
                        # only; decoding this with context 0's table
                        # would be silently wrong.
                        raise CodecTableError(
                            f"corrupt tables: stream {kind.name} is "
                            f"conditioned; only OPCODE may be",
                            bit_offset=layout.mapping_start_bit,
                        )
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
        # Every stream is driven by the opcode stream (build always
        # writes it: the sentinel is in it); without it no region
        # decodes, on any backend.
        _require_tables(codes, FieldKind.OPCODE)
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
        loop, ``table`` the first-level-table loop of
        :meth:`_decode_region_table`.  Both decode the same items from
        the same bits and fail with the same typed error at the same
        bit offset.
        """
        name = resolve_decode_backend(backend)
        return DECODE_BACKENDS[name](self, words, bit_offset)

    def _decode_region_generic(
        self, words: Sequence[int], bit_offset: int
    ) -> tuple[list[CodecInstr], int]:
        """The paper-verbatim symbol loop: every stream decodes through
        its code's own ``decode`` (DECODE for canonical Huffman)."""
        if self.models:
            return self._decode_region_generic_ctx(words, bit_offset)
        reader = BitReader(words, bit_offset)
        decoders = {kind: code.decode for kind, code in self.codes.items()}
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
        self, words: Sequence[int], bit_offset: int
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

    def _decode_tables(self) -> tuple:
        """The table loop's decode structures, built once per codec.

        Returns ``(tables, op_mapping, op_triples, plans, window)``.
        ``tables[kind]`` is ``(K, table, overflow)`` for the stream's
        (context-0) canonical code, ``overflow`` being ``(counts,
        firsts, leads, values, max_length)`` for codewords longer than
        K.  ``op_mapping`` is ``None`` unless the opcode stream is
        conditioned; then ``op_triples[op_mapping[prev]]`` is the triple
        decoding the opcode after *prev*.  ``plans[opcode]`` (filled
        lazily) is the ``(kind, K, table, overflow)`` sequence of that
        opcode's field streams, and ``window`` the longest codeword
        over every table (how many bits the loop keeps buffered).
        """
        cached = getattr(self, "_table_decoder", None)
        if cached is None:
            tables = {
                kind: _table_triple(code)
                for kind, code in self.codes.items()
            }
            op_model = self.models.get(FieldKind.OPCODE)
            op_mapping = op_triples = None
            op_codes: tuple = ()
            if op_model is not None:
                op_mapping = op_model.mapping
                op_codes = op_model.tables
                op_triples = tuple(_table_triple(t) for t in op_codes)
            window = max(
                (c.max_length for c in (*self.codes.values(), *op_codes)),
                default=1,
            )
            cached = (tables, op_mapping, op_triples, {}, window)
            self._table_decoder = cached
        return cached

    def _decode_region_table(
        self, words: Sequence[int], bit_offset: int
    ) -> tuple[list[CodecInstr], int]:
        """Table-driven region decode with the bit window in locals.

        Decodes exactly the items (and consumes exactly the bits) of
        the reference loop, for order-0 codecs and for codecs whose
        opcode stream is conditioned; only the mechanics differ -- a
        K-bit prefix lookup per symbol instead of the bit-at-a-time
        DECODE, and zero-padded whole-word refills with a hard
        end-of-stream check wherever padding may have been consumed.
        """
        tables, op_mapping, op_triples, plans, window = self._decode_tables()
        if op_mapping is not None:
            op_k, op_table, op_overflow = op_triples[
                op_mapping[start_symbol(FieldKind.OPCODE)]
            ]
        else:
            op_k, op_table, op_overflow = _require_tables(
                tables, FieldKind.OPCODE
            )
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
            if op_mapping is not None:
                op_k, op_table, op_overflow = op_triples[op_mapping[opcode]]

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
            # The field count fits the opcode's layout by construction
            # (the plan came from codec_fields): skip CodecInstr's check.
            items.append(new_codec_item((opcode, tuple(values_out))))
        return items, wi * 32 - navail - bit_offset


def _table_triple(code: CanonicalCode) -> tuple:
    """``(K, table, overflow)`` of *code* for the table loop."""
    k, table = code.decode_table()
    firsts, leads = code.overflow_tables()
    return k, table, (
        code.counts, firsts, leads, code.values, code.max_length
    )


# -- decode backends ---------------------------------------------------------
#
# Region decode mechanics are selected by name: "reference" is the
# paper's bit-at-a-time loop, "table" the first-level-table loop above.
# Both produce identical items, bit counts and typed errors; the table
# backend runs the dictionary coder through the reference loop, since
# its codes have no first-level table.


def _backend_reference(
    codec: ProgramCodec, words: Sequence[int], bit_offset: int
) -> tuple[list[CodecInstr], int]:
    return codec._decode_region_generic(words, bit_offset)


def _backend_table(
    codec: ProgramCodec, words: Sequence[int], bit_offset: int
) -> tuple[list[CodecInstr], int]:
    if codec.coder == "huffman":
        return codec._decode_region_table(words, bit_offset)
    return codec._decode_region_generic(words, bit_offset)


#: name -> f(codec, words, bit_offset) -> (items, bits).
DECODE_BACKENDS: dict[str, Callable[..., tuple[list[CodecInstr], int]]] = {
    "reference": _backend_reference,
    "table": _backend_table,
}
