"""Declarative codec models: per-stream contexts, one table per context.

A codec variant is described by a :class:`CodecModel`: for every field
stream a :class:`StreamModel` holding one canonical table *per
context* plus a ``mapping`` from the stream's previous symbol to the
context that codes the next one.  Order-0 streams (the paper's codec)
are the one-context special case with an empty mapping.  Every codec
consumer derives from this object: the encoder emits against it, the
two decode backends compile their decode structures from it, the
serialised table area stores it (with per-context CRC spans), and the
verifier/fault-injection layers walk its contexts.  The codec
conditions the opcode stream only (:class:`~repro.compress.codec.CodecConfig`
and the table parser enforce it); the model itself is per-stream.

Context selection is cost-driven and exact: for each conditionable
stream the builder counts order-1 bigrams, tries giving the top-M
previous symbols their own singleton context (everything else shares
one), and keeps the partition whose *total* cost — per-context stream
bits + per-context table bits + the mapping array — is smallest.
Order-0 wins ties, and a model whose serialised total (including the
context-format header overhead) would not beat the legacy order-0
format is dropped entirely, so a context variant never produces a
larger compressed area than the baseline codec.

Previous-symbol convention (shared by encoder and decoders): the
OPCODE stream starts each region as if a sentinel preceded it (regions
end with one, and region independence requires a per-region reset);
every other stream starts at symbol 0.  Conditioning applies to the
symbols as coded, and MTF streams are excluded from conditioning, so
``prev`` is always the raw coded symbol.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compress.bitstream import BitReader, BitWriter
from repro.compress.canonical import CanonicalCode
from repro.compress.streams import OP_SENTINEL
from repro.errors import CodecTableError
from repro.isa.fields import FIELD_WIDTHS, FieldKind

#: The opcode stream's symbol domain: 6-bit opcodes incl. pseudo-ops.
OPCODE_DOMAIN = 64

#: Bits storing the per-stream context count in the serialised tables.
N_CTX_BITS = 5

#: Largest context count expressible in the serialised form.
MAX_CONTEXTS = (1 << N_CTX_BITS) - 1


def context_domain(kind: FieldKind) -> int:
    """Size of the previous-symbol domain of *kind*'s stream."""
    if kind is FieldKind.OPCODE:
        return OPCODE_DOMAIN
    return 1 << FIELD_WIDTHS[kind]


def context_bits(n_contexts: int) -> int:
    """Bits per serialised mapping entry.

    ``n_contexts.bit_length()`` rather than ``(n_contexts - 1)``'s, so
    at least one out-of-range value is always encodable: a corrupted
    mapping entry is detectable by construction, never silently aliased
    onto a valid context.
    """
    return max(1, n_contexts.bit_length())


def start_symbol(kind: FieldKind) -> int:
    """The conventional previous symbol at the start of every region."""
    return OP_SENTINEL if kind is FieldKind.OPCODE else 0


@dataclass(frozen=True)
class StreamModel:
    """One field stream's contexts: a table per context + the mapping.

    ``mapping[prev]`` names the context that codes the symbol following
    *prev*; an empty mapping means order-0 (a single context).
    """

    kind: FieldKind
    tables: tuple[CanonicalCode, ...]
    mapping: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.tables:
            raise ValueError(f"stream {self.kind.name} has no tables")
        if len(self.tables) > MAX_CONTEXTS:
            raise ValueError(
                f"stream {self.kind.name} has {len(self.tables)} contexts "
                f"(limit {MAX_CONTEXTS})"
            )
        if self.mapping:
            if len(self.tables) == 1:
                raise ValueError(
                    f"stream {self.kind.name}: mapping with one context"
                )
            if len(self.mapping) != context_domain(self.kind):
                raise ValueError(
                    f"stream {self.kind.name}: mapping covers "
                    f"{len(self.mapping)} of {context_domain(self.kind)} "
                    f"previous symbols"
                )
            for ctx in self.mapping:
                if not 0 <= ctx < len(self.tables):
                    raise ValueError(
                        f"stream {self.kind.name}: mapping names context "
                        f"{ctx} of {len(self.tables)}"
                    )
        elif len(self.tables) != 1:
            raise ValueError(
                f"stream {self.kind.name}: {len(self.tables)} contexts "
                f"need a mapping"
            )

    @property
    def n_contexts(self) -> int:
        return len(self.tables)

    @property
    def conditioned(self) -> bool:
        return len(self.tables) > 1

    def context_of(self, prev: int) -> int:
        """The context id coding the symbol that follows *prev*."""
        return self.mapping[prev] if self.mapping else 0


@dataclass
class CodecModel:
    """The declarative whole-codec model: one StreamModel per stream."""

    streams: dict[FieldKind, StreamModel]

    @property
    def conditioned_kinds(self) -> frozenset[FieldKind]:
        return frozenset(
            kind for kind, sm in self.streams.items() if sm.conditioned
        )

    @property
    def conditioned(self) -> bool:
        return any(sm.conditioned for sm in self.streams.values())

    @property
    def n_contexts(self) -> int:
        return sum(sm.n_contexts for sm in self.streams.values())


@dataclass(frozen=True)
class StreamLayout:
    """Bit positions of one stream's serialised pieces, for the fault
    planner and per-context integrity: where the mapping array lives
    (``-1`` when order-0) and the (start, end) span of each context's
    table.  Mapping bits sit *outside* the spans — they are covered by
    the whole-area table CRC only."""

    kind: int
    n_contexts: int
    ctx_bits: int
    mapping_start_bit: int
    spans: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class StreamChoice:
    """Result of cost-driven partition selection for one stream."""

    model: StreamModel
    cost: int
    order0_cost: int


def _code_and_cost(
    freq: dict[int, int], value_bits: int
) -> tuple[CanonicalCode, int]:
    """The canonical code for *freq* and its exact total bit cost
    (serialised table + coded stream).  An empty context gets a dummy
    single-symbol code — it is never consulted by a well-formed
    stream, but every serialised context must hold a valid table."""
    if not freq:
        code = CanonicalCode.from_lengths({0: 1})
        return code, code.serialised_bits(value_bits)
    code = CanonicalCode.from_frequencies(freq)
    encoder = code.encoder()
    stream_bits = sum(n * encoder[sym][1] for sym, n in freq.items())
    return code, code.serialised_bits(value_bits) + stream_bits


#: Candidate singleton-context counts tried per stream.
_PARTITION_SIZES = (1, 2, 4, 8)


def choose_stream_model(
    kind: FieldKind,
    bigrams: dict[int, dict[int, int]],
    value_bits: int,
    max_contexts: int,
) -> StreamChoice:
    """Pick the cheapest context partition for one stream.

    *bigrams* maps previous symbol -> {symbol: count} under the
    region-reset convention of :func:`start_symbol`.  Candidates: order-0,
    and for each M in ``_PARTITION_SIZES`` the top-M previous symbols
    (by occurrence count) as singleton contexts with everything else
    sharing one.  Ties keep the fewer-context candidate.
    """
    flat: dict[int, int] = {}
    totals: dict[int, int] = {}
    for prev, row in bigrams.items():
        totals[prev] = sum(row.values())
        for sym, n in row.items():
            flat[sym] = flat.get(sym, 0) + n
    code0, cost0 = _code_and_cost(flat, value_bits)
    best = StreamChoice(
        model=StreamModel(kind, (code0,)), cost=cost0, order0_cost=cost0
    )
    ranked = sorted(bigrams, key=lambda prev: (-totals[prev], prev))
    domain = context_domain(kind)
    for m in _PARTITION_SIZES:
        if m + 1 > min(max_contexts, MAX_CONTEXTS) or m > len(ranked):
            continue
        tops = ranked[:m]
        rest: dict[int, int] = {}
        for prev in ranked[m:]:
            for sym, n in bigrams[prev].items():
                rest[sym] = rest.get(sym, 0) + n
        n_ctx = m + 1
        mapping = [m] * domain
        for ctx, prev in enumerate(tops):
            mapping[prev] = ctx
        tables = []
        cost = domain * context_bits(n_ctx)
        for ctx_freq in [*(bigrams[prev] for prev in tops), rest]:
            code, bits = _code_and_cost(ctx_freq, value_bits)
            tables.append(code)
            cost += bits
        if cost < best.cost:
            best = StreamChoice(
                model=StreamModel(kind, tuple(tables), tuple(mapping)),
                cost=cost,
                order0_cost=cost0,
            )
    return best


def select_context_models(
    bigrams: dict[FieldKind, dict[int, dict[int, int]]],
    value_bits: dict[FieldKind, int],
    *,
    max_contexts: int,
    total_streams: int,
) -> dict[FieldKind, StreamModel]:
    """Choose per-stream partitions, then apply the global fallback.

    Returns the conditioned streams' models, or ``{}`` when the
    context serialisation format would not beat the legacy order-0
    format in total (the context format spends ``N_CTX_BITS`` extra
    per stream — *every* stream, conditioned or not — so marginal
    per-stream wins can still lose globally).  The guarantee callers
    rely on: a context codec's compressed area is never larger than
    the order-0 baseline's.
    """
    chosen: dict[FieldKind, StreamModel] = {}
    delta = N_CTX_BITS * total_streams
    for kind, grams in bigrams.items():
        choice = choose_stream_model(
            kind, grams, value_bits[kind], max_contexts
        )
        if choice.model.conditioned:
            chosen[kind] = choice.model
            delta += choice.cost - choice.order0_cost
    if not chosen or delta >= 0:
        return {}
    return chosen


# -- serialisation -----------------------------------------------------------


def serialise_stream_model(
    writer: BitWriter,
    model: StreamModel,
    value_bits: int,
    spans: list[tuple[int, int, int, int]] | None = None,
) -> None:
    """Write one stream's context-format table area.

    Layout: ``N_CTX_BITS`` context count; if conditioned, the mapping
    array (one :func:`context_bits` entry per domain value); then each
    context's :meth:`CanonicalCode.serialise`.  *spans* collects
    ``(kind, ctx, start_bit, end_bit)`` per context table — mapping
    bits deliberately fall outside every span.
    """
    writer.write_bits(model.n_contexts, N_CTX_BITS)
    if model.conditioned:
        bits = context_bits(model.n_contexts)
        for entry in model.mapping:
            writer.write_bits(entry, bits)
    for ctx, code in enumerate(model.tables):
        start = writer.bit_length
        code.serialise(writer, value_bits)
        if spans is not None:
            spans.append((int(model.kind), ctx, start, writer.bit_length))


def deserialise_stream_model(
    reader: BitReader, kind: FieldKind, value_bits: int
) -> tuple[StreamModel, StreamLayout]:
    """Inverse of :func:`serialise_stream_model`.

    A mapping entry naming a context outside ``[0, n_contexts)`` raises
    :class:`CodecTableError` carrying the offending context id — the
    entry width guarantees such values are representable, so mapping
    corruption is a parse error, not a misroute.
    """
    n_ctx = reader.read_bits(N_CTX_BITS)
    if n_ctx == 0:
        raise CodecTableError(
            f"corrupt tables: zero contexts for stream {kind.name}",
            bit_offset=reader.bit_pos,
        )
    mapping: tuple[int, ...] = ()
    mapping_start = -1
    bits = 0
    if n_ctx > 1:
        bits = context_bits(n_ctx)
        mapping_start = reader.bit_pos
        entries = []
        for _ in range(context_domain(kind)):
            entry = reader.read_bits(bits)
            if entry >= n_ctx:
                raise CodecTableError(
                    f"corrupt tables: context index {entry} out of range "
                    f"for stream {kind.name}",
                    bit_offset=reader.bit_pos,
                    context=entry,
                )
            entries.append(entry)
        mapping = tuple(entries)
    tables = []
    spans = []
    for _ in range(n_ctx):
        start = reader.bit_pos
        tables.append(CanonicalCode.deserialise(reader, value_bits))
        spans.append((start, reader.bit_pos))
    try:
        model = StreamModel(kind, tuple(tables), mapping)
    except ValueError as exc:
        raise CodecTableError(
            f"corrupt tables: {exc}", bit_offset=reader.bit_pos
        ) from exc
    layout = StreamLayout(
        kind=int(kind),
        n_contexts=n_ctx,
        ctx_bits=bits,
        mapping_start_bit=mapping_start,
        spans=tuple(spans),
    )
    return model, layout
