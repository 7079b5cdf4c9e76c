"""Vectorized batch region decode (numpy lane-parallel chase).

The table-driven :meth:`ProgramCodec._decode_region_fast` still walks a
Python loop per symbol.  This module decodes *many regions at once*:
one numpy lane per region, all lanes advancing one symbol per vector
step.  The per-symbol work collapses into a handful of array ops:

* The merged per-stream decode tables become one combined ``int64``
  lookup table indexed by ``(state << K) | window`` where ``state``
  encodes *which stream the lane decodes next* and ``window`` is the
  next K bits of that lane's stream, peeled from a ``uint64`` view of
  the word array.  K is uniform (:data:`VECTOR_K`); narrower per-code
  tables are expanded by entry repetition.
* Each LUT entry packs ``(codeword length, symbol, next state)`` into
  one non-negative ``int64`` (:data:`_LN_SHIFT`/:data:`_SYM_SHIFT`
  layout), so one gather resolves a symbol, advances the bit cursor,
  and transitions the state machine.  The state machine mirrors the
  opcode -> field-plan structure: states ``0..C-1`` decode the opcode
  stream (one LUT bank per opcode context of the codec's
  :class:`~repro.compress.model.CodecModel`; C = 1 for order-0) and
  fan out (via the decoded symbol) to the per-opcode chain of field
  states, which re-enter the opcode context selected by the opcode
  just decoded; the sentinel routes to a terminal state that
  self-loops consuming zero bits, so finished lanes spin harmlessly
  until the batch drains.
* Negative LUT entries are markers into a side table of *specials*:
  codewords longer than K (resolved scalar through the same
  ``_decode_overflow`` as the sequential path), streams with no code,
  and opcode symbols outside the ISA.  Specials are rare; everything
  hot stays vectorized.

The contract is strict parity with ``_decode_region_fast``: identical
items, identical bit counts, and on malformed input the same
:mod:`repro.errors` exception type at the same bit offset.  Where the
sequential path decodes regions one after another, a batch records the
per-lane failure and raises the error of the *lowest-indexed* failing
lane -- exactly the error a sequential loop over the same regions in
the same order would have raised first.

For the dictionary coder, whose streams the LUT cannot express, every
entry point falls back to the sequential table path, so callers never
need to gate on the coder themselves.
"""

from __future__ import annotations

import gc as _gc
from typing import Sequence

import numpy as _np

from repro.compress.canonical import FAST_TABLE_BITS, CanonicalCode
from repro.compress.mtf import MoveToFront
from repro.compress.streams import OP_SENTINEL, CodecInstr, codec_fields
from repro.errors import (
    CodecTableError,
    CorruptBlobError,
    TruncatedStreamError,
)
from repro.isa.fields import FieldKind

#: Uniform first-level window width of the combined LUT, in bits.
VECTOR_K = FAST_TABLE_BITS

#: Packed LUT entry layout (non-negative int64):
#:   ``ln << 57 | symbol << 22 | (state << VECTOR_K | low bits free)``
#: ln needs 6 bits (codewords cap at 40), symbols 35 bits (the widest
#: field is 26 bits), and the next-state base 22 bits -- enough for
#: 2**(22 - VECTOR_K) = 1024 combined states per batch.
_NS_BITS = 22
_NS_MASK = (1 << _NS_BITS) - 1
_SYM_SHIFT = _NS_BITS
_SYM_BITS = 35
_SYM_MASK = (1 << _SYM_BITS) - 1
_LN_SHIFT = _SYM_SHIFT + _SYM_BITS

#: Max combined states of one chase (state-id field of the LUT index).
_MAX_STATES = 1 << (_NS_BITS - VECTOR_K)

#: Zero words inserted after each job's stream in the concatenated word
#: array.  Overshoot past a stream end is bounded: truncation detection
#: fires within one symbol (<= K bits via the LUT), and scalar overflow
#: peeks at most MAX_CODE_LENGTH (40) bits -- both well under 96 bits.
_PAD_WORDS = 3


def _peek_bits(words: Sequence[int], pos: int, n: int) -> int:
    """MSB-first peek of *n* bits at absolute bit position *pos*,
    zero-padded past the end (scalar; overflow resolution only)."""
    w, b = divmod(pos, 32)
    nwords = len(words)
    acc = 0
    nbits = 0
    while nbits < b + n:
        acc = (acc << 32) | (words[w] if w < nwords else 0)
        nbits += 32
        w += 1
    return (acc >> (nbits - b - n)) & ((1 << n) - 1)


class VectorDecoder:
    """The per-codec state machine: combined LUT + specials.

    Built once per :class:`ProgramCodec` (cached on the instance by
    :func:`get_decoder`) and shared by every batch the codec joins.
    States ``0 .. C-1`` decode the opcode stream — one LUT bank per
    opcode *context* of the codec's model (C = 1 for order-0 codecs,
    reducing to the classic single opcode state); each distinct
    ``(field-plan suffix, return context)`` pair gets one state
    (suffix sharing keeps the machine small, and the return context is
    the opcode context the chain re-enters, determined by the opcode
    just decoded); the last state is terminal.  Conditioned *field*
    streams are not expressible — the batch gate routes such codecs to
    the sequential path.
    """

    def __init__(self, codec) -> None:
        codes = codec.codes
        self.mtf_alphabets = codec.mtf_alphabets
        self.specials: list[tuple] = []
        #: state id -> (k, overflow tuple) of the stream it decodes.
        self.state_stream: dict[int, tuple] = {}
        #: field-state id -> local nsbase of its successor state.
        self.state_next: dict[int, int] = {}
        #: opcode symbol -> ("ok", local nsbase) | ("term",)
        #: | ("badop",) | ("missing", kind); consulted when an opcode
        #: resolves through the scalar overflow path.  Routing depends
        #: only on the decoded symbol, so it is shared by every opcode
        #: context bank.
        self.op_route: dict[int, tuple] = {}
        #: opcode -> field-kind tuple, for batch assembly (index = op).
        self.plan_fields: list[tuple[FieldKind, ...] | None] = [None] * 64
        #: (opcode, *fields) -> shared immutable CodecInstr.  Decoded
        #: streams repeat instructions heavily (the repetition *is*
        #: what the compressor exploits), so assembly interns instead
        #: of constructing: a dict hit replaces object allocation, and
        #: the cache is bounded by the program's distinct instructions.
        self.instr_intern: dict[tuple, CodecInstr] = {}

        op_code = codes.get(FieldKind.OPCODE)
        op_model = (
            codec.stream_model(FieldKind.OPCODE)
            if isinstance(op_code, CanonicalCode)
            else None
        )
        op_tables = op_model.tables if op_model is not None else ()
        #: Opcode states 0..C-1, one per opcode context.
        self.n_op_states = max(1, len(op_tables))
        #: The lane's first state: the context a region-initial opcode
        #: decodes in (a sentinel conventionally precedes every region).
        self.start_state = (
            op_model.context_of(OP_SENTINEL) if op_model is not None else 0
        )

        suffix_ids: dict[tuple, int] = {}
        suffix_order: list[tuple] = []
        n_op_states = self.n_op_states

        def state_for(suffix: tuple, ret_ctx: int) -> int:
            if not suffix:
                return ret_ctx
            key = (suffix, ret_ctx)
            sid = suffix_ids.get(key)
            if sid is None:
                sid = n_op_states + len(suffix_order)
                suffix_ids[key] = sid
                suffix_order.append(key)
                # Register the whole chain so ids exist before blocks
                # are built.
                state_for(suffix[1:], ret_ctx)
            return sid

        plans: dict[int, tuple] = {}
        if op_model is not None:
            op_symbols = sorted(
                {sym for table in op_tables for sym in table.values}
            )
            for sym in op_symbols:
                if sym == OP_SENTINEL:
                    self.op_route[sym] = ("term",)
                    continue
                try:
                    kinds = codec_fields(sym)
                except ValueError:
                    self.op_route[sym] = ("badop",)
                    continue
                missing = next(
                    (
                        k
                        for k in kinds
                        if not isinstance(codes.get(k), CanonicalCode)
                    ),
                    None,
                )
                if missing is not None:
                    # The sequential path raises while building the
                    # plan, right after the opcode symbol: route the
                    # whole opcode to the error, fields never decode.
                    self.op_route[sym] = ("missing", missing)
                    continue
                plans[sym] = kinds
                ret_ctx = op_model.context_of(sym)
                self.op_route[sym] = (
                    "ok",
                    state_for(kinds, ret_ctx) << VECTOR_K,
                )
                if 0 <= sym < 64:
                    self.plan_fields[sym] = kinds

        self.term_id = n_op_states + len(suffix_order)
        self.nstates = self.term_id + 1
        term_base = self.term_id << VECTOR_K

        expanded_cache: dict[int, tuple] = {}

        def expanded(code: CanonicalCode) -> tuple:
            """(syms, lns, none_mask) of the K-bit-expanded table."""
            cached = expanded_cache.get(id(code))
            if cached is None:
                k, table = code.decode_table()
                n = len(table)
                syms = _np.fromiter(
                    (e[0] if e is not None else 0 for e in table),
                    _np.int64,
                    n,
                )
                lns = _np.fromiter(
                    (e[1] if e is not None else 0 for e in table),
                    _np.int64,
                    n,
                )
                none = _np.fromiter(
                    (e is None for e in table), _np.bool_, n
                )
                if k < VECTOR_K:
                    reps = 1 << (VECTOR_K - k)
                    syms = _np.repeat(syms, reps)
                    lns = _np.repeat(lns, reps)
                    none = _np.repeat(none, reps)
                firsts, leads = code.overflow_tables()
                overflow = (
                    code.counts,
                    firsts,
                    leads,
                    code.values,
                    code.max_length,
                )
                cached = (syms, lns, none, k, overflow)
                expanded_cache[id(code)] = cached
            return cached

        def marker(special: tuple) -> int:
            self.specials.append(special)
            return -len(self.specials)

        blocks = []

        # Opcode states 0..C-1: one LUT bank per opcode context, all
        # sharing the symbol-keyed route table (a context changes which
        # codewords decode to which symbols, never what a symbol means).
        if op_model is not None:
            # Sized past 64 so symbols outside the 6-bit opcode space
            # (possible in hand-built codes) still index safely; they
            # route to "badop" markers below.
            route_next = _np.zeros(
                max(
                    64,
                    max(
                        (max(t.values) for t in op_tables if t.values),
                        default=0,
                    )
                    + 1,
                ),
                _np.int64,
            )
            problem_syms = []
            for sym, route in self.op_route.items():
                if route[0] == "ok":
                    route_next[sym] = route[1]
                elif route[0] == "term":
                    route_next[sym] = term_base
                else:
                    problem_syms.append(sym)
            for ctx, table in enumerate(op_tables):
                syms, lns, none, k, overflow = expanded(table)
                self.state_stream[ctx] = (k, overflow)
                block = (
                    (lns << _LN_SHIFT)
                    | (syms << _SYM_SHIFT)
                    | route_next[syms]
                )
                if none.any():
                    block[none] = marker(("ovfl", ctx))
                for sym in problem_syms:
                    route = self.op_route[sym]
                    hit = (syms == sym) & ~none
                    if not hit.any():
                        continue
                    ln = int(lns[hit][0])
                    if route[0] == "badop":
                        block[hit] = marker(("badop", sym, ln))
                    else:
                        block[hit] = marker(
                            ("missing_plan", sym, ln, route[1])
                        )
                blocks.append(block)
        else:
            blocks.append(
                _np.full(
                    1 << VECTOR_K,
                    marker(("missing_stream", FieldKind.OPCODE)),
                    _np.int64,
                )
            )

        # Field states, one per live (plan suffix, return context).
        for sid, (suffix, ret_ctx) in enumerate(
            suffix_order, start=n_op_states
        ):
            kind = suffix[0]
            code = codes.get(kind)
            nxt = state_for(suffix[1:], ret_ctx) << VECTOR_K
            self.state_next[sid] = nxt
            if not isinstance(code, CanonicalCode):
                blocks.append(
                    _np.full(
                        1 << VECTOR_K,
                        marker(("missing_stream", kind)),
                        _np.int64,
                    )
                )
                continue
            syms, lns, none, k, overflow = expanded(code)
            self.state_stream[sid] = (k, overflow)
            block = (lns << _LN_SHIFT) | (syms << _SYM_SHIFT) | nxt
            if none.any():
                block[none] = marker(("ovfl", sid))
            blocks.append(block)

        # Terminal state: self-loop, zero bits consumed.
        blocks.append(_np.full(1 << VECTOR_K, term_base, _np.int64))

        self.lut = _np.concatenate(blocks)


def get_decoder(codec) -> VectorDecoder:
    """The cached :class:`VectorDecoder` of *codec* (built on first
    use; the codec's tables are immutable so the machine never goes
    stale)."""
    decoder = getattr(codec, "_vector_decoder", None)
    if decoder is None:
        decoder = VectorDecoder(codec)
        codec._vector_decoder = decoder
    return decoder


#: Combined-LUT cache for recurring batches, keyed by the identity of
#: the participating decoders (strong refs to them ride in the value,
#: keeping the ids stable while cached).
_COMBINED_CACHE: dict[tuple, tuple] = {}
_COMBINED_CACHE_MAX = 8


def _combined(decoders: list[VectorDecoder]) -> tuple:
    """One LUT over *decoders*: per-codec state ids get disjoint
    ranges, marker indices get offset into one merged specials list."""
    key = tuple(id(d) for d in decoders)
    cached = _COMBINED_CACHE.get(key)
    if cached is not None:
        return cached
    parts = []
    specials: list[tuple] = []
    state_bases: list[int] = []
    base = 0
    for j, dec in enumerate(decoders):
        state_bases.append(base)
        part = dec.lut.copy()
        nonneg = part >= 0
        part[nonneg] += base << VECTOR_K
        if len(specials):
            part[~nonneg] -= len(specials)
        specials.extend((j, sp) for sp in dec.specials)
        parts.append(part)
        base += dec.nstates
    cached = (_np.concatenate(parts), specials, state_bases, decoders)
    if len(_COMBINED_CACHE) >= _COMBINED_CACHE_MAX:
        _COMBINED_CACHE.pop(next(iter(_COMBINED_CACHE)))
    _COMBINED_CACHE[key] = cached
    return cached


_WORDS_CACHE: dict[int, tuple] = {}
_WORDS_CACHE_MAX = 32


def _words_array(words: Sequence[int]):
    """uint64 view of *words*, cached by identity for recurring jobs."""
    cached = _WORDS_CACHE.get(id(words))
    if cached is not None and cached[0] is words:
        return cached[1]
    arr = _np.array(words, dtype=_np.uint64)
    if len(_WORDS_CACHE) >= _WORDS_CACHE_MAX:
        _WORDS_CACHE.pop(next(iter(_WORDS_CACHE)))
    _WORDS_CACHE[id(words)] = (words, arr)
    return arr


def _sequential_job(codec, words, offsets):
    return [
        codec.decode_region(words, off, backend="table") for off in offsets
    ]


def decode_batch(jobs) -> list[list[tuple[list[CodecInstr], int]]]:
    """Decode every region of every ``(codec, words, offsets)`` job.

    Returns one ``[(items, bits), ...]`` list per job, in order.  On
    malformed input raises the error of the lowest-indexed failing
    region (the error a sequential in-order loop would raise first).
    Jobs the vector machine cannot express (dictionary coder,
    conditioned field streams) silently take the sequential table
    path.

    Cyclic GC is deferred for the duration of the batch: assembling
    ~10^5 result objects in one burst otherwise triggers repeated
    generational collections that walk every live container and
    dominate the wall time (measured 3-4x).  The per-region decode
    paths cannot amortize this; the batch owns the burst and pays one
    collection afterwards.
    """
    was_enabled = _gc.isenabled()
    _gc.disable()
    try:
        return _decode_batch(jobs)
    finally:
        if was_enabled:
            _gc.enable()


def _decode_batch(jobs) -> list[list[tuple[list[CodecInstr], int]]]:
    results: list = [None] * len(jobs)
    vector_jobs = []
    for j, (codec, words, offsets) in enumerate(jobs):
        conditioned_fields = any(
            k is not FieldKind.OPCODE for k in codec.models
        )
        if codec.coder != "huffman" or conditioned_fields:
            results[j] = _sequential_job(codec, words, offsets)
        elif not offsets:
            results[j] = []
        else:
            vector_jobs.append((j, codec, words, list(offsets)))

    # Chunk by the combined state budget (1024 states per chase).
    chunk: list = []
    chunk_states = 0
    for entry in vector_jobs:
        nstates = get_decoder(entry[1]).nstates
        if chunk and chunk_states + nstates > _MAX_STATES:
            _chase(chunk, results)
            chunk, chunk_states = [], 0
        chunk.append(entry)
        chunk_states += nstates
    if chunk:
        _chase(chunk, results)
    return results


def _chase(chunk, results) -> None:
    """Run one lane-parallel chase over *chunk* and fill *results*."""
    decoders = [get_decoder(codec) for _, codec, _, _ in chunk]
    lut, specials, state_bases, _ = _combined(decoders)

    # Concatenated word image: each job's stream, zero padding after.
    arrays = []
    word_base = 0
    pos0_list: list[int] = []
    limit_list: list[int] = []
    local_limits: list[int] = []
    local_starts: list[int] = []
    lane_state0: list[int] = []
    term_list: list[int] = []
    lane_spans: list[tuple[int, int]] = []  # (first lane, count) / job
    job_bit_bases: list[int] = []
    job_limits: list[int] = []
    pad = _np.zeros(_PAD_WORDS, _np.uint64)
    for (_, codec, words, offsets), dec, sbase in zip(
        chunk, decoders, state_bases
    ):
        arrays.append(_words_array(words))
        arrays.append(pad)
        base_bits = word_base * 32
        hard_limit = len(words) * 32
        job_bit_bases.append(base_bits)
        job_limits.append(hard_limit)
        lane_spans.append((len(pos0_list), len(offsets)))
        for off in offsets:
            pos0_list.append(base_bits + off)
            limit_list.append(base_bits + hard_limit)
            local_limits.append(hard_limit)
            local_starts.append(off)
            lane_state0.append((sbase + dec.start_state) << VECTOR_K)
            term_list.append((sbase + dec.term_id) << VECTOR_K)
        word_base += len(words) + _PAD_WORDS
    arrays.append(_np.zeros(1, _np.uint64))  # final dword pair partner
    gwords = _np.concatenate(arrays)
    dwords = (gwords[:-1] << _np.uint64(32)) | gwords[1:]
    gwords_list: list[int] | None = None  # built lazily for overflow

    nlanes = len(pos0_list)
    pos = _np.array(pos0_list, _np.int64)
    limits = _np.array(limit_list, _np.int64)
    state = _np.array(lane_state0, _np.int64)
    term_base = _np.array(term_list, _np.int64)
    errors: list[BaseException | None] = [None] * nlanes

    # Lanes starting past their stream cannot even gather a window
    # safely; the sequential path truncates on its very first read,
    # naming the (out-of-range) start position, so pre-record exactly
    # that error.
    early = pos > limits
    if early.any():
        for i in _np.nonzero(early)[0]:
            i = int(i)
            errors[i] = _truncated(local_starts[i])
            pos[i] = limits[i]
            state[i] = term_base[i]

    mask_k = _np.int64((1 << VECTOR_K) - 1)
    shift_hi = _np.uint64(64 - VECTOR_K)
    meta_log = []
    state_log = []
    # Every active lane consumes >= 1 bit per step, so the widest
    # stream bounds the chase; the slack covers the final spin step.
    max_steps = int(limits.max() - pos.min()) + VECTOR_K + 2
    steps = 0
    while True:
        window = (
            (dwords[pos >> 5] << (pos & 31).astype(_np.uint64))
            >> shift_hi
        ).astype(_np.int64) & mask_k
        meta = lut[state + window]
        deferred = None
        if (meta < 0).any():
            if gwords_list is None:
                gwords_list = gwords.tolist()
            deferred = _patch_specials(
                meta,
                pos,
                gwords_list,
                specials,
                decoders,
                state_bases,
                job_bit_bases,
                job_limits,
            )
        meta_log.append(meta)
        state_log.append(state)
        pos = pos + (meta >> _LN_SHIFT)
        state = meta & _NS_MASK
        over = pos > limits
        if over.any():
            for i in _np.nonzero(over)[0]:
                i = int(i)
                if errors[i] is None:
                    errors[i] = _truncated(local_limits[i])
                pos[i] = limits[i]
                state[i] = term_base[i]
        if deferred:
            for i, err in deferred:
                if errors[i] is None:
                    errors[i] = err
                state[i] = term_base[i]
        if (state == term_base).all():
            break
        steps += 1
        if steps > max_steps:  # pragma: no cover - machine invariant
            raise RuntimeError("vector decode failed to terminate")

    for i, err in enumerate(errors):
        if err is not None:
            raise err

    metas = _np.array(meta_log)
    states = _np.array(state_log)
    nvalid = (states != term_base).sum(axis=0)
    lane_syms = ((metas >> _SYM_SHIFT) & _SYM_MASK).T.tolist()
    bits = (pos - _np.array(pos0_list, _np.int64)).tolist()

    for (j, codec, _, _), dec, (first, count) in zip(
        chunk, decoders, lane_spans
    ):
        out = []
        plan_fields = dec.plan_fields
        mtf_alphabets = dec.mtf_alphabets
        new_instr = CodecInstr.__new__
        instr_cls = CodecInstr
        intern = dec.instr_intern
        intern_get = intern.get
        for lane in range(first, first + count):
            syms = lane_syms[lane]
            n = int(nvalid[lane])
            items: list[CodecInstr] = []
            p = 0
            if mtf_alphabets:
                transforms = {
                    kind: MoveToFront(alphabet)
                    for kind, alphabet in mtf_alphabets.items()
                }
                while True:
                    op = syms[p]
                    p += 1
                    if op == OP_SENTINEL:
                        break
                    kinds = plan_fields[op]
                    nf = len(kinds)
                    values = [
                        transforms[kind].decode_one(value)
                        if kind in transforms
                        else value
                        for kind, value in zip(kinds, syms[p : p + nf])
                    ]
                    p += nf
                    key = (op, *values)
                    item = intern_get(key)
                    if item is None:
                        item = new_instr(instr_cls)
                        d = item.__dict__
                        d["opcode"] = op
                        d["fields"] = key[1:]
                        intern[key] = item
                    items.append(item)
            else:
                while True:
                    op = syms[p]
                    p += 1
                    if op == OP_SENTINEL:
                        break
                    nf = len(plan_fields[op])
                    end = p + nf
                    key = (op, *syms[p:end])
                    p = end
                    item = intern_get(key)
                    if item is None:
                        item = new_instr(instr_cls)
                        d = item.__dict__
                        d["opcode"] = op
                        d["fields"] = key[1:]
                        intern[key] = item
                    items.append(item)
            if p != n:  # pragma: no cover - machine invariant
                raise RuntimeError(
                    "vector decode consumed a different symbol count"
                )
            out.append((items, int(bits[lane])))
        results[j] = out


def _truncated(hard_limit: int) -> TruncatedStreamError:
    return TruncatedStreamError(
        f"bit position {hard_limit} past end of stream",
        bit_offset=hard_limit,
    )


def _missing(kind: FieldKind) -> CodecTableError:
    return CodecTableError(
        f"corrupt tables: no code for stream {kind.name}"
    )


def _badop_error(sym: int) -> ValueError:
    try:
        codec_fields(sym)
    except ValueError as exc:
        return exc
    raise RuntimeError(  # pragma: no cover - machine invariant
        f"opcode {sym:#x} routed to badop but resolves"
    )


def _patch_specials(
    meta, pos, gwords_list, specials, decoders, state_bases,
    bit_bases, job_limits,
):
    """Resolve negative LUT entries scalar, in place.

    Returns ``[(lane, error)]`` to apply *after* the truncation check
    of this step -- the sequential path checks the hard limit between
    decoding a symbol and acting on it, so truncation outranks plan
    errors discovered at the same symbol.
    """
    from repro.compress.codec import _decode_overflow

    deferred = []
    for idx in _np.nonzero(meta < 0)[0]:
        i = int(idx)
        j, sp = specials[-int(meta[i]) - 1]
        dec = decoders[j]
        sbase = state_bases[j]
        term = (sbase + dec.term_id) << VECTOR_K
        tag = sp[0]
        if tag == "ovfl":
            sid = sp[1]
            k, overflow = dec.state_stream[sid]
            max_len = overflow[4]
            acc = _peek_bits(gwords_list, int(pos[i]), max_len)
            try:
                sym, ln = _decode_overflow(acc, max_len, k, overflow)
            except CorruptBlobError:
                # Mirror the sequential path's shapes: truncation wins
                # when the probe crosses the stream end (the window
                # only saw zero padding); otherwise the longest-code
                # error carries the give-up position.
                local_end = int(pos[i]) - bit_bases[j] + max_len
                if local_end > job_limits[j]:
                    err: BaseException = _truncated(job_limits[j])
                else:
                    err = CorruptBlobError(
                        "corrupt bitstream: ran past longest code",
                        bit_offset=local_end,
                    )
                deferred.append((i, err))
                meta[i] = term
                continue
            if sid < dec.n_op_states:
                route = dec.op_route[sym]
                if route[0] == "ok":
                    nxt = route[1] + (sbase << VECTOR_K)
                elif route[0] == "term":
                    nxt = term
                elif route[0] == "badop":
                    nxt = term
                    deferred.append((i, _badop_error(sym)))
                else:
                    nxt = term
                    deferred.append((i, _missing(route[1])))
            else:
                nxt = dec.state_next[sid] + (sbase << VECTOR_K)
            meta[i] = (ln << _LN_SHIFT) | (sym << _SYM_SHIFT) | nxt
        elif tag == "badop":
            _, sym, ln = sp
            meta[i] = (ln << _LN_SHIFT) | (sym << _SYM_SHIFT) | term
            deferred.append((i, _badop_error(sym)))
        elif tag == "missing_plan":
            _, sym, ln, kind = sp
            meta[i] = (ln << _LN_SHIFT) | (sym << _SYM_SHIFT) | term
            deferred.append((i, _missing(kind)))
        else:  # missing_stream
            meta[i] = term
            deferred.append((i, _missing(sp[1])))
    return deferred


def decode_regions(
    codec, words: Sequence[int], offsets: Sequence[int]
) -> list[tuple[list[CodecInstr], int]]:
    """Batch-decode the regions of one codec (see :func:`decode_batch`)."""
    return decode_batch([(codec, words, offsets)])[0]


def decode_region(
    codec, words: Sequence[int], bit_offset: int
) -> tuple[list[CodecInstr], int]:
    """Single-region entry point, for backend dispatch.

    The vector machine amortizes over lanes; a one-lane batch is
    *correct* but slower than the sequential table path -- callers that
    care batch via :func:`decode_regions`/:func:`decode_batch`.
    """
    return decode_batch([(codec, words, [bit_offset])])[0][0]
