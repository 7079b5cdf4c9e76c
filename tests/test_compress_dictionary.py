"""The split-stream dictionary coder (future-work alternative)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compress.bitstream import BitReader, BitWriter
from repro.compress.codec import CodecConfig, ProgramCodec
from repro.compress.dictionary import DictionaryCode
from repro.compress.streams import codec_to_instruction, instruction_to_codec
from repro.isa import assemble


class TestDictionaryCode:
    def test_basic_roundtrip(self):
        code = DictionaryCode.from_frequencies(
            {5: 100, 9: 50, 200: 1}, value_bits=8
        )
        writer = BitWriter()
        encoder = code.encoder()
        for symbol in (5, 9, 200, 5, 123):  # 123 unseen -> escape
            word, length = encoder[symbol]
            writer.write_bits(word, length)
        reader = BitReader(writer.to_words())
        assert [code.decode(reader) for _ in range(5)] == [5, 9, 200, 5, 123]

    def test_escape_costs_more(self):
        code = DictionaryCode.from_frequencies({1: 10, 2: 10}, value_bits=8)
        encoder = code.encoder()
        _, in_dict = encoder[1]
        _, escaped = encoder[77]
        assert escaped == in_dict + 8

    def test_width_minimises_total_bits(self):
        # one dominant value: width 1 wins (1 bit per occurrence)
        skewed = {0: 10_000, **{i: 1 for i in range(1, 40)}}
        code = DictionaryCode.from_frequencies(skewed, value_bits=8)
        assert code.width <= 3

        # uniform over many values: a wide dictionary wins
        uniform = {i: 100 for i in range(60)}
        code = DictionaryCode.from_frequencies(uniform, value_bits=16)
        assert code.width >= 6

    def test_validation(self):
        with pytest.raises(ValueError):
            DictionaryCode(width=0, values=(), value_bits=8)
        with pytest.raises(ValueError):
            DictionaryCode(width=1, values=(1, 2), value_bits=8)  # > 2^1-1
        with pytest.raises(ValueError):
            DictionaryCode(width=3, values=(1, 1), value_bits=8)
        with pytest.raises(ValueError):
            DictionaryCode.from_frequencies({}, value_bits=8)

    def test_out_of_range_symbol_rejected(self):
        code = DictionaryCode.from_frequencies({1: 5}, value_bits=8)
        with pytest.raises(KeyError):
            code.encoder()[1 << 8]

    def test_corrupt_index_detected(self):
        code = DictionaryCode(width=3, values=(7,), value_bits=8)
        writer = BitWriter()
        writer.write_bits(5, 3)  # index 5: not escape (7), not in dict
        with pytest.raises(ValueError, match="corrupt"):
            code.decode(BitReader(writer.to_words()))

    @given(
        st.dictionaries(
            st.integers(0, 255), st.integers(1, 500), min_size=1, max_size=40
        ),
        st.lists(st.integers(0, 255), min_size=1, max_size=60),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, freqs, symbols):
        code = DictionaryCode.from_frequencies(freqs, value_bits=8)
        writer = BitWriter()
        encoder = code.encoder()
        for symbol in symbols:
            word, length = encoder[symbol]
            writer.write_bits(word, length)
        reader = BitReader(writer.to_words())
        assert [code.decode(reader) for _ in symbols] == symbols

    def test_serialise_roundtrip(self):
        code = DictionaryCode.from_frequencies(
            {i: i + 1 for i in range(20)}, value_bits=6
        )
        writer = BitWriter()
        code.serialise(writer, value_bits=6)
        assert writer.bit_length == code.serialised_bits(6)
        again = DictionaryCode.deserialise(
            BitReader(writer.to_words()), value_bits=6
        )
        assert again == code


SAMPLE = assemble(
    "addi r31, 0, r9\nadd r9, r0, r9\nldw r1, 4(r2)\nstw r1, 8(r2)\n"
    "beq r1, 5\nbsr r26, -3\nret\nsys write"
)


class TestDictCodec:
    def test_program_codec_with_dict_coder(self):
        items = [instruction_to_codec(i) for i in SAMPLE] * 4
        _, blob = ProgramCodec.build(
            [items, items[:5]], CodecConfig(coder="dict")
        )
        codec = ProgramCodec.from_table_words(blob.table_words)
        assert codec.coder == "dict"
        for index, region in enumerate([items, items[:5]]):
            decoded, _ = codec.decode_region(
                blob.stream_words, blob.region_bit_offsets[index]
            )
            assert [codec_to_instruction(i) for i in decoded] == [
                codec_to_instruction(i) for i in region
            ]

    def test_unknown_coder_rejected(self):
        with pytest.raises(ValueError, match="coder"):
            CodecConfig(coder="zstd")

    def test_huffman_beats_dict_on_stream_size(self):
        items = [instruction_to_codec(i) for i in SAMPLE] * 20
        _, huff = ProgramCodec.build([items])
        _, dictionary = ProgramCodec.build(
            [items], CodecConfig(coder="dict")
        )
        assert huff.stream_bits <= dictionary.stream_bits

    def test_pipeline_equivalence_with_dict(
        self, mini_program, mini_profile, mini_baseline
    ):
        import dataclasses

        from repro.core.pipeline import SquashConfig, squash_program as squash
        from tests.conftest import MINI_TIMING_INPUT

        config = dataclasses.replace(
            SquashConfig(theta=1.0), codec=CodecConfig(coder="dict")
        )
        result = squash(mini_program, mini_profile, config)
        run, _ = result.run(MINI_TIMING_INPUT, max_steps=10_000_000)
        assert run.output == mini_baseline.output
