"""Integrity checking, the error taxonomy, and fault injection."""

import dataclasses

import pytest

from repro.compress.bitstream import BitReader
from repro.compress.canonical import CanonicalCode
from repro.core.costmodel import CostModel
from repro.core.pipeline import SquashConfig, load_squashed, squash_program as squash
from repro.core.runtime import (
    SquashRuntime,
    StubAreaOverflow,
    clear_region_decode_cache,
)
from repro.core import runtime as runtime_mod
from repro.core.verify import verify_squashed
from repro.errors import (
    BufferOverrunError,
    CodecTableError,
    CorruptBlobError,
    OffsetTableError,
    SquashError,
    TruncatedStreamError,
)
from repro.faultinject import run_sweep
from repro.program.imagefile import (
    ImageFormatError,
    load_image,
    save_image,
)
from repro.vm.machine import Machine
from tests.conftest import MINI_TIMING_INPUT

SMALL_BUFFER = SquashConfig(
    theta=1.0, cost=CostModel(buffer_bound_bytes=48)
)


@pytest.fixture(scope="module")
def squashed(mini_program, mini_profile):
    return squash(mini_program, mini_profile, SMALL_BUFFER)


# -- taxonomy ----------------------------------------------------------------


def test_taxonomy_doubles_as_builtin_errors():
    assert issubclass(CorruptBlobError, ValueError)
    assert issubclass(CodecTableError, ValueError)
    assert issubclass(TruncatedStreamError, EOFError)
    assert issubclass(ImageFormatError, CorruptBlobError)
    for cls in (
        CorruptBlobError, TruncatedStreamError, CodecTableError,
        OffsetTableError, BufferOverrunError, StubAreaOverflow,
    ):
        assert issubclass(cls, SquashError)


def test_error_context_renders():
    exc = CorruptBlobError("bad crc", region=3, bit_offset=17)
    assert "region=3" in str(exc)
    assert "bit_offset=17" in str(exc)
    assert exc.region == 3


def test_with_context_fills_only_missing_fields():
    exc = CorruptBlobError("bad crc", bit_offset=17)
    exc.with_context(region=5, bit_offset=99, fingerprint="abc")
    assert exc.region == 5
    assert exc.bit_offset == 17  # original kept
    assert exc.fingerprint == "abc"
    assert "region=5" in str(exc)


# -- truncation (satellite: both decode paths) -------------------------------


def test_reading_past_eof_raises_truncated():
    reader = BitReader([0xDEADBEEF])
    reader.read_bits(32)
    with pytest.raises(TruncatedStreamError):
        reader.read_bit()
    reader2 = BitReader([0xDEADBEEF], bit_offset=30)
    with pytest.raises(TruncatedStreamError):
        reader2.read_bits(4)
    reader3 = BitReader([0xDEADBEEF])
    with pytest.raises(TruncatedStreamError):
        reader3.skip_bits(33)


def test_peek_still_zero_pads_for_lookahead():
    reader = BitReader([0xFFFFFFFF], bit_offset=24)
    assert reader.peek_bits(16) == 0xFF00


def _tiny_code():
    # symbols 0..3 with skewed frequencies -> codeword lengths 1..3
    return CanonicalCode.from_frequencies({0: 8, 1: 4, 2: 2, 3: 2})


def test_truncated_stream_raises_on_reference_decode():
    code = _tiny_code()
    # A stream ending mid-codeword: one full word of the longest
    # codeword repeated, cut to 32 bits, then read from near the end.
    reader = BitReader([0], bit_offset=31)
    with pytest.raises((TruncatedStreamError, CorruptBlobError)):
        while True:
            code.decode(reader)


def test_truncated_stream_raises_on_fast_decode():
    code = _tiny_code()
    reader = BitReader([0], bit_offset=31)
    with pytest.raises((TruncatedStreamError, CorruptBlobError)):
        while True:
            code.fast_decode(reader)


def test_both_decode_paths_raise_identically(squashed):
    """Reference and fast decode reject the same truncated stream."""
    desc = squashed.descriptor
    image = squashed.image
    start = desc.stream_addr - image.base
    region = desc.regions[0]
    # Keep only the first word of the region's stream.
    first_word = region.bit_offset // 32 + 1
    words = image.memory[start : start + first_word]
    from repro.compress.codec import ProgramCodec

    table = image.memory[
        desc.table_addr - image.base :
        desc.table_addr - image.base + desc.table_words
    ]
    codec = ProgramCodec.from_table_words(table)
    with pytest.raises(SquashError):
        codec.decode_region(words, region.bit_offset, backend="reference")
    with pytest.raises(SquashError):
        codec.decode_region(words, region.bit_offset, backend="table")


# -- image file hardening ----------------------------------------------------


def test_imagefile_round_trip(squashed, tmp_path):
    path = tmp_path / "img.img"
    save_image(squashed.image, path)
    loaded = load_image(path)
    assert loaded == squashed.image


def test_imagefile_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.img"
    path.write_bytes(b"\0" * 64)
    with pytest.raises(ImageFormatError, match="magic"):
        load_image(path)


def test_imagefile_crc_footer_rejects_bitflip(squashed, tmp_path):
    path = tmp_path / "img.img"
    save_image(squashed.image, path)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x10
    path.write_bytes(bytes(data))
    with pytest.raises(ImageFormatError, match="CRC"):
        load_image(path)


def test_imagefile_accepts_version1_without_footer(squashed, tmp_path):
    import struct

    path = tmp_path / "img.img"
    save_image(squashed.image, path)
    data = bytearray(path.read_bytes())[:-4]  # strip the footer
    struct.pack_into("<I", data, 4, 1)  # rewrite version
    v1 = tmp_path / "v1.img"
    v1.write_bytes(bytes(data))
    assert load_image(v1) == squashed.image


def test_imagefile_rejects_implausible_count(squashed, tmp_path):
    import struct

    path = tmp_path / "img.img"
    save_image(squashed.image, path)
    data = bytearray(path.read_bytes())[:-4]
    # n_segments sits right after magic/version/base/entry_pc.
    struct.pack_into("<I", data, 16, 0x7FFFFFFF)
    import zlib

    data += struct.pack("<I", zlib.crc32(bytes(data)) & 0xFFFFFFFF)
    path.write_bytes(bytes(data))
    with pytest.raises(ImageFormatError, match="implausible"):
        load_image(path)


# -- save / verify / load round trip -----------------------------------------


def test_clean_image_verifies_and_runs(squashed, tmp_path):
    prefix = tmp_path / "mini"
    squashed.save(prefix)
    report = verify_squashed(prefix)
    assert report.ok, report.render()
    assert "region-decode" in report.passed
    loaded = load_squashed(prefix)
    machine, _ = loaded.make_machine(MINI_TIMING_INPUT)
    run = machine.run(max_steps=5_000_000)
    direct, _ = squashed.run(MINI_TIMING_INPUT, max_steps=5_000_000)
    assert run.output == direct.output
    assert run.cycles == direct.cycles


def _resave_with_stream_flip(squashed, prefix):
    """Flip one bit inside the compressed stream and re-save (so the
    *file* CRC is valid but the *blob* integrity metadata is not)."""
    desc = squashed.descriptor
    image = squashed.image
    memory = list(image.memory)
    memory[desc.stream_addr - image.base] ^= 1 << 7
    tampered = dataclasses.replace(image, memory=memory)
    save_image(tampered, prefix.with_suffix(".img"))


def test_load_squashed_rejects_tampered_stream(squashed, tmp_path):
    prefix = tmp_path / "mini"
    squashed.save(prefix)
    _resave_with_stream_flip(squashed, prefix)
    with pytest.raises(CorruptBlobError):
        load_squashed(prefix)
    # verify reports the same fault structurally, without raising
    report = verify_squashed(prefix)
    assert not report.ok
    assert report.fault.check == "checksums"
    # and the unverified load still works (runtime catches it later)
    loaded = load_squashed(prefix, verify=False)
    machine, _ = loaded.make_machine(MINI_TIMING_INPUT)
    with pytest.raises(CorruptBlobError):
        machine.run(max_steps=5_000_000)


def test_runtime_rejects_corrupt_offset_table(squashed):
    desc = squashed.descriptor
    image = squashed.image
    memory = list(image.memory)
    memory[desc.offset_table_addr - image.base + 1] += 3
    tampered = dataclasses.replace(image, memory=memory)
    runtime = SquashRuntime(desc, region_cache=False)
    machine = Machine(
        tampered, input_words=MINI_TIMING_INPUT,
        services=runtime.services(),
    )
    with pytest.raises((OffsetTableError, CorruptBlobError)):
        machine.run(max_steps=5_000_000)


def test_runtime_rejects_corrupt_codec_tables(squashed):
    desc = squashed.descriptor
    image = squashed.image
    memory = list(image.memory)
    memory[desc.table_addr - image.base] ^= 1 << 3
    tampered = dataclasses.replace(image, memory=memory)
    runtime = SquashRuntime(desc, region_cache=False)
    machine = Machine(
        tampered, input_words=MINI_TIMING_INPUT,
        services=runtime.services(),
    )
    with pytest.raises(CodecTableError):
        machine.run(max_steps=5_000_000)


# -- region decode cache poisoning -------------------------------------------


def test_poisoned_cache_entry_rejected_not_executed(squashed):
    clear_region_decode_cache()
    try:
        machine, _ = squashed.make_machine(
            MINI_TIMING_INPUT, region_cache=True
        )
        clean = machine.run(max_steps=5_000_000)
        cache = runtime_mod._REGION_DECODE_CACHE
        assert cache, "expected cached region decodes"
        for key, (items, bits, seal) in list(cache.items()):
            cache[key] = (items, bits + 64, seal)  # stale seal
        machine, runtime = squashed.make_machine(
            MINI_TIMING_INPUT, region_cache=True
        )
        rerun = machine.run(max_steps=5_000_000)
        assert runtime.stats.cache_rejects > 0
        assert rerun.output == clean.output
        assert rerun.cycles == clean.cycles
    finally:
        clear_region_decode_cache()


# -- stub-area degradation ---------------------------------------------------


def _fill_stub_area(machine, runtime, count_word):
    """Mark every stub slot live, with *count_word* as each slot's
    in-memory usage count."""
    desc = runtime.desc
    runtime.current_region = 0
    for slot in range(desc.stub_capacity):
        key = (0, 1000 + slot)
        runtime._live_stubs[key] = slot
        runtime._slot_key[slot] = key
        machine.write_word(runtime._stub_addr(slot) + 2, count_word)
    runtime._free_slots = []


def test_overflow_reclaims_stale_stubs(squashed):
    machine, runtime = squashed.make_machine(MINI_TIMING_INPUT)
    _fill_stub_area(machine, runtime, count_word=0)
    desc = squashed.descriptor
    runtime._create_stub(machine, 26, desc.buffer_base + 1)
    assert runtime.stats.stub_reclaims == desc.stub_capacity
    assert runtime.stats.stubs_created == 1
    # reclamation itself charges nothing beyond the normal CreateStub
    assert runtime.stats.decomp_cycles == desc.cost.createstub_cycles


def test_overflow_with_live_stubs_still_raises(squashed):
    machine, runtime = squashed.make_machine(MINI_TIMING_INPUT)
    _fill_stub_area(machine, runtime, count_word=1)
    desc = squashed.descriptor
    with pytest.raises(StubAreaOverflow):
        runtime._create_stub(machine, 26, desc.buffer_base + 1)
    assert runtime.stats.stub_reclaims == 0


def test_integrity_checks_charge_no_cycles(squashed):
    """A checked run and an integrity-stripped run are cycle-identical
    (the satellite regression: verification must not perturb
    RunResult.cycles semantics)."""
    checked, rt = squashed.run(
        MINI_TIMING_INPUT, max_steps=5_000_000, region_cache=False
    )
    stripped = dataclasses.replace(squashed.descriptor, integrity=None)
    runtime = SquashRuntime(stripped, region_cache=False)
    machine = Machine(
        squashed.image, input_words=MINI_TIMING_INPUT,
        services=runtime.services(),
    )
    unchecked = machine.run(max_steps=5_000_000)
    assert checked.output == unchecked.output
    assert checked.cycles == unchecked.cycles
    assert checked.steps == unchecked.steps


# -- seeded fault-injection property -----------------------------------------


def test_seeded_fault_sweep_no_silent_misexecution(squashed):
    """Property: every one of N seeded faults is detected or provably
    benign -- never a silent misexecution, never an untyped escape."""
    report = run_sweep(
        squashed, MINI_TIMING_INPUT, faults=120, seed=7,
        max_steps=5_000_000,
    )
    assert report.silent == 0, report.render()
    assert report.escaped == 0, report.render()
    assert report.detected > 0
    assert report.detected + report.benign == 120


def test_single_bit_flips_all_detected_or_benign(squashed):
    """Focused version of the property over pure single-bit flips."""
    kinds = ("bitflip-stream", "bitflip-table", "bitflip-offsets")
    report = run_sweep(
        squashed, MINI_TIMING_INPUT, faults=60, seed=11, kinds=kinds,
        max_steps=5_000_000,
    )
    assert report.ok, report.render()
    assert report.escaped == 0, report.render()


def test_sweep_is_deterministic(squashed):
    a = run_sweep(
        squashed, MINI_TIMING_INPUT, faults=20, seed=3,
        max_steps=5_000_000,
    )
    b = run_sweep(
        squashed, MINI_TIMING_INPUT, faults=20, seed=3,
        max_steps=5_000_000,
    )
    assert (a.detected, a.benign, a.silent, a.escaped) == (
        b.detected, b.benign, b.silent, b.escaped
    )


# -- MediaBench regression (satellite) ---------------------------------------


def test_mediabench_cycles_unchanged_by_integrity_checks():
    from repro.analysis.experiments import squash_benchmark
    from repro.workloads.mediabench import mediabench_program

    config = SquashConfig(theta=0.01).with_buffer_bound(512)
    result = squash_benchmark("adpcm", 0.2, config)
    bench = mediabench_program("adpcm", scale=0.2)
    checked, rt = result.run(
        bench.timing_input, max_steps=500_000_000, region_cache=False
    )
    stripped = dataclasses.replace(result.descriptor, integrity=None)
    runtime = SquashRuntime(stripped, region_cache=False)
    machine = Machine(
        result.image, input_words=bench.timing_input,
        services=runtime.services(),
    )
    unchecked = machine.run(max_steps=500_000_000)
    assert checked.output == unchecked.output
    assert checked.cycles == unchecked.cycles
    # stub accounting is identical too
    assert rt.stats.stubs_created == runtime.stats.stubs_created
    assert rt.stats.stubs_freed == runtime.stats.stubs_freed
    assert rt.stats.stub_reclaims == runtime.stats.stub_reclaims == 0


# -- CLI ---------------------------------------------------------------------


def test_cli_verify_ok_and_fault(squashed, tmp_path, capsys):
    from repro.cli import main

    prefix = tmp_path / "mini"
    squashed.save(prefix)
    assert main(["verify", str(prefix)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    _resave_with_stream_flip(squashed, prefix)
    assert main(["verify", str(prefix)]) == 1
    out = capsys.readouterr().out
    assert "FAULT" in out


def test_cli_verify_missing_prefix(capsys):
    from repro.cli import main

    assert main(["verify"]) == 2


def test_cli_faultsweep(capsys):
    from repro.cli import main

    code = main([
        "faultsweep", "--names", "adpcm", "--scale", "0.2",
        "--faults", "10", "--seed", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: OK" in out
