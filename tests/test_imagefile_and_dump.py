"""Image file format and the objdump-style listings."""

import hashlib
import pathlib

import pytest

from repro.core.pipeline import (
    SquashConfig,
    load_squashed,
    squash_program as squash,
)
from repro.analysis.dump import dump_image, dump_region
from repro.program.imagefile import (
    ImageFormatError,
    load_image,
    save_image,
)
from repro.vm.machine import Machine
from tests.conftest import MINI_TIMING_INPUT


class TestImageFile:
    def test_roundtrip_plain_image(self, mini_layout, tmp_path):
        path = tmp_path / "mini.img"
        save_image(mini_layout.image, path)
        again = load_image(path)
        assert again.memory == mini_layout.image.memory
        assert again.base == mini_layout.image.base
        assert again.entry_pc == mini_layout.image.entry_pc
        assert again.symbols == mini_layout.image.symbols
        assert again.block_heads == mini_layout.image.block_heads
        assert [
            (s.name, s.start, s.size) for s in again.segments
        ] == [
            (s.name, s.start, s.size)
            for s in mini_layout.image.segments
        ]

    def test_loaded_image_runs(self, mini_layout, tmp_path):
        path = tmp_path / "mini.img"
        save_image(mini_layout.image, path)
        again = load_image(path)
        a = Machine(mini_layout.image, input_words=[3, 4]).run()
        b = Machine(again, input_words=[3, 4]).run()
        assert a.output == b.output

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.img"
        path.write_bytes(b"\0" * 64)
        with pytest.raises(ImageFormatError, match="magic"):
            load_image(path)

    def test_truncated_rejected(self, mini_layout, tmp_path):
        path = tmp_path / "mini.img"
        save_image(mini_layout.image, path)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(ImageFormatError):
            load_image(path)


class TestSquashedExecutable:
    def test_save_load_run(
        self, mini_program, mini_profile, mini_baseline, tmp_path
    ):
        result = squash(mini_program, mini_profile, SquashConfig(theta=1.0))
        result.save(tmp_path / "mini")
        loaded = load_squashed(tmp_path / "mini")
        machine, runtime = loaded.make_machine(MINI_TIMING_INPUT)
        run = machine.run(max_steps=10_000_000)
        assert run.output == mini_baseline.output
        assert runtime.stats.decompressions > 0

    @pytest.mark.parametrize("variant", ["baseline", "ctx1"])
    def test_job_digest_covers_the_saved_files(
        self, mini_program, mini_profile, tmp_path, variant
    ):
        """A squash job hashes in memory exactly the two files that
        ``save`` writes."""
        from repro.service.jobs import _image_digest

        result = squash(
            mini_program,
            mini_profile,
            SquashConfig(theta=1.0, codec_variant=variant),
        )
        if variant == "ctx1":
            assert result.descriptor.integrity.contexts
        digest = hashlib.sha256()
        for path in result.save(tmp_path / "mini"):
            digest.update(pathlib.Path(path).read_bytes())
        assert _image_digest(result) == digest.hexdigest()

    def test_descriptor_roundtrip(self, mini_program, mini_profile, tmp_path):
        result = squash(mini_program, mini_profile, SquashConfig(theta=1.0))
        result.save(tmp_path / "mini")
        loaded = load_squashed(tmp_path / "mini")
        assert loaded.descriptor == result.descriptor


class TestDump:
    def test_dump_image_contains_labels_and_code(self, mini_layout):
        text = dump_image(mini_layout.image)
        assert "segment text" in text
        assert "main.loop:" in text
        assert "sys read" in text
        assert "; ->" in text  # branch target annotation

    def test_dump_selected_segments(self, mini_layout):
        text = dump_image(mini_layout.image, segments=("data",))
        assert "segment text" not in text

    def test_dump_truncates(self, mini_layout):
        text = dump_image(mini_layout.image, max_words_per_segment=2)
        assert "more words" in text

    def test_dump_squashed_image(self, mini_program, mini_profile):
        result = squash(mini_program, mini_profile, SquashConfig(theta=1.0))
        text = dump_image(result.image)
        assert "segment entry_stubs" in text
        assert "segment compressed" in text

    def test_dump_region(self, mini_program, mini_profile):
        result = squash(mini_program, mini_profile, SquashConfig(theta=1.0))
        text = dump_region(result.image, result.descriptor, 0)
        assert "region 0" in text
        assert "expands to" in text
        # block labels of the region appear
        region = result.descriptor.regions[0]
        some_label = next(iter(region.block_slots))
        assert some_label in text
