"""Crash-safe cache entries: sealing, corruption detection, atomicity."""

import json
import random

import pytest

from repro.faultinject.chaos import corrupt_entry
from repro.store.sealed import CacheStats, read_entry, seal_text, write_entry

KEYS = ("cycles", "base_cycles", "relative_time")
ENTRY = {"cycles": 482208, "base_cycles": 400000, "relative_time": 1.205}


def _write(tmp_path, obj=ENTRY):
    path = tmp_path / "ab" / "abc123.json"
    write_entry(path, obj)
    return path


class TestRoundtrip:
    def test_write_then_read(self, tmp_path):
        path = _write(tmp_path)
        stats = CacheStats()
        assert read_entry(path, KEYS, stats) == ENTRY
        assert stats.hits == 1
        assert stats.rejected == 0

    def test_entry_is_sealed_two_lines(self, tmp_path):
        path = _write(tmp_path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("crc32:")
        assert json.loads(lines[0]) == ENTRY

    def test_no_temp_files_left_behind(self, tmp_path):
        path = _write(tmp_path)
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_missing_file_is_a_plain_miss(self, tmp_path):
        stats = CacheStats()
        assert read_entry(tmp_path / "nope.json", KEYS, stats) is None
        assert stats.misses == 1
        assert stats.rejected == 0

    def test_seal_text_roundtrip(self):
        payload = json.dumps({"a": 1})
        text = seal_text(payload)
        body, seal = text.splitlines()
        assert body == payload
        assert seal.startswith("crc32:") and len(seal) == len("crc32:") + 8


class TestZeroLengthEntry:
    """Regression: a zero-length file (a crash between create and
    write, or a racing truncation) must be a clean reject — mmap of an
    empty file raises ValueError, which used to escape the read path
    when the mmap threshold was low."""

    def test_empty_file_rejects_without_raising(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_bytes(b"")
        stats = CacheStats()
        assert read_entry(path, KEYS, stats) is None
        assert stats.rejects == {"torn": 1}

    def test_empty_file_safe_even_on_the_mmap_path(
        self, tmp_path, monkeypatch
    ):
        from repro.store import sealed

        monkeypatch.setattr(sealed, "MMAP_MIN_BYTES", 0)
        path = tmp_path / "empty.json"
        path.write_bytes(b"")
        stats = CacheStats()
        assert read_entry(path, KEYS, stats) is None
        assert stats.rejects == {"torn": 1}

    def test_mmap_path_still_reads_real_entries(
        self, tmp_path, monkeypatch
    ):
        from repro.obs.metrics import get_registry
        from repro.store import sealed

        monkeypatch.setattr(sealed, "MMAP_MIN_BYTES", 1)
        path = _write(tmp_path)
        before = get_registry().counter("cellcache.mmap_reads").value
        assert read_entry(path, KEYS) == ENTRY
        assert get_registry().counter("cellcache.mmap_reads").value > before


class TestCorruptionDetected:
    """Every corruption mode must read as 'absent', never raise, and be
    tallied under the right reject reason."""

    def _reject_reason(self, path):
        stats = CacheStats()
        assert read_entry(path, KEYS, stats) is None
        assert stats.rejected == 1
        return next(iter(stats.rejects))

    def test_truncated_json(self, tmp_path):
        path = _write(tmp_path)
        path.write_bytes(path.read_bytes()[:10])  # a torn write
        assert self._reject_reason(path) == "torn"

    @pytest.mark.parametrize("keep", [0, 1], ids=["bare", "newline"])
    def test_entry_cut_before_its_seal_is_torn(self, tmp_path, keep):
        """A torn write that lost only the seal line leaves valid JSON
        with every required key; it must still read as torn."""
        path = _write(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: data.index(b"\n") + keep])
        assert self._reject_reason(path) == "torn"

    def test_garbage_bytes(self, tmp_path):
        path = _write(tmp_path)
        path.write_bytes(b"\x00\xffnot json at all\x1b")
        assert self._reject_reason(path) == "torn"

    def test_payload_bitflip_under_intact_seal(self, tmp_path):
        path = _write(tmp_path)
        corrupt_entry(path, "bitflip", random.Random(0))
        assert self._reject_reason(path) == "seal-mismatch"

    def test_valid_json_missing_keys(self, tmp_path):
        path = _write(tmp_path, {"cycles": 1})  # sealed, parseable, short
        assert self._reject_reason(path) == "missing-keys"

    def test_resealed_bogus_entry(self, tmp_path):
        path = _write(tmp_path)
        corrupt_entry(path, "missing-keys", random.Random(0))
        assert self._reject_reason(path) == "missing-keys"

    def test_non_dict_payload(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(seal_text(json.dumps([1, 2, 3])))
        assert self._reject_reason(path) == "torn"

    def test_bad_seal_digits(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(ENTRY) + "\ncrc32:zzzzzzzz\n")
        assert self._reject_reason(path) == "torn"

    def test_unknown_corruption_mode_rejected(self, tmp_path):
        path = _write(tmp_path)
        with pytest.raises(ValueError):
            corrupt_entry(path, "frobnicate", random.Random(0))


class TestAtomicity:
    def test_rewrite_replaces_entry(self, tmp_path):
        path = _write(tmp_path)
        write_entry(path, {"cycles": 1, "base_cycles": 1, "relative_time": 1.0})
        assert read_entry(path, KEYS)["cycles"] == 1
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_concurrent_writers_use_distinct_temp_names(self, tmp_path):
        # The temp name embeds pid + random token; two writers of the
        # same cell can never collide on it.  Simulate the collision
        # window by pre-creating a same-named entry and rewriting it.
        path = _write(tmp_path)
        for _ in range(8):
            write_entry(path, ENTRY)
        assert read_entry(path, KEYS) == ENTRY
