"""Concurrent multi-process store writers.

Two real processes race the same store root: once on *identical*
fingerprints (every put races a rewrite of the same key) and once on
*distinct* fingerprints under a quota (every put is an
admission/eviction race).
"""

import hashlib
import os
import pathlib
import subprocess
import sys
import textwrap
import time

from repro import settings
from repro.store import get_store, reset_stores

WRITER = textwrap.dedent(
    """
    import hashlib, pathlib, sys, time
    from repro.store import get_store

    root, mode, seed, count = (
        sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
    )
    store = get_store(root)
    start = pathlib.Path(root) / ".start"
    deadline = time.monotonic() + 30.0
    while not start.exists():
        if time.monotonic() > deadline:
            raise SystemExit("no start marker")
        time.sleep(0.001)
    for index in range(count):
        if mode == "same":
            key = hashlib.sha256(f"shared-{index}".encode()).hexdigest()
            obj = {"i": index, "pad": "x" * 64}
        else:
            key = hashlib.sha256(
                f"w{seed}-{index}".encode()
            ).hexdigest()
            obj = {"w": seed, "i": index, "pad": "x" * 256}
        store.put("cell", key, obj)
        got = store.get("cell", key)
        assert got is None or got == obj, (key, got)
    print("OK")
    """
)


def _spawn_writers(tmp_path, root, mode, count, extra_env=None):
    script = tmp_path / "writer.py"
    script.write_text(WRITER)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        pathlib.Path(__file__).resolve().parent.parent / "src"
    )
    env.pop("REPRO_STORE_QUOTA_BYTES", None)
    env.update(extra_env or {})
    procs = [
        subprocess.Popen(
            [sys.executable, str(script), str(root), mode, str(seed),
             str(count)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        for seed in (1, 2)
    ]
    root.mkdir(parents=True, exist_ok=True)
    (root / ".start").write_text("go")
    return procs


def _join(procs):
    outputs = []
    for proc in procs:
        out, _ = proc.communicate(timeout=120)
        outputs.append((proc.returncode, out))
    return outputs


def _physical_usage(root):
    """On-disk bytes under *root*, temp files included, ignoring the
    start marker and the lock."""
    total = 0
    for dirpath, _, names in os.walk(root):
        for name in names:
            if name in (".start", ".store-lock"):
                continue
            try:
                total += os.stat(os.path.join(dirpath, name)).st_size
            except OSError:
                continue
    return total


class TestRacingProcesses:
    def test_identical_fingerprints_converge_to_one_object(self, tmp_path):
        root = tmp_path / "store"
        procs = _spawn_writers(tmp_path, root, "same", 40)
        for code, out in _join(procs):
            assert code == 0, out
        reset_stores()
        store = get_store(root)
        report = store.verify()
        assert report["refs"] == 40
        assert report["ok"] == 40, report
        assert sum(report["corrupt"].values()) == 0
        # Both writers published every key with identical bytes: each
        # key converged to exactly one sealed file, whoever won the
        # race, and no temp file survived it.
        files = sorted(
            path for path in root.rglob("*")
            if path.is_file() and path.name != ".start"
        )
        refs = sorted(
            store.ref_path(
                "cell", hashlib.sha256(f"shared-{index}".encode()).hexdigest()
            )
            for index in range(40)
        )
        assert files == refs
        assert all(os.stat(path).st_nlink == 1 for path in files)
        for index in range(40):
            key = hashlib.sha256(f"shared-{index}".encode()).hexdigest()
            assert store.get("cell", key) == {"i": index, "pad": "x" * 64}
        reset_stores()

    def test_distinct_fingerprints_respect_quota(self, tmp_path):
        quota = 24 * 1024
        root = tmp_path / "store"
        procs = _spawn_writers(
            tmp_path, root, "distinct", 40,
            extra_env={"REPRO_STORE_QUOTA_BYTES": str(quota)},
        )
        peak = 0
        while any(proc.poll() is None for proc in procs):
            peak = max(peak, _physical_usage(root))
            time.sleep(0.002)
        for code, out in _join(procs):
            assert code == 0, out
        peak = max(peak, _physical_usage(root))
        assert peak <= quota, f"peak usage {peak} exceeded quota {quota}"
        reset_stores()
        store = get_store(root)
        report = store.verify()
        assert sum(report["corrupt"].values()) == 0, report
        assert report["ok"] == report["refs"] > 0
        with settings.use_settings(store_quota_bytes=quota):
            assert store.usage_bytes() <= quota
        reset_stores()
