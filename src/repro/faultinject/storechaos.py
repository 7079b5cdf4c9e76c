"""End-to-end store chaos: the unified artifact store under fault.

``repro storechaos`` proves the robustness claims of :mod:`repro.store`
against a real sweep, in four phases over one private store root:

1. **Crash storm** — disposable writer subprocesses, each seeded from
   the run's seed, hammer the store with a tiny quota while
   ``REPRO_STORE_CHAOS`` injects ENOSPC into entry writes and
   SIGKILL-equivalent deaths mid-eviction (right after a victim is
   unlinked, with the store lock held).  A sampler
   thread measures physical on-disk usage the whole time; the store
   must never exceed its quota.
2. **Self-healing** — after the storm every entry must read back
   intact, and ``gc`` collects the stale temps the killed writers
   left.
3. **Quota'd sweep** — a real (fig6 ∪ fig7b) benchmark sweep runs
   through the cached sweep driver (:mod:`repro.analysis.parallel`)
   with the tiny quota still armed plus a fresh ENOSPC budget, and its
   figure rows are compared — byte for byte of the rendered text —
   against a serial, uncached, fault-free sweep.  Eviction pressure
   and injected write failures may cost cache hits; they must never
   cost correctness.
4. **Read-only store** — the store root is made unwritable and the
   sweep repeated: every put degrades (retry → breaker →
   :class:`~repro.errors.StoreDegraded`), the harness falls back to
   recompute-without-cache, ``store.degraded`` counts the events, and
   the rows still match serial.

The run **fails** (non-zero exit) if usage ever exceeded the quota,
planned faults did not fire, an entry was corrupt after the storm,
the degraded pass recorded no degradation, or any row diverged.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import random
import shutil
import stat as statmod
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

from repro.faultinject import chaos
from repro.faultinject.chaossweep import _env, _reference_rows
from repro.obs.metrics import get_registry

__all__ = [
    "StoreChaosReport",
    "run_store_chaos",
    "writer_main",
    "writer_schedule",
    "writer_seeds",
]

_METRICS = get_registry()


@dataclass
class StoreChaosReport:
    """Everything one store-chaos run observed, and its verdict."""

    name: str
    scale: float
    seed: int
    quota_bytes: int
    #: Store faults planned / actually fired, by kind.
    planned: dict[str, int] = field(default_factory=dict)
    fired: dict[str, int] = field(default_factory=dict)
    #: Writer subprocesses launched / killed by chaos (exit 137).
    writers: int = 0
    writers_killed: int = 0
    #: Peak physical bytes observed under the store root.
    usage_max: int = 0
    #: Post-storm verify: refs readable / corrupt (by reason).
    refs_ok: int = 0
    refs_corrupt: dict[str, int] = field(default_factory=dict)
    #: Stale temp files gc collected after the storm.
    gc_stale_temps: int = 0
    #: Quota'd sweep rows matched the serial fault-free sweep.
    rows_match_quota: bool = False
    #: Read-only-store sweep rows matched, and degradations counted.
    rows_match_readonly: bool = False
    degraded_count: int = 0
    cells: int = 0

    @property
    def usage_ok(self) -> bool:
        return self.usage_max <= self.quota_bytes

    @property
    def faults_ok(self) -> bool:
        return all(
            self.fired.get(kind, 0) >= count
            for kind, count in self.planned.items()
        )

    @property
    def store_readable(self) -> bool:
        # Writes publish by atomic rename, so no kill or ENOSPC may
        # leave a torn entry under a live name.
        return not self.refs_corrupt

    @property
    def ok(self) -> bool:
        return (
            self.usage_ok
            and self.faults_ok
            and self.store_readable
            and self.rows_match_quota
            and self.rows_match_readonly
            and self.degraded_count > 0
        )

    def render(self) -> str:
        def _fmt(counts: dict[str, int]) -> str:
            if not counts:
                return "none"
            return "  ".join(
                f"{kind} {count}" for kind, count in sorted(counts.items())
            )

        return "\n".join(
            [
                f"store chaos: {self.name} scale={self.scale} "
                f"seed={self.seed} quota={self.quota_bytes}B over "
                f"{self.cells} cells",
                f"  store faults planned: {_fmt(self.planned)}",
                f"  store faults fired:   {_fmt(self.fired)}"
                f"  [{'OK' if self.faults_ok else 'MISSING'}]",
                f"  writers: {self.writers} launched, "
                f"{self.writers_killed} killed by chaos",
                f"  peak usage: {self.usage_max}B / {self.quota_bytes}B"
                f"  [{'OK' if self.usage_ok else 'QUOTA EXCEEDED'}]",
                f"  post-storm refs: {self.refs_ok} ok, "
                f"corrupt {_fmt(self.refs_corrupt)}"
                f"  [{'OK' if self.store_readable else 'CORRUPT'}]",
                f"  gc healed: {self.gc_stale_temps} stale temps",
                f"  quota'd sweep rows "
                f"{'identical to serial' if self.rows_match_quota else 'DIVERGED'}",
                f"  read-only sweep rows "
                f"{'identical to serial' if self.rows_match_readonly else 'DIVERGED'}"
                f"  (store.degraded {self.degraded_count})",
                f"  verdict: {'OK' if self.ok else 'FAILED'}",
            ]
        )


def writer_seeds(seed: int, writers: int) -> list[int]:
    """The seed of each crash-storm writer, drawn from the run's
    *seed*."""
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(writers)]


def writer_schedule(seed: int, count: int) -> list[tuple[str, int]]:
    """``(tag, pad bytes)`` of each of a writer's *count* puts.

    Even puts use a key every sibling writer also writes (racing
    rewrites of one key); odd ones a key private to this writer.  The
    private tags and every pad size come from *seed*.
    """
    rng = random.Random(seed)
    writer = rng.getrandbits(32)
    schedule = []
    for index in range(count):
        tag = f"shared-{index}" if index % 2 == 0 else f"w{writer:08x}-{index}"
        schedule.append((tag, rng.randint(512, 1536)))
    return schedule


def writer_main(argv: list[str] | None = None) -> int:
    """Disposable store-writer subprocess (the crash-storm workload).

    Reads root/seed/count from argv, then puts the *count* synthetic
    cell entries of :func:`writer_schedule` into the store.
    ``REPRO_STORE_CHAOS`` and ``REPRO_STORE_QUOTA_BYTES`` arrive via
    the environment; an injected kill takes the whole process with
    exit 137, which is the point.
    """
    from repro.errors import StoreDegraded
    from repro.store import get_store

    argv = argv if argv is not None else sys.argv[1:]
    root, seed, count = argv[0], int(argv[1]), int(argv[2])
    store = get_store(pathlib.Path(root))
    import hashlib

    for index, (tag, pad) in enumerate(writer_schedule(seed, count)):
        key = hashlib.sha256(tag.encode()).hexdigest()
        payload = {
            "cell": tag,
            "pad": "x" * pad,
            "values": [index] * 64,
        }
        try:
            store.put("cell", key, payload)
        except StoreDegraded:
            continue
        store.get("cell", key)
    return 0


def _physical_usage(root: pathlib.Path, skip: set[str]) -> int:
    """Bytes physically on disk under *root*, temp files included."""
    total = 0
    for base, _dirs, files in os.walk(root):
        for name in files:
            if name in skip:
                continue
            try:
                total += os.stat(os.path.join(base, name)).st_size
            except OSError:
                continue
    return total


class _UsageSampler(threading.Thread):
    """Background poller recording peak physical store usage."""

    def __init__(self, root: pathlib.Path, skip: set[str]):
        super().__init__(daemon=True)
        self.root = root
        self.skip = skip
        self.peak = 0
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.is_set():
            usage = _physical_usage(self.root, self.skip)
            if usage > self.peak:
                self.peak = usage
            time.sleep(0.002)

    def stop(self) -> int:
        self._halt.set()
        self.join(timeout=5.0)
        usage = _physical_usage(self.root, self.skip)
        if usage > self.peak:
            self.peak = usage
        return self.peak


@contextlib.contextmanager
def _sampling(root: pathlib.Path, skip: set[str], report: StoreChaosReport):
    sampler = _UsageSampler(root, skip)
    sampler.start()
    try:
        yield
    finally:
        report.usage_max = max(report.usage_max, sampler.stop())


def run_store_chaos(
    name: str = "adpcm",
    scale: float = 0.2,
    quota_bytes: int = 32 * 1024,
    enospc: int = 4,
    kill_evict: int = 2,
    seed: int = 0,
    writers: int = 2,
    writes_per_worker: int = 40,
    cell_sets: tuple[str, ...] = ("fig6", "fig7b"),
) -> StoreChaosReport:
    """Run the full store-chaos scenario; see the module docstring."""
    from repro.analysis import parallel as par
    from repro.store import get_store, reset_stores

    report = StoreChaosReport(
        name=name, scale=scale, seed=seed, quota_bytes=quota_bytes,
        planned={"enospc": enospc, "kill_evict": kill_evict},
        writers=writers,
    )
    root = pathlib.Path(tempfile.mkdtemp(prefix="repro-storechaos-"))
    # Claim markers live *outside* the store root so the usage math
    # stays about store bytes only.
    counter_dir = pathlib.Path(
        tempfile.mkdtemp(prefix="repro-storechaos-exec-")
    )
    skip = {".store-lock"}
    spec = chaos.StoreChaosSpec(
        enospc=enospc,
        kill_evict=kill_evict,
        counter_dir=str(counter_dir),
        inline_kill_ok=True,
    )
    try:
        # -- phase 1: crash storm --------------------------------------
        env = dict(os.environ)
        env.update(
            REPRO_CACHE_DIR=str(root),
            REPRO_STORE_QUOTA_BYTES=str(quota_bytes),
            REPRO_STORE_CHAOS=spec.to_env(),
            REPRO_STORE_RETRIES="1",
            REPRO_STORE_BACKOFF="0.001",
        )
        with _sampling(root, skip, report):
            procs = [
                subprocess.Popen(
                    [
                        sys.executable, "-m",
                        "repro.faultinject.storechaos",
                        str(root), str(writer_seed), str(writes_per_worker),
                    ],
                    env=env,
                )
                for writer_seed in writer_seeds(seed, writers)
            ]
            for proc in procs:
                proc.wait(timeout=120)
                if proc.returncode == 137:
                    report.writers_killed += 1
        report.fired = chaos.fired_counts(counter_dir)

        # -- phase 2: readable + self-healing --------------------------
        reset_stores()
        store = get_store(root)
        with _env(
            REPRO_STORE_QUOTA_BYTES=str(quota_bytes),
            REPRO_STORE_CHAOS=None,
        ):
            verify = store.verify()
            report.refs_ok = verify["ok"]
            report.refs_corrupt = dict(verify["corrupt"])
            healed = store.gc(stale_temp_seconds=0.0)
            report.gc_stale_temps = healed["stale_temps"]

        # -- phase 3: quota'd sweep vs serial --------------------------
        reset_stores()
        fresh_counters = pathlib.Path(
            tempfile.mkdtemp(prefix="repro-storechaos-exec2-")
        )
        sweep_spec = chaos.StoreChaosSpec(
            enospc=enospc, counter_dir=str(fresh_counters),
        )
        try:
            cells_root = root
            with _env(
                REPRO_CACHE_DIR=str(cells_root),
                REPRO_STORE_QUOTA_BYTES=str(quota_bytes),
                REPRO_STORE_CHAOS=sweep_spec.to_env(),
                REPRO_STORE_RETRIES="1",
                REPRO_STORE_BACKOFF="0.001",
                REPRO_CHAOS_SPEC=None,
            ):
                with _sampling(root, skip, report):
                    chaos_rows = _reference_rows(
                        name, scale, cell_sets, True
                    )
                fired2 = chaos.fired_counts(fresh_counters)
            for kind, count in fired2.items():
                report.fired[kind] = report.fired.get(kind, 0) + count
            report.planned["enospc"] += enospc
        finally:
            shutil.rmtree(fresh_counters, ignore_errors=True)
        report.cells = par.LAST_SWEEP["cells"] if par.LAST_SWEEP else 0
        serial_rows = _reference_rows(name, scale, cell_sets, False)
        report.rows_match_quota = repr(chaos_rows) == repr(serial_rows)

        # -- phase 4: dead store (unwritable / write storm) ------------
        reset_stores()
        degraded_before = _METRICS.counter("store.degraded").value
        readonly_root = pathlib.Path(
            tempfile.mkdtemp(prefix="repro-storechaos-ro-")
        )
        # chmod-based unwritability is a no-op for root
        # (CAP_DAC_OVERRIDE), so a privileged run models the dead disk
        # with an unbounded ENOSPC storm instead: every entry write
        # fails, which exercises the identical retry → breaker →
        # StoreDegraded → recompute ladder.
        rootless = hasattr(os, "geteuid") and os.geteuid() != 0
        storm_counters = pathlib.Path(
            tempfile.mkdtemp(prefix="repro-storechaos-exec3-")
        )
        if rootless:
            os.chmod(readonly_root, statmod.S_IRUSR | statmod.S_IXUSR)
            dead_spec = None
        else:
            dead_spec = chaos.StoreChaosSpec(
                enospc=1_000_000, counter_dir=str(storm_counters)
            ).to_env()
        try:
            with _env(
                REPRO_CACHE_DIR=str(readonly_root),
                REPRO_STORE_QUOTA_BYTES=None,
                REPRO_STORE_CHAOS=dead_spec,
                REPRO_STORE_RETRIES="0",
                REPRO_STORE_BACKOFF="0.001",
                REPRO_STORE_BREAKER_THRESHOLD="2",
            ):
                ro_rows = _reference_rows(name, scale, cell_sets, True)
        finally:
            os.chmod(readonly_root, 0o755)
            shutil.rmtree(readonly_root, ignore_errors=True)
            shutil.rmtree(storm_counters, ignore_errors=True)
        report.degraded_count = (
            _METRICS.counter("store.degraded").value - degraded_before
        )
        report.rows_match_readonly = repr(ro_rows) == repr(serial_rows)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        shutil.rmtree(counter_dir, ignore_errors=True)
    return report


if __name__ == "__main__":
    sys.exit(writer_main())
