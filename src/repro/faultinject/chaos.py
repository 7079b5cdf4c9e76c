"""Process-level chaos: deterministic worker kills, hangs, OOMs, and
cache corruption for sweep supervision testing.

PR 2's fault injection perturbs the *data* path (bits of a squashed
image); this module perturbs the *execution* path that produces every
paper number.  A chaos plan assigns each targeted cell digest a short
list of fault kinds, consumed in **execution order**: the first time a
worker starts that cell it suffers ``plan[digest][0]``, the second time
``plan[digest][1]``, and once the list is exhausted the cell computes
normally.  Execution order is tracked with ``O_CREAT|O_EXCL`` counter
files in the cache directory, so the count is exact across worker
processes, across pool rebuilds, and across driver restarts — every
planned fault fires exactly once no matter how the supervisor
interleaves retries.

The plan travels to workers via the ``REPRO_CHAOS_SPEC`` environment
variable (inherited by pool processes).  Without it, the hook is a
no-op costing one dict lookup.

Fault kinds
-----------
``kill``
    ``os._exit(137)`` — a real worker death: the pool breaks and the
    supervisor must rebuild it.
``hang``
    Sleep past the supervisor's deadline (then raise, in case no
    deadline is armed) — exercises timeout handling and worker
    termination.
``oom``
    Raise :class:`MemoryError` — an allocation failure the pool
    survives; exercises plain retry.

Cache faults (:func:`corrupt_entry`) are applied by the driver to
on-disk entries: truncation (a torn write), garbage bytes, a payload
bit flip under an intact seal, and a resealed entry missing required
keys.  Each must be *detected* by the cache loader and recomputed.

Store faults (``REPRO_STORE_CHAOS`` / :func:`maybe_store_fault`)
perturb the unified artifact store from the *inside*: ``enospc``
raises ``OSError(ENOSPC)`` from the store's object-write path (after
the temp file is created, before it is published — a full disk at the
worst moment), and ``kill_evict`` delivers ``os._exit(137)`` in the
middle of an eviction pass, right after a victim ref is unlinked and
before its object is collected — the maximally awkward crash point,
leaving both an orphan object and a held store lock behind.  Budgets
are consumed through the same ``O_EXCL`` marker-file discipline as
process faults, so each injected fault fires exactly once across any
number of workers.  Manifest corruption needs no hook: the driver
corrupts the sealed snapshot directly with :func:`corrupt_entry`.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
from dataclasses import dataclass, field

from repro.resilience.cache import seal_text

__all__ = [
    "PROCESS_FAULT_KINDS",
    "CACHE_FAULT_KINDS",
    "STORE_FAULT_KINDS",
    "ENV_SPEC",
    "ENV_STORE_SPEC",
    "ChaosSpec",
    "ChaosHang",
    "ChaosKill",
    "StoreChaosSpec",
    "plan_process_chaos",
    "maybe_inject",
    "maybe_store_fault",
    "fired_counts",
    "corrupt_entry",
]

ENV_SPEC = "REPRO_CHAOS_SPEC"
ENV_STORE_SPEC = "REPRO_STORE_CHAOS"

PROCESS_FAULT_KINDS = ("kill", "hang", "oom")
CACHE_FAULT_KINDS = ("truncate", "garbage", "bitflip", "missing-keys")
#: Store-internal fault kinds: ``enospc`` (object write fails with a
#: full disk) and ``kill_evict`` (SIGKILL-equivalent death mid-evict).
STORE_FAULT_KINDS = ("enospc", "kill_evict")


class ChaosHang(RuntimeError):
    """A simulated hang outlived its sleep (no deadline was armed)."""


class ChaosKill(RuntimeError):
    """A ``kill``/``hang`` fault fired outside a disposable pool worker.

    ``os._exit`` in the driver (or a sleep in an inline run) would take
    the sweep down with it — exactly what chaos must not do — so
    process-destroying faults degrade to this typed, retryable error
    when no supervisor pool worker is hosting the cell.
    """


@dataclass
class ChaosSpec:
    """One sweep's process-chaos plan."""

    seed: int
    #: digest -> fault kinds, consumed in execution order.
    plan: dict[str, list[str]] = field(default_factory=dict)
    #: How long a ``hang`` fault sleeps (set it above the supervisor
    #: deadline so the timeout path, not the sleep, resolves it).
    hang_seconds: float = 30.0
    #: Directory for execution-counter files.
    counter_dir: str = ""

    @property
    def planned_faults(self) -> int:
        return sum(len(kinds) for kinds in self.plan.values())

    def to_env(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "plan": self.plan,
                "hang_seconds": self.hang_seconds,
                "counter_dir": self.counter_dir,
            }
        )

    @classmethod
    def from_env(cls, raw: str) -> "ChaosSpec":
        obj = json.loads(raw)
        return cls(
            seed=int(obj.get("seed", 0)),
            plan={k: list(v) for k, v in obj.get("plan", {}).items()},
            hang_seconds=float(obj.get("hang_seconds", 30.0)),
            counter_dir=str(obj.get("counter_dir", "")),
        )


def plan_process_chaos(
    digests: list[str],
    faults: int,
    seed: int,
    kinds: tuple[str, ...] = PROCESS_FAULT_KINDS,
    max_per_cell: int = 3,
    max_hangs: int | None = None,
) -> dict[str, list[str]]:
    """Deterministically spread *faults* fault events over *digests*.

    Faults are dealt round-robin (every cell suffers before any cell
    suffers twice) and capped at *max_per_cell* per digest so the
    supervisor's retry budget can always outlast the plan.  Hangs burn
    a full deadline of wall clock each, so they are additionally capped
    by *max_hangs* (default: one per four faults).
    """
    if not digests:
        return {}
    capacity = len(digests) * max_per_cell
    if faults > capacity:
        raise ValueError(
            f"cannot plan {faults} faults over {len(digests)} cells "
            f"(max {capacity} at {max_per_cell} per cell)"
        )
    if max_hangs is None:
        max_hangs = max(1, faults // 4)
    rng = random.Random(seed)
    order = sorted(digests)
    rng.shuffle(order)
    plan: dict[str, list[str]] = {}
    hangs = 0
    for index in range(faults):
        digest = order[index % len(order)]
        choices = [k for k in kinds if k != "hang" or hangs < max_hangs]
        kind = rng.choice(choices)
        if kind == "hang":
            hangs += 1
        plan.setdefault(digest, []).append(kind)
    return plan


_SPEC_CACHE: dict[str, ChaosSpec] = {}


def _active_spec() -> ChaosSpec | None:
    raw = os.environ.get(ENV_SPEC, "")
    if not raw:
        return None
    spec = _SPEC_CACHE.get(raw)
    if spec is None:
        try:
            spec = ChaosSpec.from_env(raw)
        except (ValueError, TypeError):
            return None
        _SPEC_CACHE[raw] = spec
    return spec


def _claim_next_fault(
    counter_dir: pathlib.Path, digest: str, kinds: list[str]
) -> tuple[int, str] | None:
    """Atomically claim the next unfired planned fault of *digest*.

    The ``O_CREAT|O_EXCL`` marker file *is* the claim **and** the fired
    record, created in one atomic step before the fault is delivered:
    a worker that is torn down violently right after claiming (say, a
    sibling's kill broke the pool first) still dies — the fault is
    delivered as a process death either way — and the claim guarantees
    each planned fault is consumed exactly once, no matter how the
    supervisor interleaves retries and rebuilds.
    """
    counter_dir.mkdir(parents=True, exist_ok=True)
    for index, kind in enumerate(kinds):
        marker = counter_dir / f"{digest}.{index}.fired-{kind}"
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.close(fd)
        return index, kind
    return None


def fired_counts(counter_dir: pathlib.Path) -> dict[str, int]:
    """Process faults that actually fired, by kind, from the markers."""
    counts: dict[str, int] = {}
    if not counter_dir.is_dir():
        return counts
    for marker in counter_dir.iterdir():
        _, sep, kind = marker.name.partition(".fired-")
        if sep:
            counts[kind] = counts.get(kind, 0) + 1
    return counts


def maybe_inject(digest: str) -> None:
    """Worker-side hook: fire this execution's planned fault, if any.

    Called at the top of every supervised cell execution; a no-op
    unless ``REPRO_CHAOS_SPEC`` is armed and this digest still has
    planned faults left.
    """
    spec = _active_spec()
    if spec is None:
        return
    kinds = spec.plan.get(digest)
    if not kinds:
        return
    claimed = _claim_next_fault(pathlib.Path(spec.counter_dir), digest, kinds)
    if claimed is None:
        return  # all planned faults delivered: compute normally
    index, kind = claimed
    if kind in ("kill", "hang"):
        from repro.resilience.supervisor import in_pool_worker

        if not in_pool_worker():
            raise ChaosKill(
                f"chaos {kind} fired inline (cell {digest[:12]}, "
                f"attempt {index}); degraded to an error"
            )
    if kind == "kill":
        os._exit(137)
    if kind == "hang":
        import time

        time.sleep(spec.hang_seconds)
        raise ChaosHang(
            f"simulated hang slept {spec.hang_seconds}s without being "
            f"reaped (no supervisor deadline?)"
        )
    if kind == "oom":
        raise MemoryError(f"chaos oom (cell {digest[:12]}, attempt {index})")
    raise ValueError(f"unknown chaos fault kind {kind!r}")


@dataclass
class StoreChaosSpec:
    """Budgeted faults delivered from inside the artifact store.

    Travels to workers via ``REPRO_STORE_CHAOS``; budgets are consumed
    exactly once each through ``O_EXCL`` markers in ``counter_dir``.
    """

    #: How many object writes fail with ``OSError(ENOSPC)``.
    enospc: int = 0
    #: How many eviction passes die (``os._exit(137)``) mid-victim.
    kill_evict: int = 0
    #: Directory for the exactly-once claim markers.
    counter_dir: str = ""
    #: Allow ``kill_evict`` to take down a non-pool process.  Chaos
    #: harnesses that wrap the store in a disposable subprocess set
    #: this; without it an inline kill degrades to :class:`ChaosKill`
    #: so armed chaos can never take the driver down.
    inline_kill_ok: bool = False

    def to_env(self) -> str:
        return json.dumps(
            {
                "enospc": self.enospc,
                "kill_evict": self.kill_evict,
                "counter_dir": self.counter_dir,
                "inline_kill_ok": self.inline_kill_ok,
            }
        )

    @classmethod
    def from_env(cls, raw: str) -> "StoreChaosSpec":
        obj = json.loads(raw)
        return cls(
            enospc=int(obj.get("enospc", 0)),
            kill_evict=int(obj.get("kill_evict", 0)),
            counter_dir=str(obj.get("counter_dir", "")),
            inline_kill_ok=bool(obj.get("inline_kill_ok", False)),
        )


_STORE_SPEC_CACHE: dict[str, StoreChaosSpec] = {}


def _active_store_spec() -> StoreChaosSpec | None:
    raw = os.environ.get(ENV_STORE_SPEC, "")
    if not raw:
        return None
    spec = _STORE_SPEC_CACHE.get(raw)
    if spec is None:
        try:
            spec = StoreChaosSpec.from_env(raw)
        except (ValueError, TypeError):
            return None
        _STORE_SPEC_CACHE[raw] = spec
    return spec


def maybe_store_fault(point: str) -> None:
    """Store-side hook: fire an armed store fault at *point*.

    Called from inside :mod:`repro.store` at its two most fragile
    moments — ``write`` (object bytes about to be published) and
    ``evict`` (a victim ref just unlinked, its object not yet
    collected).  A no-op unless ``REPRO_STORE_CHAOS`` is armed with
    budget left for the point; each budgeted fault fires exactly once
    across all processes sharing the counter dir.
    """
    spec = _active_store_spec()
    if spec is None or not spec.counter_dir:
        return
    counter_dir = pathlib.Path(spec.counter_dir)
    if point == "write" and spec.enospc > 0:
        claimed = _claim_next_fault(
            counter_dir, "store-write", ["enospc"] * spec.enospc
        )
        if claimed is not None:
            import errno

            raise OSError(errno.ENOSPC, "chaos: injected ENOSPC")
    elif point == "evict" and spec.kill_evict > 0:
        claimed = _claim_next_fault(
            counter_dir, "store-evict", ["kill_evict"] * spec.kill_evict
        )
        if claimed is not None:
            from repro.resilience.supervisor import in_pool_worker

            if in_pool_worker() or spec.inline_kill_ok:
                os._exit(137)
            raise ChaosKill(
                "chaos kill_evict fired inline; degraded to an error"
            )


def corrupt_entry(path: pathlib.Path, mode: str, rng: random.Random) -> None:
    """Apply one *mode* cache fault to the entry at *path*.

    The faulty bytes replace *path* as a new file: store refs are hard
    links to deduplicated objects, so writing through the link would
    also corrupt every other entry that shares the object.
    """
    data = path.read_bytes()
    if mode == "truncate":
        # A torn write: keep a strict prefix.
        cut = rng.randrange(1, max(2, len(data)))
        data = data[:cut]
    elif mode == "garbage":
        data = bytes(rng.randrange(256) for _ in range(48))
    elif mode == "bitflip":
        # Flip one payload bit, leaving the (now stale) seal intact.
        blob = bytearray(data)
        limit = max(1, blob.find(b"\n"))
        pos = rng.randrange(limit)
        blob[pos] ^= 1 << rng.randrange(8)
        data = bytes(blob)
    elif mode == "missing-keys":
        # Perfectly sealed, perfectly parseable, and useless.
        data = seal_text(json.dumps({"bogus": True})).encode()
    else:
        raise ValueError(f"unknown cache fault mode {mode!r}")
    path.unlink()
    path.write_bytes(data)
