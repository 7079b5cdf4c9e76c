"""θ-invariant stage artifacts, shared across sweep cells.

A sweep evaluates one benchmark at many configurations, but the first
three pipeline stages — squeeze, profile collection, baseline layout
(and the baseline timing run) — do not depend on θ or on any other
:class:`~repro.core.config.SquashConfig` knob.  This module persists
exactly those artifacts, keyed by ``(benchmark, scale)`` content
digests, through the same crash-safe sealed-entry format as the cell
cache (:mod:`repro.store.sealed`), so a θ-grid sweep performs the
invariant work once per benchmark and every cell resumes from the
``cold`` stage onward.

A sweep builds each benchmark's bundle in one warm task ahead of its
cells (:func:`repro.analysis.parallel.compute_cells`), in the pool the
cells then run on: the worker that warmed a bundle keeps it in its
memo, and the others load it from the store.

The bundle holds the squeezed program in the portable form of
:mod:`repro.program.serialize`; round-tripping is exact (block order,
data order, the insertion order of every index map, entry,
address-taken sets), so a squash over a loaded bundle is
byte-identical to one over a freshly squeezed program.  The golden
test squashes every golden cell from a bundle read back from a real
store to pin this.  Bundles written before program format 2 kept
``call_targets`` in sorted-key order, which moves region-packing ties;
:data:`STAGE_SALT` v2 retires them.

Counters in :data:`STAGE_COUNTERS` record how often the expensive path
ran versus how often a bundle was reused — the sweep tests assert
"once per benchmark" with them.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass

from repro.errors import StoreDegraded
from repro.obs.metrics import get_registry
from repro.program.program import Program
from repro.program.serialize import program_from_dict, program_to_dict
from repro.store import get_store
from repro.vm.profiler import Profile

__all__ = [
    "STAGE_COUNTERS",
    "STAGE_SALT",
    "StageBundle",
    "bundle_digest",
    "bundle_path",
    "load_bundle",
    "reset_counters",
    "warm_bundle",
]

#: Invalidation salt for stage bundles; bump on any change to squeeze,
#: profiling, baseline layout, or the bundle format itself.
STAGE_SALT = "pgcc-stages-v2"

#: Keys a bundle entry must carry to be trusted.
BUNDLE_KEYS = (
    "program",
    "profile_counts",
    "profile_sizes",
    "tot_instr_ct",
    "baseline_words",
    "timing_input",
    "base_cycles",
    "base_output",
    "base_exit_code",
)

#: How the invariant work was satisfied, process-wide:
#: ``computed`` — full squeeze/profile/baseline ran;
#: ``loaded`` — a persisted bundle was deserialized from disk;
#: ``memo`` — an already-materialized bundle was reused in-process.
STAGE_COUNTERS = {"computed": 0, "loaded": 0, "memo": 0}

_MEMO: dict[tuple[str, float], "StageBundle"] = {}

_METRICS = get_registry()


def _count(key: str) -> None:
    """Bump a stage counter locally and in the unified registry."""
    STAGE_COUNTERS[key] += 1
    _METRICS.inc(f"stagecache.{key}")


def reset_counters() -> None:
    for key in STAGE_COUNTERS:
        STAGE_COUNTERS[key] = 0
    _MEMO.clear()


@dataclass
class StageBundle:
    """The θ-invariant artifacts of one benchmark at one scale."""

    name: str
    scale: float
    program: Program
    profile: Profile
    baseline_words: int
    timing_input: list[int]
    base_cycles: int
    base_output: list[int]
    base_exit_code: int


def bundle_digest(name: str, scale: float) -> str:
    """Content fingerprint keying the (name, scale) bundle."""
    payload = json.dumps(
        {"name": name, "scale": scale, "salt": STAGE_SALT}, sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def bundle_path(root: pathlib.Path, name: str, scale: float) -> pathlib.Path:
    """Content-addressed location of the (name, scale) bundle."""
    return get_store(root).ref_path("stage", bundle_digest(name, scale))


def _to_entry(bundle: StageBundle) -> dict:
    return {
        "program": program_to_dict(bundle.program),
        "profile_counts": bundle.profile.counts,
        "profile_sizes": bundle.profile.sizes,
        "tot_instr_ct": bundle.profile.tot_instr_ct,
        "baseline_words": bundle.baseline_words,
        "timing_input": bundle.timing_input,
        "base_cycles": bundle.base_cycles,
        "base_output": bundle.base_output,
        "base_exit_code": bundle.base_exit_code,
    }


def _from_entry(name: str, scale: float, entry: dict) -> StageBundle:
    return StageBundle(
        name=name,
        scale=scale,
        program=program_from_dict(entry["program"]),
        profile=Profile(
            counts=dict(entry["profile_counts"]),
            sizes=dict(entry["profile_sizes"]),
            tot_instr_ct=entry["tot_instr_ct"],
        ),
        baseline_words=entry["baseline_words"],
        timing_input=list(entry["timing_input"]),
        base_cycles=entry["base_cycles"],
        base_output=list(entry["base_output"]),
        base_exit_code=entry["base_exit_code"],
    )


def _compute_bundle(name: str, scale: float) -> StageBundle:
    """Run the invariant stages for real (squeeze, profile, baseline
    layout, baseline timing run)."""
    from repro.analysis.experiments import baseline_run
    from repro.core.metrics import baseline_code_words
    from repro.workloads.mediabench import mediabench_program

    _count("computed")
    bench = mediabench_program(name, scale=scale)
    base = baseline_run(name, scale)
    return StageBundle(
        name=name,
        scale=scale,
        program=bench.squeezed,
        profile=bench.profile,
        baseline_words=baseline_code_words(bench.layout, bench.squeezed),
        timing_input=list(bench.timing_input),
        base_cycles=base.cycles,
        base_output=list(base.output),
        base_exit_code=base.exit_code,
    )


def load_bundle(
    root: pathlib.Path, name: str, scale: float
) -> StageBundle | None:
    """The persisted bundle, or ``None`` on miss / corruption."""
    memo = _MEMO.get((name, scale))
    if memo is not None:
        _count("memo")
        return memo
    try:
        entry = get_store(root).get(
            "stage", bundle_digest(name, scale), BUNDLE_KEYS
        )
    except StoreDegraded:
        entry = None
    if entry is None:
        return None
    try:
        bundle = _from_entry(name, scale, entry)
    except (KeyError, TypeError, ValueError):
        # A stale or malformed bundle must never poison a sweep.
        return None
    _count("loaded")
    _MEMO[(name, scale)] = bundle
    return bundle


def warm_bundle(
    root: pathlib.Path, name: str, scale: float, cache: bool = True
) -> StageBundle:
    """The (name, scale) bundle: loaded when persisted, computed (and
    persisted) otherwise.  A sweep runs it as one warm task per
    benchmark ahead of the cells, so a cell finds the bundle in its
    worker's memo or in the store."""
    if cache:
        bundle = load_bundle(root, name, scale)
        if bundle is not None:
            return bundle
    bundle = _compute_bundle(name, scale)
    _MEMO[(name, scale)] = bundle
    if cache:
        try:
            get_store(root).put(
                "stage", bundle_digest(name, scale), _to_entry(bundle)
            )
        except (OSError, StoreDegraded):
            pass
    return bundle
