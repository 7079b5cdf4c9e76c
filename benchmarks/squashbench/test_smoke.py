"""Fast smoke test of the squash benchmark.

Runs every workload at a tiny size, plain and traced, and checks that
each metric of ``BENCHMARK.json`` appears with its unit and is described
in ``README.md``, and that a forced output mismatch is counted as a
failed operation.  Run with::

    PYTHONPATH=src python -m pytest -q benchmarks/squashbench
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from benchmarks.squashbench import bench
from benchmarks.squashbench import workloads as wl

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]

TINY = {
    "squash_run": wl.SquashRunSize(scale=0.05, programs=("adpcm",),
                                   thetas=(0.0, 1.0)),
    "fig7_sweep": wl.SweepSize(scale=0.05, strata=(wl.SMALL,),
                               rounds=2, warm_batches=2),
    "service": wl.ServiceSize(scale=0.05, programs=("adpcm",), min_jobs=3),
}


def _run(name: str, tmp_path: pathlib.Path, trace: bool, tamper=False,
         seconds=0.2):
    workload = wl.WORKLOADS[name](3, seconds, tmp_path, size=TINY[name],
                                  tamper=tamper)
    try:
        if trace:
            return bench.traced(workload, tmp_path / "spans.jsonl")
        return bench.plain(workload, import_s=0.0)
    finally:
        workload.close()


def test_benchmark_json_names_the_workloads_and_readme_every_metric():
    assert [w["name"] for w in bench.SPEC["workloads"]] == list(wl.WORKLOADS)
    readme = (HERE / "README.md").read_text()
    names = [m["name"] for m in bench.SPEC["end_to_end"] + bench.SPEC["per_layer"]]
    assert [name for name in names if f"`{name}`" not in readme] == []


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_plain_run_reports_every_end_to_end_metric(name, tmp_path):
    outcome = _run(name, tmp_path, trace=False)
    assert outcome.correct, outcome.lines
    assert outcome.failed == 0 and outcome.attempted > 0
    expected = {m["name"]: m["unit"] for m in bench.SPEC["end_to_end"]}
    assert {k: unit for k, (_, unit) in outcome.metrics.items()} == expected
    assert all(value > 0 for value, _ in outcome.metrics.values())


def test_service_runs_a_fixed_job_set(tmp_path):
    """The window submits ``--seconds`` x JOB_RATE jobs, however fast they
    complete, so two runs of one seed do the same work."""
    seconds = 1.0
    jobs = round(seconds * wl.JOB_RATE)
    assert jobs > TINY["service"].min_jobs
    outcomes = []
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        outcomes.append(_run("service", tmp_path / run, trace=False,
                             seconds=seconds))
    for outcome in outcomes:
        assert outcome.attempted == jobs + wl.RECHECKS
    assert outcomes[0].metrics["size_ratio"] == outcomes[1].metrics["size_ratio"]


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    outcome = _run(name, tmp_path, trace=True)
    assert outcome.correct, outcome.lines
    expected = {m["name"]: m["unit"] for m in bench.SPEC["per_layer"]}
    assert {k: unit for k, (_, unit) in outcome.metrics.items()} == expected
    values = {k: value for k, (value, _) in outcome.metrics.items()}
    assert values["bench.trace_overhead"] >= 0
    assert values["bench.unattributed_s"] >= 0
    if name == "squash_run":
        # The trap handlers' region decodes are timed as the codec's.
        assert values["runtime.decompressions"] > 0
        assert values["compress.decode_s"] > 0
        assert values["compress.decode_msym_per_s"] > 0
    spans = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert spans and all(json.loads(line)["end"] >= json.loads(line)["start"]
                         for line in spans)


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_forced_output_mismatch_is_counted_as_failed(name, tmp_path):
    outcome = _run(name, tmp_path, trace=False, tamper=True)
    assert outcome.failed >= 1
    assert not outcome.correct


def test_fails_without_the_package(tmp_path):
    """Next to nothing but the benchmark, the command exits non-zero and
    prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "benchmarks" / "squashbench",
                    tmp_path / "benchmarks" / "squashbench")
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "squash_run",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
