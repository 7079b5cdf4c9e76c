"""The command-line interface."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


def test_table1(capsys):
    out = run_cli(capsys, "table1", "--names", "adpcm", "--scale", "0.2")
    assert "Table 1" in out
    assert "adpcm" in out


def test_fig4(capsys):
    out = run_cli(capsys, "fig4", "--names", "adpcm", "--scale", "0.2")
    assert "cold" in out
    assert "compressible" in out


def test_fig6(capsys):
    out = run_cli(capsys, "fig6", "--names", "adpcm", "--scale", "0.2")
    assert "reduction" in out


def test_squash_with_run(capsys):
    out = run_cli(
        capsys, "squash", "--names", "adpcm", "--scale", "0.2",
        "--theta", "0.01", "--run",
    )
    assert "regions" in out
    assert "outputs match" in out


def test_squash_positional_benchmark(capsys):
    out = run_cli(
        capsys, "squash", "gsm", "--scale", "0.2", "--theta", "0.01",
    )
    assert out.startswith("gsm at theta=0.01")
    assert "adpcm" not in out


def test_squash_unknown_positional_benchmark_exits_2(capsys):
    assert main(["squash", "nope", "--scale", "0.2"]) == 2
    assert "unknown benchmark 'nope'" in capsys.readouterr().out


def test_squash_each_listed_benchmark(capsys):
    out = run_cli(
        capsys, "squash", "--names", "adpcm", "gsm", "--scale", "0.2",
        "--theta", "0.01",
    )
    assert "adpcm at theta=0.01" in out
    assert "gsm at theta=0.01" in out


def test_stages_lists_choices_and_stage_table(capsys):
    out = run_cli(capsys, "stages", "--names", "adpcm", "--scale", "0.2")
    lines = out.splitlines()
    for choice in (
        "  region strategies: dfs, whole_function",
        "  buffer strategies: decompress_once, no_calls, overwrite",
        "  restore schemes: compile_time, runtime",
        "  codec variants: baseline, ctx1, dict, huffman, mtf+dict, "
        "mtf+huffman",
        "  decode backends: reference, table",
    ):
        assert choice in lines
    table = lines[lines.index("adpcm (theta=0.0, scale=0.2):") + 1:]
    assert table[0].split() == ["stage", "seconds", "counters"]
    assert [line.split()[0] for line in table[2:8]] == [
        "cold", "plan", "classify", "layout", "encode", "emit",
    ]
    assert "cold_blocks=" in table[2]
    assert table[8].startswith("total")


def test_ratio(capsys):
    out = run_cli(capsys, "ratio", "--names", "adpcm", "--scale", "0.2")
    assert "stream only" in out


def test_safe(capsys):
    out = run_cli(capsys, "safe", "--names", "adpcm", "--scale", "0.2")
    assert "safe functions" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_jobs_empty_journal(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    out = run_cli(capsys, "jobs")
    assert "journal is empty" in out


def test_submit_serve_jobs_round_trip(capsys, monkeypatch, tmp_path):
    # `serve` installs signal handlers, which needs a main thread: it
    # runs as a subprocess on an ephemeral port it reports on stderr.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv(
        "PYTHONPATH", str(pathlib.Path(repro.__file__).parents[1]),
        prepend=os.pathsep,
    )
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--http", "127.0.0.1:0", "--max-jobs", "1"],
        stderr=subprocess.PIPE, text=True,
    )
    try:
        banner = server.stderr.readline()
        assert "serve: up" in banner, banner
        url = banner.rsplit("http ", 1)[1].rstrip(")\n")
        out = run_cli(
            capsys, "submit", "squash", "--names", "adpcm",
            "--scale", "0.2", "--theta", "0.0001",
            "--tenant", "cli-test", "--url", url, "--wait", "60",
        )
        assert "submitted" in out
        assert "done" in out
        assert server.wait(timeout=60) == 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)
        server.stderr.close()
    out = run_cli(capsys, "jobs")
    assert "done" in out
    assert "cli-test" in out


def test_submit_rejects_unknown_kind(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["submit", "frobnicate"]) == 2
    assert "unknown job kind" in capsys.readouterr().out
