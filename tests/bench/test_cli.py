"""End-to-end ``repro-bench`` CLI: run → artifact → compare → report."""

from __future__ import annotations

import pytest

from repro.bench.artifact import load_artifact
from repro.bench.cli import main
from repro.bench.report import GENERATED_MARKER


@pytest.fixture()
def fast_knobs(monkeypatch):
    """Pin the cheap suites to milliseconds regardless of ambient env."""
    monkeypatch.setenv("REPRO_BENCH_SHAPLEY_PLAYERS", "6")
    monkeypatch.setenv("REPRO_BENCH_SHAPLEY_PERMS", "20")
    monkeypatch.setenv("REPRO_BENCH_NOISE_AGENTS", "64")
    monkeypatch.setenv("REPRO_BENCH_NOISE_DIM", "8")


def run_to_artifact(tmp_path, name: str, filters=("shapley", "noise")):
    out = tmp_path / name
    argv = ["run", "--out", str(out), "--repeats", "2"]
    for f in filters:
        argv += ["--filter", f]
    assert main(argv) == 0
    return out


def test_list_exits_zero(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "engine/round-streamed" in out and "gossip/sparse" in out


def test_run_emits_schema_versioned_artifact(tmp_path, fast_knobs):
    path = run_to_artifact(tmp_path, "BENCH_a.json")
    artifact = load_artifact(path)
    assert set(artifact["suites"]) == {"game/shapley-mc", "privacy/noise-rows"}
    for suite in artifact["suites"].values():
        assert suite["repeats"] == 2
        assert suite["best_seconds"] > 0


def test_run_with_unknown_filter_is_an_error(capsys):
    assert main(["run", "--filter", "does-not-exist"]) == 2
    assert "no suites match" in capsys.readouterr().err


def test_compare_two_real_runs_is_soft(tmp_path, fast_knobs, capsys):
    a = run_to_artifact(tmp_path, "BENCH_a.json")
    b = run_to_artifact(tmp_path, "BENCH_b.json")
    # Both suites are informational (no floor), so back-to-back noise can
    # warn but never fail the gate.
    assert main(["compare", str(a), str(b)]) == 0
    assert "0 failure(s)" in capsys.readouterr().out


def test_report_write_then_check_roundtrip(tmp_path, fast_knobs, capsys):
    artifact = run_to_artifact(tmp_path, "BENCH_a.json")
    page = tmp_path / "PERFORMANCE.md"
    assert main(["report", str(artifact), "--out", str(page)]) == 0
    text = page.read_text()
    assert text.startswith(GENERATED_MARKER)
    assert "game/shapley-mc" in text
    # Freshness check passes on the file just written...
    assert main(["report", str(artifact), "--out", str(page), "--check"]) == 0
    # ...and fails once the page drifts from the artifact.
    page.write_text(text + "\nhand edit\n")
    assert main(["report", str(artifact), "--out", str(page), "--check"]) == 1
    assert "stale" in capsys.readouterr().err


def test_missing_artifact_is_a_clean_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["compare", str(missing), str(missing)]) == 2
    assert "repro-bench" in capsys.readouterr().err


def test_run_prints_peak_rss(tmp_path, fast_knobs, capsys):
    run_to_artifact(tmp_path, "BENCH_a.json", filters=("noise",))
    out = capsys.readouterr().out
    assert "peak RSS" in out


def test_skipped_suite_prints_reason_and_serializes(tmp_path, capsys, monkeypatch):
    from repro.bench.registry import Benchmark, benchmark

    @benchmark
    class _Gigantic(Benchmark):
        name = "test/cli-gigantic"
        description = "always too big"
        default_repeats = 1
        default_warmup = False

        def required_memory_bytes(self):
            return 1 << 60

        def run(self):
            return {}

    try:
        out = tmp_path / "BENCH_skip.json"
        assert main(["run", "--out", str(out), "--filter", "cli-gigantic"]) == 0
        printed = capsys.readouterr().out
        assert "SKIPPED" in printed
        suite = load_artifact(out)["suites"]["test/cli-gigantic"]
        assert suite["skipped"] is True
        assert suite["skip_reason"]
    finally:
        from repro.bench import registry as registry_module

        registry_module._REGISTRY.pop("test/cli-gigantic", None)


def test_suite_notes_are_printed(tmp_path, capsys):
    from repro.bench.registry import Benchmark, benchmark

    @benchmark
    class _Noted(Benchmark):
        name = "test/cli-noted"
        description = "emits a note"
        default_repeats = 1
        default_warmup = False

        def run(self):
            return {"answer": 1.0}

        def notes(self):
            return {"skip@262144": "needs 48 GiB"}

    try:
        out = tmp_path / "BENCH_notes.json"
        assert main(["run", "--out", str(out), "--filter", "cli-noted"]) == 0
        printed = capsys.readouterr().out
        assert "skip@262144" in printed and "needs 48 GiB" in printed
    finally:
        from repro.bench import registry as registry_module

        registry_module._REGISTRY.pop("test/cli-noted", None)
