"""The benchmark's own tests: self-time arithmetic, metric names, smoke passes."""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import worker
from perfbench.tracing import Tracer, covered_seconds, self_seconds
from perfbench.workloads import WORKLOADS, run_pass

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- self time -------------------------------------------------------------


def test_covered_seconds_merges_overlaps_and_clips_to_the_parent():
    assert covered_seconds(0.0, 10.0, []) == 0.0
    assert covered_seconds(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (5.0, 6.0)]) == 4.0
    assert covered_seconds(2.0, 5.0, [(0.0, 3.0), (4.0, 9.0)]) == 2.0
    assert covered_seconds(0.0, 1.0, [(2.0, 3.0)]) == 0.0


def test_self_time_subtracts_only_direct_children():
    # run, id, parent, name, start, end
    spans = [
        ["r", 0, None, "root", 0.0, 10.0],
        ["r", 1, 0, "a", 1.0, 4.0],
        ["r", 2, 1, "b", 2.0, 3.5],
        ["r", 3, 0, "c", 6.0, 7.0],
        ["r", 4, 3, "b", 6.0, 7.0],
    ]
    own = self_seconds(spans)
    assert own == {0: 6.0, 1: 1.5, 2: 1.5, 3: 0.0, 4: 1.0}
    # Self times partition the root span.
    assert sum(own.values()) == 10.0


def test_tracer_spans_nest_follow_calls_and_restore_the_originals():
    class Layer:
        def outer(self, n):
            time.sleep(0.002)
            return sum(self.inner() for _ in range(n))

        def inner(self):
            time.sleep(0.001)
            return 1

        @classmethod
        def make(cls):
            return cls()

    original_outer, original_make = Layer.outer, Layer.__dict__["make"]
    tracer = Tracer()
    tracer.run_id = "pass1"
    tracer.wrap(Layer, "outer", "layer.outer")
    tracer.wrap(Layer, "inner", "layer.inner", lambda args, kwargs, result: {"layer.calls": 1})
    tracer.wrap(Layer, "make", "layer.make")
    with tracer.span("bench.pass") as root:
        assert Layer.make().outer(3) == 3
    tracer.restore()
    assert Layer.outer is original_outer and Layer.__dict__["make"] is original_make

    names = [span[3] for span in tracer.spans]
    assert names == ["bench.pass", "layer.make", "layer.outer"] + ["layer.inner"] * 3
    parents = {span[3]: span[2] for span in tracer.spans}
    assert parents["layer.inner"] == tracer.spans[2][1]
    assert tracer.counts["pass1"]["layer.calls"] == 3
    seconds = tracer.layer_seconds("pass1")
    assert seconds["layer.outer"] >= 0.002 and seconds["layer.inner"] >= 0.003
    assert sum(seconds.values()) == pytest.approx(root[5] - root[4])
    assert tracer.inclusive_seconds("pass1", "layer.outer") == pytest.approx(
        seconds["layer.outer"] + seconds["layer.inner"]
    )


# -- metric names and units -----------------------------------------------------


def test_metric_names_are_valid_unique_and_match_the_worker():
    bench = _benchmark()
    names = [metric["name"] for section in ("end_to_end", "per_layer") for metric in bench[section]]
    names += [workload["name"] for workload in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for section, table in (("end_to_end", worker.END_TO_END), ("per_layer", worker.PER_LAYER)):
        declared = {metric["name"]: metric["unit"] for metric in bench[section]}
        assert declared == table
        for unit in declared.values():
            assert UNIT.match(unit), unit
    assert {workload["name"] for workload in bench["workloads"]} == set(WORKLOADS)
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in bench["end_to_end"]


# -- smoke passes -----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_pass_passes_its_checks_and_repeats_exactly(name, tmp_path):
    first = run_pass(WORKLOADS[name], 3, "smoke", tmp_path)
    assert first.failures == []
    assert first.attempted > 2 and first.agent_rounds > 0 and first.round_s > 0
    assert first.total_s > first.setup_s > 0
    second = run_pass(WORKLOADS[name], 3, "smoke", tmp_path)
    assert second.outcome() == first.outcome()
    assert list(tmp_path.iterdir()) == []


def test_traced_smoke_pass_reports_every_layer_metric(tmp_path):
    tracer = Tracer()
    tracer.run_id = "pass1"
    worker.instrument(tracer)
    try:
        with tracer.span("bench.pass"):
            traced = [("pass1", run_pass(WORKLOADS["fleet-pdsl"], 3, "smoke", tmp_path))]
    finally:
        tracer.restore()
    untraced = [run_pass(WORKLOADS["fleet-pdsl"], 3, "smoke", tmp_path)]
    metrics = worker.per_layer(tracer, traced, untraced)
    assert set(metrics) == set(worker.PER_LAYER)
    assert metrics["game.coalition_evals"] > 0 and metrics["topology.weight_lookups"] > 0
    assert 0.0 < metrics["game.coalition_cache_hit_share"] < 1.0
    assert metrics["core.round_s"] > metrics["core.round_self_s"] > 0.0
    assert metrics["simulation.checkpoint_mib"] > 0 and metrics["simulation.resume_s"] > 0
    assert metrics["baselines.cga_qp_calls"] == 0.0


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-pdsl", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
