"""One benchmark run in a fresh process: warm up, measure, check, report.

Started by ``perfbench/run.py`` (``python3 -m perfbench.worker ...`` from the
checkout root, with ``src`` on ``PYTHONPATH`` and BLAS threads pinned to 1).
Prints a ``{"host": ...}`` line, then the result object as the last line.

Untraced runs (``--trace 0``) time whole passes and report the end-to-end
metrics.  Traced runs (``--trace 1``) alternate untraced and traced passes:
the traced ones wrap the program's public calls (see :func:`instrument`) and
give the per-layer metrics, and the ratio of the two kinds' ``total_s`` is
reported as ``trace.overhead_ratio``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy

import repro.baselines.dp_cga as dp_cga
import repro.core.pdsl as pdsl
from repro.core.base import DecentralizedAlgorithm
from repro.data.loaders import BatchSampler
from repro.experiments import harness
from repro.simulation.runner import RunSession
from repro.topology.graphs import Topology
from repro.topology.mixing import MixingOperator

from perfbench.tracing import Tracer
from perfbench.workloads import WORKLOADS, PassResult, Workload, run_pass, setup_seconds

#: End-to-end metrics (every workload, ``--trace 0``): name -> unit.
END_TO_END = {
    "total_s": "s",
    "setup_s": "s",
    "agent_rounds_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "final_accuracy": "share",
    "epsilon_spent": "eps",
    "ops_ok_share": "share",
}

#: Per-layer metrics (every workload, ``--trace 1``): name -> unit.  A
#: ``<layer>.<x>_s`` time is the self time of that layer's spans (wrapped
#: children excluded), except ``core.round_s``, which is inclusive.
PER_LAYER = {
    "experiments.components_s": "s",
    "experiments.algorithm_build_s": "s",
    "experiments.pdsl_win_share": "share",
    "data.partition_s": "s",
    "data.sample_s": "s",
    "data.batches": "count",
    "nn.gradient_s": "s",
    "nn.gradient_rows": "count",
    "privacy.noise_s": "s",
    "privacy.noise_rows": "count",
    "game.shapley_s": "s",
    "game.coalition_evals": "count",
    "game.coalition_cache_hit_share": "share",
    "topology.weight_s": "s",
    "topology.weight_lookups": "count",
    "topology.mix_s": "s",
    "topology.mix_calls": "count",
    "baselines.cga_qp_s": "s",
    "baselines.cga_qp_calls": "count",
    "simulation.eval_s": "s",
    "simulation.checkpoint_s": "s",
    "simulation.resume_s": "s",
    "simulation.checkpoint_mib": "MiB",
    "simulation.wire_mib": "MiB",
    "core.round_s": "s",
    "core.round_self_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Untraced passes per run at least (their median is reported).
MIN_PASSES = 2
#: Set-up samples per untraced run at least; extra set-ups follow the passes.
MIN_SETUP_SAMPLES = 5


def _present_rows(args: tuple, kwargs: dict, result) -> Dict[str, float]:
    batches = args[2] if len(args) > 2 else kwargs["batches"]
    return {"nn.gradient_rows": sum(batch is not None for batch in batches)}


def _shapley_counts(args: tuple, kwargs: dict, result) -> Dict[str, float]:
    game = args[0]
    players = game.num_players
    if len(args) > 1:  # monte_carlo_shapley(game, permutations, rng)
        lookups = 2 * int(args[1]) * players
    else:  # exact_shapley(game): v(S + i) and v(S) for every i and S
        lookups = players * 2**players
    return {"game.coalition_evals": game.num_evaluations, "game.coalition_lookups": lookups}


def instrument(tracer: Tracer) -> None:
    """Wrap the public call at each layer boundary the benchmark reports."""
    one = lambda counter: (lambda args, kwargs, result: {counter: 1})  # noqa: E731
    tracer.wrap(harness, "build_experiment_components", "experiments.components")
    tracer.wrap(harness, "build_algorithm", "experiments.algorithm_build")
    tracer.wrap(harness, "partition_dirichlet", "data.partition")
    tracer.wrap(BatchSampler, "next_batch", "data.sample", one("data.batches"))
    tracer.wrap(DecentralizedAlgorithm, "fleet_gradients", "nn.gradient", _present_rows)
    tracer.wrap(DecentralizedAlgorithm, "fleet_cross_gradients", "nn.gradient")
    tracer.wrap(
        DecentralizedAlgorithm, "privatize_rows", "privacy.noise",
        lambda args, kwargs, result: {"privacy.noise_rows": len(result)},
    )
    tracer.wrap(DecentralizedAlgorithm, "privatize", "privacy.noise", one("privacy.noise_rows"))
    # Patched where PDSL looks them up, so only PDSL's games are timed.
    tracer.wrap(pdsl, "monte_carlo_shapley", "game.shapley", _shapley_counts)
    tracer.wrap(pdsl, "exact_shapley", "game.shapley", _shapley_counts)
    tracer.wrap(Topology, "weight", "topology.weight", one("topology.weight_lookups"))
    for method in ("apply", "mix_rows_blocked", "mix_block", "apply_mixed"):
        tracer.wrap(MixingOperator, method, "topology.mix", one("topology.mix_calls"))
    tracer.wrap(dp_cga, "min_norm_combination", "baselines.cga_qp", one("baselines.cga_qp_calls"))
    tracer.wrap(DecentralizedAlgorithm, "test_accuracy", "simulation.eval")
    tracer.wrap(DecentralizedAlgorithm, "average_train_loss", "simulation.eval")
    tracer.wrap(RunSession, "checkpoint", "simulation.checkpoint")
    tracer.wrap(RunSession, "resume", "simulation.resume")
    tracer.wrap(DecentralizedAlgorithm, "run_round", "core.round")


def host_record() -> Dict[str, object]:
    """What the numbers depend on besides the code: CPUs, load, libraries."""
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _traced_pass(workload: Workload, seed: int, workdir: Path, tracer: Tracer, run_id: str) -> PassResult:
    tracer.run_id = run_id
    instrument(tracer)
    try:
        with tracer.span("bench.pass"):
            return run_pass(workload, seed, "full", workdir)
    finally:
        tracer.restore()


def measure(
    workload: Workload, seed: int, seconds: float, workdir: Path, tracer: Optional[Tracer]
) -> List[Tuple[PassResult, bool]]:
    """Full-scale passes for about ``seconds``; traced runs alternate untraced/traced.

    A pass starts only if it is expected to end within the budget, but at
    least ``MIN_PASSES`` run (one of each kind when tracing).
    """
    passes: List[Tuple[PassResult, bool]] = []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()  # each pass starts from a heap without the last pass's garbage
        if traced:
            result = _traced_pass(workload, seed, workdir, tracer, f"pass{len(passes)}")
        else:
            result = run_pass(workload, seed, "full", workdir)
        passes.append((result, traced))
        elapsed = time.perf_counter() - started
        expected = median(r.total_s for r, _ in passes)
        if len(passes) >= MIN_PASSES and elapsed + expected > seconds:
            return passes


def end_to_end(
    passes: List[PassResult], setups: List[float], attempted: int, failed: int
) -> Dict[str, float]:
    return {
        "total_s": median(r.total_s for r in passes),
        "setup_s": median(setups),
        "agent_rounds_per_s": median(r.agent_rounds / r.round_s for r in passes),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_accuracy": passes[0].final_accuracy,
        "epsilon_spent": passes[0].epsilon_spent,
        "ops_ok_share": (attempted - failed) / attempted,
    }


def per_layer(
    tracer: Tracer, traced: List[Tuple[str, PassResult]], untraced: List[PassResult]
) -> Dict[str, float]:
    """Median over traced passes of each layer's time and counts."""
    samples: Dict[str, List[float]] = {name: [] for name in PER_LAYER}
    for run_id, result in traced:
        seconds = tracer.layer_seconds(run_id)
        counts = tracer.counts[run_id]
        values = {
            name: seconds.get(name[: -len("_s")], 0.0) for name in PER_LAYER if name.endswith("_s")
        }
        values.update({name: counts.get(name, 0.0) for name in PER_LAYER if PER_LAYER[name] == "count"})
        lookups = counts.get("game.coalition_lookups", 0.0)
        values["game.coalition_cache_hit_share"] = (
            1.0 - counts.get("game.coalition_evals", 0.0) / lookups if lookups else 0.0
        )
        values["core.round_self_s"] = seconds.get("core.round", 0.0)
        values["core.round_s"] = tracer.inclusive_seconds(run_id, "core.round")
        values["experiments.pdsl_win_share"] = result.pdsl_win_share or 0.0
        values["simulation.checkpoint_mib"] = result.checkpoint_bytes / 2**20
        values["simulation.wire_mib"] = result.wire_bytes / 2**20
        values["trace.overhead_ratio"] = result.total_s / median(r.total_s for r in untraced)
        for name in PER_LAYER:
            samples[name].append(values[name])
    return {name: median(values) for name, values in samples.items()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    root = Path.cwd()
    host = host_record()
    print(json.dumps({"host": host}), flush=True)

    workdir = root / ".perfbench" / "work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        warm_up = run_pass(workload, args.seed, "smoke", workdir)
        passes = measure(workload, args.seed, args.seconds, workdir, tracer)
        untraced = [result for result, traced in passes if not traced]
        setups = [result.setup_s for result in untraced]
        while tracer is None and len(setups) < MIN_SETUP_SAMPLES:
            gc.collect()
            setups.append(setup_seconds(workload, args.seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = [warm_up] + [result for result, _ in passes]
    failures = [failure for result in results for failure in result.failures]
    attempted = sum(result.attempted for result in results)
    # Pure functions of the code and the seed: every full pass must agree.
    reference = passes[0][0].outcome()
    for index, (result, _) in enumerate(passes[1:], start=1):
        attempted += 1
        if result.outcome() != reference:
            failures.append(f"pass {index} outcome {result.outcome()} differs from pass 0 {reference}")
    for failure in failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)

    if tracer is None:
        metrics = end_to_end(untraced, setups, attempted, len(failures))
        units = END_TO_END
    else:
        traced = [(f"pass{i}", result) for i, (result, is_traced) in enumerate(passes) if is_traced]
        metrics = per_layer(tracer, traced, untraced)
        units = PER_LAYER
        tracer.write(
            root / ".perfbench" / "traces" / f"{workload.name}-seed{args.seed}.jsonl",
            {"workload": workload.name, "seed": args.seed, "host": host, "metrics": metrics},
        )
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
