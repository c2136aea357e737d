"""The benchmark's workloads and one *pass* of each: spec to checked result.

A pass builds every experiment from its spec, trains it through the public
:class:`~repro.simulation.runner.RunSession`, evaluates it, and (on the fleet
workloads) checkpoints and resumes it, checking the outputs as it goes.  The
same code runs at ``"full"`` scale for measurement and at ``"smoke"`` scale
for the untimed warm-up and the benchmark's own tests.

Why these three workloads (each puts the work on different layers, so a
later optimisation of one layer has a workload that shows its gain and one
where nothing may move):

* ``paper-cells`` — the paper's own traffic: Table I (epsilon 0.3) and
  Table II (epsilon 1.0) fast-scale cells, M=10 on the fully connected,
  bipartite and ring graphs, the five paper algorithms, 20 rounds, one-shot
  vectorized engine, evaluation every round.  DP-CGA's SLSQP projection,
  PDSL's Shapley games and the stacked gradient passes dominate;
  construction and batch sampling are negligible.
* ``fleet-dpsgd`` — DP-DPSGD at N=8192 on a ring with the streamed
  (``block_rows``) engine: per-agent Python objects dominate (construction,
  batch sampling, noise draws, per-agent RNG states in the checkpoint).  No
  Shapley game runs.
* ``fleet-pdsl`` — PDSL at N=2048 on a ring with two Shapley permutations:
  the per-agent Shapley aggregation (coalition evaluations and mixing-weight
  lookups) dominates; sampling and construction are small.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.experiments import harness
from repro.experiments.specs import ExperimentSpec, paper_table_spec
from repro.privacy.accountant import PrivacyAccountant
from repro.simulation.runner import RunSession

__all__ = ["PassResult", "Workload", "WORKLOADS", "run_pass", "setup_seconds"]

#: A workload's accuracy floor is this multiple of chance (1 / classes).
FLOOR_OVER_CHANCE = 1.5


@dataclass
class PassResult:
    """What one pass measured and checked."""

    total_s: float = 0.0
    setup_s: float = 0.0
    round_s: float = 0.0
    agent_rounds: int = 0
    accuracies: List[float] = field(default_factory=list)
    epsilons: List[float] = field(default_factory=list)
    pdsl_win_share: Optional[float] = None
    wire_bytes: int = 0
    checkpoint_bytes: int = 0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one operation or check; remember it when it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def final_accuracy(self) -> float:
        return fmean(self.accuracies) if self.accuracies else 0.0

    @property
    def epsilon_spent(self) -> float:
        return fmean(self.epsilons) if self.epsilons else 0.0

    def outcome(self) -> tuple:
        """The values that are pure functions of the code and the seed."""
        return (self.final_accuracy, self.epsilon_spent, self.pdsl_win_share, self.wire_bytes)


@dataclass(frozen=True)
class Workload:
    """Experiment cells (one spec each; ``spec.algorithms`` are its sessions)."""

    name: str
    specs: Callable[[int, str], List[ExperimentSpec]]
    #: Checkpoint each trained session and verify a resume from it.
    resume: bool


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

_PAPER_TOPOLOGIES = ("fully_connected", "bipartite", "ring")
SMOKE_ROUNDS = 14


def _paper_cells(seed: int, scale: str) -> List[ExperimentSpec]:
    cells = [(1, 0.3, topology) for topology in _PAPER_TOPOLOGIES] + [
        (2, 1.0, topology) for topology in _PAPER_TOPOLOGIES
    ]
    if scale == "smoke":
        cells = [cells[0], cells[-1]]
    specs = []
    for table, epsilon, topology in cells:
        spec = paper_table_spec(table, topology, 10, epsilon).with_updates(seed=seed)
        if scale == "smoke":
            spec = spec.with_updates(num_rounds=SMOKE_ROUNDS)
        specs.append(spec)
    return specs


def _fleet_spec(name: str, algorithm: str, num_agents: int, seed: int, **overrides) -> ExperimentSpec:
    # Mild label skew (alpha=2) with 16 samples per agent keeps every
    # Dirichlet shard non-empty at fleet scale.  lr=2 and epsilon=10 train
    # to ~0.73 (DP-DPSGD) and ~0.78 (PDSL) in 3-4 rounds at every seed tried;
    # at lr=0.5 the few rounds leave accuracy anywhere in 0.31-0.61 by seed.
    return ExperimentSpec(
        name=name,
        dataset="classification",
        model="linear",
        num_agents=num_agents,
        topology="ring",
        dirichlet_alpha=2.0,
        epsilon=10.0,
        learning_rate=2.0,
        batch_size=8,
        train_samples=16 * num_agents,
        validation_samples=200,
        test_samples=400,
        num_classes=4,
        num_features=16,
        algorithms=[algorithm],
        seed=seed,
        block_workers=1,
        storage="ram",
        **overrides,
    )


def _fleet_dpsgd(seed: int, scale: str) -> List[ExperimentSpec]:
    agents, block_rows = (8192, 2048) if scale == "full" else (64, 16)
    return [
        _fleet_spec(
            "fleet-dpsgd", "DP-DPSGD", agents, seed,
            num_rounds=4, eval_every=4, block_rows=block_rows,
        )
    ]


def _fleet_pdsl(seed: int, scale: str) -> List[ExperimentSpec]:
    agents = 2048 if scale == "full" else 32
    return [
        _fleet_spec(
            "fleet-pdsl", "PDSL", agents, seed,
            num_rounds=4, eval_every=4, shapley_permutations=2,
        )
    ]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("paper-cells", _paper_cells, resume=False),
        Workload("fleet-dpsgd", _fleet_dpsgd, resume=True),
        Workload("fleet-pdsl", _fleet_pdsl, resume=True),
    )
}


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------


def _identical(a, b) -> bool:
    """Bit-for-bit equality of two ``state_dict`` payloads."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
        )
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_identical(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return (
            isinstance(b, (list, tuple))
            and len(a) == len(b)
            and all(_identical(x, y) for x, y in zip(a, b))
        )
    return a == b


def _composed_epsilon(spec: ExperimentSpec) -> float:
    """The accountant's epsilon after one (epsilon, delta) event per round."""
    expected = PrivacyAccountant()
    expected.record(spec.epsilon, spec.delta, count=spec.num_rounds)
    return expected.total()[0]


def _session(
    spec: ExperimentSpec,
    name: str,
    components: harness.ExperimentComponents,
    result: PassResult,
    workdir: Optional[Path],
) -> Optional[float]:
    """Train one algorithm on a cell; returns its final accuracy (None if it failed)."""
    label = f"{spec.name}/{name}"

    def on_event(event: str, payload: Dict[str, object]) -> None:
        if event == "round":
            result.round_s += float(payload["seconds"])

    algorithm = resumed_algorithm = None
    try:
        started = time.perf_counter()
        algorithm = harness.build_algorithm(name, components)
        result.setup_s += time.perf_counter() - started
        evaluation = harness.evaluation_for_spec(components)
        session = RunSession(algorithm, spec.num_rounds, evaluation=evaluation)
        session.bus.subscribe(on_event)
        history = session.run()
        result.check(True, f"{label}: session")
        accuracy = float(history.final_test_accuracy)
        epsilon = float(algorithm.privacy_spent()[0])
        result.agent_rounds += algorithm.num_agents * spec.num_rounds
        result.accuracies.append(accuracy)
        result.epsilons.append(epsilon)
        result.wire_bytes += int(algorithm.network.traffic_summary()["bytes_sent"])
        result.check(
            bool(np.isfinite(algorithm.state).all() and np.isfinite(algorithm.momentum_state).all()),
            f"{label}: fleet state is finite",
        )
        result.check(
            epsilon == _composed_epsilon(spec),
            f"{label}: epsilon {epsilon!r} is not one composed event per round",
        )
        if workdir is not None:
            path = session.checkpoint(workdir / f"{spec.name}-{name}.ckpt")
            result.checkpoint_bytes += path.stat().st_size
            resumed_algorithm = harness.build_algorithm(name, components)
            resumed = RunSession.resume(resumed_algorithm, path, evaluation=evaluation)
            result.check(True, f"{label}: resume")
            path.unlink()
            result.check(
                resumed.rounds_done == spec.num_rounds
                and resumed.history.final_test_accuracy == history.final_test_accuracy
                and _identical(
                    algorithm.state_dict(copy=False), resumed_algorithm.state_dict(copy=False)
                ),
                f"{label}: resumed state is not bit-identical to the checkpointed one",
            )
        return accuracy
    except Exception as error:  # a failed session is counted, and the pass goes on
        traceback.print_exc(file=sys.stderr)
        result.check(False, f"{label}: {type(error).__name__}: {error}")
        return None
    finally:
        for built in (algorithm, resumed_algorithm):
            if built is not None:
                built.close()


def run_pass(workload: Workload, seed: int, scale: str, workdir: Path) -> PassResult:
    """Run every session of the workload once, from spec to checked result."""
    result = PassResult()
    started = time.perf_counter()
    wins = cells = 0
    num_classes = 0
    for spec in workload.specs(seed, scale):
        num_classes = spec.num_classes
        setup_started = time.perf_counter()
        components = harness.build_experiment_components(spec)
        result.setup_s += time.perf_counter() - setup_started
        accuracies = {
            name: _session(spec, name, components, result, workdir if workload.resume else None)
            for name in spec.algorithms
        }
        if "PDSL" in accuracies and len(accuracies) > 1:
            others = [acc for name, acc in accuracies.items() if name != "PDSL"]
            cells += 1
            wins += int(
                None not in accuracies.values() and accuracies["PDSL"] >= max(others)
            )
    if cells:
        result.pdsl_win_share = wins / cells
    floor = FLOOR_OVER_CHANCE / num_classes
    result.check(
        result.final_accuracy >= floor,
        f"final accuracy {result.final_accuracy:.4f} is below the floor {floor:.4f}",
    )
    result.total_s = time.perf_counter() - started
    return result


def setup_seconds(workload: Workload, seed: int) -> float:
    """One more set-up of the full workload: every cell's components and algorithms."""
    total = 0.0
    for spec in workload.specs(seed, "full"):
        started = time.perf_counter()
        components = harness.build_experiment_components(spec)
        algorithms = [harness.build_algorithm(name, components) for name in spec.algorithms]
        total += time.perf_counter() - started
        for algorithm in algorithms:
            algorithm.close()
    return total
