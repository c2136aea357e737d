"""Building and running the experiments described by an :class:`ExperimentSpec`.

The harness turns a spec into concrete objects (dataset, partition, topology,
model, algorithm instances), runs each requested algorithm under identical
conditions (same data partition, same initial model, same evaluation policy)
and returns the per-algorithm :class:`~repro.simulation.metrics.TrainingHistory`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines import DMSGD, DPCGA, DPDPSGD, DPNetFleet, DPSGDNonPrivate, Muffliato
from repro.core.base import DecentralizedAlgorithm
from repro.core.config import (
    AlgorithmConfig,
    CGAConfig,
    MuffliatoConfig,
    NetFleetConfig,
    PDSLConfig,
)
from repro.core.pdsl import PDSL
from repro.data.dataset import Dataset, train_val_test_split
from repro.data.partition import PartitionResult, partition_dirichlet
from repro.data.synthetic import (
    make_classification_dataset,
    make_synthetic_cifar,
    make_synthetic_mnist,
)
from repro.experiments.specs import ExperimentSpec
from repro.nn.model import Model
from repro.nn.zoo import make_cifar_cnn, make_linear_classifier, make_mlp, make_mnist_cnn
from repro.simulation.metrics import TrainingHistory
from repro.simulation.runner import EvaluationConfig, run_decentralized
from repro.topology.schedule import TopologySchedule, schedule_from_dynamics
from repro.topology.graphs import Topology, topology_by_name

__all__ = [
    "ExperimentComponents",
    "build_experiment_components",
    "build_algorithm",
    "evaluation_for_spec",
    "run_single",
    "run_comparison",
]


@dataclass
class ExperimentComponents:
    """The concrete objects an experiment runs on.

    ``schedule`` is ``None`` for the historical fixed-topology experiments;
    when the spec declares ``dynamics`` it is the
    :class:`~repro.topology.schedule.TopologySchedule` every compared
    algorithm trains against (shared, so all algorithms see the identical
    sequence of graphs, departures and stragglers).
    """

    spec: ExperimentSpec
    topology: Topology
    train: Dataset
    validation: Dataset
    test: Dataset
    partition: PartitionResult
    model_factory: Callable[[], Model]
    schedule: Optional[TopologySchedule] = None


def _make_dataset(spec: ExperimentSpec) -> Dataset:
    if spec.dataset == "classification":
        total = spec.train_samples + spec.validation_samples + spec.test_samples
        return make_classification_dataset(
            num_samples=total,
            num_features=spec.num_features,
            num_classes=spec.num_classes,
            cluster_std=1.2,
            class_separation=3.0,
            seed=spec.seed,
        )
    if spec.dataset == "mnist":
        total = spec.train_samples + spec.validation_samples + spec.test_samples
        return make_synthetic_mnist(num_samples=total, num_classes=spec.num_classes, seed=spec.seed)
    if spec.dataset == "cifar":
        total = spec.train_samples + spec.validation_samples + spec.test_samples
        return make_synthetic_cifar(num_samples=total, num_classes=spec.num_classes, seed=spec.seed)
    raise ValueError(f"unknown dataset family: {spec.dataset}")


def _make_model_factory(spec: ExperimentSpec, sample_input_shape: Tuple[int, ...]) -> Callable[[], Model]:
    if spec.model == "linear":
        input_dim = int(np.prod(sample_input_shape))
        return lambda: make_linear_classifier(input_dim, spec.num_classes, seed=spec.seed)
    if spec.model == "mlp":
        input_dim = int(np.prod(sample_input_shape))
        return lambda: make_mlp(input_dim, spec.num_classes, hidden_sizes=(32,), seed=spec.seed)
    if spec.model == "mnist_cnn":
        return lambda: make_mnist_cnn(
            num_classes=spec.num_classes,
            image_size=sample_input_shape[-1],
            in_channels=sample_input_shape[0],
            seed=spec.seed,
        )
    if spec.model == "cifar_cnn":
        return lambda: make_cifar_cnn(
            num_classes=spec.num_classes,
            image_size=sample_input_shape[-1],
            in_channels=sample_input_shape[0],
            seed=spec.seed,
        )
    raise ValueError(f"unknown model family: {spec.model}")


def _maybe_flatten(dataset: Dataset, spec: ExperimentSpec) -> Dataset:
    """Flatten image tensors when the chosen model is a dense one."""
    if spec.model in ("linear", "mlp") and dataset.inputs.ndim > 2:
        flat = dataset.inputs.reshape(dataset.inputs.shape[0], -1)
        return Dataset(flat, dataset.labels)
    return dataset


def build_experiment_components(spec: ExperimentSpec) -> ExperimentComponents:
    """Generate data, split it, partition it across agents, and build the topology."""
    rng = np.random.default_rng(spec.seed)
    full = _make_dataset(spec)
    full = _maybe_flatten(full, spec)
    total = len(full)
    val_fraction = spec.validation_samples / total
    test_fraction = spec.test_samples / total
    train, validation, test = train_val_test_split(full, val_fraction, test_fraction, rng)
    partition = partition_dirichlet(
        train,
        num_agents=spec.num_agents,
        alpha=spec.dirichlet_alpha,
        rng=rng,
        min_samples_per_agent=max(2, spec.batch_size // 4),
    )
    topology = topology_by_name(
        spec.topology, spec.num_agents, spec.seed, cluster_size=spec.cluster_size
    )
    schedule = (
        schedule_from_dynamics(topology, spec.dynamics, seed=spec.seed)
        if spec.dynamics
        else None
    )
    model_factory = _make_model_factory(spec, train.input_shape)
    return ExperimentComponents(
        spec=spec,
        topology=topology,
        train=train,
        validation=validation,
        test=test,
        partition=partition,
        model_factory=model_factory,
        schedule=schedule,
    )


def build_algorithm(
    name: str,
    components: ExperimentComponents,
    sigma: Optional[float] = None,
) -> DecentralizedAlgorithm:
    """Instantiate one algorithm on the experiment's shared components.

    Every algorithm receives the same topology, the same data partition and a
    freshly constructed (but identically seeded, hence identical) model, so
    comparisons isolate the algorithmic differences.

    When the spec declares a ``time_model``, the algorithm comes back wrapped
    in an :class:`~repro.simulation.events.engine.AsyncEngine` — run on
    simulated time through every execution path (harness and orchestrator
    alike), recording simulated wall-clock and utilization into the history.
    """
    algorithm = _instantiate_algorithm(name, components, sigma=sigma)
    # `is not None` (not truthiness): an empty mapping still means "run on
    # simulated time" and gets the default uniform-trace barrier engine.
    if components.spec.time_model is not None:
        from repro.simulation.events import engine_from_time_model

        return engine_from_time_model(algorithm, components.spec.time_model)
    return algorithm


def _instantiate_algorithm(
    name: str,
    components: ExperimentComponents,
    sigma: Optional[float] = None,
) -> DecentralizedAlgorithm:
    spec = components.spec
    base_kwargs = dict(
        learning_rate=spec.learning_rate,
        clip_threshold=spec.clip_threshold,
        epsilon=spec.epsilon if sigma is None else None,
        sigma=sigma,
        delta=spec.delta,
        batch_size=spec.batch_size,
        seed=spec.seed,
        compression=spec.compression,
        dtype=spec.dtype,
        block_rows=spec.block_rows,
        block_workers=spec.block_workers,
        storage=spec.storage,
    )
    model = components.model_factory()
    shards = components.partition.shards
    # When the spec declares topology dynamics, the algorithms receive the
    # shared per-round schedule instead of the fixed base graph.
    topology = (
        components.schedule if components.schedule is not None else components.topology
    )
    validation = components.validation

    if name == "PDSL":
        config = PDSLConfig(
            momentum=spec.momentum,
            shapley_permutations=spec.shapley_permutations,
            **base_kwargs,
        )
        return PDSL(model, topology, shards, config, validation=validation)
    if name == "DP-DPSGD":
        config = AlgorithmConfig(momentum=0.0, **base_kwargs)
        return DPDPSGD(model, topology, shards, config)
    if name == "D-PSGD":
        config = AlgorithmConfig(momentum=0.0, **{**base_kwargs, "epsilon": None, "sigma": 0.0})
        return DPSGDNonPrivate(model, topology, shards, config)
    if name == "DMSGD":
        config = AlgorithmConfig(momentum=spec.momentum, **base_kwargs)
        return DMSGD(model, topology, shards, config)
    if name == "MUFFLIATO":
        config = MuffliatoConfig(momentum=0.0, gossip_steps=3, **base_kwargs)
        return Muffliato(model, topology, shards, config)
    if name == "DP-CGA":
        config = CGAConfig(momentum=spec.momentum, **base_kwargs)
        return DPCGA(model, topology, shards, config)
    if name == "DP-NET-FLEET":
        config = NetFleetConfig(momentum=0.0, local_steps=2, **base_kwargs)
        return DPNetFleet(model, topology, shards, config)
    raise ValueError(f"unknown algorithm: {name}")


def evaluation_for_spec(components: ExperimentComponents) -> EvaluationConfig:
    """The evaluation policy every execution path derives from a spec.

    Shared by :func:`run_single` and the experiment orchestrator's
    :func:`~repro.experiments.orchestrator.run_job`, so an orchestrated cell
    evaluates exactly like an in-process harness run — which is what lets
    the two produce identical histories for the same spec.
    """
    return EvaluationConfig(
        eval_every=components.spec.eval_every,
        test_data=components.test,
        loss_samples_per_agent=128,
    )


def run_single(
    name: str,
    components: ExperimentComponents,
    sigma: Optional[float] = None,
    progress_callback=None,
) -> TrainingHistory:
    """Build and run one algorithm for the spec's number of rounds."""
    spec = components.spec
    algorithm = build_algorithm(name, components, sigma=sigma)
    evaluation = evaluation_for_spec(components)
    history = run_decentralized(
        algorithm, spec.num_rounds, evaluation=evaluation, progress_callback=progress_callback
    )
    history.metadata["spec"] = spec.name
    history.metadata["dirichlet_alpha"] = spec.dirichlet_alpha
    return history


def run_comparison(
    spec: ExperimentSpec,
    algorithms: Optional[Sequence[str]] = None,
    progress_callback=None,
) -> Dict[str, TrainingHistory]:
    """Run every requested algorithm on identical components; return histories by name."""
    components = build_experiment_components(spec)
    names = list(algorithms) if algorithms is not None else list(spec.algorithms)
    results: Dict[str, TrainingHistory] = {}
    for name in names:
        results[name] = run_single(name, components, progress_callback=progress_callback)
    return results
