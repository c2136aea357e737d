"""The round engine against the per-agent reference, for every algorithm and topology.

The streamed round must compute what the paper's per-agent message passing
computes: for a fixed seed it consumes exactly the same per-agent random
streams (batch draws, Gaussian noise, Shapley permutations, dropout masks)
as the compact reference in ``tests/reference_rounds.py``, so the two agree
up to floating-point associativity of the re-ordered sums (rtol 1e-9).

The sparse (CSR) mixing backend carries a *stronger* contract: it applies
the same ``W`` with the same accumulation order as the dense kernel, so
``mixing_backend="sparse"`` must reproduce the dense engine's
``TrainingHistory`` **bit for bit** (asserted with exact equality below).
"""

import numpy as np
import pytest

from repro.baselines import DMSGD, DPCGA, DPDPSGD, DPNetFleet, Muffliato
from repro.core.config import (
    AlgorithmConfig,
    CGAConfig,
    MuffliatoConfig,
    NetFleetConfig,
    PDSLConfig,
)
from repro.core.pdsl import PDSL
from repro.data.partition import partition_dirichlet
from repro.data.synthetic import make_classification_dataset
from repro.nn.zoo import make_linear_classifier, make_mlp
from repro.nn.layers import Dense, Dropout, ReLU
from repro.nn.model import Sequential
from repro.simulation.network import Network
from repro.simulation.runner import EvaluationConfig, run_decentralized
from repro.topology.graphs import (
    bipartite_graph,
    fully_connected_graph,
    ring_graph,
    torus_graph,
)

from tests.reference_rounds import reference_round

NUM_AGENTS = 5
ROUNDS = 3

ALGORITHMS = {
    "DP-DPSGD": (DPDPSGD, AlgorithmConfig, {}),
    "DMSGD": (DMSGD, AlgorithmConfig, {"momentum": 0.5}),
    "MUFFLIATO": (Muffliato, MuffliatoConfig, {"gossip_steps": 2}),
    "DP-CGA": (DPCGA, CGAConfig, {"momentum": 0.5}),
    "DP-NET-FLEET": (DPNetFleet, NetFleetConfig, {"local_steps": 2}),
    "PDSL": (PDSL, PDSLConfig, {"momentum": 0.5, "shapley_permutations": 2}),
}

TOPOLOGIES = {
    "ring": lambda: ring_graph(NUM_AGENTS),
    "full": lambda: fully_connected_graph(NUM_AGENTS),
    "bipartite": lambda: bipartite_graph(NUM_AGENTS),
}


def build_algorithm(
    name,
    topology_name=None,
    sigma=0.1,
    model="linear",
    mixing_backend="auto",
    topology_factory=None,
    compression=None,
):
    cls, config_cls, extra = ALGORITHMS[name]
    topology = (topology_factory or TOPOLOGIES[topology_name])()
    data = make_classification_dataset(
        400, num_features=8, num_classes=4, cluster_std=0.6, seed=1
    )
    rng = np.random.default_rng(1)
    shards = partition_dirichlet(
        data, topology.num_agents, alpha=0.5, rng=rng, min_samples_per_agent=8
    ).shards
    validation = data.sample(60, rng)
    test = data.sample(80, np.random.default_rng(2))
    if model == "linear":
        net = make_linear_classifier(8, 4, seed=0)
    elif model == "dropout":
        rng = np.random.default_rng(0)
        net = Sequential(
            [Dense(8, 16, rng), ReLU(), Dropout(0.3, np.random.default_rng(5)), Dense(16, 4, rng)]
        )
    else:
        net = make_mlp(8, 4, hidden_sizes=(8,), seed=0)
    config = config_cls(
        learning_rate=0.1,
        sigma=sigma,
        clip_threshold=1.0,
        batch_size=16,
        seed=7,
        mixing_backend=mixing_backend,
        compression=compression,
        **extra,
    )
    if cls is PDSL:
        algorithm = cls(net, topology, shards, config, validation=validation)
    else:
        algorithm = cls(net, topology, shards, config)
    return algorithm, test


def run_history(name, topology_name, **kwargs):
    algorithm, test = build_algorithm(name, topology_name, **kwargs)
    history = run_decentralized(
        algorithm,
        num_rounds=ROUNDS,
        evaluation=EvaluationConfig(eval_every=1, test_data=test),
    )
    return algorithm, history


def fleet_matrices(algorithm):
    """Every per-agent matrix a round updates."""
    matrices = [algorithm.state, algorithm.momentum_state]
    if hasattr(algorithm, "tracking_state"):
        matrices += [algorithm.tracking_state, algorithm.previous_gradient_state]
    return [np.array(matrix) for matrix in matrices]


def assert_matches_reference(name, topology_name=None, rounds=ROUNDS, **kwargs):
    """Run the engine and the per-agent reference side by side, round by round."""
    engine, _ = build_algorithm(name, topology_name, **kwargs)
    reference, _ = build_algorithm(name, topology_name, **kwargs)
    for round_index in range(rounds):
        engine.run_round()
        reference_round(reference)
        for got, expected in zip(fleet_matrices(engine), fleet_matrices(reference)):
            np.testing.assert_allclose(
                got, expected, rtol=1e-9, atol=1e-12, err_msg=f"round {round_index}"
            )
    return engine, reference


#: Messages per directed edge and round, by tag, and the payload streams
#: each carries (PDSL gossips a (momentum, model) pair, NET-FLEET a
#: (model, tracking) pair).
EXCHANGES = {
    "DP-DPSGD": {"model": 1},
    "DMSGD": {"model": 1},
    "MUFFLIATO": {"gossip_0": 1, "gossip_1": 1},
    "DP-CGA": {"model": 1, "cross_grad": 1, "mix": 1},
    "DP-NET-FLEET": {"state": 2},
    "PDSL": {"model": 1, "cross_grad": 1, "mix": 2},
}


@pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
@pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
class TestReferenceEquivalence:
    def test_engine_matches_reference(self, algorithm_name, topology_name):
        assert_matches_reference(algorithm_name, topology_name)

    def test_traffic_accounting_counts_every_exchange(
        self, algorithm_name, topology_name
    ):
        algorithm, _ = run_history(algorithm_name, topology_name)
        edges = algorithm.topology.num_directed_edges
        dimension = algorithm.dimension
        traffic = algorithm.network.traffic_summary()
        channels = EXCHANGES[algorithm_name]
        assert traffic["traffic_by_tag"] == {
            tag: ROUNDS * edges * dimension * count for tag, count in channels.items()
        }
        assert traffic["messages_sent"] == ROUNDS * edges * len(channels)
        assert traffic["messages_dropped"] == 0


class TestReferenceEquivalenceVariants:
    """Extra reference coverage beyond the main grid."""

    def test_mlp_stacked_path_matches_reference(self):
        assert_matches_reference("DMSGD", "ring", model="mlp")

    def test_noise_free_trajectories_match(self):
        assert_matches_reference("DP-DPSGD", "full", sigma=0.0)

    @pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
    def test_dropout_model_matches_reference(self, algorithm_name):
        # Dropout layers draw their masks from their own generator in the
        # round's fixed phase order: own gradients, then cross-gradients.
        assert_matches_reference(algorithm_name, "ring", model="dropout")

    @pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
    def test_compressed_gossip_matches_reference(self, algorithm_name):
        assert_matches_reference(
            algorithm_name,
            "ring",
            compression={"codec": "randomk", "k": 5, "communication_interval": 2},
        )

    def test_engine_is_deterministic(self):
        a, history_a = run_history("PDSL", "ring")
        b, history_b = run_history("PDSL", "ring")
        np.testing.assert_array_equal(a.state, b.state)
        assert history_a.losses == history_b.losses

    def test_lossy_network_runs_on_the_engine(self):
        algorithm, _ = build_algorithm("DP-DPSGD", "full")
        algorithm.network = Network(
            NUM_AGENTS, drop_probability=0.3, rng=np.random.default_rng(0)
        )
        history = run_decentralized(algorithm, num_rounds=2)
        assert history.metadata["backend"] == "vectorized"
        assert algorithm.network.messages_sent > 0
        assert algorithm.network.messages_dropped > 0
        assert algorithm.network.pending(0) == 0  # nothing goes through a mailbox
        assert np.isfinite(algorithm.state).all()


SPARSE_TOPOLOGIES = {
    "ring": lambda: ring_graph(NUM_AGENTS),
    "torus": lambda: torus_graph(3),  # 9 agents, 4-regular
}


def assert_histories_identical(history_a, history_b):
    """Exact (bitwise) equality of every recorded quantity."""
    assert len(history_a) == len(history_b)
    for rec_a, rec_b in zip(history_a.records, history_b.records):
        assert rec_a.round == rec_b.round
        assert rec_a.average_train_loss == rec_b.average_train_loss
        assert rec_a.test_accuracy == rec_b.test_accuracy
        assert rec_a.consensus == rec_b.consensus
    assert history_a.final_test_accuracy == history_b.final_test_accuracy


@pytest.mark.parametrize("topology_name", sorted(SPARSE_TOPOLOGIES))
@pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
class TestSparseMixingEquivalence:
    """CSR gossip must reproduce the dense engine bit for bit."""

    def run(self, algorithm_name, topology_name, mixing_backend):
        algorithm, test = build_algorithm(
            algorithm_name,
            mixing_backend=mixing_backend,
            topology_factory=SPARSE_TOPOLOGIES[topology_name],
        )
        history = run_decentralized(
            algorithm,
            num_rounds=ROUNDS,
            evaluation=EvaluationConfig(eval_every=1, test_data=test),
        )
        return algorithm, history

    def test_bit_identical_training_history(self, algorithm_name, topology_name):
        dense_alg, dense_history = self.run(algorithm_name, topology_name, "dense")
        sparse_alg, sparse_history = self.run(algorithm_name, topology_name, "sparse")
        assert dense_alg.mixing.format == "dense"
        assert sparse_alg.mixing.format == "csr"
        assert_histories_identical(dense_history, sparse_history)
        np.testing.assert_array_equal(dense_alg.state, sparse_alg.state)
        np.testing.assert_array_equal(dense_alg.momentum_state, sparse_alg.momentum_state)

    def test_identical_traffic_accounting(self, algorithm_name, topology_name):
        dense_alg, _ = self.run(algorithm_name, topology_name, "dense")
        sparse_alg, _ = self.run(algorithm_name, topology_name, "sparse")
        assert (
            dense_alg.network.traffic_summary() == sparse_alg.network.traffic_summary()
        )


class TestScheduleEquivalence:
    """Topology schedules: static wrapping is free, dynamics preserve engine parity."""

    @pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
    def test_static_schedule_is_bit_identical(self, algorithm_name):
        from repro.topology.schedule import StaticSchedule

        plain_alg, plain_history = run_history(algorithm_name, "ring")
        wrapped_alg, wrapped_history = run_history(
            algorithm_name,
            None,
            topology_factory=lambda: StaticSchedule(ring_graph(NUM_AGENTS)),
        )
        assert_histories_identical(plain_history, wrapped_history)
        np.testing.assert_array_equal(plain_alg.state, wrapped_alg.state)
        np.testing.assert_array_equal(
            plain_alg.momentum_state, wrapped_alg.momentum_state
        )
        assert (
            plain_alg.network.traffic_summary()
            == wrapped_alg.network.traffic_summary()
        )

    @staticmethod
    def dynamic_schedule():
        from repro.topology.schedule import DynamicTopologySchedule

        return DynamicTopologySchedule(
            ring_graph(6),
            rewire_every=2,
            churn_rate=0.25,
            rejoin_rate=0.5,
            straggler_fraction=0.2,
            edge_failure_rate=0.1,
            seed=3,
        )

    @pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
    def test_dynamic_schedule_matches_reference(self, algorithm_name):
        """Churn + rewiring + stragglers: the engine stays RNG-stream equal."""
        rounds = 5
        engine, _ = assert_matches_reference(
            algorithm_name, topology_factory=self.dynamic_schedule, rounds=rounds
        )
        # Traffic follows each round's snapshot: departed agents and
        # stragglers are isolated nodes, failed edges carry nothing.
        edges = sum(
            engine.schedule.topology_at(r).num_directed_edges for r in range(rounds)
        )
        channels = EXCHANGES[algorithm_name]
        traffic = engine.network.traffic_summary()
        assert traffic["traffic_by_tag"] == {
            tag: edges * engine.dimension * count for tag, count in channels.items()
        }
        assert traffic["messages_sent"] == edges * len(channels)
        assert traffic["floats_sent"] == edges * engine.dimension * sum(
            channels.values()
        )
        assert traffic["messages_dropped"] == 0

    def test_dynamic_run_records_events_and_masks(self):
        algorithm, history = run_history(
            "DMSGD", None, topology_factory=self.dynamic_schedule
        )
        events = [e for record in history.records for e in record.topology_events]
        assert events, "a dynamic schedule must surface events in the history"
        kinds = {e["kind"] for e in events}
        assert "rewire" in kinds
        assert {record.active_agents for record in history.records} != {6}
        assert history.metadata["dynamics"]["churn_rate"] == 0.25

    def test_inactive_agents_are_frozen_for_the_round(self):
        from repro.topology.schedule import churn_schedule

        schedule = churn_schedule(ring_graph(6), churn_rate=0.5, rejoin_rate=0.3, seed=1)
        algorithm, _ = build_algorithm("DMSGD", topology_factory=lambda: schedule)
        for round_index in range(4):
            before = algorithm.state.copy()
            momentum_before = algorithm.momentum_state.copy()
            algorithm.run_round()
            inactive = ~schedule.active_mask_at(round_index)
            np.testing.assert_array_equal(
                algorithm.state[inactive], before[inactive]
            )
            np.testing.assert_array_equal(
                algorithm.momentum_state[inactive], momentum_before[inactive]
            )


@pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
class TestIdentityCodecBitIdentity:
    """``compression={"codec": "identity"}`` must be a no-op, bit for bit.

    The compressed-gossip plumbing routes every exchanged payload through
    the codec stage even when the codec is the identity; these regression
    cells pin the uncompressed trajectory — history, final state, and
    traffic counters — for every algorithm, under static and dynamic
    topologies.
    """

    def test_static_topology_bit_identical(self, algorithm_name):
        plain_alg, plain_history = run_history(algorithm_name, "ring")
        codec_alg, codec_history = run_history(
            algorithm_name, "ring", compression={"codec": "identity"}
        )
        assert codec_alg.codec.is_identity
        assert_histories_identical(plain_history, codec_history)
        np.testing.assert_array_equal(plain_alg.state, codec_alg.state)
        np.testing.assert_array_equal(
            plain_alg.momentum_state, codec_alg.momentum_state
        )
        assert (
            plain_alg.network.traffic_summary() == codec_alg.network.traffic_summary()
        )

    def test_dynamic_topology_bit_identical(self, algorithm_name):
        factory = TestScheduleEquivalence.dynamic_schedule
        plain_alg, plain_history = run_history(
            algorithm_name, None, topology_factory=factory
        )
        codec_alg, codec_history = run_history(
            algorithm_name,
            None,
            topology_factory=factory,
            compression={"codec": "identity"},
        )
        assert_histories_identical(plain_history, codec_history)
        np.testing.assert_array_equal(plain_alg.state, codec_alg.state)
        assert (
            plain_alg.network.traffic_summary() == codec_alg.network.traffic_summary()
        )


class TestSparseMixingVariants:
    def test_auto_selection_prefers_dense_for_small_fleets(self):
        algorithm, _ = build_algorithm("DP-DPSGD", "ring")
        assert algorithm.config.mixing_backend == "auto"
        assert algorithm.mixing.format == "dense"

    def test_sparse_override_respected_on_small_fleets(self):
        algorithm, _ = build_algorithm("DP-DPSGD", "ring", mixing_backend="sparse")
        assert algorithm.mixing.format == "csr"

    def test_sparse_stored_topology_runs_end_to_end(self):
        from repro.core.config import AlgorithmConfig
        from repro.data.partition import partition_iid

        topology = ring_graph(80)  # above the auto-sparse threshold
        assert topology.mixing_is_sparse
        data = make_classification_dataset(640, num_features=8, num_classes=4, seed=0)
        shards = partition_iid(data, 80, np.random.default_rng(0)).shards
        config = AlgorithmConfig(sigma=0.1, batch_size=8)
        algorithm = DPDPSGD(make_linear_classifier(8, 4, seed=0), topology, shards, config)
        assert algorithm.mixing.format == "csr"
        history = run_decentralized(algorithm, num_rounds=2)
        assert len(history) >= 1
        assert np.isfinite(algorithm.state).all()
