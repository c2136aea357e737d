"""End-to-end compressed gossip: reference agreement, traffic, intervals, peer selection.

The codec kernels are property-tested in
``tests/properties/test_property_compression.py``; here the full
communication stack runs under compression:

* the round engine follows the per-agent reference round
  (``tests/reference_rounds.py``, which encodes through
  ``CompressionState.compress_row``) for every lossy codec, and accounts
  every gossip message at the codec's encoded size;
* ``communication_interval`` skips gossip (and its traffic) on off-rounds;
* ``shift_one`` replaces the topology with the rotating matching of the
  circle method (Bagua's low-precision peer selection);
* top-k actually delivers the advertised ≥4x wire-byte reduction;
* the ``compression`` knob threads from :class:`ExperimentSpec` through the
  harness into the algorithm config.
"""

import numpy as np
import pytest

from repro.baselines import DMSGD
from repro.core.config import AlgorithmConfig, PDSLConfig
from repro.core.pdsl import PDSL
from repro.data.partition import partition_dirichlet
from repro.data.synthetic import make_classification_dataset
from repro.nn.zoo import make_linear_classifier
from repro.simulation.runner import EvaluationConfig, run_decentralized
from repro.topology.graphs import ring_graph
from repro.topology.schedule import ShiftOneSchedule, churn_schedule

from tests.reference_rounds import reference_round

NUM_AGENTS = 5
ROUNDS = 4

LOSSY_CODECS = [
    {"codec": "fp16"},
    {"codec": "int8"},
    {"codec": "topk", "k": 3},
    {"codec": "randomk", "k": 3},
]


def build(algorithm="DMSGD", compression=None, num_agents=NUM_AGENTS):
    topology = ring_graph(num_agents)
    data = make_classification_dataset(
        400, num_features=8, num_classes=4, cluster_std=0.6, seed=1
    )
    rng = np.random.default_rng(1)
    shards = partition_dirichlet(
        data, num_agents, alpha=0.5, rng=rng, min_samples_per_agent=8
    ).shards
    net = make_linear_classifier(8, 4, seed=0)
    common = dict(
        learning_rate=0.1,
        sigma=0.1,
        clip_threshold=1.0,
        batch_size=16,
        seed=7,
        compression=compression,
    )
    if algorithm == "PDSL":
        config = PDSLConfig(momentum=0.5, shapley_permutations=2, **common)
        validation = data.sample(60, rng)
        return PDSL(net, topology, shards, config, validation=validation), data
    config = AlgorithmConfig(momentum=0.5, **common)
    return DMSGD(net, topology, shards, config), data


def run_history(algorithm, compression):
    instance, data = build(algorithm, compression)
    test = data.sample(80, np.random.default_rng(2))
    history = run_decentralized(
        instance,
        num_rounds=ROUNDS,
        evaluation=EvaluationConfig(eval_every=1, test_data=test),
    )
    return instance, history


def run_reference(algorithm, compression):
    instance, _ = build(algorithm, compression)
    for _ in range(ROUNDS):
        reference_round(instance)
    return instance


def assert_matches_reference(engine, reference):
    np.testing.assert_allclose(engine.state, reference.state, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(
        engine.momentum_state, reference.momentum_state, rtol=1e-9, atol=1e-12
    )
    # Error-feedback residuals are part of the trajectory too.
    engine_res = engine._compression_state._residuals
    reference_res = reference._compression_state._residuals
    assert sorted(engine_res) == sorted(reference_res)
    for channel in engine_res:
        np.testing.assert_allclose(
            engine_res[channel], reference_res[channel], rtol=1e-9, atol=1e-12
        )


#: The gossip exchange's tag (PDSL also exchanges dense models and
#: cross-gradients before it).
GOSSIP_TAG = {"DMSGD": "model", "PDSL": "mix"}


@pytest.mark.parametrize("compression", LOSSY_CODECS, ids=lambda c: c["codec"])
@pytest.mark.parametrize("algorithm", ["DMSGD", "PDSL"])
class TestCompressedReferenceEquivalence:
    """The blocked codec path must follow per-agent encoding (incl. tuple channels)."""

    def test_trajectories_match_reference(self, algorithm, compression):
        engine, _ = run_history(algorithm, compression)
        assert_matches_reference(engine, run_reference(algorithm, compression))

    def test_gossip_traffic_is_accounted_at_the_encoded_size(
        self, algorithm, compression
    ):
        engine, _ = run_history(algorithm, compression)
        values, wire_bytes = engine.gossip_wire_cost(engine.num_gossip_channels)
        messages = ROUNDS * engine.topology.num_directed_edges
        traffic = engine.network.traffic_summary()
        tag = GOSSIP_TAG[algorithm]
        assert traffic["traffic_by_tag"][tag] == messages * values
        assert traffic["bytes_by_tag"][tag] == messages * wire_bytes
        assert wire_bytes < 8 * engine.dimension * engine.num_gossip_channels


class TestCommunicationInterval:
    def test_interval_halves_gossip_traffic(self):
        every, _ = run_history("DMSGD", {"codec": "int8"})
        strided, _ = run_history(
            "DMSGD", {"codec": "int8", "communication_interval": 2}
        )
        # ROUNDS = 4: gossip fires on rounds 0 and 2 only — exactly half.
        assert strided.network.bytes_sent * 2 == every.network.bytes_sent
        assert strided.network.floats_sent * 2 == every.network.floats_sent

    def test_off_rounds_still_take_local_steps(self):
        instance, _ = build(compression={"codec": "identity", "communication_interval": 3})
        before = instance.state.copy()
        instance.run_round()  # round 0 gossips
        instance.run_round()  # round 1 is local-only
        assert not np.array_equal(instance.state, before)
        assert instance.gossip_now(0) and not instance.gossip_now(1)

    def test_interval_trajectory_matches_reference(self):
        compression = {"codec": "topk", "k": 3, "communication_interval": 2}
        engine, _ = run_history("DMSGD", compression)
        assert_matches_reference(engine, run_reference("DMSGD", compression))


class TestShiftOnePeerSelection:
    @pytest.mark.parametrize("num_agents", [4, 5, 8])
    def test_rotation_covers_every_pair_exactly_once(self, num_agents):
        schedule = ShiftOneSchedule(ring_graph(num_agents))
        n_even = num_agents + (num_agents % 2)
        assert schedule.period == n_even - 1
        seen = set()
        for round_index in range(schedule.period):
            pairs = schedule.pairs_at(round_index)
            flat = [agent for pair in pairs for agent in pair]
            assert len(flat) == len(set(flat))  # a matching: each agent once
            seen.update(pairs)
        # The circle method visits every unordered pair exactly once per period.
        expected = {
            (i, j) for i in range(num_agents) for j in range(i + 1, num_agents)
        }
        assert seen == expected

    def test_round_matrices_are_doubly_stochastic(self):
        schedule = ShiftOneSchedule(ring_graph(6))
        for round_index in range(schedule.period):
            topology = schedule.topology_at(round_index)
            w = topology.mixing_operator("dense").toarray()
            np.testing.assert_allclose(w.sum(axis=0), 1.0)
            np.testing.assert_allclose(w.sum(axis=1), 1.0)
            np.testing.assert_array_equal(w, w.T)

    def test_shift_one_matches_reference(self):
        compression = {"codec": "int8", "peer_selection": "shift_one"}
        engine, _ = run_history("DMSGD", compression)
        assert isinstance(engine.schedule, ShiftOneSchedule)
        assert_matches_reference(engine, run_reference("DMSGD", compression))
        # A matching: every active pair exchanges once each way per round.
        assert engine.network.messages_sent == sum(
            engine.schedule.topology_at(r).num_directed_edges for r in range(ROUNDS)
        )

    def test_shift_one_rejects_dynamic_topologies(self):
        topology = ring_graph(6)
        data = make_classification_dataset(200, num_features=8, num_classes=4, seed=0)
        shards = partition_dirichlet(
            data, 6, alpha=0.5, rng=np.random.default_rng(0), min_samples_per_agent=8
        ).shards
        config = AlgorithmConfig(
            sigma=0.1,
            batch_size=8,
            compression={"codec": "int8", "peer_selection": "shift_one"},
        )
        schedule = churn_schedule(topology, churn_rate=0.2, rejoin_rate=0.5, seed=0)
        with pytest.raises(ValueError, match="shift_one"):
            DMSGD(make_linear_classifier(8, 4, seed=0), schedule, shards, config)


class TestWireByteReduction:
    def test_topk_cuts_bytes_at_least_4x(self):
        dense, _ = run_history("DMSGD", None)
        # d = 8 * 4 + 4 = 36 -> k = d // 10 = 3: 36 B/message vs 288 B dense.
        topk, _ = run_history("DMSGD", {"codec": "topk"})
        assert dense.network.bytes_sent >= 4 * topk.network.bytes_sent
        # The float accounting (legacy metric) still reflects the sparsity.
        assert dense.network.floats_sent > topk.network.floats_sent


class TestSpecThreading:
    def test_compression_reaches_the_algorithm_config(self):
        from repro.experiments.harness import build_algorithm, build_experiment_components
        from repro.experiments.specs import fast_spec

        spec = fast_spec(
            num_agents=4,
            num_rounds=2,
            algorithms=["DMSGD"],
            compression={"codec": "topk", "k": 4, "communication_interval": 2},
        )
        components = build_experiment_components(spec)
        algorithm = build_algorithm("DMSGD", components)
        assert algorithm.compression_config.codec == "topk"
        assert algorithm.compression_config.k == 4
        assert algorithm.compression_config.communication_interval == 2
        assert algorithm.codec.describe() == "topk(k=4)"

    def test_spec_dict_roundtrip_preserves_compression(self):
        from repro.experiments.specs import fast_spec, spec_from_dict, spec_to_dict

        spec = fast_spec(compression={"codec": "int8"})
        payload = spec_to_dict(spec)
        assert payload["compression"] == {"codec": "int8"}
        assert spec_from_dict(payload) == spec

    def test_spec_rejects_invalid_compression(self):
        from repro.experiments.specs import fast_spec

        with pytest.raises(ValueError, match="codec must be one of"):
            fast_spec(compression={"codec": "bzip2"})
        with pytest.raises(ValueError, match="unknown"):
            fast_spec(compression={"codec": "topk", "sparsity": 2})

    def test_grid_override_can_sweep_compression(self):
        from repro.experiments.specs import ExperimentGrid, fast_spec

        grid = ExperimentGrid(
            base=fast_spec(algorithms=["DMSGD"]),
            overrides=[{}, {"compression": {"codec": "topk"}}],
        )
        jobs = grid.jobs()
        assert len(jobs) == 2
        assert jobs[0].spec.compression is None
        assert jobs[1].spec.compression == {"codec": "topk"}
