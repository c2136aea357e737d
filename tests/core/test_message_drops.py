"""Message loss on the round engine: per-exchange edge masks.

A lossy network (``drop_probability > 0``) draws one delivery flag per
message of every exchange (:meth:`Network.delivery_mask`), in the order of
the round topology's directed pairs.  Gossip mixes with the masked operator,
whose dropped weights stay on the receiver's diagonal, so a dropped message
must not shrink a model: with ``learning_rate = 0`` and ``sigma = 0`` only
gossip can move a model, which makes that contract directly observable.
These tests drive every algorithm through the real round loop.
"""

import numpy as np
import pytest

from repro.simulation.network import Network
from repro.simulation.runner import EvaluationConfig, run_decentralized
from repro.topology.hierarchical import hierarchical_graph

from tests.core.test_engine_equivalence import ALGORITHMS, build_algorithm

NUM_AGENTS = 5
ROUNDS = 3


def lossy(algorithm, drop_probability, seed=0):
    algorithm.network = Network(
        algorithm.num_agents,
        drop_probability=drop_probability,
        rng=np.random.default_rng(seed),
    )
    return algorithm


def gossip_only(name, **kwargs):
    """A fleet with lr=0, sigma=0 and distinct positive models.

    Only gossip can move a model.  The rows sit well away from zero so that
    a mix which loses weight (a contraction towards the origin) leaves the
    convex hull of its inputs.
    """
    algorithm, _ = build_algorithm(name, sigma=0.0, **kwargs)
    algorithm.config.learning_rate = 0.0
    rows = np.random.default_rng(3).uniform(5.0, 6.0, size=algorithm.state.shape)
    algorithm.state = rows
    return algorithm


def closed_neighbourhood(topology, agent, hops):
    members = {agent}
    for _ in range(hops):
        members |= {
            j for i in members for j in topology.neighbors(i, include_self=True)
        }
    return sorted(members)


@pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
class TestDroppedMessagesDoNotShrinkModels:
    def test_total_loss_leaves_models_untouched(self, algorithm_name):
        algorithm = lossy(gossip_only(algorithm_name, topology_name="ring"), 1.0)
        initial = algorithm.state.copy()
        # The same lossy fleet with every round off the communication
        # interval: the local update alone, no gossip at all.
        local_only = lossy(
            gossip_only(
                algorithm_name,
                topology_name="ring",
                compression={"communication_interval": 1000},
            ),
            1.0,
        )
        local_only.rounds_completed = 1
        for _ in range(ROUNDS):
            algorithm.run_round()
            local_only.run_round()
        assert algorithm.network.messages_dropped == algorithm.network.messages_sent
        np.testing.assert_array_equal(algorithm.state, initial)
        np.testing.assert_array_equal(local_only.state, initial)
        np.testing.assert_array_equal(
            algorithm.momentum_state, local_only.momentum_state
        )

    def test_partial_loss_keeps_models_in_the_convex_hull(self, algorithm_name):
        algorithm = lossy(gossip_only(algorithm_name, topology_name="ring"), 0.3)
        # MUFFLIATO gossips gossip_steps times per round, so its models mix
        # over that many hops.
        hops = getattr(algorithm.config, "gossip_steps", 1)
        for round_index in range(ROUNDS):
            inputs = algorithm.state.copy()
            algorithm.run_round()
            for agent in range(NUM_AGENTS):
                members = closed_neighbourhood(algorithm.topology, agent, hops)
                lower = inputs[members].min(axis=0)
                upper = inputs[members].max(axis=0)
                model = algorithm.state[agent]
                assert np.all(model >= lower - 1e-12), (round_index, agent)
                assert np.all(model <= upper + 1e-12), (round_index, agent)
        assert algorithm.network.messages_dropped > 0


@pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
class TestLossyRounds:
    def test_lossy_rounds_run_on_the_engine(self, algorithm_name):
        algorithm, test = build_algorithm(algorithm_name, "ring")
        lossy(algorithm, drop_probability=0.3)
        history = run_decentralized(
            algorithm,
            num_rounds=2,
            evaluation=EvaluationConfig(eval_every=1, test_data=test),
        )
        assert history.metadata["backend"] == "vectorized"
        assert algorithm.network.messages_sent > 0
        assert 0 < algorithm.network.messages_dropped < algorithm.network.messages_sent
        assert algorithm.network.pending(0) == 0
        assert np.isfinite(algorithm.state).all()
        assert len(history) == 2

    def test_fully_partitioned_network_still_completes_rounds(self, algorithm_name):
        # drop_probability = 1.0 (closed interval): every exchange is lost,
        # every agent is on its own, and the round loop must still make
        # progress without error.
        algorithm, _ = build_algorithm(algorithm_name, "ring")
        lossy(algorithm, drop_probability=1.0)
        run_decentralized(algorithm, num_rounds=2)
        assert algorithm.network.messages_dropped == algorithm.network.messages_sent
        assert np.isfinite(algorithm.state).all()

    def test_one_delivery_draw_per_message(self, algorithm_name):
        # Every accounted message gets exactly one flag from the drop
        # stream: tuple payloads share one mask per exchange, MUFFLIATO
        # draws one per gossip step, and only models that arrived are
        # answered with a cross-gradient message.
        algorithm, _ = build_algorithm(algorithm_name, "full")
        lossy(algorithm, drop_probability=0.4, seed=11)
        for _ in range(ROUNDS):
            algorithm.run_round()
        replay = np.random.default_rng(11)
        replay.random(algorithm.network.messages_sent)
        assert (
            algorithm.network.rng.bit_generator.state == replay.bit_generator.state
        )

    def test_zero_drop_probability_is_bit_identical(self, algorithm_name):
        reliable, _ = build_algorithm(algorithm_name, "ring")
        explicit, _ = build_algorithm(algorithm_name, "ring")
        explicit.network = Network(NUM_AGENTS, drop_probability=0.0)
        for _ in range(ROUNDS):
            reliable.run_round()
            explicit.run_round()
        np.testing.assert_array_equal(reliable.state, explicit.state)
        np.testing.assert_array_equal(reliable.momentum_state, explicit.momentum_state)
        assert explicit.network.messages_dropped == 0


class TestCrossGradientExchangeUnderLoss:
    @pytest.mark.parametrize("algorithm_name", ["PDSL", "DP-CGA"])
    def test_lost_models_are_never_answered(self, algorithm_name):
        algorithm, _ = build_algorithm(algorithm_name, "ring")
        lossy(algorithm, drop_probability=1.0)
        algorithm.run_round()
        traffic = algorithm.network.traffic_summary()["traffic_by_tag"]
        assert traffic["model"] > 0
        assert traffic.get("cross_grad", 0) == 0
        if algorithm_name == "PDSL":
            # Only the agent's own gradient entered its Shapley game.
            assert all(
                set(weights) == {agent}
                for agent, weights in enumerate(algorithm.last_weights)
            )

    def test_hierarchical_replies_split_by_tier(self):
        topology = hierarchical_graph(8, cluster_size=2, cluster_topology="ring")
        algorithm, _ = build_algorithm("PDSL", topology_factory=lambda: topology)
        lossy(algorithm, drop_probability=0.5, seed=4)
        algorithm.run_round()
        # Replay the model exchange's mask: each cross-gradient reply is
        # accounted on the tier of the channel its model arrived on.
        receivers, senders, _ = algorithm.mixing.directed_edges()
        arrived = np.random.default_rng(4).random(receivers.size) >= 0.5
        intra = receivers // 2 == senders // 2
        traffic = algorithm.network.traffic_summary()["traffic_by_tag"]
        d = algorithm.dimension
        assert traffic["model.intra"] == d * int(intra.sum())
        assert traffic["model.inter"] == d * int((~intra).sum())
        assert traffic["cross_grad.intra"] == d * int((arrived & intra).sum())
        assert traffic["cross_grad.inter"] == d * int((arrived & ~intra).sum())
