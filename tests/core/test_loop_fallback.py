"""End-to-end coverage of the lossy-network → loop-engine fallback.

``AlgorithmConfig.backend = "vectorized"`` is only an eligibility statement:
message drops exist solely as per-message events on the mailbox path, so a
network with ``drop_probability > 0`` must force every round onto the loop
engine regardless of the configured backend.  These tests drive that
fallback through the real round loop (``run_decentralized``) for every
algorithm, rather than only asserting the ``backend`` property.

A dropped message must not shrink a model: the loop engine mixes in the
form ``x_i + sum_received w_ij (x_j - x_i)``, so a lost neighbour's weight
stays on the diagonal.  With ``learning_rate = 0`` and ``sigma = 0`` only
gossip can move a model, which makes that contract directly observable.
"""

import logging

import numpy as np
import pytest

from repro.baselines import DPDPSGD
from repro.nn.layers import Dense, Dropout
from repro.nn.model import Sequential
from repro.simulation.network import Network
from repro.simulation.runner import EvaluationConfig, run_decentralized

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
    """A loop-engine fleet with lr=0, sigma=0 and distinct positive models.

    Only gossip can move a model.  The rows sit well away from zero so that
    a mix which loses weight (a contraction towards the origin) leaves the
    convex hull of its inputs.
    """
    algorithm, _ = build_algorithm(name, "loop", sigma=0.0, **kwargs)
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
class TestLossyNetworkFallback:
    def test_vectorized_config_runs_loop_rounds_under_drops(self, algorithm_name):
        algorithm, test = build_algorithm(algorithm_name, "vectorized", "ring")
        assert algorithm.backend == "vectorized"
        lossy(algorithm, drop_probability=0.3)
        assert algorithm.backend == "loop"
        history = run_decentralized(
            algorithm,
            num_rounds=2,
            evaluation=EvaluationConfig(eval_every=1, test_data=test),
        )
        # The loop path really carried the rounds: messages flowed through
        # the mailbox (the vectorized engine only records bulk traffic and
        # never drops anything), some were dropped, and the run stayed sane.
        assert history.metadata["backend"] == "loop"
        assert algorithm.network.messages_sent > 0
        assert algorithm.network.messages_dropped > 0
        assert np.isfinite(algorithm.state).all()
        assert len(history) == 2

    def test_fully_partitioned_network_still_completes_rounds(self, algorithm_name):
        # drop_probability = 1.0 (closed interval): every exchange is lost,
        # every agent is on its own, and the round loop must still make
        # progress without error.
        algorithm, _ = build_algorithm(algorithm_name, "vectorized", "ring")
        lossy(algorithm, drop_probability=1.0)
        assert algorithm.backend == "loop"
        run_decentralized(algorithm, num_rounds=2)
        assert algorithm.network.messages_dropped == algorithm.network.messages_sent
        assert algorithm.network.pending(0) == 0
        assert np.isfinite(algorithm.state).all()


class TestFallbackBoundary:
    def test_zero_drop_probability_keeps_the_vectorized_engine(self):
        algorithm, _ = build_algorithm("DMSGD", "vectorized", "ring")
        algorithm.network = Network(algorithm.num_agents, drop_probability=0.0)
        assert algorithm.backend == "vectorized"
        algorithm.run_round()
        # Bulk accounting only — nothing ever enters a mailbox.
        assert algorithm.network.messages_sent > 0
        assert algorithm.network.pending(0) == 0

    def test_fallback_reverses_when_the_network_heals(self):
        algorithm, _ = build_algorithm("DMSGD", "vectorized", "ring")
        lossy(algorithm, drop_probability=0.5)
        assert algorithm.backend == "loop"
        algorithm.network = Network(algorithm.num_agents)
        assert algorithm.backend == "vectorized"


class TestFallbackWarning:
    def test_drop_fallback_warns_once_and_names_the_cause(self, caplog):
        algorithm, _ = build_algorithm("DMSGD", "vectorized", "ring")
        lossy(algorithm, drop_probability=0.3)
        with caplog.at_level(logging.WARNING, logger="repro"):
            history = run_decentralized(algorithm, num_rounds=2)
        assert history.metadata["backend"] == "loop"
        warnings = [r for r in caplog.records if r.name.startswith("repro")]
        assert len(warnings) == 1
        assert warnings[0].levelno == logging.WARNING
        assert "loop engine" in warnings[0].getMessage()
        assert "drop probability 0.3" in warnings[0].getMessage()

    def test_dropout_fallback_names_the_model(self, caplog):
        template, _ = build_algorithm("DP-DPSGD", "vectorized", "ring")
        rng = np.random.default_rng(0)
        model = Sequential([Dense(8, 4, rng), Dropout(0.5, rng)])
        algorithm = DPDPSGD(model, template.topology, template.shards, template.config)
        with caplog.at_level(logging.WARNING, logger="repro"):
            run_decentralized(algorithm, num_rounds=1)
        messages = [
            r.getMessage() for r in caplog.records if r.name.startswith("repro")
        ]
        assert len(messages) == 1
        assert "dropout" in messages[0]

    @pytest.mark.parametrize("backend", ["vectorized", "loop"])
    def test_no_warning_without_a_fallback(self, caplog, backend):
        algorithm, _ = build_algorithm("DMSGD", backend, "ring")
        with caplog.at_level(logging.WARNING, logger="repro"):
            run_decentralized(algorithm, num_rounds=1)
        assert not [r for r in caplog.records if r.name.startswith("repro")]
