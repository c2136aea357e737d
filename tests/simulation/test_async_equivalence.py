"""The event-driven time model is a strict generalization, not a fork.

The load-bearing anchor: with uniform unit traces and synchronous barriers
the :class:`~repro.simulation.events.engine.AsyncEngine` must reproduce the
existing vectorized engine **bit-identically** — every recorded loss,
accuracy and consensus value, the final fleet state, and the traffic
counters — for all six algorithms, on static and dynamic topologies.  The
timing machinery runs (simulated clock, latency accounting, utilization)
but consumes no algorithm randomness, so the trajectories cannot drift.

On top of that baseline: simulated wall-clock lands in the history,
heterogeneous traces stretch it by the slowest device, async mode trains on
per-agent clocks with gossip-on-arrival, and both modes checkpoint/resume
mid-queue bit-identically.
"""

import numpy as np
import pytest

from repro.simulation.events import (
    AsyncEngine,
    DeviceTrace,
    synthetic_traces,
    uniform_traces,
)
from repro.simulation.metrics import histories_equal
from repro.simulation.runner import EvaluationConfig, RunSession, run_decentralized
from repro.topology.graphs import ring_graph
from repro.topology.schedule import DynamicTopologySchedule
from tests.conftest import _small_fleet_algorithms

ROUNDS = 3

#: Traffic keys that must match bitwise between bare and engine-wrapped runs
#: (the latency counters legitimately differ: only the engine observes time).
TRAFFIC_KEYS = (
    "messages_sent",
    "messages_dropped",
    "messages_rejected",
    "floats_sent",
    "bytes_sent",
    "traffic_by_tag",
    "bytes_by_tag",
)


def dynamic_schedule():
    return DynamicTopologySchedule(
        ring_graph(6),
        rewire_every=2,
        churn_rate=0.25,
        rejoin_rate=0.5,
        straggler_fraction=0.2,
        edge_failure_rate=0.1,
        seed=3,
    )


def run_pair(make_small_fleet, name, topology_factory=None, rounds=ROUNDS):
    """One bare run and one engine-wrapped run of identically built fleets."""
    results = []
    for wrap in (False, True):
        topology = topology_factory() if topology_factory else None
        algorithm, test = make_small_fleet(name, topology=topology)
        if wrap:
            algorithm = AsyncEngine(algorithm, traces=uniform_traces(algorithm.num_agents))
        history = run_decentralized(
            algorithm,
            num_rounds=rounds,
            evaluation=EvaluationConfig(eval_every=1, test_data=test),
        )
        results.append((algorithm, history))
    return results


def assert_records_bit_identical(bare_history, engine_history):
    assert len(bare_history) == len(engine_history)
    for bare, wrapped in zip(bare_history.records, engine_history.records):
        assert bare.round == wrapped.round
        assert bare.average_train_loss == wrapped.average_train_loss
        assert bare.test_accuracy == wrapped.test_accuracy
        assert bare.consensus == wrapped.consensus
        assert bare.active_agents == wrapped.active_agents
        assert bare.topology_events == wrapped.topology_events
    assert bare_history.final_test_accuracy == engine_history.final_test_accuracy


@pytest.mark.parametrize("algorithm_name", sorted(_small_fleet_algorithms()))
class TestUniformTraceBitIdentity:
    """The acceptance anchor: uniform unit traces reproduce the bare engine."""

    def test_static_topology(self, make_small_fleet, algorithm_name):
        (bare, bare_history), (engine, engine_history) = run_pair(
            make_small_fleet, algorithm_name
        )
        assert_records_bit_identical(bare_history, engine_history)
        np.testing.assert_array_equal(bare.state, engine.state)
        np.testing.assert_array_equal(bare.momentum_state, engine.momentum_state)
        bare_traffic = bare.network.traffic_summary()
        engine_traffic = engine.network.traffic_summary()
        for key in TRAFFIC_KEYS:
            assert bare_traffic[key] == engine_traffic[key], key
        # Only the engine-wrapped run observes simulated time: unit traces
        # make every round exactly one simulated second at full utilization.
        assert [r.sim_seconds for r in bare_history.records] == [None] * ROUNDS
        assert [r.sim_seconds for r in engine_history.records] == [1.0] * ROUNDS
        assert [r.utilization for r in engine_history.records] == [1.0] * ROUNDS
        assert engine_history.total_sim_seconds() == float(ROUNDS)
        assert engine_history.metadata["time_model"] == {
            "async": False,
            "staleness_decay": 0.0,
            "traces": "uniform",
        }

    def test_dynamic_topology(self, make_small_fleet, algorithm_name):
        (bare, bare_history), (engine, engine_history) = run_pair(
            make_small_fleet, algorithm_name, topology_factory=dynamic_schedule
        )
        assert_records_bit_identical(bare_history, engine_history)
        np.testing.assert_array_equal(bare.state, engine.state)
        bare_traffic = bare.network.traffic_summary()
        engine_traffic = engine.network.traffic_summary()
        for key in TRAFFIC_KEYS:
            assert bare_traffic[key] == engine_traffic[key], key


class TestBarrierTiming:
    """Simulated timing under barrier mode, beyond the unit-trace baseline."""

    def test_round_duration_is_set_by_the_slowest_path(self, make_small_fleet):
        algorithm, _ = make_small_fleet("DMSGD")
        traces = [
            DeviceTrace(compute_seconds=1.0 + agent, latency_seconds=0.25)
            for agent in range(algorithm.num_agents)
        ]
        engine = AsyncEngine(algorithm, traces=traces)
        engine.run_round()
        # Slowest agent finishes at t=5; its broadcast lands 0.25s later.
        assert engine.simulated_time == pytest.approx(5.25)
        assert engine.mean_utilization() < 1.0
        assert engine.network.messages_arrived == engine.network.messages_sent
        assert engine.network.latency_seconds_total > 0

    def test_two_channel_algorithms_pay_full_wire_time(self, make_small_fleet):
        # PDSL and DP-NET-FLEET ship (momentum/tracking, model) pairs per
        # message; the simulated transfer must be sized at both channels,
        # not the single-channel payload.
        bandwidth = 1e4
        durations = {}
        for name in ("DMSGD", "PDSL"):
            algorithm, _ = make_small_fleet(name)
            engine = AsyncEngine(
                algorithm,
                traces=uniform_traces(
                    algorithm.num_agents, bandwidth_bytes_per_s=bandwidth
                ),
            )
            engine.run_round()
            _, wire_bytes = algorithm.gossip_wire_cost(algorithm.num_gossip_channels)
            assert engine.simulated_time == pytest.approx(1.0 + wire_bytes / bandwidth)
            durations[name] = engine.simulated_time
        # Same model dimension, so PDSL's two channels serialize exactly
        # twice DMSGD's single-channel payload.
        assert durations["PDSL"] - 1.0 == pytest.approx(
            2.0 * (durations["DMSGD"] - 1.0)
        )

    def test_latency_is_tagged_per_arrival(self, make_small_fleet):
        algorithm, _ = make_small_fleet("DP-DPSGD")
        engine = AsyncEngine(
            algorithm,
            traces=uniform_traces(algorithm.num_agents, latency_seconds=0.5),
        )
        engine.run_round()
        arrived = engine.network.messages_arrived
        assert arrived == engine.network.messages_sent
        assert engine.network.latency_seconds_total == pytest.approx(0.5 * arrived)
        assert engine.network.latency_by_tag["model"] == pytest.approx(0.5 * arrived)

    def test_barrier_checkpoint_resume_is_bit_identical(self, make_small_fleet, tmp_path):
        def build():
            algorithm, test = make_small_fleet("DMSGD")
            return (
                AsyncEngine(algorithm, traces=uniform_traces(algorithm.num_agents)),
                test,
            )

        straight, test = build()
        full = RunSession(
            straight, 6, evaluation=EvaluationConfig(eval_every=1, test_data=test)
        ).run()
        interrupted, test = build()
        session = RunSession(
            interrupted, 6, evaluation=EvaluationConfig(eval_every=1, test_data=test)
        )
        session.run(max_rounds=3)
        path = session.checkpoint(tmp_path / "barrier.ckpt")
        resumed_engine, test = build()
        resumed = RunSession.resume(
            resumed_engine,
            path,
            evaluation=EvaluationConfig(eval_every=1, test_data=test),
        ).run()
        assert histories_equal(full, resumed)
        np.testing.assert_array_equal(straight.state, resumed_engine.state)
        assert straight.simulated_time == resumed_engine.simulated_time


class TestAsyncMode:
    """Genuine event-driven execution: per-agent clocks, gossip on arrival."""

    def build(self, make_small_fleet, name="DMSGD", staleness_decay=0.0, seed=3):
        algorithm, test = make_small_fleet(name)
        engine = AsyncEngine(
            algorithm,
            traces=synthetic_traces(algorithm.num_agents, seed=seed),
            async_mode=True,
            staleness_decay=staleness_decay,
        )
        return engine, test

    def test_history_records_simulated_wall_clock(self, make_small_fleet):
        engine, test = self.build(make_small_fleet)
        history = run_decentralized(
            engine,
            num_rounds=4,
            evaluation=EvaluationConfig(eval_every=1, test_data=test),
        )
        sims = [r.sim_seconds for r in history.records]
        assert all(s is not None and s > 0 for s in sims)
        assert history.total_sim_seconds() == pytest.approx(engine.simulated_time)
        assert all(0 < r.utilization <= 1 for r in history.records)
        assert history.metadata["backend"] == "event-async"
        assert history.metadata["time_model"]["async"] is True
        assert history.metadata["time_model"]["traces"] == "heterogeneous"
        assert np.isfinite(history.losses).all()
        # Training actually converges under async gossip.
        assert history.losses[-1] < history.losses[0]

    def test_async_runs_are_deterministic(self, make_small_fleet):
        histories = []
        for _ in range(2):
            engine, test = self.build(make_small_fleet)
            histories.append(
                run_decentralized(
                    engine,
                    num_rounds=3,
                    evaluation=EvaluationConfig(eval_every=1, test_data=test),
                )
            )
        assert histories[0].losses == histories[1].losses
        assert histories[0].sim_seconds_per_record == histories[1].sim_seconds_per_record

    def test_staleness_decay_changes_mixing_but_not_timing(self, make_small_fleet):
        plain, _ = self.build(make_small_fleet)
        decayed, _ = self.build(make_small_fleet, staleness_decay=2.0)
        for _ in range(3):
            plain.run_round()
            decayed.run_round()
        assert plain.simulated_time == decayed.simulated_time
        assert not np.array_equal(plain.state, decayed.state)

    def test_async_checkpoint_resume_mid_queue_is_bit_identical(
        self, make_small_fleet, tmp_path
    ):
        straight, test = self.build(make_small_fleet)
        evaluation = EvaluationConfig(eval_every=1, test_data=test)
        full = RunSession(straight, 6, evaluation=evaluation).run()
        interrupted, test = self.build(make_small_fleet)
        session = RunSession(interrupted, 6, evaluation=evaluation)
        session.run(max_rounds=3)
        # Mid-run the queue holds in-flight arrivals and staggered compute
        # completions — the checkpoint must carry all of them.
        assert len(interrupted.queue) > 0
        path = session.checkpoint(tmp_path / "async.ckpt")
        resumed_engine, test = self.build(make_small_fleet)
        resumed = RunSession.resume(resumed_engine, path, evaluation=evaluation).run()
        assert histories_equal(full, resumed)
        np.testing.assert_array_equal(straight.state, resumed_engine.state)
        assert straight.simulated_time == resumed_engine.simulated_time
        assert straight.events_processed == resumed_engine.events_processed
        summary_a = straight.network.traffic_summary()
        summary_b = resumed_engine.network.traffic_summary()
        assert summary_a == summary_b

    def test_privacy_accounting_covers_the_fastest_agent(self, make_small_fleet):
        # Each completed local step is a separate privatized release.  With
        # a 2x-faster agent the accountant must compose over that agent's
        # step count — one event per round would understate its budget.
        algorithm, _ = make_small_fleet("DMSGD", sigma=None, epsilon=1.0, delta=1e-5)
        traces = [
            DeviceTrace(compute_seconds=0.5 if agent == 0 else 1.0)
            for agent in range(algorithm.num_agents)
        ]
        engine = AsyncEngine(algorithm, traces=traces, async_mode=True)
        rounds = 3
        for _ in range(rounds):
            engine.run_round()
        steps_done = engine.state_dict()["time_model"]["steps_done"]
        assert max(steps_done) > rounds  # the fast agent really ran ahead
        assert len(algorithm.accountant.events) == max(steps_done)

    def test_async_mode_rejects_incompatible_configurations(self, make_small_fleet):
        dynamic, _ = make_small_fleet("DMSGD", topology=dynamic_schedule())
        with pytest.raises(ValueError, match="static topology"):
            AsyncEngine(dynamic, async_mode=True)
        compressed, _ = make_small_fleet(
            "DMSGD", compression={"codec": "topk", "k": 4}
        )
        with pytest.raises(ValueError, match="identity codec"):
            AsyncEngine(compressed, async_mode=True)
        strided, _ = make_small_fleet(
            "DMSGD", compression={"codec": "identity", "communication_interval": 2}
        )
        with pytest.raises(ValueError, match="communication_interval"):
            AsyncEngine(strided, async_mode=True)
        matched, _ = make_small_fleet(
            "DMSGD", compression={"peer_selection": "shift_one"}
        )
        with pytest.raises(ValueError, match="shift_one"):
            AsyncEngine(matched, async_mode=True)

    @pytest.mark.parametrize("name", ["PDSL", "DP-CGA", "MUFFLIATO", "DP-NET-FLEET"])
    def test_async_mode_rejects_algorithms_without_an_async_rule(
        self, make_small_fleet, name
    ):
        algorithm, _ = make_small_fleet(name)
        with pytest.raises(ValueError, match="async mode runs a momentum-SGD"):
            AsyncEngine(algorithm, async_mode=True)
        # Barrier mode keeps the algorithm's own synchronous round.
        AsyncEngine(algorithm, async_mode=False).run_round()

    def test_async_mode_accepts_dp_dpsgd(self, make_small_fleet):
        algorithm, _ = make_small_fleet("DP-DPSGD")
        engine = AsyncEngine(algorithm, async_mode=True)
        engine.run_round()
        assert np.isfinite(algorithm.state).all()

    @pytest.mark.parametrize("name", ["DP-DPSGD", "D-PSGD"])
    def test_async_mode_rejects_momentum_for_plain_sgd_rules(
        self, make_small_fleet, name
    ):
        from repro.baselines import DPDPSGD, DPSGDNonPrivate

        base, _ = make_small_fleet("DP-DPSGD", momentum=0.9)
        cls = DPDPSGD if name == "DP-DPSGD" else DPSGDNonPrivate
        algorithm = cls(base.model, base.topology, base.shards, base.config)
        assert algorithm.name == name
        with pytest.raises(ValueError, match="only at momentum 0"):
            AsyncEngine(algorithm, async_mode=True)
        # DMSGD's rule is momentum SGD, so its momentum is honoured.
        dmsgd, _ = make_small_fleet("DMSGD", momentum=0.9)
        AsyncEngine(dmsgd, async_mode=True).run_round()


class TestEngineWrapperContract:
    """The wrapper must be drivable anywhere a bare algorithm is."""

    def test_attribute_proxying(self, make_small_fleet):
        algorithm, _ = make_small_fleet("PDSL")
        engine = AsyncEngine(algorithm)
        assert engine.name == algorithm.name
        assert engine.num_agents == algorithm.num_agents
        assert engine.backend == algorithm.backend
        assert engine.algorithm is algorithm

    def test_trace_count_must_match_fleet(self, make_small_fleet):
        algorithm, _ = make_small_fleet("DMSGD")
        with pytest.raises(ValueError, match="device traces"):
            AsyncEngine(algorithm, traces=uniform_traces(3))

    def test_load_state_dict_rejects_bare_checkpoints(self, make_small_fleet):
        algorithm, _ = make_small_fleet("DMSGD")
        bare_state = algorithm.state_dict()
        engine = AsyncEngine(algorithm)
        with pytest.raises(ValueError, match="time-model state"):
            engine.load_state_dict(bare_state)

    def test_load_state_dict_rejects_mode_mismatch(self, make_small_fleet):
        algorithm, _ = make_small_fleet("DMSGD")
        engine = AsyncEngine(algorithm)
        engine.run_round()
        state = engine.state_dict()
        other, _ = make_small_fleet("DMSGD")
        async_engine = AsyncEngine(other, async_mode=True)
        with pytest.raises(ValueError, match="barrier mode"):
            async_engine.load_state_dict(state)


class TestSpecIntegration:
    """``ExperimentSpec.time_model`` reaches the engine through the harness."""

    def test_harness_wraps_and_records_simulated_time(self):
        from repro.experiments.harness import (
            build_algorithm,
            build_experiment_components,
            run_single,
        )
        from repro.experiments.specs import fast_spec

        spec = fast_spec(num_agents=4, num_rounds=2, algorithms=["DMSGD"])
        spec = spec.with_updates(time_model={"traces": "uniform"})
        components = build_experiment_components(spec)
        algorithm = build_algorithm("DMSGD", components)
        assert isinstance(algorithm, AsyncEngine)
        history = run_single("DMSGD", components)
        assert [r.sim_seconds for r in history.records] == [1.0, 1.0]
        assert history.metadata["time_model"]["traces"] == "uniform"

    def test_time_model_empty_mapping_gets_default_engine(self):
        # A mapping — even an empty one — means "run on simulated time";
        # only None keeps the bare algorithm.
        from repro.experiments.harness import (
            build_algorithm,
            build_experiment_components,
        )
        from repro.experiments.specs import fast_spec

        spec = fast_spec(num_agents=4, num_rounds=2, algorithms=["DMSGD"])
        spec = spec.with_updates(time_model={})
        components = build_experiment_components(spec)
        algorithm = build_algorithm("DMSGD", components)
        assert isinstance(algorithm, AsyncEngine)
        assert algorithm.async_mode is False
        assert algorithm.traces == uniform_traces(algorithm.num_agents)

    def test_time_model_none_keeps_the_bare_algorithm(self):
        from repro.experiments.harness import (
            build_algorithm,
            build_experiment_components,
        )
        from repro.experiments.specs import fast_spec

        spec = fast_spec(num_agents=4, num_rounds=2, algorithms=["DMSGD"])
        components = build_experiment_components(spec)
        algorithm = build_algorithm("DMSGD", components)
        assert not isinstance(algorithm, AsyncEngine)
