"""Knob fuzz: every drawn configuration is rejected at parse time or runs sanely.

Hypothesis draws one value per knob family — algorithm, topology,
dynamics, compression, dtype, ``block_rows``, storage, ``block_workers``,
time model and the network's drop probability — and builds an
:class:`~repro.experiments.specs.ExperimentSpec` from them.  A conflicting
combination must fail when the spec is constructed, not inside a worker
mid-campaign.  Every accepted one must run 2 rounds with finite state, a
monotone privacy accountant, non-negative traffic counters, and a
checkpoint after round 1 that resumes bit-identically.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.compression.config import CODEC_NAMES
from repro.experiments.harness import build_algorithm, build_experiment_components
from repro.experiments.specs import ExperimentSpec
from repro.simulation.network import Network
from repro.simulation.runner import RunSession

ALGORITHMS = ["DP-DPSGD", "DMSGD", "MUFFLIATO", "DP-CGA", "DP-NET-FLEET", "PDSL"]

dynamics = st.one_of(
    st.none(),
    st.fixed_dictionaries(
        {},
        optional={
            "rewire_every": st.sampled_from([1, 2]),
            "churn_rate": st.sampled_from([0.0, 0.3]),
            "rejoin_rate": st.sampled_from([0.5, 1.0]),
            "straggler_fraction": st.sampled_from([0.0, 0.25]),
            "edge_failure_rate": st.sampled_from([0.0, 0.2]),
            "seed": st.integers(0, 3),
        },
    ),
)

compression = st.one_of(
    st.none(),
    st.fixed_dictionaries(
        {"codec": st.sampled_from(CODEC_NAMES)},
        optional={
            "k": st.integers(1, 6),
            "communication_interval": st.integers(1, 3),
            "peer_selection": st.sampled_from(["all", "shift_one"]),
            "error_feedback": st.booleans(),
        },
    ),
)

time_model = st.sampled_from(
    [
        None,
        {"traces": "uniform"},
        {"traces": {"kind": "synthetic", "seed": 3}},
        {"async": True},
        {"traces": {"kind": "synthetic", "seed": 3}, "async": True, "staleness_decay": 0.5},
    ]
)

knobs = st.fixed_dictionaries(
    {
        "algorithm": st.sampled_from(ALGORITHMS),
        "num_agents": st.sampled_from([4, 6, 9]),
        "topology": st.sampled_from(
            ["ring", "fully_connected", "bipartite", "hierarchical", "torus"]
        ),
        "dynamics": dynamics,
        "compression": compression,
        "dtype": st.sampled_from(["float64", "float32", "mixed"]),
        "block_rows": st.sampled_from([None, 1, 3]),
        "storage": st.sampled_from(["ram", "memmap"]),
        "block_workers": st.sampled_from([1, 2]),
        "time_model": time_model,
        "drop_probability": st.sampled_from([0.0, 0.3, 1.0]),
    }
)


def make_spec(draw):
    return ExperimentSpec(
        name="fuzz",
        dataset="classification",
        model="linear",
        num_agents=draw["num_agents"],
        topology=draw["topology"],
        epsilon=0.5,
        learning_rate=0.05,
        momentum=0.5,
        batch_size=8,
        num_rounds=2,
        train_samples=240,
        validation_samples=30,
        test_samples=30,
        num_classes=3,
        num_features=6,
        shapley_permutations=2,
        algorithms=[draw["algorithm"]],
        dynamics=draw["dynamics"],
        compression=draw["compression"],
        dtype=draw["dtype"],
        block_rows=draw["block_rows"],
        block_workers=draw["block_workers"],
        storage=draw["storage"],
        time_model=draw["time_model"],
    )


def fleet_bytes(algorithm):
    matrices = [algorithm.state, algorithm.momentum_state]
    if hasattr(algorithm, "tracking_state"):
        matrices += [algorithm.tracking_state, algorithm.previous_gradient_state]
    return [np.ascontiguousarray(matrix).tobytes() for matrix in matrices]


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(knobs)
def test_knob_combinations_parse_or_run_sanely(draw):
    try:
        spec = make_spec(draw)
    except ValueError:
        event("rejected at parse time")
        return
    event("ran")
    components = build_experiment_components(spec)

    def build():
        algorithm = build_algorithm(spec.algorithms[0], components)
        if draw["drop_probability"] > 0.0:
            inner = getattr(algorithm, "algorithm", algorithm)
            inner.network = Network(
                inner.num_agents,
                drop_probability=draw["drop_probability"],
                rng=np.random.default_rng(1),
            )
        return algorithm

    straight = build()
    RunSession(straight, 2).run()

    interrupted = build()
    session = RunSession(interrupted, 2)
    session.run(max_rounds=1)
    spent_after_one = interrupted.privacy_spent()
    with tempfile.TemporaryDirectory() as workdir:
        path = session.checkpoint(Path(workdir) / "fuzz.ckpt")
        resumed = build()
        RunSession.resume(resumed, path).run()

    assert np.isfinite(np.asarray(straight.state)).all()
    spent = straight.privacy_spent()
    assert spent[0] >= spent_after_one[0] >= 0.0
    assert spent[1] >= spent_after_one[1] >= 0.0
    traffic = straight.network.traffic_summary()
    for key in (
        "messages_sent",
        "messages_dropped",
        "messages_rejected",
        "floats_sent",
        "bytes_sent",
        "messages_arrived",
        "latency_seconds_total",
    ):
        assert traffic[key] >= 0, key
    assert traffic["messages_dropped"] <= traffic["messages_sent"]
    assert fleet_bytes(resumed) == fleet_bytes(straight)
    assert resumed.network.traffic_summary() == traffic
    for algorithm in (straight, interrupted, resumed):
        algorithm.close()
