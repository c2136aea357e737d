"""The streamed round pipeline: bit-identity, parallel blocks, checkpoints.

The round engine always runs the round as a pipeline over row blocks;
``block_rows`` only sizes the blocks (``None`` is the auto size, one block
for these fleets), ``storage="memmap"`` moves the fleet matrices to disk and
``block_workers > 1`` runs blocks on threads.  Every per-agent random stream
is pre-split and consumed once per round per agent, every kernel is
row-wise, and parallel blocks touch disjoint rows — so every combination
must equal the default ``block_rows=None`` run **bit for bit**, for every
algorithm, dropout models included.  These tests pin that contract, the
agreement with the per-agent reference round (``tests/reference_rounds.py``),
plus the
scheduler's lifecycle and cross-mode checkpointing (a run started with small
memmap blocks resumes in RAM at the default size and vice versa).
"""

import numpy as np
import pytest

from repro.baselines import DMSGD, DPCGA, DPDPSGD, DPNetFleet, Muffliato
from repro.core.base import LazySeededRngs
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
from repro.nn.layers import Dense, Dropout, ReLU
from repro.nn.model import Sequential
from repro.nn.zoo import make_linear_classifier
from repro.sharding import RoundScheduler
from repro.simulation.runner import RunSession
from repro.topology.graphs import ring_graph

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


def dropout_mlp():
    """An MLP with a dropout layer: not stackable, draws masks from its own rng."""
    rng = np.random.default_rng(0)
    return Sequential(
        [Dense(8, 16, rng), ReLU(), Dropout(0.3, np.random.default_rng(5)), Dense(16, 4, rng)]
    )


def build_algorithm(name, model=None, **config_overrides):
    cls, config_cls, extra = ALGORITHMS[name]
    topology = ring_graph(NUM_AGENTS)
    data = make_classification_dataset(
        400, num_features=8, num_classes=4, cluster_std=0.6, seed=1
    )
    shards = partition_dirichlet(
        data, NUM_AGENTS, alpha=0.5, rng=np.random.default_rng(1),
        min_samples_per_agent=8,
    ).shards
    validation = data.sample(60, np.random.default_rng(1))
    net = make_linear_classifier(8, 4, seed=0) if model is None else model()
    config = config_cls(
        learning_rate=0.1,
        sigma=0.1,
        clip_threshold=1.0,
        batch_size=16,
        seed=7,
        **{**extra, **config_overrides},
    )
    if cls is PDSL:
        return cls(net, topology, shards, config, validation=validation)
    return cls(net, topology, shards, config)


def run_rounds(name, rounds=ROUNDS, reference=False, **overrides):
    algorithm = build_algorithm(name, **overrides)
    for round_index in range(rounds):
        if reference:
            reference_round(algorithm)
        else:
            algorithm.step(round_index)
    state = np.array(algorithm.state)
    momentum = np.array(algorithm.momentum_state)
    algorithm.close()
    return state, momentum


@pytest.fixture(scope="module")
def default_baselines():
    """Default (``block_rows=None``) vectorized trajectories, once per algorithm."""
    return {name: run_rounds(name) for name in ALGORITHMS}


class TestStreamedBitIdentity:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    @pytest.mark.parametrize("block_rows", [None, 1, 2, NUM_AGENTS])
    @pytest.mark.parametrize(
        "block_workers,storage",
        [(1, "ram"), (2, "memmap")],
        ids=["serial-ram", "workers2-memmap"],
    )
    def test_block_layout_matches_default(
        self, name, block_rows, block_workers, storage, default_baselines
    ):
        state, momentum = run_rounds(
            name, block_rows=block_rows, block_workers=block_workers, storage=storage
        )
        np.testing.assert_array_equal(state, default_baselines[name][0])
        np.testing.assert_array_equal(momentum, default_baselines[name][1])

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_parallel_blocks_match_serial(self, name, default_baselines):
        state, momentum = run_rounds(name, block_rows=2, block_workers=4)
        np.testing.assert_array_equal(state, default_baselines[name][0])
        np.testing.assert_array_equal(momentum, default_baselines[name][1])

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_memmap_storage_matches_default(self, name, default_baselines):
        state, momentum = run_rounds(
            name, block_rows=2, storage="memmap", block_workers=4
        )
        np.testing.assert_array_equal(state, default_baselines[name][0])
        np.testing.assert_array_equal(momentum, default_baselines[name][1])

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_streamed_blocks_match_reference(self, name):
        expected_state, expected_momentum = run_rounds(name, reference=True)
        state, momentum = run_rounds(name, block_rows=2, storage="memmap")
        np.testing.assert_allclose(state, expected_state, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(momentum, expected_momentum, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    @pytest.mark.parametrize(
        "layout",
        [{"block_rows": 1}, {"block_rows": 2, "block_workers": 2}],
        ids=["rows1", "rows2-workers2"],
    )
    def test_dropout_model_block_layout_matches_default(self, name, layout):
        base_state, base_momentum = run_rounds(name, model=dropout_mlp)
        state, momentum = run_rounds(name, model=dropout_mlp, **layout)
        np.testing.assert_array_equal(state, base_state)
        np.testing.assert_array_equal(momentum, base_momentum)

    @pytest.mark.parametrize(
        "compression",
        [
            {"codec": "topk", "k": 5, "communication_interval": 2},
            {"codec": "fp16"},
        ],
        ids=["topk-interval", "fp16"],
    )
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_compressed_gossip_streams_identically(self, name, compression):
        base_state, base_momentum = run_rounds(name, compression=compression)
        state, momentum = run_rounds(
            name,
            compression=compression,
            block_rows=2,
            storage="memmap",
            block_workers=4,
        )
        np.testing.assert_array_equal(state, base_state)
        np.testing.assert_array_equal(momentum, base_momentum)

    @pytest.mark.parametrize("name", ["DP-DPSGD", "MUFFLIATO", "PDSL"])
    def test_float32_state_streams_identically(self, name):
        base_state, base_momentum = run_rounds(name, dtype="float32")
        state, momentum = run_rounds(name, dtype="float32", block_rows=2)
        np.testing.assert_array_equal(state, base_state)
        np.testing.assert_array_equal(momentum, base_momentum)
        assert state.dtype == np.float32


class TestCrossModeCheckpoint:
    @pytest.mark.parametrize("name", ["DP-DPSGD", "DP-NET-FLEET", "PDSL"])
    @pytest.mark.parametrize(
        "save_kwargs,resume_kwargs",
        [
            ({"block_rows": 2, "storage": "memmap"}, {}),
            ({}, {"block_rows": 2, "storage": "memmap"}),
        ],
        ids=["memmap-blocks-to-default", "default-to-memmap-blocks"],
    )
    def test_resume_across_modes_is_bit_identical(
        self, tmp_path, name, save_kwargs, resume_kwargs
    ):
        reference = build_algorithm(name)
        RunSession(reference, num_rounds=4).run()
        expected = np.array(reference.state)
        reference.close()

        first = build_algorithm(name, **save_kwargs)
        session = RunSession(
            first,
            num_rounds=4,
            checkpoint_every=2,
            checkpoint_dir=tmp_path,
            out_of_core=True,
        )
        session.run(max_rounds=2)
        checkpoint = session.checkpoint()
        first.close()

        second = build_algorithm(name, **resume_kwargs)
        RunSession.resume(second, checkpoint, out_of_core=True).run()
        np.testing.assert_array_equal(np.array(second.state), expected)
        second.close()


class TestRoundScheduler:
    def test_serial_runs_inline(self):
        with RoundScheduler(1) as scheduler:
            assert not scheduler.parallel
            results = scheduler.map(lambda a, b: (a, b), [(0, 2), (2, 5)])
        assert results == [(0, 2), (2, 5)]

    def test_parallel_preserves_block_order(self):
        with RoundScheduler(4) as scheduler:
            assert scheduler.parallel
            blocks = [(i, i + 1) for i in range(32)]
            results = scheduler.map(lambda a, b: a * 10 + b, blocks)
        assert results == [a * 10 + b for a, b in blocks]

    def test_serial_flag_forces_inline_execution(self):
        import threading

        seen = []
        with RoundScheduler(4) as scheduler:
            scheduler.map(
                lambda a, b: seen.append(threading.current_thread().name),
                [(0, 1), (1, 2)],
                serial=True,
            )
        assert all(name == threading.main_thread().name for name in seen)

    def test_worker_error_propagates(self):
        def boom(start, stop):
            if start == 1:
                raise RuntimeError("block failed")
            return start

        with RoundScheduler(4) as scheduler:
            with pytest.raises(RuntimeError, match="block failed"):
                scheduler.map(boom, [(0, 1), (1, 2), (2, 3)])

    def test_close_is_idempotent(self):
        scheduler = RoundScheduler(2)
        scheduler.map(lambda a, b: a, [(0, 1)])
        scheduler.close()
        scheduler.close()


class TestLazySeededRngs:
    def test_streams_match_eager_generators(self):
        seeds = np.random.default_rng(0).integers(0, 2**63 - 1, size=8)
        lazy = LazySeededRngs(seeds)
        assert len(lazy) == 8
        for index, seed in enumerate(seeds):
            expected = np.random.default_rng(int(seed)).normal(size=4)
            np.testing.assert_array_equal(lazy[index].normal(size=4), expected)

    def test_generators_cached_and_stateful(self):
        seeds = np.arange(3, dtype=np.int64)
        lazy = LazySeededRngs(seeds)
        generator = lazy[1]
        first = generator.normal()
        # Same object on re-access: the consumed stream position persists.
        assert lazy[1] is generator
        assert lazy[1].normal() != first

    def test_negative_indexing_and_iteration(self):
        seeds = np.arange(4, dtype=np.int64)
        lazy = LazySeededRngs(seeds)
        assert lazy[-1] is lazy[3]
        materialized = list(lazy)
        assert len(materialized) == 4
        assert materialized[2] is lazy[2]
