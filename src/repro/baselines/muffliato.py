"""MUFFLIATO: local Gaussian noise injection followed by multi-step gossiping.

Cyffers et al. (NeurIPS 2022) alternate a locally perturbed gradient step
with several rounds of gossip averaging; the repeated gossip amplifies
privacy because each individual contribution gets diluted across the graph
before anyone can inspect it.  As in the paper's evaluation it does not model
data heterogeneity explicitly.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import DecentralizedAlgorithm
from repro.core.config import MuffliatoConfig

__all__ = ["Muffliato"]


class Muffliato(DecentralizedAlgorithm):
    """Perturbed local step + ``gossip_steps`` rounds of model averaging."""

    name = "MUFFLIATO"

    def __init__(self, model, topology, shards, config, validation=None) -> None:
        if not isinstance(config, MuffliatoConfig):
            raise TypeError("Muffliato requires a MuffliatoConfig")
        super().__init__(model, topology, shards, config, validation=validation)
        self.config: MuffliatoConfig = config

    def _step(self, round_index: int) -> None:
        """The round streamed over row blocks.

        The gossip cascade ping-pongs between two float64 fleet scratches
        (the local step subtracts a float64 perturbed gradient and every mix
        preserves it), so ``gossip_steps`` rounds of mixing allocate
        nothing.  Inactive rows are exactly zero in the perturbed gradient
        and have identity mixing rows, so they ride through unchanged.  Each
        gossip step is its own exchange with its own delivery mask.
        """
        gamma = self.config.learning_rate
        current = self._round_scratch("gossip.a", np.float64)
        blocks = self._fleet_blocks()

        def local_step(start: int, stop: int) -> None:
            perturbed = self._block_perturbed_gradients(start, stop)
            current[start:stop] = self.state[start:stop] - gamma * perturbed

        self._scheduler.map(local_step, blocks, serial=self._stacked is None)
        if self.gossip_now(round_index):
            other = self._round_scratch("gossip.b", np.float64)
            for gossip_round in range(self.config.gossip_steps):
                tag = f"gossip_{gossip_round}"
                values, wire_bytes = self.gossip_wire_cost()
                if self._compression_state is None:
                    delivered = self.record_fleet_exchange(tag, values, wire_bytes)
                    self._mix_into(current, other, self.mixing.without_edges(delivered))
                    current, other = other, current
                else:
                    self._prepare_gossip_channels(tag)
                    source = current

                    def encode(start: int, stop: int) -> None:
                        other[start:stop] = self._compress_block(
                            tag, source[start:stop], start, stop
                        )

                    self._scheduler.map(encode, blocks)
                    delivered = self.record_fleet_exchange(tag, values, wire_bytes)
                    self._mix_into(other, current, self.mixing.without_edges(delivered))
        self._store_blocked(self.state, current)
