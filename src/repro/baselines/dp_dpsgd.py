"""DP-DPSGD: differentially private decentralized parallel SGD.

This is the synchronous counterpart of A(DP)²SGD [Xu, Zhang & Wang, 2022]
used as a baseline in the paper: each agent takes a gradient step with its
clipped-and-perturbed *local* gradient, then performs one gossip-averaging
step with the mixing matrix.  It does not use cross-gradients or any
contribution weighting, so it is the reference point for the cost of
ignoring data heterogeneity.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import DecentralizedAlgorithm

__all__ = ["DPDPSGD", "DPSGDNonPrivate"]


class DPDPSGD(DecentralizedAlgorithm):
    """Perturbed local gradient step followed by one gossip-averaging step."""

    name = "DP-DPSGD"

    def _step(self, round_index: int) -> None:
        """The round streamed over row blocks.

        The provisional step is float64 (state minus a float64 perturbed
        gradient), so the gossip scratch is always float64 here.  Inactive
        agents' perturbed rows are exactly zero, so their provisional step
        leaves them at their current parameters and the identity mixing row
        keeps them there.
        """
        gamma = self.config.learning_rate
        communicate = self.gossip_now(round_index)
        shared = self._round_scratch("gossip", np.float64) if communicate else None
        if communicate:
            self._prepare_gossip_channels("model")

        def run(start: int, stop: int) -> None:
            perturbed = self._block_perturbed_gradients(start, stop)
            provisional = self.state[start:stop] - gamma * perturbed
            if shared is None:
                self.state[start:stop] = provisional
            else:
                shared[start:stop] = self._compress_block(
                    "model", provisional, start, stop
                )

        self._scheduler.map(run, self._fleet_blocks(), serial=self._stacked is None)
        if shared is None:
            return
        values, wire_bytes = self.gossip_wire_cost()
        delivered = self.record_fleet_exchange("model", values, wire_bytes)
        self._mix_into(shared, self.state, self.mixing.without_edges(delivered))


class DPSGDNonPrivate(DPDPSGD):
    """D-PSGD without clipping noise — a non-private reference for ablations.

    Construct it with a config whose ``sigma`` is 0 (the class simply fixes
    the name so experiment reports distinguish it from the DP variant).
    """

    name = "D-PSGD"
