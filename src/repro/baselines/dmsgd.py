"""DMSGD: decentralized momentum SGD (non-private reference).

The momentum version of D-PSGD [Yu, Jin & Yang, ICML 2019]: each agent takes
a momentum step with its (optionally clipped / perturbed) local gradient and
then gossip-averages the model.  With ``sigma = 0`` this is the classic
non-private algorithm; with noise enabled it is a "DP but heterogeneity
oblivious with momentum" ablation point between DP-DPSGD and PDSL.
"""

from __future__ import annotations

from repro.core.base import DecentralizedAlgorithm

__all__ = ["DMSGD"]


class DMSGD(DecentralizedAlgorithm):
    """Decentralized momentum SGD with one gossip-averaging step per round."""

    name = "DMSGD"

    def _step(self, round_index: int) -> None:
        """The round streamed over row blocks.

        Each row block draws its agents' batches, evaluates + privatizes
        gradients, applies the momentum and provisional steps in place, and
        stages its gossip payload — so the round's transient working set is
        one block plus the reusable gossip scratch, at any fleet size.
        """
        gamma = self.config.learning_rate
        alpha = self.config.momentum
        communicate = self.gossip_now(round_index)
        momentum = self.momentum_state
        shared = (
            self._round_scratch("gossip", self._gossip_dtype(self._dtype))
            if communicate
            else None
        )
        if communicate:
            self._prepare_gossip_channels("model")

        def run(start: int, stop: int) -> None:
            perturbed = self._block_perturbed_gradients(start, stop)
            momentum[start:stop] = self.freeze_inactive_rows(
                alpha * momentum[start:stop] + perturbed,
                momentum[start:stop],
                start,
                stop,
            )
            provisional = self.freeze_inactive_rows(
                self.state[start:stop] - gamma * momentum[start:stop],
                self.state[start:stop],
                start,
                stop,
            )
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
