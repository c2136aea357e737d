"""DP-NET-FLEET: recursive gradient correction with local steps, plus DP noise.

NET-FLEET [Zhang et al., MobiHoc 2022] tackles heterogeneous data in fully
decentralized federated learning with a *recursive gradient correction*
(a gradient-tracking variable ``y_i`` that estimates the global gradient)
and multiple local updates between communication rounds.  The paper's
baseline adds Gaussian perturbation to the quantities agents exchange.

Per communication round each agent:

1. runs ``local_steps`` SGD steps using its corrected gradient estimate
   ``y_i`` in place of the raw local gradient;
2. gossip-averages its model with the mixing matrix;
3. updates the tracking variable with the freshly computed local gradient:
   ``y_i <- sum_j w_ij y_j + (g_i_new - g_i_old)`` where both the tracking
   variables and the models exchanged are clipped and perturbed for DP.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import DecentralizedAlgorithm
from repro.core.config import NetFleetConfig
from repro.privacy.mechanisms import clip_rows_by_l2_norm

__all__ = ["DPNetFleet"]


class DPNetFleet(DecentralizedAlgorithm):
    """Gradient-tracking decentralized SGD with local steps and DP perturbation."""

    name = "DP-NET-FLEET"
    # Gossip carries a (model, tracking) pair per message.
    num_gossip_channels = 2

    def __init__(self, model, topology, shards, config, validation=None) -> None:
        if not isinstance(config, NetFleetConfig):
            raise TypeError("DPNetFleet requires a NetFleetConfig")
        super().__init__(model, topology, shards, config, validation=validation)
        self.config: NetFleetConfig = config
        # Gradient-tracking state: y_i (the corrected gradient estimate) and
        # the previous local gradient used in the recursive correction, one
        # row per agent like the base class's parameter state.  Under
        # ``storage="memmap"`` both live in memmap-backed FleetStates
        # (always float64, their canonical dtype) and assignments stream
        # into them block by block.
        self._tracking_state: np.ndarray = self._alloc_fleet_matrix(
            "tracking_state", dtype=np.float64
        )
        self._previous_gradient_state: np.ndarray = self._alloc_fleet_matrix(
            "previous_gradient_state", dtype=np.float64
        )
        self._initialized = False

    @property
    def tracking_state(self) -> np.ndarray:
        """The ``(num_agents, dimension)`` gradient-tracking matrix ``y``."""
        return self._tracking_state

    @tracking_state.setter
    def tracking_state(self, value: np.ndarray) -> None:
        if self._pinned:
            self._store_blocked(self._tracking_state, value)
        else:
            self._tracking_state = np.asarray(value)

    @property
    def previous_gradient_state(self) -> np.ndarray:
        """The ``(num_agents, dimension)`` previous-local-gradient matrix."""
        return self._previous_gradient_state

    @previous_gradient_state.setter
    def previous_gradient_state(self, value: np.ndarray) -> None:
        if self._pinned:
            self._store_blocked(self._previous_gradient_state, value)
        else:
            self._previous_gradient_state = np.asarray(value)

    def _extra_state(self, copy: bool = True):
        return {
            "tracking_state": (
                self.tracking_state.copy() if copy else self.tracking_state
            ),
            "previous_gradient_state": (
                self.previous_gradient_state.copy()
                if copy
                else self.previous_gradient_state
            ),
            "initialized": self._initialized,
        }

    def _load_extra_state(self, payload) -> None:
        if self._pinned:
            # Stream the (possibly memmap-backed) checkpoint payload straight
            # into the pinned float64 tracking buffers block by block — no
            # second in-RAM fleet copy on an out-of-core resume.
            self.tracking_state = np.asarray(payload["tracking_state"])
            self.previous_gradient_state = np.asarray(
                payload["previous_gradient_state"]
            )
        else:
            # Always float64, whatever the fleet-state dtype: a float32 run
            # must not resume with its tracking rounded to single precision.
            self.tracking_state = self._as_state_matrix(
                payload["tracking_state"], np.float64
            )
            self.previous_gradient_state = self._as_state_matrix(
                payload["previous_gradient_state"], np.float64
            )
        self._initialized = bool(payload["initialized"])

    def _step(self, round_index: int) -> None:
        """The round streamed over row blocks.

        All four fleet matrices (state, tracking, previous gradient, the
        local-step output) are touched strictly block by block; on
        off-interval rounds the "mixed" quantities alias the local ones,
        and the update phase computes each block's new tracking value
        before overwriting it, so the aliasing is safe under any block
        order.  Agents inactive in the first round start from a zero
        tracking estimate; it bootstraps through the recursive correction
        once they rejoin.  The ``(model, tracking)`` pair shares one
        delivery mask per exchange.
        """
        gamma = self.config.learning_rate
        clip = self.config.clip_threshold
        blocks = self._fleet_blocks()
        serial = self._stacked is None
        tracking = self._tracking_state
        previous = self._previous_gradient_state

        if not self._initialized:

            def init_block(start: int, stop: int) -> None:
                grad = self._block_perturbed_gradients(start, stop)
                tracking[start:stop] = grad
                previous[start:stop] = grad

            self._scheduler.map(init_block, blocks, serial=serial)
            self._initialized = True

        # 1. Local steps along the re-clipped tracking direction: one DP
        #    gradient release per round, reused by every local step (the
        #    tracking variable is post-processing of released gradients).
        local = self._round_scratch("netfleet.local", np.float64)

        def local_block(start: int, stop: int) -> None:
            corrected = clip_rows_by_l2_norm(tracking[start:stop], clip)
            params = self.state[start:stop].copy()
            for _ in range(self.config.local_steps):
                params = params - gamma * corrected
            local[start:stop] = self.freeze_inactive_rows(
                params, self.state[start:stop], start, stop
            )

        self._scheduler.map(local_block, blocks)

        # 2. (model, tracking) gossip; off-interval rounds alias the local
        #    quantities instead (nothing on the wire).
        if self.gossip_now(round_index):
            values, wire_bytes = self.gossip_wire_cost(self.num_gossip_channels)
            mixed_params = self._round_scratch("netfleet.mixed0", np.float64)
            mixed_tracking = self._round_scratch("netfleet.mixed1", np.float64)
            if self._compression_state is None:
                operator = self.mixing.without_edges(
                    self.record_fleet_exchange("state", values, wire_bytes)
                )
                self._mix_into(local, mixed_params, operator)
                self._mix_into(tracking, mixed_tracking, operator)
            else:
                params_shared = self._round_scratch("netfleet.shared0", np.float64)
                tracking_shared = self._round_scratch("netfleet.shared1", np.float64)
                self._prepare_gossip_channels("state.0", "state.1")

                def encode(start: int, stop: int) -> None:
                    params_shared[start:stop] = self._compress_block(
                        "state.0", local[start:stop], start, stop
                    )
                    tracking_shared[start:stop] = self._compress_block(
                        "state.1", tracking[start:stop], start, stop
                    )

                self._scheduler.map(encode, blocks)
                operator = self.mixing.without_edges(
                    self.record_fleet_exchange("state", values, wire_bytes)
                )
                self._mix_into(params_shared, mixed_params, operator)
                self._mix_into(tracking_shared, mixed_tracking, operator)
        else:
            mixed_params = local
            mixed_tracking = tracking

        # 3. Recursive gradient correction with a fresh DP gradient at the
        #    mixed model, then the state store — one pass per block.
        def update_block(start: int, stop: int) -> None:
            fresh = self._block_perturbed_gradients(
                start, stop, mixed_params[start:stop]
            )
            new_tracking = self.freeze_inactive_rows(
                mixed_tracking[start:stop] + fresh - previous[start:stop],
                tracking[start:stop],
                start,
                stop,
            )
            tracking[start:stop] = new_tracking
            previous[start:stop] = self.freeze_inactive_rows(
                fresh, previous[start:stop], start, stop
            )
            self.state[start:stop] = mixed_params[start:stop]

        self._scheduler.map(update_block, blocks, serial=serial)
