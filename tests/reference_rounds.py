"""A compact per-agent reference round for each algorithm: the engine's oracle.

Plain numpy, one agent at a time, in the phase order of Algorithm 1: every
active agent's own perturbed gradient (agent order), then every
cross-gradient ``g_{i,j}`` (agent ``i``'s batch, agent ``j``'s model; pairs
in ``(i, j)`` order), then the per-agent aggregation, local update and the
gossip rule ``x_i <- sum_j w_ij C(x_j)`` over the closed neighbourhood.  It
draws from the algorithm's own samplers, noise mechanisms, codec streams and
``agent_rngs``, and honours the round topology and active mask (pulled
through ``_begin_round``, exactly as ``run_round`` does), so on a loss-free
network the streamed round engine must follow it up to floating-point
associativity.  Dropout models draw their masks in the same phase order.
"""

import numpy as np

from repro.baselines.dp_cga import min_norm_combination
from repro.privacy.mechanisms import clip_by_l2_norm


def reference_round(algorithm) -> None:
    """Run one round of ``algorithm`` agent by agent (the counterpart of ``run_round``)."""
    algorithm.network.advance_round()
    round_index = algorithm.rounds_completed
    algorithm._begin_round(round_index)
    STEPS[algorithm.name](algorithm, round_index)
    if algorithm.config.epsilon is not None and algorithm.sigma > 0:
        algorithm.accountant.record(algorithm.config.epsilon, algorithm.config.delta)
    algorithm.rounds_completed += 1


def _active(algorithm):
    return [i for i in range(algorithm.num_agents) if algorithm.active_mask[i]]


def _rows(matrix):
    return [np.array(row, dtype=np.float64) for row in matrix]


def _perturbed(algorithm, agent, params, batch):
    """Agent's clipped + noised gradient at ``params`` on its ``batch``."""
    return algorithm.mechanisms[agent].privatize(
        algorithm.local_gradient(agent, params, batch)
    )


def _share(algorithm, channel, agent, value):
    """What an agent puts on a gossip channel: the codec's decoded value."""
    state = algorithm._compression_state
    if state is None or not algorithm.active_mask[agent]:
        return np.asarray(value, dtype=np.float64)
    return state.compress_row(channel, agent, value)


def _gossip(algorithm, channel, vectors):
    """``x_i <- sum_j w_ij C(x_j)`` over each closed neighbourhood of the round topology."""
    shared = [_share(algorithm, channel, i, v) for i, v in enumerate(vectors)]
    topology = algorithm.topology
    return [
        sum(topology.weight(i, j) * shared[j] for j in topology.neighbors(i))
        for i in range(algorithm.num_agents)
    ]


def _local_steps(algorithm, momentum=None):
    """Perturbed local (momentum) step of every active agent; returns new rows."""
    lr = algorithm.config.learning_rate
    x = _rows(algorithm.state)
    for i in _active(algorithm):
        gradient = _perturbed(algorithm, i, x[i], algorithm.samplers[i].next_batch())
        if momentum is not None:
            momentum[i] = algorithm.config.momentum * momentum[i] + gradient
            gradient = momentum[i]
        x[i] = x[i] - lr * gradient
    return x


def _dpsgd(algorithm, round_index):
    x = _local_steps(algorithm)
    if algorithm.gossip_now(round_index):
        x = _gossip(algorithm, "model", x)
    algorithm.state = np.array(x)


def _dmsgd(algorithm, round_index):
    m = _rows(algorithm.momentum_state)
    x = _local_steps(algorithm, momentum=m)
    if algorithm.gossip_now(round_index):
        x = _gossip(algorithm, "model", x)
    algorithm.momentum_state = np.array(m)
    algorithm.state = np.array(x)


def _muffliato(algorithm, round_index):
    x = _local_steps(algorithm)
    if algorithm.gossip_now(round_index):
        for step in range(algorithm.config.gossip_steps):
            x = _gossip(algorithm, f"gossip_{step}", x)
    algorithm.state = np.array(x)


def _cross_phases(algorithm):
    """Own perturbed gradients, then cross-gradients ``g_{i,j}`` keyed ``(i, j)``."""
    active = _active(algorithm)
    state = algorithm.state
    batches = {i: algorithm.samplers[i].next_batch() for i in active}
    own = {i: _perturbed(algorithm, i, state[i], batches[i]) for i in active}
    cross = {
        (i, j): _perturbed(algorithm, i, state[j], batches[i])
        for i in active
        for j in algorithm.topology.neighbors(i, include_self=False)
    }
    return own, cross


def _momentum_update(algorithm, directions):
    """``m_i <- alpha m_i + d_i``, ``x_i <- x_i - lr m_i`` for each active agent."""
    alpha, lr = algorithm.config.momentum, algorithm.config.learning_rate
    m, x = _rows(algorithm.momentum_state), _rows(algorithm.state)
    for i, direction in directions.items():
        m[i] = alpha * m[i] + direction
        x[i] = x[i] - lr * m[i]
    return m, x


def _dp_cga(algorithm, round_index):
    own, cross = _cross_phases(algorithm)
    combined = {}
    for i in own:
        ordered = [
            own[i] if j == i else cross[(j, i)] for j in algorithm.topology.neighbors(i)
        ]
        lam = min_norm_combination(ordered)
        combined[i] = sum(weight * grad for weight, grad in zip(lam, ordered))
    m, x = _momentum_update(algorithm, combined)
    if algorithm.gossip_now(round_index):
        x = _gossip(algorithm, "mix", x)
    algorithm.momentum_state = np.array(m)
    algorithm.state = np.array(x)


def _pdsl(algorithm, round_index):
    own, cross = _cross_phases(algorithm)
    aggregated = {}
    for i in own:
        returned = {
            j: cross[(j, i)] for j in algorithm.topology.neighbors(i, include_self=False)
        }
        returned[i] = own[i]
        aggregated[i] = algorithm._aggregate_returned(i, returned)
    m, x = _momentum_update(algorithm, aggregated)
    if algorithm.gossip_now(round_index):
        m = _gossip(algorithm, "mix.0", m)
        x = _gossip(algorithm, "mix.1", x)
    algorithm.momentum_state = np.array(m)
    algorithm.state = np.array(x)


def _dp_netfleet(algorithm, round_index):
    active = _active(algorithm)
    lr, clip = algorithm.config.learning_rate, algorithm.config.clip_threshold
    tracking = _rows(algorithm.tracking_state)
    previous = _rows(algorithm.previous_gradient_state)
    if not algorithm._initialized:
        for i in active:
            batch = algorithm.samplers[i].next_batch()
            tracking[i] = previous[i] = _perturbed(algorithm, i, algorithm.state[i], batch)
        algorithm._initialized = True
    local = _rows(algorithm.state)
    for i in active:
        corrected = clip_by_l2_norm(tracking[i], clip)
        for _ in range(algorithm.config.local_steps):
            local[i] = local[i] - lr * corrected
    if algorithm.gossip_now(round_index):
        mixed_x = _gossip(algorithm, "state.0", local)
        mixed_y = _gossip(algorithm, "state.1", tracking)
    else:
        mixed_x, mixed_y = local, tracking
    for i in active:
        batch = algorithm.samplers[i].next_batch()
        fresh = _perturbed(algorithm, i, mixed_x[i], batch)
        tracking[i] = mixed_y[i] + fresh - previous[i]
        previous[i] = fresh
    algorithm.state = np.array(mixed_x)
    algorithm.tracking_state = np.array(tracking)
    algorithm.previous_gradient_state = np.array(previous)


STEPS = {
    "DP-DPSGD": _dpsgd,
    "D-PSGD": _dpsgd,
    "DMSGD": _dmsgd,
    "MUFFLIATO": _muffliato,
    "DP-CGA": _dp_cga,
    "PDSL": _pdsl,
    "DP-NET-FLEET": _dp_netfleet,
}
