"""Per-agent device traces: compute speed, link bandwidth, link latency.

A :class:`DeviceTrace` is the time model of one agent — how long a local
training step takes on its hardware and what its network link can carry.
The :class:`~repro.simulation.events.engine.AsyncEngine` turns a fleet of
traces into event timestamps: compute completions at ``now +
compute_seconds``, message arrivals at ``now + transfer_seconds`` where the
transfer is limited by the *slower* endpoint's link (the classic
store-and-forward model of fondefjobn/decentralized-learning-simulator).

Trace fleets come from three places:

* :func:`uniform_traces` — every agent identical.  With the defaults (one
  second per step, infinite bandwidth, zero latency) this is the *unit
  trace* fleet under which barrier-mode simulation must reproduce the
  synchronous engine bit for bit;
* :func:`synthetic_traces` — log-normal heterogeneity around configurable
  medians, seeded and deterministic (the "realistic fleet" generator);
* :func:`load_traces` / :func:`save_traces` — JSON trace files measured on
  real devices.

``ExperimentSpec.time_model`` declares all of this declaratively; the
:data:`TIME_MODEL_KEYS` vocabulary and :func:`validate_time_model` are the
spec-side contract, and :func:`traces_from_spec` resolves the declaration
into concrete traces.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

__all__ = [
    "TIME_MODEL_KEYS",
    "DeviceTrace",
    "uniform_traces",
    "synthetic_traces",
    "save_traces",
    "load_traces",
    "traces_from_spec",
    "transfer_seconds",
    "validate_time_model",
    "validate_async_knobs",
    "ASYNC_ALGORITHMS",
]

#: The vocabulary of ``ExperimentSpec.time_model``: ``traces`` declares the
#: per-agent device traces (``"uniform"``, a generator mapping, or an
#: explicit per-agent list), ``async`` switches from barrier mode to genuine
#: event-driven gossip-on-arrival, and ``staleness_decay`` exponentially
#: down-weights stale payloads when mixing on arrival.
TIME_MODEL_KEYS = frozenset({"traces", "async", "staleness_decay"})


@dataclass(frozen=True)
class DeviceTrace:
    """The time model of one agent's device.

    Attributes
    ----------
    compute_seconds:
        Simulated seconds one local training step takes on this device.
    bandwidth_bytes_per_s:
        Link capacity; ``math.inf`` models an instantaneous wire.  A
        transfer between two agents is limited by the slower endpoint.
    latency_seconds:
        Fixed propagation delay added to every outgoing message.
    """

    compute_seconds: float = 1.0
    bandwidth_bytes_per_s: float = math.inf
    latency_seconds: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.compute_seconds) and self.compute_seconds > 0):
            raise ValueError(
                f"compute_seconds must be finite and positive, got "
                f"{self.compute_seconds!r}"
            )
        if not self.bandwidth_bytes_per_s > 0:
            raise ValueError(
                f"bandwidth_bytes_per_s must be positive, got "
                f"{self.bandwidth_bytes_per_s!r}"
            )
        if not (math.isfinite(self.latency_seconds) and self.latency_seconds >= 0):
            raise ValueError(
                f"latency_seconds must be finite and non-negative, got "
                f"{self.latency_seconds!r}"
            )

    def to_dict(self) -> Dict[str, float]:
        return {
            "compute_seconds": self.compute_seconds,
            "bandwidth_bytes_per_s": self.bandwidth_bytes_per_s,
            "latency_seconds": self.latency_seconds,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "DeviceTrace":
        unknown = sorted(set(payload) - {f for f in cls.__dataclass_fields__})
        if unknown:
            raise ValueError(f"unknown DeviceTrace fields: {unknown}")
        return cls(**{key: float(value) for key, value in payload.items()})


def transfer_seconds(sender: DeviceTrace, receiver: DeviceTrace, nbytes: int) -> float:
    """Simulated seconds to move ``nbytes`` from ``sender`` to ``receiver``.

    ``latency + nbytes / min(bandwidths)``: the fixed propagation delay of
    the sender's link plus serialisation at the slower endpoint's rate.
    Infinite bandwidth contributes zero serialisation time.
    """
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    bandwidth = min(sender.bandwidth_bytes_per_s, receiver.bandwidth_bytes_per_s)
    serialisation = 0.0 if math.isinf(bandwidth) else float(nbytes) / bandwidth
    return sender.latency_seconds + serialisation


def uniform_traces(
    num_agents: int,
    compute_seconds: float = 1.0,
    bandwidth_bytes_per_s: float = math.inf,
    latency_seconds: float = 0.0,
) -> List[DeviceTrace]:
    """Every agent with the identical trace.

    The defaults are the *unit traces*: one simulated second per step,
    instantaneous wires.  Under barrier mode these make the event layer a
    pure relabelling of the synchronous round — the equivalence harness's
    baseline.
    """
    if num_agents <= 0:
        raise ValueError("num_agents must be positive")
    trace = DeviceTrace(
        compute_seconds=compute_seconds,
        bandwidth_bytes_per_s=bandwidth_bytes_per_s,
        latency_seconds=latency_seconds,
    )
    return [trace] * num_agents


def synthetic_traces(
    num_agents: int,
    seed: int = 0,
    compute_median_seconds: float = 1.0,
    compute_spread: float = 0.4,
    bandwidth_median_bytes_per_s: float = 1e7,
    bandwidth_spread: float = 0.6,
    latency_median_seconds: float = 0.01,
    latency_spread: float = 0.3,
) -> List[DeviceTrace]:
    """A heterogeneous fleet drawn from log-normal distributions.

    Log-normal is the standard model for device/link heterogeneity: most
    devices cluster near the median with a heavy tail of stragglers and
    slow links.  ``*_spread`` is the sigma of the underlying normal (0
    collapses to the median).  Deterministic in ``seed``.
    """
    if num_agents <= 0:
        raise ValueError("num_agents must be positive")
    for name, value in (
        ("compute_spread", compute_spread),
        ("bandwidth_spread", bandwidth_spread),
        ("latency_spread", latency_spread),
    ):
        if value < 0:
            raise ValueError(f"{name} must be non-negative")
    rng = np.random.default_rng(int(seed))
    compute = compute_median_seconds * np.exp(
        rng.normal(0.0, compute_spread, size=num_agents)
    )
    bandwidth = bandwidth_median_bytes_per_s * np.exp(
        rng.normal(0.0, bandwidth_spread, size=num_agents)
    )
    latency = latency_median_seconds * np.exp(
        rng.normal(0.0, latency_spread, size=num_agents)
    )
    return [
        DeviceTrace(
            compute_seconds=float(compute[i]),
            bandwidth_bytes_per_s=float(bandwidth[i]),
            latency_seconds=float(latency[i]),
        )
        for i in range(num_agents)
    ]


def save_traces(traces: Sequence[DeviceTrace], path: Union[str, Path]) -> Path:
    """Write a trace fleet to a JSON file (inverse of :func:`load_traces`).

    Infinite bandwidth is stored as the string ``"inf"`` so the file stays
    strict JSON (parseable by non-Python tools).
    """
    path = Path(path)
    rows = []
    for trace in traces:
        row = trace.to_dict()
        if math.isinf(row["bandwidth_bytes_per_s"]):
            row["bandwidth_bytes_per_s"] = "inf"
        rows.append(row)
    path.write_text(json.dumps({"traces": rows}, indent=2) + "\n")
    return path


def load_traces(path: Union[str, Path]) -> List[DeviceTrace]:
    """Read a trace fleet written by :func:`save_traces` (or by hand)."""
    payload = json.loads(Path(path).read_text())
    rows = payload["traces"] if isinstance(payload, Mapping) else payload
    traces = []
    for row in rows:
        row = dict(row)
        if row.get("bandwidth_bytes_per_s") == "inf":
            row["bandwidth_bytes_per_s"] = math.inf
        traces.append(DeviceTrace.from_dict(row))
    if not traces:
        raise ValueError(f"trace file {path} contains no traces")
    return traces


def traces_from_spec(
    value: object, num_agents: int
) -> List[DeviceTrace]:
    """Resolve the ``time_model["traces"]`` declaration into concrete traces.

    Accepted forms:

    * ``None`` or ``"uniform"`` — unit traces (the bit-identical baseline);
    * a mapping ``{"kind": "uniform", ...}`` / ``{"kind": "synthetic",
      "seed": 3, ...}`` / ``{"kind": "file", "path": "fleet.json"}`` with
      the generator's keyword arguments;
    * an explicit per-agent list of trace dicts (or :class:`DeviceTrace`).
    """
    if value is None or value == "uniform":
        return uniform_traces(num_agents)
    if isinstance(value, Mapping):
        kwargs = dict(value)
        kind = kwargs.pop("kind", "uniform")
        if kind == "uniform":
            return uniform_traces(num_agents, **kwargs)
        if kind == "synthetic":
            return synthetic_traces(num_agents, **kwargs)
        if kind == "file":
            path = kwargs.pop("path", None)
            if path is None or kwargs:
                raise ValueError(
                    'traces {"kind": "file"} requires exactly one other key, "path"'
                )
            traces = load_traces(path)
            if len(traces) != num_agents:
                raise ValueError(
                    f"trace file {path} has {len(traces)} traces for "
                    f"{num_agents} agents"
                )
            return traces
        raise ValueError(
            f"unknown traces kind {kind!r}; expected 'uniform', 'synthetic' or 'file'"
        )
    if isinstance(value, Sequence) and not isinstance(value, (str, bytes)):
        traces = [
            trace if isinstance(trace, DeviceTrace) else DeviceTrace.from_dict(trace)
            for trace in value
        ]
        if len(traces) != num_agents:
            raise ValueError(
                f"got {len(traces)} explicit traces for {num_agents} agents"
            )
        return traces
    raise ValueError(
        f"traces must be 'uniform', a generator mapping or a per-agent list, "
        f"got {value!r}"
    )


def validate_time_model(
    value: Optional[Mapping[str, object]], num_agents: Optional[int] = None
) -> None:
    """Validate an ``ExperimentSpec.time_model`` declaration (``None`` is fine).

    Checks the key vocabulary, the value types, and — when ``num_agents``
    is known and the declaration doesn't point at an external file — that
    the traces actually resolve.  Raises ``ValueError`` with the offending
    key named.
    """
    if value is None:
        return
    if not isinstance(value, Mapping):
        raise ValueError(f"time_model must be a mapping or None, got {value!r}")
    unknown = sorted(set(value) - TIME_MODEL_KEYS)
    if unknown:
        raise ValueError(
            f"unknown time_model keys: {unknown}; expected a subset of "
            f"{sorted(TIME_MODEL_KEYS)}"
        )
    if "async" in value and not isinstance(value["async"], bool):
        raise ValueError(
            f'time_model["async"] must be a bool, got {value["async"]!r}'
        )
    if "staleness_decay" in value:
        decay = value["staleness_decay"]
        if not isinstance(decay, (int, float)) or isinstance(decay, bool) or decay < 0:
            raise ValueError(
                f'time_model["staleness_decay"] must be a non-negative number, '
                f"got {decay!r}"
            )
    traces = value.get("traces")
    defer_resolution = (
        isinstance(traces, Mapping) and traces.get("kind") == "file"
    ) or num_agents is None
    if traces is not None and not defer_resolution:
        traces_from_spec(traces, num_agents)


#: The algorithms whose update rule async mode actually runs.  An async
#: local step is one momentum-SGD step on a privatized local gradient
#: followed by model gossip on arrival: DMSGD's rule, and DP-DPSGD's (and
#: the non-private D-PSGD's) at momentum 0.
#: The cross-gradient, tracking and multi-step gossip algorithms have no
#: async rule, so labelling such a run PDSL (say) would be false.
ASYNC_ALGORITHMS = frozenset({"DMSGD", "DP-DPSGD", "D-PSGD"})

#: The async algorithms whose synchronous round takes plain SGD steps (it
#: ignores ``config.momentum``), so async mode runs them only at momentum 0.
_MOMENTUM_FREE_ALGORITHMS = frozenset({"DP-DPSGD", "D-PSGD"})


def validate_async_knobs(
    static_schedule: bool,
    compression,
    algorithms: Sequence[str],
    momentum: float = 0.0,
) -> None:
    """Reject the algorithms and knobs async mode cannot honour.

    Async mode replaces the synchronous round with trace-driven local steps
    and raw-model gossip with every neighbour on arrival, so it runs only
    :data:`ASYNC_ALGORITHMS` (DP-DPSGD and D-PSGD only at ``momentum=0``)
    and needs all-neighbour peer selection, a static topology schedule, the
    identity codec and ``communication_interval=1``.  ``compression`` is a
    :class:`~repro.compression.config.CompressionConfig`.  Shared by
    :class:`~repro.experiments.specs.ExperimentSpec` (at parse time; the
    harness builds DP-DPSGD and D-PSGD at momentum 0) and
    :class:`~repro.simulation.events.engine.AsyncEngine` (which passes the
    algorithm's ``config.momentum``).
    """
    unsupported = [name for name in algorithms if name not in ASYNC_ALGORITHMS]
    if unsupported:
        raise ValueError(
            f"async mode runs a momentum-SGD local step, which is the update "
            f"rule of {sorted(ASYNC_ALGORITHMS)} only; got {unsupported}"
        )
    with_momentum = [n for n in algorithms if n in _MOMENTUM_FREE_ALGORITHMS]
    if momentum != 0.0 and with_momentum:
        raise ValueError(
            f"{with_momentum} take plain SGD steps; async mode runs them only "
            f"at momentum 0, got momentum={momentum}"
        )
    if compression.peer_selection == "shift_one":
        raise ValueError(
            "async mode gossips with every neighbour on arrival and cannot "
            "use peer_selection='shift_one'"
        )
    if not static_schedule:
        raise ValueError(
            "async mode replaces per-round masks with trace-driven "
            "timing and requires a static topology schedule — "
            "stragglers and partitions are emergent from the traces"
        )
    if not compression.is_identity:
        raise ValueError(
            "async mode sends raw model payloads and requires the identity codec"
        )
    if compression.communication_interval != 1:
        raise ValueError(
            "communication_interval is a synchronous-round concept; "
            "async mode requires communication_interval=1"
        )
