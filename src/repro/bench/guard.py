"""The shared "arm the floor?" guard for benchmark assertions.

Speed floors ("the CSR gossip kernel must be ≥10x faster at 4096 agents")
turn benchmarks into regression tests — but a wall-clock assertion is only
meaningful when the measurement is trustworthy.  Three conditions gate
every floor in the suite, uniformly, instead of ad-hoc per-file copies:

* **full scale** — reduced-scale smoke runs (CI's small ``REPRO_BENCH_*``
  settings) measure correctness, not headroom; the floor arms only when the
  benchmark ran at the scale the floor was calibrated for;
* **enough CPUs** — comparisons that need parallel hardware (the
  orchestrator's process pool) or simply a core to themselves cannot beat
  their baseline on a 1-CPU machine, so each floor declares the CPUs it
  needs;
* **enough signal** — when the *baseline* side of the comparison completes
  in microseconds, the ratio measures timer noise and dispatch overhead,
  not the optimisation; the floor arms only once the baseline measurement
  exceeds a per-floor minimum duration.

A disarmed floor is not a silent skip: :func:`arm_floor` returns the reason,
and both the pytest wrappers and ``repro-bench`` print it.

The guard also has a **memory arm** for the large-``N`` scaling suites: a
suite that would allocate more RAM than the machine can spare is *skipped*
(not failed) via :func:`check_memory`, and the skip reason lands in the
benchmark artifact — so a laptop run of the sweep records "N=262144 skipped:
needs 6.0 GiB, 2.1 GiB available" instead of getting OOM-killed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "FloorDecision",
    "MemoryDecision",
    "available_cpus",
    "available_memory_bytes",
    "arm_floor",
    "check_memory",
]


def available_cpus() -> int:
    """CPUs actually available to this process (affinity-aware on Linux)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def available_memory_bytes() -> Optional[int]:
    """Memory the kernel estimates is available without swapping, in bytes.

    Reads ``MemAvailable`` from ``/proc/meminfo`` (Linux).  Returns ``None``
    when the estimate cannot be obtained — callers must treat that as
    "unknown", not "unlimited" or "zero".
    """
    try:
        with open("/proc/meminfo", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):  # pragma: no cover - non-Linux
        pass
    return None


@dataclass(frozen=True)
class FloorDecision:
    """Whether a speed floor should be asserted, and why (not)."""

    armed: bool
    reason: str

    def __bool__(self) -> bool:
        return self.armed


def arm_floor(
    *,
    full_scale: bool,
    min_cpus: int = 2,
    baseline_seconds: Optional[float] = None,
    min_baseline_seconds: float = 0.0,
) -> FloorDecision:
    """Decide whether a benchmark's speed floor should be asserted.

    Parameters
    ----------
    full_scale:
        ``True`` when the benchmark ran at the scale the floor was
        calibrated for (e.g. "the agent sweep reached N = 4096").  Reduced
        smoke scales never arm.
    min_cpus:
        Minimum CPUs the comparison needs to be fair (default 2: one for
        the benchmark, one for the rest of the machine; pool benchmarks
        pass their worker count).
    baseline_seconds:
        Measured duration of the comparison's *slow* side, when there is
        one.  ``None`` skips the signal check.
    min_baseline_seconds:
        The baseline duration below which the ratio is considered noise.
    """
    if not full_scale:
        return FloorDecision(False, "reduced scale (floor calibrated for full scale)")
    cpus = available_cpus()
    if cpus < min_cpus:
        return FloorDecision(
            False, f"only {cpus} CPU(s) available (floor needs >= {min_cpus})"
        )
    if baseline_seconds is not None and baseline_seconds < min_baseline_seconds:
        return FloorDecision(
            False,
            f"baseline measurement {baseline_seconds:.3f}s < "
            f"{min_baseline_seconds:.3f}s (too short to assert a ratio)",
        )
    return FloorDecision(True, "armed")


@dataclass(frozen=True)
class MemoryDecision:
    """Whether a memory-hungry benchmark (or sweep point) fits in RAM."""

    fits: bool
    reason: str
    required_bytes: int
    available_bytes: Optional[int]

    def __bool__(self) -> bool:
        return self.fits


def _format_bytes(num_bytes: float) -> str:
    value = float(num_bytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024.0 or unit == "TiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{value:.1f} TiB"  # pragma: no cover - unreachable


def check_memory(required_bytes: int, safety_factor: float = 1.5) -> MemoryDecision:
    """Decide whether a workload needing ``required_bytes`` of RAM should run.

    The decision is **skip, not fail**: a machine too small for a scaling
    point is an environment fact, not a regression.  ``safety_factor``
    covers transient copies (gossip products, checkpoint buffers) beyond the
    caller's steady-state estimate.  An unknown availability (non-Linux, no
    ``/proc/meminfo``) errs on the side of running — the caller asked, the
    kernel would not answer.
    """
    if required_bytes < 0:
        raise ValueError("required_bytes must be non-negative")
    if safety_factor < 1.0:
        raise ValueError("safety_factor must be >= 1.0")
    available = available_memory_bytes()
    needed = int(required_bytes * safety_factor)
    if available is None:
        return MemoryDecision(
            True, "memory availability unknown; running", required_bytes, None
        )
    if needed > available:
        return MemoryDecision(
            False,
            f"needs {_format_bytes(needed)} "
            f"(incl. {safety_factor:g}x headroom), "
            f"{_format_bytes(available)} available",
            required_bytes,
            available,
        )
    return MemoryDecision(
        True,
        f"fits: needs {_format_bytes(needed)}, "
        f"{_format_bytes(available)} available",
        required_bytes,
        available,
    )
