"""Shared timing and memory capture for the benchmark harness.

Every suite measures through the same :class:`Timer` so artifacts are
comparable across suites and across runs: wall-clock via
``time.perf_counter`` (monotonic, highest available resolution) and memory
via the process peak RSS (``resource.getrusage`` — stdlib, no external
profiler).  The harness runs each suite ``repeats`` times and reports the
*minimum* wall-clock alongside mean±std: the minimum is the least noisy
estimator of the true cost on a time-shared machine (every perturbation —
scheduler preemption, cache eviction, GC — only ever adds time).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover - Windows fallback
    resource = None  # type: ignore[assignment]

__all__ = ["Timer", "Measurement", "peak_rss_bytes", "reset_peak_rss"]


def peak_rss_bytes() -> Optional[int]:
    """Peak resident-set size of this process in bytes (``None`` if unknown).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalise to
    bytes.  The value is a high-water mark; :func:`reset_peak_rss` (called
    by :func:`~repro.bench.registry.run_benchmark` before each suite) lowers
    it to the current RSS where the kernel allows, so a suite's reading does
    not include the peaks of suites that ran before it.
    """
    if resource is None:
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import sys

    if sys.platform == "darwin":  # pragma: no cover - exercised on macOS only
        return int(usage)
    return int(usage) * 1024


def reset_peak_rss() -> None:
    """Reset this process's RSS high-water mark to its current RSS.

    Writing ``5`` to ``/proc/self/clear_refs`` (Linux) resets ``VmHWM`` and
    with it ``ru_maxrss``.  A no-op on hosts without that file or where it
    is not writable.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


@dataclass
class Measurement:
    """Repeated wall-clock samples of one operation, plus the RSS high-water mark."""

    wall_seconds: List[float] = field(default_factory=list)
    rss_peak_bytes: Optional[int] = None

    @property
    def repeats(self) -> int:
        return len(self.wall_seconds)

    @property
    def best_seconds(self) -> float:
        """The minimum sample — the canonical number artifacts compare on."""
        if not self.wall_seconds:
            raise ValueError("no samples recorded")
        return min(self.wall_seconds)

    @property
    def mean_seconds(self) -> float:
        if not self.wall_seconds:
            raise ValueError("no samples recorded")
        return sum(self.wall_seconds) / len(self.wall_seconds)

    @property
    def std_seconds(self) -> float:
        """Population standard deviation (the samples *are* the set summarised)."""
        if not self.wall_seconds:
            raise ValueError("no samples recorded")
        mean = self.mean_seconds
        return (
            sum((s - mean) ** 2 for s in self.wall_seconds) / len(self.wall_seconds)
        ) ** 0.5


class Timer:
    """Context-manager stopwatch feeding a :class:`Measurement`.

    >>> measurement = Measurement()
    >>> with Timer(measurement):
    ...     do_work()
    >>> measurement.best_seconds

    Each ``with`` block appends one wall-clock sample and refreshes the
    measurement's RSS high-water mark.  ``Timer()`` without a measurement
    works as a bare stopwatch (read ``timer.elapsed`` after the block).
    """

    def __init__(self, measurement: Optional[Measurement] = None) -> None:
        self.measurement = measurement
        self.elapsed: float = 0.0
        self._started: float = 0.0

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed = time.perf_counter() - self._started
        if self.measurement is not None:
            self.measurement.wall_seconds.append(self.elapsed)
            self.measurement.rss_peak_bytes = peak_rss_bytes()
