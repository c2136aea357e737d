"""Spans and counts recorded around calls into the program's layers.

The benchmark does not instrument ``src/``: a :class:`Tracer` replaces public
functions and methods with thin wrappers for the duration of a traced pass
(:meth:`Tracer.wrap`) and restores the originals afterwards
(:meth:`Tracer.restore`), so untraced passes run the unmodified program.

Every wrapped call becomes a span ``[run, id, parent, name, start, end]``
kept in memory; :meth:`Tracer.write` writes them out once, when the run ends.
A span's *self time* is its duration minus the part of that interval covered
by its child spans (:func:`self_seconds`).  Counts are recorded by the same
wrappers, so a ratio such as the coalition cache hit share is measured where
the work happens.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Tracer", "self_seconds", "covered_seconds"]

#: ``count(args, kwargs, result) -> {counter: amount}`` for one wrapped call.
CountFn = Callable[[tuple, dict, object], Dict[str, float]]

# Span row layout (lists, not objects: a traced fleet pass records ~10^5).
RUN, ID, PARENT, NAME, START, END = range(6)


def covered_seconds(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for lo, hi in intervals if hi > start and lo < end
    )
    total = 0.0
    current_lo: Optional[float] = None
    current_hi = 0.0
    for lo, hi in clipped:
        if current_lo is None or lo > current_hi:
            if current_lo is not None:
                total += current_hi - current_lo
            current_lo, current_hi = lo, hi
        else:
            current_hi = max(current_hi, hi)
    if current_lo is not None:
        total += current_hi - current_lo
    return total


def self_seconds(spans: Sequence[list]) -> Dict[int, float]:
    """Self time of every span: its duration minus what its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    return {
        span[ID]: (span[END] - span[START])
        - covered_seconds(span[START], span[END], children.get(span[ID], ()))
        for span in spans
    }


class Tracer:
    """In-memory spans and counters for one benchmark run.

    ``run_id`` labels the spans of one pass (the unit a span's run id
    groups); set it before each traced pass.  Nesting follows the call
    stack, so the benchmark must run single-threaded (``block_workers=1``).
    """

    def __init__(self) -> None:
        self.run_id = ""
        self.spans: List[list] = []
        self.counts: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def begin(self, name: str) -> list:
        parent = self._stack[-1][ID] if self._stack else None
        span = [self.run_id, len(self.spans), parent, name, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span[NAME]!r} ended out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[self.run_id][name] += amount

    # -- wrapping the program's public calls ----------------------------
    def wrap(self, owner: object, attr: str, name: str, count: Optional[CountFn] = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper until :meth:`restore`.

        ``owner`` is a module or a class; plain functions, methods and
        classmethods are supported.  ``count`` maps one call to counter
        increments (it runs after the call, inside the span).
        """
        raw = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = func(*args, **kwargs)
                if count is not None:
                    for counter, amount in count(args, kwargs, result).items():
                        tracer.count(counter, amount)
                return result
            finally:
                tracer.end(span)

        previous = vars(owner).get(attr, _MISSING)
        self._patches.append((owner, attr, previous))
        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # -- reporting -----------------------------------------------------
    def layer_seconds(self, run_id: str) -> Dict[str, float]:
        """Summed self time per span name within one run."""
        spans = [span for span in self.spans if span[RUN] == run_id]
        own = self_seconds(spans)
        totals: Dict[str, float] = defaultdict(float)
        for span in spans:
            totals[span[NAME]] += own[span[ID]]
        return dict(totals)

    def inclusive_seconds(self, run_id: str, name: str) -> float:
        """Summed duration of the outermost spans called ``name`` within one run."""
        by_id = {span[ID]: span for span in self.spans if span[RUN] == run_id}
        total = 0.0
        for span in by_id.values():
            parent = by_id.get(span[PARENT])
            if span[NAME] == name and (parent is None or parent[NAME] != name):
                total += span[END] - span[START]
        return total

    def write(self, path: Path, header: Dict[str, object]) -> None:
        """Write the header and every span, one JSON line each."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"header": header, "columns": ["run", "id", "parent", "name", "start", "end"]}))
            handle.write("\n")
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")


_MISSING = object()
