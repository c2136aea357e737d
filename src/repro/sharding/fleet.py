"""Row-blocked fleet state: the ``(N, d)`` matrix as streamable shards.

The round engine keeps the fleet's parameters as one ``(num_agents,
dimension)`` matrix.  At the scales the paper's production story targets
(10^5–10^6 agents) the matrix itself still fits — 262144 agents at d=64 in
float64 is 128 MiB — but *whole-fleet temporaries* do not: a single
careless ``astype``/``copy``/intermediate in a kernel doubles or triples
the working set exactly where memory is tightest.

:class:`FleetState` owns the matrix and fixes the access pattern: kernels
stream over ``(block_rows, d)`` row blocks (:meth:`blocks`,
:meth:`map_blocks`) instead of materialising fleet-sized intermediates, and
the backing store is either an ordinary in-RAM array or a memory-mapped
``.npy`` file (``storage="memmap"``), in which case the OS pages blocks in
and out and the process never needs the whole matrix resident.  Gossip
composes with :meth:`~repro.topology.mixing.MixingOperator.mix_rows_blocked`
through :meth:`mix_from` — bit-identical to the one-shot ``W @ X`` because
row-blocking a row-independent kernel changes no accumulation order.

``resolve_block_rows`` centralises the default block size: large enough to
amortise per-block Python overhead, small enough that one block plus its
CSR gather stays comfortably inside cache-friendly territory.
"""

from __future__ import annotations

import os
import tempfile
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

__all__ = [
    "DEFAULT_BLOCK_BYTES",
    "FleetState",
    "resolve_block_rows",
    "row_blocks",
]

#: Target size of one ``(block_rows, d)`` chunk when no explicit
#: ``block_rows`` is configured: 32 MiB keeps the per-block Python/dispatch
#: overhead negligible (a few hundred blocks even at fleet scale) while the
#: chunk plus its gathered CSR inputs stay far below typical RAM headroom.
DEFAULT_BLOCK_BYTES = 32 * 1024 * 1024


def resolve_block_rows(
    num_agents: int,
    dimension: int,
    block_rows: Optional[int] = None,
    itemsize: int = 8,
    target_bytes: int = DEFAULT_BLOCK_BYTES,
) -> int:
    """The row-block size streaming kernels should use.

    An explicit ``block_rows`` wins (clamped to ``[1, num_agents]``);
    otherwise the block is sized so one ``(block_rows, dimension)`` chunk is
    about ``target_bytes``.
    """
    if num_agents < 1 or dimension < 1:
        raise ValueError("num_agents and dimension must be positive")
    if block_rows is not None:
        if block_rows < 1:
            raise ValueError("block_rows must be a positive integer")
        return min(int(block_rows), num_agents)
    per_row = max(1, dimension * itemsize)
    return max(1, min(num_agents, target_bytes // per_row))


def row_blocks(num_rows: int, block_rows: int) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, stop)`` half-open row ranges covering ``0..num_rows``."""
    if block_rows < 1:
        raise ValueError("block_rows must be a positive integer")
    for start in range(0, num_rows, block_rows):
        yield start, min(start + block_rows, num_rows)


class FleetState:
    """The ``(num_agents, dimension)`` fleet matrix with a blocked access pattern.

    Parameters
    ----------
    num_agents, dimension:
        Fleet shape.
    dtype:
        Element type of the backing store (``float64`` or ``float32``).
    block_rows:
        Row-block size for :meth:`blocks` / :meth:`map_blocks` /
        :meth:`mix_from`; ``None`` resolves a default from
        :func:`resolve_block_rows`.
    storage:
        ``"ram"`` (default) allocates an ordinary contiguous array;
        ``"memmap"`` backs the matrix with an anonymous memory-mapped
        ``.npy`` file (created via ``np.lib.format.open_memmap`` in
        ``directory`` and unlinked on :meth:`close`), so the OS pages row
        blocks instead of the process holding the whole fleet resident.
    directory:
        Where memmap backing files are created (defaults to the system
        temporary directory).
    """

    def __init__(
        self,
        num_agents: int,
        dimension: int,
        dtype: np.dtype = np.float64,
        block_rows: Optional[int] = None,
        storage: str = "ram",
        directory: Optional[str] = None,
    ) -> None:
        if num_agents < 1 or dimension < 1:
            raise ValueError("num_agents and dimension must be positive")
        if storage not in ("ram", "memmap"):
            raise ValueError("storage must be 'ram' or 'memmap'")
        self.num_agents = int(num_agents)
        self.dimension = int(dimension)
        self.dtype = np.dtype(dtype)
        self.block_rows = resolve_block_rows(
            self.num_agents, self.dimension, block_rows, itemsize=self.dtype.itemsize
        )
        self.storage = storage
        self._path: Optional[str] = None
        if storage == "memmap":
            fd, path = tempfile.mkstemp(
                prefix=".fleet.", suffix=".npy", dir=directory
            )
            os.close(fd)
            self._path = path
            self._array: np.ndarray = np.lib.format.open_memmap(
                path, mode="w+", dtype=self.dtype, shape=(self.num_agents, self.dimension)
            )
        else:
            self._array = np.zeros((self.num_agents, self.dimension), dtype=self.dtype)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def wrap(cls, array: np.ndarray, block_rows: Optional[int] = None) -> "FleetState":
        """A FleetState view over an existing ``(N, d)`` array (no copy)."""
        array = np.asarray(array)
        if array.ndim != 2:
            raise ValueError("fleet state must be a 2-D (num_agents, dimension) array")
        state = cls.__new__(cls)
        state.num_agents = int(array.shape[0])
        state.dimension = int(array.shape[1])
        state.dtype = array.dtype
        state.block_rows = resolve_block_rows(
            state.num_agents, state.dimension, block_rows, itemsize=array.dtype.itemsize
        )
        state.storage = "memmap" if isinstance(array, np.memmap) else "ram"
        state._path = None
        state._array = array
        return state

    @property
    def array(self) -> np.ndarray:
        """The backing ``(num_agents, dimension)`` array (view, not a copy)."""
        return self._array

    @property
    def nbytes(self) -> int:
        return self.num_agents * self.dimension * self.dtype.itemsize

    # ------------------------------------------------------------------
    # Blocked access
    # ------------------------------------------------------------------
    def blocks(self, readonly: bool = False) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Yield ``(start, stop, view)`` over the configured row blocks.

        With ``readonly=True`` each view is write-protected: stages that
        only *read* the fleet (e.g. the gossip source rows) iterate over
        these views, so a buggy stage that tries to write through one
        raises immediately instead of silently corrupting the backing
        store.
        """
        for start, stop in row_blocks(self.num_agents, self.block_rows):
            view = self._array[start:stop]
            if readonly:
                view = view.view()
                view.flags.writeable = False
            yield start, stop, view

    @property
    def readonly_array(self) -> np.ndarray:
        """A write-protected view of the whole backing array (no copy)."""
        view = self._array.view()
        view.flags.writeable = False
        return view

    def map_blocks(self, fn: Callable[[np.ndarray], np.ndarray]) -> "FleetState":
        """Apply ``fn`` to each ``(block, d)`` chunk, writing results in place.

        ``fn`` receives a row-block view and returns the transformed block
        (same shape); row-wise kernels (clipping, codecs, noise) applied this
        way are identical to the whole-matrix call because they never look
        across rows.
        """
        for start, stop, view in self.blocks():
            self._array[start:stop] = fn(view)
        return self

    def fill_from(self, source: np.ndarray) -> "FleetState":
        """Copy ``source`` into the backing store block by block."""
        source = np.asarray(source)
        if source.shape != (self.num_agents, self.dimension):
            raise ValueError(
                f"source has shape {source.shape}, expected "
                f"({self.num_agents}, {self.dimension})"
            )
        for start, stop in row_blocks(self.num_agents, self.block_rows):
            self._array[start:stop] = source[start:stop]
        return self

    def mix_from(self, operator, source: "FleetState") -> "FleetState":
        """One gossip step ``self <- W @ source`` streamed block by block.

        Delegates to
        :meth:`~repro.topology.mixing.MixingOperator.mix_rows_blocked`, so
        the result is bit-identical to the one-shot ``operator.apply``; the
        output lands directly in this state's backing store (which may be a
        memmap), never materialising a second fleet-sized temporary.
        """
        if source.num_agents != self.num_agents or source.dimension != self.dimension:
            raise ValueError("source fleet shape does not match")
        # The source is a pure input of the gossip product: read it through
        # a write-protected view so an aliasing bug in the kernel raises
        # instead of corrupting the source mid-mix.
        operator.mix_rows_blocked(source.readonly_array, self.block_rows, out=self._array)
        return self

    def to_array(self) -> np.ndarray:
        """The state as an in-RAM ndarray (copies when memmap-backed)."""
        if self.storage == "memmap":
            return np.array(self._array)
        return self._array

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Flush memmap-backed storage to disk (no-op for RAM storage)."""
        if isinstance(self._array, np.memmap):
            self._array.flush()

    def close(self) -> None:
        """Release the backing store; memmap files are unlinked."""
        path = self._path
        self._path = None
        self._array = np.zeros((0, self.dimension), dtype=self.dtype)
        if path is not None:
            try:
                os.unlink(path)
            except OSError:
                pass

    def __enter__(self) -> "FleetState":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FleetState(num_agents={self.num_agents}, dimension={self.dimension}, "
            f"dtype={self.dtype.name}, block_rows={self.block_rows}, "
            f"storage={self.storage!r})"
        )
