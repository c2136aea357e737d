"""Gossip payload codecs: quantisation and sparsification.

A :class:`Codec` models lossy compression of the vectors agents gossip.  The
simulation keeps everything in float64 end to end — what a codec returns is
the *decoded* value, i.e. exactly what the receiver would reconstruct after
the encode/transmit/decode round trip — while :meth:`Codec.wire_cost`
reports what the encoded message would have cost on a real wire.  This keeps
the numerics faithful (the round mixes the reconstructed values) and lets
:class:`~repro.simulation.network.Network` account compressed byte traffic
without ever materialising byte buffers.

Codecs operate row-wise on ``(M, dimension)`` matrices: every operation is
per-row/elementwise, so compressing one agent's vector through a
single-row matrix is bit-identical to compressing it as one row of the
whole fleet (the round engine's block-wise calls).

Four lossy codecs are provided, mirroring the standard communication-
efficient-SGD toolbox (and Bagua's low-precision decentralized algorithm):

* :class:`FP16Codec` — round to IEEE half precision (2 bytes/coordinate);
* :class:`Int8Codec` — symmetric per-row int8 quantisation with one float64
  scale per message (1 byte/coordinate + 8 bytes);
* :class:`TopKCodec` — keep the ``k`` largest-magnitude coordinates
  (value + int32 index, 12 bytes per kept coordinate);
* :class:`RandomKCodec` — keep ``k`` uniformly random coordinates (unbiased
  up to scaling; same wire format as top-k).

:class:`IdentityCodec` is the no-op reference: same object back, dense
float64 wire cost.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Codec",
    "IdentityCodec",
    "FP16Codec",
    "Int8Codec",
    "TopKCodec",
    "RandomKCodec",
    "make_codec",
]

#: Wire cost of one kept coordinate in the sparse codecs: a float64 value
#: plus an int32 index.
_SPARSE_BYTES_PER_COORD = 12


class Codec:
    """Base class: decode-after-round-trip semantics plus wire accounting."""

    #: Codec identifier (one of :data:`repro.compression.config.CODEC_NAMES`).
    name: str = ""
    #: True only for :class:`IdentityCodec` (engines skip compression state).
    is_identity: bool = False
    #: Whether :meth:`decode_rows` consumes per-agent randomness.
    uses_rng: bool = False

    def wire_cost(self, dimension: int) -> Tuple[int, int]:
        """``(values_per_message, bytes_per_message)`` for one ``dimension``-vector."""
        raise NotImplementedError

    def decode_rows(
        self,
        work: np.ndarray,
        rngs: Optional[Sequence[np.random.Generator]] = None,
    ) -> np.ndarray:
        """Reconstructed value of each row after the encode/decode round trip.

        ``work`` is ``(M, dimension)``; ``rngs`` supplies one generator per
        row for codecs with ``uses_rng`` (ignored otherwise).  Every
        operation is per-row, so single-row and whole-fleet calls are
        bit-identical.
        """
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


class IdentityCodec(Codec):
    """No compression: dense float64 on the wire, values pass through."""

    name = "identity"
    is_identity = True

    def wire_cost(self, dimension: int) -> Tuple[int, int]:
        return int(dimension), 8 * int(dimension)

    def decode_rows(self, work, rngs=None):
        return work


class FP16Codec(Codec):
    """Round every coordinate to IEEE half precision (2 bytes each)."""

    name = "fp16"

    def wire_cost(self, dimension: int) -> Tuple[int, int]:
        return int(dimension), 2 * int(dimension)

    def decode_rows(self, work, rngs=None):
        work = np.asarray(work, dtype=np.float64)
        return work.astype(np.float16).astype(np.float64)


class Int8Codec(Codec):
    """Symmetric per-row int8 quantisation with one float64 scale per message.

    Each row is scaled so its largest magnitude maps to 127, rounded to the
    nearest integer level and rescaled; an all-zero row stays exactly zero.
    Values that are exact multiples of the scale (including the row maximum
    itself) round-trip exactly.
    """

    name = "int8"

    def wire_cost(self, dimension: int) -> Tuple[int, int]:
        # One int8 per coordinate plus the float64 scale.
        return int(dimension), int(dimension) + 8

    def decode_rows(self, work, rngs=None):
        work = np.asarray(work, dtype=np.float64)
        scale = np.max(np.abs(work), axis=1, keepdims=True) / 127.0
        safe = np.where(scale > 0.0, scale, 1.0)
        levels = np.clip(np.rint(work / safe), -127.0, 127.0)
        return np.where(scale > 0.0, levels * safe, 0.0)


class TopKCodec(Codec):
    """Keep each row's ``k`` largest-magnitude coordinates, zero the rest.

    Ties break towards the lower index (stable sort), so the selection is
    deterministic.  Wire format: ``k`` (value, index) pairs.
    """

    name = "topk"

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be a positive coordinate count")
        self.k = int(k)

    def wire_cost(self, dimension: int) -> Tuple[int, int]:
        k = min(self.k, int(dimension))
        return k, _SPARSE_BYTES_PER_COORD * k

    def decode_rows(self, work, rngs=None):
        work = np.asarray(work, dtype=np.float64)
        if self.k >= work.shape[1]:
            return work.copy()
        keep = np.argsort(-np.abs(work), axis=1, kind="stable")[:, : self.k]
        rows = np.arange(work.shape[0])[:, None]
        out = np.zeros_like(work)
        out[rows, keep] = work[rows, keep]
        return out

    def describe(self) -> str:
        return f"topk(k={self.k})"


class RandomKCodec(Codec):
    """Keep ``k`` uniformly random coordinates per row (per-agent stream).

    Each row draws its coordinate subset from that agent's dedicated
    compression generator, so the selection is reproducible and identical
    for every block layout.  Same wire format as top-k.
    """

    name = "randomk"
    uses_rng = True

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be a positive coordinate count")
        self.k = int(k)

    def wire_cost(self, dimension: int) -> Tuple[int, int]:
        k = min(self.k, int(dimension))
        return k, _SPARSE_BYTES_PER_COORD * k

    def decode_rows(self, work, rngs=None):
        work = np.asarray(work, dtype=np.float64)
        if rngs is None or len(rngs) != work.shape[0]:
            raise ValueError(
                f"randomk needs one rng per row: got "
                f"{None if rngs is None else len(rngs)} for {work.shape[0]} rows"
            )
        dimension = work.shape[1]
        if self.k >= dimension:
            return work.copy()
        out = np.zeros_like(work)
        for row, rng in enumerate(rngs):
            keep = rng.choice(dimension, size=self.k, replace=False)
            out[row, keep] = work[row, keep]
        return out

    def describe(self) -> str:
        return f"randomk(k={self.k})"


def make_codec(config, dimension: int) -> Codec:
    """Instantiate the codec a :class:`~repro.compression.config.CompressionConfig` names.

    The sparsifying codecs resolve ``k=None`` to one tenth of the model
    dimension (at least 1) and reject ``k`` larger than the dimension —
    a "sparse" message bigger than the dense one is a configuration error.
    """
    if dimension < 1:
        raise ValueError("dimension must be positive")
    name = config.codec
    if name == "identity":
        return IdentityCodec()
    if name == "fp16":
        return FP16Codec()
    if name == "int8":
        return Int8Codec()
    if name in ("topk", "randomk"):
        k = config.k if config.k is not None else max(1, int(dimension) // 10)
        if k > dimension:
            raise ValueError(
                f"k={k} exceeds the model dimension {dimension}; a sparse "
                f"message larger than the dense vector is a configuration error"
            )
        return TopKCodec(k) if name == "topk" else RandomKCodec(k)
    raise ValueError(f"unknown codec {name!r}")
