"""Compressed and low-precision gossip with error feedback.

This package models communication as a deployed decentralized DP system
would actually run it: gossip payloads pass through a lossy codec
(quantisation or sparsification), the quantisation error is carried forward
per agent by error feedback, and the :class:`~repro.simulation.network.Network`
accounts the *compressed* wire size of every message instead of the dense
float64 one.

Three pieces compose:

* :class:`CompressionConfig` (:mod:`repro.compression.config`) — the
  declarative knob surface (codec, ``k``, ``communication_interval``,
  ``peer_selection``, ``error_feedback``) threaded from
  :class:`~repro.experiments.specs.ExperimentSpec` through
  :class:`~repro.core.config.AlgorithmConfig` into the engines;
* the codecs (:mod:`repro.compression.codecs`) — identity, fp16, int8,
  top-k and random-k, all operating row-wise so the loop and vectorized
  engines share bit-identical kernels;
* :class:`CompressionState` (:mod:`repro.compression.state`) — per-agent
  error-feedback residuals and sparsifier streams, checkpointable through
  the algorithm's ``state_dict``.

The identity codec is guaranteed bit-identical to the historical
uncompressed path.
"""

from repro.compression.codecs import (
    Codec,
    FP16Codec,
    IdentityCodec,
    Int8Codec,
    RandomKCodec,
    TopKCodec,
    make_codec,
)
from repro.compression.config import (
    CODEC_NAMES,
    COMPRESSION_KEYS,
    PEER_SELECTION_MODES,
    CompressionConfig,
    validate_compression,
)
from repro.compression.state import CompressionState

__all__ = [
    "CODEC_NAMES",
    "PEER_SELECTION_MODES",
    "COMPRESSION_KEYS",
    "CompressionConfig",
    "validate_compression",
    "Codec",
    "IdentityCodec",
    "FP16Codec",
    "Int8Codec",
    "TopKCodec",
    "RandomKCodec",
    "make_codec",
    "CompressionState",
]
