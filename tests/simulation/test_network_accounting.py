"""Network byte accounting: compressed exchanges, drops, churn, checkpoints.

``Network`` has always counted messages and floats; with compressed gossip
it also accounts *wire bytes* — dense payloads at ``8 * floats``, bulk
exchanges at the codec's encoded size.  These
tests pin every accounting rule: what counts (delivered and dropped sends,
``record_bulk``), what does not (rejected sends to departed agents), and
how the counters survive a checkpoint round trip — including checkpoints
written before byte accounting existed.
"""

import numpy as np
import pytest

from repro.simulation.network import Network


def test_raw_array_payload_counts_dense_float64_bytes():
    net = Network(3)
    net.send(0, 1, "model", np.ones(10))
    assert net.floats_sent == 10
    assert net.bytes_sent == 80
    assert net.traffic_by_tag == {"model": 10}
    assert net.bytes_by_tag == {"model": 80}


def test_tuple_and_scalar_payload_sizes():
    net = Network(3)
    net.send(0, 1, "mix", (np.ones(5), np.ones(5)))  # np.asarray -> (2, 5)
    assert net.floats_sent == 10
    assert net.bytes_sent == 80
    net.send(0, 1, "flag", 3.14)  # opaque scalar counts as one value
    assert net.floats_sent == 11
    assert net.bytes_sent == 88


def test_record_bulk_defaults_to_dense_bytes():
    net = Network(4)
    net.record_bulk("mix", num_messages=6, floats_per_message=10)
    assert net.messages_sent == 6
    assert net.floats_sent == 60
    assert net.bytes_sent == 480


def test_record_bulk_accepts_compressed_bytes():
    net = Network(4)
    net.record_bulk("mix", num_messages=6, floats_per_message=3, bytes_per_message=36)
    assert net.floats_sent == 18
    assert net.bytes_sent == 216
    assert net.bytes_by_tag == {"mix": 216}
    with pytest.raises(ValueError, match="non-negative"):
        net.record_bulk("mix", num_messages=1, floats_per_message=1, bytes_per_message=-1)


def test_dropped_messages_still_count_as_traffic():
    # Fault injection models loss on the wire: the sender transmitted, so
    # the bandwidth was spent even though nothing arrives.
    net = Network(2, drop_probability=1.0, rng=np.random.default_rng(0))
    assert not net.send(0, 1, "model", np.ones(4))
    assert net.messages_dropped == 1
    assert net.floats_sent == 4
    assert net.bytes_sent == 32
    assert net.pending(1) == 0


def test_rejected_sends_to_departed_agents_count_nothing():
    net = Network(3)
    mask = np.array([True, False, True])
    net.set_active_mask(mask)
    assert not net.send(0, 1, "model", np.ones(4))  # recipient departed
    assert not net.send(1, 2, "model", np.ones(4))  # sender departed
    assert net.messages_rejected == 2
    assert net.messages_sent == 0
    assert net.floats_sent == 0
    assert net.bytes_sent == 0
    assert net.traffic_by_tag == {}


def test_departure_discards_pending_mail():
    net = Network(3)
    net.send(0, 1, "model", np.ones(4))
    assert net.pending(1) == 1
    net.set_active_mask(np.array([True, False, True]))
    assert net.pending(1) == 0
    # Traffic already accounted stays accounted: the bytes were spent.
    assert net.bytes_sent == 32


def test_traffic_summary_includes_byte_counters():
    net = Network(3)
    net.send(0, 1, "model", np.ones(2))
    summary = net.traffic_summary()
    assert summary["bytes_sent"] == 16
    assert summary["bytes_by_tag"] == {"model": 16}


def test_state_dict_roundtrip_preserves_byte_counters():
    net = Network(3)
    net.send(0, 1, "model", np.ones(4))
    net.record_bulk("mix", num_messages=2, floats_per_message=2, bytes_per_message=24)
    net.receive(1, "model")
    state = net.state_dict()

    restored = Network(3)
    restored.load_state_dict(state)
    assert restored.traffic_summary() == net.traffic_summary()


def test_load_state_dict_reconstructs_bytes_for_old_checkpoints():
    # Checkpoints from before byte accounting carry floats only; the
    # restored network back-fills the dense float64 equivalent.
    net = Network(2)
    net.send(0, 1, "model", np.ones(5))
    state = net.state_dict()
    del state["bytes_sent"]
    del state["bytes_by_tag"]

    restored = Network(2)
    restored.load_state_dict(state)
    assert restored.bytes_sent == 8 * restored.floats_sent == 40
    assert restored.bytes_by_tag == {"model": 40}


# ---------------------------------------------------------------------------
# Accounting under asynchrony: latency is tagged per message *arrival*
# ---------------------------------------------------------------------------


def test_send_with_latency_tags_the_arrival():
    net = Network(3)
    assert net.send(0, 1, "model", np.ones(4), latency=0.25)
    assert net.send(0, 2, "model", np.ones(4), latency=0.75)
    assert net.messages_arrived == 2
    assert net.latency_seconds_total == pytest.approx(1.0)
    assert net.latency_by_tag == {"model": pytest.approx(1.0)}
    # Byte accounting is unchanged by the latency annotation.
    assert net.bytes_sent == 64
    summary = net.traffic_summary()
    assert summary["messages_arrived"] == 2
    assert summary["latency_seconds_total"] == pytest.approx(1.0)


def test_send_without_latency_records_no_arrival_statistics():
    # Synchronous sends carry no simulated transit time: the latency
    # counters stay untouched, so real-time-only runs report zeros.
    net = Network(3)
    assert net.send(0, 1, "model", np.ones(4))
    assert net.messages_arrived == 0
    assert net.latency_seconds_total == 0.0
    assert net.latency_by_tag == {}


def test_rejected_sends_with_latency_count_nothing():
    # A message to (or from) a departed agent never arrives: no bytes, no
    # latency, only the rejection counter moves — even when the event
    # engine annotated the send with its simulated transit time.
    net = Network(3)
    net.set_active_mask(np.array([True, False, True]))
    assert not net.send(0, 1, "model", np.ones(4), latency=0.5)
    assert not net.send(1, 2, "model", np.ones(4), latency=0.5)
    assert net.messages_rejected == 2
    assert net.messages_arrived == 0
    assert net.latency_seconds_total == 0.0
    assert net.bytes_sent == 0


def test_dropped_sends_with_latency_count_bytes_but_no_arrival():
    # Loss on the wire: bandwidth was spent, but the payload never lands,
    # so the arrival/latency counters must not move.
    net = Network(2, drop_probability=1.0, rng=np.random.default_rng(0))
    assert not net.send(0, 1, "model", np.ones(4), latency=0.5)
    assert net.messages_dropped == 1
    assert net.bytes_sent == 32
    assert net.messages_arrived == 0
    assert net.latency_seconds_total == 0.0


def test_record_latency_accounts_without_enqueueing():
    net = Network(3)
    net.record_latency("model", 0.5)
    net.record_latency("model", 1.5)
    assert net.messages_arrived == 2
    assert net.latency_seconds_total == pytest.approx(2.0)
    assert net.pending(0) == net.pending(1) == net.pending(2) == 0
    with pytest.raises(ValueError, match="non-negative"):
        net.record_latency("model", -0.1)
    with pytest.raises(ValueError, match="non-empty"):
        net.record_latency("", 0.1)


def test_state_dict_roundtrip_preserves_latency_counters():
    net = Network(3)
    net.send(0, 1, "model", np.ones(4), latency=0.25)
    net.receive(1, "model")
    net.record_latency("grad", 1.0, messages=3)
    state = net.state_dict()

    restored = Network(3)
    restored.load_state_dict(state)
    assert restored.traffic_summary() == net.traffic_summary()
    assert restored.messages_arrived == 4
    assert restored.latency_by_tag == {"model": 0.25, "grad": 1.0}


def test_old_checkpoints_without_latency_counters_restore_to_zero():
    net = Network(2)
    net.send(0, 1, "model", np.ones(5), latency=0.5)
    net.receive(1, "model")
    state = net.state_dict()
    del state["messages_arrived"]
    del state["latency_seconds_total"]
    del state["latency_by_tag"]

    restored = Network(2)
    restored.load_state_dict(state)
    assert restored.messages_arrived == 0
    assert restored.latency_seconds_total == 0.0
    assert restored.latency_by_tag == {}
