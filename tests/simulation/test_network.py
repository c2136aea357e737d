"""Tests for the message-passing network."""

import numpy as np
import pytest

from repro.simulation.network import Message, Network


class TestSendReceive:
    def test_point_to_point_delivery(self):
        net = Network(3)
        assert net.send(0, 1, "model", np.array([1.0, 2.0]))
        messages = net.receive(1, "model")
        assert len(messages) == 1
        assert messages[0].sender == 0
        np.testing.assert_array_equal(messages[0].payload, [1.0, 2.0])

    def test_receive_drains_mailbox(self):
        net = Network(2)
        net.send(0, 1, "x", 1)
        net.receive(1, "x")
        assert net.receive(1, "x") == []

    def test_tags_are_independent(self):
        net = Network(2)
        net.send(0, 1, "a", 1)
        net.send(0, 1, "b", 2)
        assert [m.payload for m in net.receive(1, "a")] == [1]
        assert [m.payload for m in net.receive(1, "b")] == [2]

    def test_pending_counts(self):
        net = Network(2)
        net.send(0, 1, "a", 1)
        net.send(0, 1, "a", 2)
        net.send(0, 1, "b", 3)
        assert net.pending(1, "a") == 2
        assert net.pending(1) == 3

    def test_clear(self):
        net = Network(2)
        net.send(0, 1, "a", 1)
        net.clear()
        assert net.pending(1) == 0

    def test_invalid_agent_ids(self):
        net = Network(2)
        with pytest.raises(ValueError):
            net.send(0, 5, "a", 1)
        with pytest.raises(ValueError):
            net.send(-1, 1, "a", 1)
        with pytest.raises(ValueError):
            net.receive(7, "a")

    def test_empty_tag_rejected(self):
        net = Network(2)
        with pytest.raises(ValueError):
            net.send(0, 1, "", 1)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Network(0)
        with pytest.raises(ValueError):
            Network(2, drop_probability=1.5)
        with pytest.raises(ValueError):
            Network(2, drop_probability=0.5)  # rng required


class TestFaultInjection:
    def test_drops_happen_at_configured_rate(self):
        net = Network(2, drop_probability=0.5, rng=np.random.default_rng(0))
        delivered = sum(net.send(0, 1, "x", i) for i in range(2000))
        assert 800 < delivered < 1200
        assert net.messages_dropped == 2000 - delivered

    def test_no_drops_by_default(self):
        net = Network(2)
        for i in range(50):
            assert net.send(0, 1, "x", i)
        assert net.messages_dropped == 0

    def test_delivery_mask_is_none_without_loss(self):
        net = Network(2)
        assert net.delivery_mask(10) is None
        assert net.messages_dropped == 0

    def test_delivery_mask_draws_one_flag_per_message(self):
        net = Network(2, drop_probability=0.3, rng=np.random.default_rng(5))
        delivered = net.delivery_mask(1000)
        expected = np.random.default_rng(5).random(1000) >= 0.3
        np.testing.assert_array_equal(delivered, expected)
        assert net.messages_dropped == int((~expected).sum())
        assert 200 < net.messages_dropped < 400

    def test_delivery_mask_full_partition(self):
        net = Network(2, drop_probability=1.0, rng=np.random.default_rng(0))
        assert not net.delivery_mask(7).any()
        assert net.messages_dropped == 7

    def test_full_partition_drops_everything(self):
        # The closed upper bound models a fully partitioned link: every
        # message is accepted for sending but none is ever delivered.
        net = Network(2, drop_probability=1.0, rng=np.random.default_rng(0))
        for i in range(20):
            assert not net.send(0, 1, "x", i)
        assert net.messages_dropped == 20
        assert net.pending(1) == 0


class TestAgentRoster:
    def test_sends_to_departed_agents_are_rejected(self):
        net = Network(3)
        net.set_active_mask(np.array([True, False, True]))
        assert not net.send(0, 1, "x", 1)  # departed recipient
        assert not net.send(1, 0, "x", 1)  # departed sender
        assert net.send(0, 2, "x", 1)
        assert net.messages_rejected == 2
        assert net.messages_sent == 1
        assert net.traffic_summary()["messages_rejected"] == 2

    def test_departure_discards_pending_messages(self):
        net = Network(2)
        net.send(0, 1, "x", 1)
        net.set_active_mask(np.array([True, False]))
        net.set_active_mask(None)  # agent 1 returns...
        assert net.receive(1, "x") == []  # ...to an empty mailbox

    def test_none_restores_everyone(self):
        net = Network(2)
        net.set_active_mask(np.array([True, False]))
        assert not net.is_active(1)
        net.set_active_mask(None)
        assert net.is_active(1)
        assert net.send(0, 1, "x", 1)

    def test_mask_shape_validated(self):
        net = Network(3)
        with pytest.raises(ValueError):
            net.set_active_mask(np.array([True, False]))


class TestAccounting:
    def test_message_and_float_counters(self):
        net = Network(2)
        net.send(0, 1, "grad", np.zeros(10))
        net.send(1, 0, "grad", np.zeros(7))
        summary = net.traffic_summary()
        assert summary["messages_sent"] == 2
        assert summary["floats_sent"] == 17
        assert summary["traffic_by_tag"]["grad"] == 17

    def test_round_counter(self):
        net = Network(2)
        assert net.current_round == 0
        net.advance_round()
        net.advance_round()
        assert net.current_round == 2

    def test_message_records_round(self):
        net = Network(2)
        net.advance_round()
        net.send(0, 1, "x", 1)
        [message] = net.receive(1, "x")
        assert isinstance(message, Message)
        assert message.round == 1
