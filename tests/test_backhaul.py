"""The C-SR backhaul (repro.net.backhaul): message bus and TXOP ledger."""

import pytest

from repro.net.backhaul import Backhaul, TxopRecord
from repro.sim.engine import Simulator

LATENCY_NS = 50_000


def wired(*node_ids):
    """A backhaul with ``node_ids`` attached in order, logging deliveries
    as ``(time, receiver, sender)``."""
    sim = Simulator()
    backhaul = Backhaul(sim, LATENCY_NS)
    heard = []
    for node_id in node_ids:
        backhaul.attach(
            node_id,
            lambda src_id, node_id=node_id: heard.append((sim.now, node_id, src_id)),
        )
    return sim, backhaul, heard


class TestMessageBus:
    def test_publish_reaches_each_peer_once_in_attach_order(self):
        sim, backhaul, heard = wired(7, 3, 5)
        assert backhaul.publish(3) == 2
        sim.run()
        assert heard == [(LATENCY_NS, 7, 3), (LATENCY_NS, 5, 3)]

    def test_lonely_endpoint_schedules_nothing(self):
        sim, backhaul, heard = wired(4)
        assert backhaul.publish(4) == 0
        assert sim.pending_events == 0
        sim.run()
        assert heard == []

    def test_detach_drops_messages_on_the_wire_and_the_ledger_entry(self):
        sim, backhaul, heard = wired(1, 2, 3)
        backhaul.register_txop(TxopRecord(src=2, dst=9, expires_at=10 * LATENCY_NS))
        backhaul.publish(1)
        backhaul.detach(2)
        sim.run()
        assert heard == [(LATENCY_NS, 3, 1)]
        assert backhaul.active_txops(sim.now) == []

    def test_duplicate_attach_raises(self):
        _, backhaul, _ = wired(1)
        with pytest.raises(ValueError, match="already attached"):
            backhaul.attach(1, lambda src_id: None)

    def test_negative_latency_raises(self):
        with pytest.raises(ValueError, match="negative"):
            Backhaul(Simulator(), -1)

    def test_counters(self):
        sim, backhaul, _ = wired(1, 2, 3)
        backhaul.publish(1)
        backhaul.publish(2)
        backhaul.detach(3)  # both messages to it are lost on the wire
        sim.run()
        assert backhaul.counters() == {
            "backhaul_messages": 2, "backhaul_deliveries": 2,
        }


class TestTxopLedger:
    def test_one_record_per_sender(self):
        _, backhaul, _ = wired(1)
        backhaul.register_txop(TxopRecord(src=1, dst=5, expires_at=100))
        latest = TxopRecord(src=1, dst=6, expires_at=200)
        backhaul.register_txop(latest)
        assert backhaul.active_txops(0) == [latest]

    def test_expired_records_are_pruned(self):
        _, backhaul, _ = wired(1, 2)
        short = TxopRecord(src=1, dst=5, expires_at=100)
        long = TxopRecord(src=2, dst=6, expires_at=200)
        backhaul.register_txop(short)
        backhaul.register_txop(long)
        assert backhaul.active_txops(99) == [short, long]
        assert backhaul.active_txops(100) == [long]
        # Pruned for good: an earlier clock does not bring it back.
        assert backhaul.active_txops(0) == [long]

    def test_caller_is_excluded(self):
        _, backhaul, _ = wired(1, 2)
        mine = TxopRecord(src=1, dst=5, expires_at=100)
        theirs = TxopRecord(src=2, dst=6, expires_at=100)
        backhaul.register_txop(mine)
        backhaul.register_txop(theirs)
        assert backhaul.active_txops(0, exclude=1) == [theirs]
        assert backhaul.active_txops(0) == [mine, theirs]
        assert theirs.link == (2, 6)
