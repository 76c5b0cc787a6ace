"""RTS/CTS virtual carrier sense."""

import pytest

from repro.mac.dcf import RETRY_LIMIT, MacConfig, MacState
from repro.mac.frames import FrameType
from repro.mac.timing import OFDM_TIMING

from tests.conftest import build_mac_world


def rts_world(positions=((0, 0), (10, 0), (2, 0)), **kwargs):
    config = MacConfig(use_rts_cts=True)
    return build_mac_world(list(positions), config=config, **kwargs)


def frame_kinds(world):
    kinds = []
    orig = world.channel.transmit

    def spy(sender, frame):
        kinds.append((sender.radio_id, frame.kind))
        return orig(sender, frame)

    world.channel.transmit = spy
    return kinds


class TestExchange:
    def test_four_way_handshake_order(self):
        world = rts_world(positions=((0, 0), (10, 0)))
        kinds = frame_kinds(world)
        world.macs[0].enqueue(1, 1000)
        world.run(0.05)
        assert kinds == [
            (0, FrameType.RTS),
            (1, FrameType.CTS),
            (0, FrameType.DATA),
            (1, FrameType.ACK),
        ]
        assert world.delivered(1) == 1
        assert world.macs[0].stats.rts_sent == 1
        assert world.macs[1].stats.cts_sent == 1

    def test_broadcast_never_uses_rts(self):
        from repro.mac.frames import BROADCAST

        world = rts_world(positions=((0, 0), (10, 0)))
        kinds = frame_kinds(world)
        world.macs[0].enqueue(BROADCAST, 1000)
        world.run(0.05)
        assert all(k is not FrameType.RTS for _, k in kinds)

    def test_state_passes_through_wait_cts(self):
        world = rts_world(positions=((0, 0), (10, 0)))
        mac = world.macs[0]
        mac.enqueue(1, 1000)
        # Run until the RTS has just finished.
        world.run(0.0005)
        assert mac.state in (MacState.WAIT_CTS, MacState.TX, MacState.WAIT_ACK,
                             MacState.IDLE, MacState.CONTEND)
        world.run(0.05)
        assert mac.state is MacState.IDLE


class TestNav:
    def test_third_party_defers_for_reservation(self):
        # Node 2 decodes node 0's RTS and node 1's CTS: its own frame must
        # wait out the whole reserved exchange.
        world = rts_world()
        world.macs[0].enqueue(1, 1400)
        world.run(0.0004)  # RTS now on the air
        world.macs[2].enqueue(1, 100)
        world.run(0.1)
        assert world.macs[2].stats.nav_reservations_honored >= 1
        assert world.delivered(1, (0, 1)) == 1
        assert world.delivered(1, (2, 1)) == 1
        # Node 0's protected data never collided.
        assert world.macs[0].stats.retransmissions == 0

    def test_nav_state_expires(self):
        # Once the reservation node 2 honored has run out, the NAV no
        # longer defers it: a zero-slot RTS goes out one DIFS after its
        # enqueue.
        world = rts_world()
        world.macs[0].enqueue(1, 1000)
        world.run(0.1)
        mac2 = world.macs[2]
        assert mac2.stats.nav_reservations_honored >= 1
        sent = []
        orig = world.channel.transmit

        def spy(sender, frame):
            if sender.radio_id == 2:
                sent.append((world.sim.now, frame.kind))
            return orig(sender, frame)

        world.channel.transmit = spy
        mac2._draw_backoff = lambda: 0
        enqueued_at = world.sim.now
        mac2.enqueue(1, 100)
        world.run(0.05)
        assert sent[0] == (enqueued_at + OFDM_TIMING.difs_ns, FrameType.RTS)

    def test_cts_timeout_retries(self):
        # Receiver placed out of decode range: the RTS gets no CTS and the
        # sender must retry, then drop.
        world = rts_world(positions=((0, 0), (3000, 0)))
        mac = world.macs[0]
        mac.enqueue(1, 1000)
        world.run(1.0)
        assert mac.stats.retry_drops == 1
        assert mac.stats.rts_sent == RETRY_LIMIT + 1


class TestHiddenTerminalRescue:
    def test_cts_protects_against_hidden_interferer(self):
        # 0 -> 1 with node 2 hidden from node 0 (raised CS threshold) but
        # able to decode node 1's CTS.
        results = {}
        for rts in (False, True):
            config = MacConfig(use_rts_cts=rts)
            world = build_mac_world(
                [(0, 0), (10, 0), (20, 0)], cs_threshold_dbm=-55.0, config=config
            )
            for _ in range(60):
                world.macs[0].enqueue(1, 1400)
                world.macs[2].enqueue(1, 1400)
            world.run(0.6)
            results[rts] = world.delivered(1, (0, 1)) + world.delivered(1, (2, 1))
        assert results[True] > results[False]
