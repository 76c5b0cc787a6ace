"""The embedded (4-byte early-FCS) announcement variant."""

import pytest

from repro.core.config import CoMapConfig
from repro.mac.frames import (
    EMBEDDED_ANNOUNCE_BYTES,
    MAC_DATA_OVERHEAD_BYTES,
    Frame,
    FrameType,
)
from repro.phy.rates import OFDM_RATES

from tests.test_comap_mac import build_et_world


class TestFrameOverhead:
    def test_embedded_flag_adds_four_bytes(self):
        plain = Frame(kind=FrameType.DATA, src=0, dst=1,
                      rate=OFDM_RATES.base, payload_bytes=1000)
        announced = Frame(kind=FrameType.DATA, src=0, dst=1,
                          rate=OFDM_RATES.base, payload_bytes=1000,
                          meta={"embedded_announce": True})
        assert announced.total_bytes == plain.total_bytes + EMBEDDED_ANNOUNCE_BYTES
        assert plain.total_bytes == 1000 + MAC_DATA_OVERHEAD_BYTES

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            CoMapConfig(announce_mode="telepathy")


class TestEmbeddedMode:
    def build(self, c2_x=30.0):
        world = build_et_world(
            c2_x=c2_x,
            protocol_config=CoMapConfig(t_sir_db=4.0, announce_mode="embedded"),
        )
        return world

    def test_no_separate_header_frames(self):
        world = self.build()
        kinds = []
        orig = world.channel.transmit

        def spy(sender, frame):
            kinds.append(frame.kind)
            return orig(sender, frame)

        world.channel.transmit = spy
        world.macs[2].enqueue(0, 500)
        world.run(0.05)
        assert FrameType.COMAP_HEADER not in kinds
        assert world.macs[2].comap_stats.headers_sent == 1  # counted, embedded

    def test_data_frames_carry_announcement(self):
        world = self.build()
        seen = {}
        orig = world.channel.transmit

        def spy(sender, frame):
            if frame.kind is FrameType.DATA and sender.radio_id == 2:
                seen["meta"] = dict(frame.meta)
            return orig(sender, frame)

        world.channel.transmit = spy
        world.macs[2].enqueue(0, 500)
        world.run(0.05)
        assert seen["meta"].get("embedded_announce")
        assert seen["meta"].get("dur", 0) > 0

    def test_partial_decode_creates_opportunities(self):
        world = self.build()
        for _ in range(30):
            world.macs[3].enqueue(1, 1400)
            world.macs[2].enqueue(0, 1400)
        world.run(0.5)
        total = (world.macs[2].comap_stats.opportunities_validated
                 + world.macs[3].comap_stats.opportunities_validated)
        assert total > 0
        concurrent = (world.macs[2].comap_stats.concurrent_transmissions
                      + world.macs[3].comap_stats.concurrent_transmissions)
        assert concurrent > 0

    def test_embedded_delivers_all_traffic(self):
        world = self.build()
        for _ in range(30):
            world.macs[2].enqueue(0, 1200)
            world.macs[3].enqueue(1, 1200)
        world.run(0.6)
        assert world.delivered(0, (2, 0)) == 30
        assert world.delivered(1, (3, 1)) == 30

    def test_embedded_beats_separate_at_fixed_rate(self):
        # Earlier detection + 4-byte overhead vs a whole header frame.
        def aggregate(mode):
            world = build_et_world(
                c2_x=30.0,
                protocol_config=CoMapConfig(t_sir_db=4.0, announce_mode=mode),
            )
            world.offer(2, 0, 1400, 300)
            world.offer(3, 1, 1400, 300)
            world.run(1.0)
            return world.delivered(0, (2, 0)) + world.delivered(1, (3, 1))

        assert aggregate("embedded") >= aggregate("separate") * 0.95

    def test_receiver_does_not_self_trigger(self):
        # The intended receiver decodes the announcement too but must not
        # treat its own incoming frame as an ET opportunity.
        world = self.build()
        world.macs[2].enqueue(0, 1400)
        world.macs[0]._head = None  # the AP has nothing to send
        world.run(0.05)
        assert world.macs[0].comap_stats.opportunities_validated == 0
