"""Radio-level partial decode of embedded announcements: edge cases."""

from repro.mac.frames import EMBEDDED_DECODE_BYTES

from tests.conftest import build_phy_world


def announced_frame(world, src, dst, payload=1000, rate=None):
    frame = world.data_frame(src, dst, payload=payload, rate=rate)
    frame.meta["embedded_announce"] = True
    frame.meta["dur"] = 12345
    return frame


class StubHeaderSink:
    """Collects on_header_overheard calls from the radio."""

    def __init__(self, mac):
        self.mac = mac
        self.headers = []
        mac_on = mac

    def install(self, radio):
        base = radio.mac

        class Wrapper:
            def __getattr__(_, name):
                return getattr(base, name)

        radio.mac = base  # keep the stub; we extend it below
        base.on_header_overheard = lambda frame, rssi: self.headers.append(frame)
        return self


class TestPartialDecode:
    def test_clean_frame_delivers_announcement_early(self, phy_pair):
        world = phy_pair
        sink = StubHeaderSink(world.macs[1]).install(world.radios[1])
        frame = announced_frame(world, 0, 1)
        world.radios[0].start_transmission(frame)
        decode_time = (world.channel.air_latency_ns
                       + frame.rate.airtime_ns(EMBEDDED_DECODE_BYTES))
        world.sim.run(until=decode_time + 1)
        assert [f.uid for f in sink.headers] == [frame.uid]
        # ... long before the frame itself completes.
        assert world.macs[1].received == []
        world.sim.run()
        assert len(world.macs[1].received) == 1

    def test_plain_frame_triggers_no_announcement(self, phy_pair):
        world = phy_pair
        sink = StubHeaderSink(world.macs[1]).install(world.radios[1])
        world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run()
        assert sink.headers == []

    def test_interfered_header_not_delivered(self):
        # An equal-power interferer present during the header portion (too
        # weak to capture the receiver) makes the partial decode fail even
        # though the announcement bit is set.
        world = build_phy_world([(0, 0), (10, 0), (20, 0)])
        sink = StubHeaderSink(world.macs[1]).install(world.radios[1])
        frame = announced_frame(world, 0, 1, payload=1500)
        world.radios[0].start_transmission(frame)
        world.radios[2].start_transmission(world.data_frame(2, 1, payload=1500))
        world.sim.run()
        assert sink.headers == []

    def test_captured_lock_cancels_decode(self):
        # The weak announced frame locks first but a much stronger frame
        # captures the receiver before the header portion completes: the
        # original announcement must not be delivered.
        world = build_phy_world([(60, 0), (0, 0), (5, 0)])
        sink = StubHeaderSink(world.macs[1]).install(world.radios[1])
        weak = announced_frame(world, 0, 1, payload=1500)
        world.radios[0].start_transmission(weak)
        world.sim.run(until=world.sim.now + world.channel.air_latency_ns + 1)
        world.radios[2].start_transmission(world.data_frame(2, 1, payload=200))
        world.sim.run()
        assert all(f.uid != weak.uid for f in sink.headers)

    def test_sub_sensitivity_frame_never_announces(self):
        from repro.phy.rates import OFDM_RATES

        world = build_phy_world([(0, 0), (100, 0)])
        sink = StubHeaderSink(world.macs[1]).install(world.radios[1])
        frame = announced_frame(world, 0, 1, rate=OFDM_RATES.top)
        world.radios[0].start_transmission(frame)
        world.sim.run()
        assert sink.headers == []
