"""Fine-grained DCF timing: IFS arithmetic, freeze accounting, EIFS."""

import pytest

from repro.mac.dcf import DcfMac, MacConfig, MacState
from repro.mac.frames import FrameType
from repro.mac.rate_control import FixedRate
from repro.mac.timing import OFDM_TIMING
from repro.phy.rates import OFDM_RATES

from tests.conftest import build_mac_world


class TestFirstTransmissionTiming:
    def test_zero_backoff_transmits_after_difs(self):
        # constant_cw=1 forces a zero-slot draw: the data frame must hit
        # the air exactly DIFS after the enqueue on an idle medium.
        world = build_mac_world([(0, 0), (10, 0)], config=MacConfig(constant_cw=1))
        starts = []
        orig = world.channel.transmit

        def spy(sender, frame):
            starts.append(world.sim.now)
            return orig(sender, frame)

        world.channel.transmit = spy
        world.macs[0].enqueue(1, 500)
        world.run(0.01)
        assert starts[0] == OFDM_TIMING.difs_ns

    def test_known_backoff_adds_whole_slots(self):
        # Pin the backoff draw and verify slot arithmetic to the ns.
        world = build_mac_world([(0, 0), (10, 0)])
        mac = world.macs[0]
        mac._draw_backoff = lambda: 7
        starts = []
        orig = world.channel.transmit

        def spy(sender, frame):
            starts.append(world.sim.now)
            return orig(sender, frame)

        world.channel.transmit = spy
        mac.enqueue(1, 500)
        world.run(0.01)
        assert starts[0] == OFDM_TIMING.difs_ns + 7 * OFDM_TIMING.slot_ns

    def test_ack_arrives_sifs_after_data(self):
        world = build_mac_world([(0, 0), (10, 0)], config=MacConfig(constant_cw=1))
        frames = []
        orig = world.channel.transmit

        def spy(sender, frame):
            frames.append((world.sim.now, frame.kind.value))
            return orig(sender, frame)

        world.channel.transmit = spy
        world.macs[0].enqueue(1, 500)
        world.run(0.01)
        data_start = frames[0][0]
        data_frame_air = OFDM_TIMING.preamble_ns + OFDM_RATES.by_bps(6_000_000).airtime_ns(528)
        latency = world.channel.air_latency_ns
        # The receiver hears the end `latency` late, then waits SIFS.
        assert frames[1][1] == "ack"
        assert frames[1][0] == data_start + data_frame_air + latency + OFDM_TIMING.sifs_ns


class TestFreezeAccounting:
    def test_partial_slot_not_credited(self):
        # A station frozen mid-slot must not count the interrupted slot.
        world = build_mac_world([(0, 0), (10, 0), (2, 0)])
        mac = world.macs[0]
        mac._draw_backoff = lambda: 10
        mac.enqueue(1, 500)
        # Let DIFS elapse plus 2.5 slots, then a neighbor transmits.
        world.run((OFDM_TIMING.difs_ns + 2 * OFDM_TIMING.slot_ns
                   + OFDM_TIMING.slot_ns // 2) / 1e9)
        world.macs[2]._draw_backoff = lambda: 0
        world.macs[2].enqueue(1, 100)
        world.run(0.05)
        # Both deliveries happened despite the freeze.
        assert world.delivered(1) == 2

    def test_frozen_station_remaining_slots(self):
        world = build_mac_world([(0, 0), (10, 0), (2, 0)])
        mac = world.macs[0]
        mac._draw_backoff = lambda: 10
        mac.enqueue(1, 500)
        world.run((OFDM_TIMING.difs_ns + 3 * OFDM_TIMING.slot_ns) / 1e9)
        # Freeze it by a foreign transmission.
        world.macs[2]._draw_backoff = lambda: 0
        world.macs[2].enqueue(1, 100)
        world.run(0.0003)  # enough for the busy edge to land
        assert mac._backoff_slots is not None
        assert mac._backoff_slots <= 7  # at least 3 slots consumed


class TestEifs:
    def test_corrupted_reception_triggers_eifs(self):
        # constant_cw=1 draws zero slots, so each data frame goes out one
        # IFS after its contention starts on the idle medium: EIFS after
        # the corrupted reception, DIFS once that wait has elapsed.
        world = build_mac_world([(0, 0), (10, 0)], config=MacConfig(constant_cw=1))
        mac = world.macs[0]
        assert not mac._need_eifs
        from repro.mac.frames import Frame, FrameType

        frame = Frame(kind=FrameType.DATA, src=5, dst=6,
                      rate=OFDM_RATES.base, payload_bytes=100)
        mac.on_frame_corrupted(frame)
        assert mac._need_eifs
        sent = []
        orig = world.channel.transmit

        def spy(sender, frame):
            sent.append((world.sim.now, frame.kind))
            return orig(sender, frame)

        world.channel.transmit = spy
        mac.enqueue(1, 500)
        mac.enqueue(1, 500)
        world.run(0.01)
        assert [kind for _, kind in sent] == [
            FrameType.DATA, FrameType.ACK, FrameType.DATA, FrameType.ACK,
        ]
        assert sent[0][0] == OFDM_TIMING.eifs_ns(OFDM_RATES.base)
        ack_start = sent[1][0]
        ack_heard = (ack_start + OFDM_TIMING.ack_airtime_ns(OFDM_RATES.base)
                     + world.channel.air_latency_ns)
        assert sent[2][0] == ack_heard + OFDM_TIMING.difs_ns

    def test_eifs_cleared_after_wait(self):
        world = build_mac_world([(0, 0), (10, 0)], config=MacConfig(constant_cw=1))
        mac = world.macs[0]
        from repro.mac.frames import Frame, FrameType

        mac.on_frame_corrupted(Frame(kind=FrameType.DATA, src=5, dst=6,
                                     rate=OFDM_RATES.base, payload_bytes=100))
        mac.enqueue(1, 500)
        world.run(0.01)
        assert not mac._need_eifs
        assert world.delivered(1) == 1


class _CountsThroughBusy(DcfMac):
    """A DCF subclass that asks to keep counting through any busy medium."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.busy_queries = 0
        #: Per busy edge: (contending when it came, queries it made).
        self.busy_edges = []

    def on_medium_busy(self):
        contending = self.state is MacState.CONTEND
        before = self.busy_queries
        super().on_medium_busy()
        self.busy_edges.append((contending, self.busy_queries - before))

    def _should_ignore_busy(self):
        self.busy_queries += 1
        return True


class TestBusyIgnoreHook:
    """Only a MAC that overrides ``_should_ignore_busy`` is asked it."""

    def _first_data_start(self, mac_factory=None):
        # Node 0 draws 10 slots; node 2 (zero slots) starts a frame after
        # node 0 has counted 3 of them, so node 0 sees a busy edge while
        # contending.  Returns node 0's MAC and its first data start.
        world = build_mac_world([(0, 0), (10, 0), (2, 0)], mac_factory=mac_factory)
        mac = world.macs[0]
        mac._draw_backoff = lambda: 10
        starts = []
        orig = world.channel.transmit

        def spy(sender, frame):
            if sender.radio_id == 0 and frame.kind is FrameType.DATA:
                starts.append(world.sim.now)
            return orig(sender, frame)

        world.channel.transmit = spy
        mac.enqueue(1, 500)
        world.run((OFDM_TIMING.difs_ns + 3 * OFDM_TIMING.slot_ns) / 1e9)
        world.macs[2]._draw_backoff = lambda: 0
        world.macs[2].enqueue(1, 100)
        world.run(0.01)
        return mac, starts[0]

    def test_override_is_asked_on_each_busy_edge_and_counts_through(self):
        def factory(i, sim, radio, rngs):
            cls = _CountsThroughBusy if i == 0 else DcfMac
            return cls(i, sim, radio, OFDM_TIMING, OFDM_RATES, rngs,
                       rate_policy=FixedRate(OFDM_RATES.by_bps(6_000_000)))

        mac, start = self._first_data_start(factory)
        assert any(contending for contending, _ in mac.busy_edges)
        assert all(
            asked == (1 if contending else 0)
            for contending, asked in mac.busy_edges
        )
        # The countdown never froze: DIFS plus all 10 slots.
        assert start == OFDM_TIMING.difs_ns + 10 * OFDM_TIMING.slot_ns

    def test_plain_dcf_freezes(self):
        _, start = self._first_data_start()
        assert start > OFDM_TIMING.difs_ns + 10 * OFDM_TIMING.slot_ns


class TestAirLatency:
    def test_same_slot_expiries_collide(self):
        # Two stations with identical pinned backoffs must collide (the
        # zero-latency serialization bug regression test).
        world = build_mac_world([(0, 0), (10, 0), (0.5, 0.5)])
        for i in (0, 2):
            world.macs[i]._draw_backoff = lambda: 3
            world.macs[i].enqueue(1, 500)
        world.run(0.1)
        total_retx = (world.macs[0].stats.retransmissions
                      + world.macs[2].stats.retransmissions)
        assert total_retx >= 1

    def test_latency_configurable(self):
        world = build_mac_world([(0, 0), (10, 0)])
        assert world.channel.air_latency_ns == 1_000
