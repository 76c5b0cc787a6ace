"""Property-based invariants of the MAC layer under arbitrary traffic.

The central conservation law: at any quiescent point, every MSDU
accepted by ``enqueue`` is delivered (uniquely) at its receiver and/or
dropped after the retry limit — nothing vanishes silently and nothing is
delivered twice.  The "and/or" is physical: when the data arrives but
every ACK is lost, the receiver counts a delivery while the sender
exhausts its retries and also counts a drop.
"""

from hypothesis import given, settings, strategies as st

from repro.core.config import CoMapConfig
from repro.core.neighbor_table import NeighborTable
from repro.core.protocol import CoMapAgent
from repro.mac.comap import CoMapMac, CoMapMacConfig
from repro.mac.rate_control import FixedRate
from repro.mac.timing import OFDM_TIMING
from repro.phy.rates import OFDM_RATES
from repro.util.geometry import Point

from tests.conftest import build_mac_world

# A traffic script: list of (sender_index, payload, gap_us) events.
traffic_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=50, max_value=1500),
        st.integers(min_value=0, max_value=3000),
    ),
    min_size=1,
    max_size=25,
)


class TestDcfConservation:
    @settings(max_examples=20, deadline=None)
    @given(traffic_strategy)
    def test_every_packet_delivered_or_dropped(self, script):
        # Three senders around one AP (receiver id 3); mixed distances so
        # collisions and capture both occur.
        world = build_mac_world([(10, 0), (-10, 0), (0, 12), (0, 0)])
        accepted = 0
        now_us = 0
        for sender, payload, gap_us in script:
            now_us += gap_us

            def enqueue(s=sender, p=payload):
                nonlocal accepted
                if world.macs[s].enqueue(3, p):
                    accepted += 1

            world.sim.schedule_at(now_us * 1000, enqueue)
        world.run(1.0)
        delivered = world.macs[3].stats.delivered_packets
        dropped = sum(world.macs[i].stats.retry_drops for i in (0, 1, 2))
        queued = sum(world.macs[i].queue_length
                     + (1 if world.macs[i]._head is not None else 0)
                     for i in (0, 1, 2))
        assert queued == 0
        assert delivered <= accepted            # uniqueness
        assert dropped <= accepted
        assert delivered + dropped >= accepted  # nothing vanishes

    @settings(max_examples=10, deadline=None)
    @given(traffic_strategy)
    def test_hidden_terminal_world_conserves(self, script):
        # Receiver in the middle, senders mutually hidden (raised CS):
        # heavy collisions, retries, and drops — conservation must hold.
        world = build_mac_world(
            [(-10, 0), (10, 0), (0, 8), (0, 0)],
            cs_threshold_dbm=-55.0,
        )
        accepted = 0
        now_us = 0
        for sender, payload, gap_us in script:
            now_us += gap_us

            def enqueue(s=sender, p=payload):
                nonlocal accepted
                if world.macs[s].enqueue(3, p):
                    accepted += 1

            world.sim.schedule_at(now_us * 1000, enqueue)
        world.run(2.0)
        delivered = world.macs[3].stats.delivered_packets
        dropped = sum(world.macs[i].stats.retry_drops for i in (0, 1, 2))
        queued = sum(world.macs[i].queue_length
                     + (1 if world.macs[i]._head is not None else 0)
                     for i in (0, 1, 2))
        assert queued == 0
        assert delivered <= accepted            # uniqueness
        assert dropped <= accepted
        assert delivered + dropped >= accepted  # nothing vanishes


class TestCoMapConservation:
    @settings(max_examples=10, deadline=None)
    @given(traffic_strategy)
    def test_comap_exposed_world_conserves(self, script):
        # The Fig. 1 ET geometry with CO-MAP: concurrency, SR-ARQ and
        # retransmissions must not lose or duplicate MSDUs.
        positions = [(0, 0), (36, 0), (-8, 0), (30, 0)]
        protocol_config = CoMapConfig(t_sir_db=4.0)
        config = CoMapMacConfig()
        table = NeighborTable()

        def factory(i, sim, radio, rngs):
            agent = CoMapAgent(i, radio.channel.propagation, protocol_config,
                               tx_power_dbm=0.0, t_cs_dbm=-87.0,
                               neighbor_table=table)
            return CoMapMac(
                i, sim, radio, OFDM_TIMING, OFDM_RATES, rngs,
                config=config,
                rate_policy=FixedRate(OFDM_RATES.by_bps(6_000_000)),
                agent=agent,
            )

        world = build_mac_world(positions, mac_factory=factory,
                                tx_power_dbm=0.0, cs_threshold_dbm=-87.0,
                                alpha=2.9, sigma_db=4.0, shadowing_mode="none")
        meta = {0: (True, None), 1: (True, None), 2: (False, 0), 3: (False, 1)}
        for i, (x, y) in enumerate(positions):
            is_ap, ap = meta[i]
            table.update(i, Point(x, y), is_ap=is_ap, associated_ap=ap)
        accepted = {2: 0, 3: 0}
        now_us = 0
        for sender, payload, gap_us in script:
            mac_index = 2 if sender in (0, 2) else 3
            dst = 0 if mac_index == 2 else 1
            now_us += gap_us

            def enqueue(m=mac_index, d=dst, p=payload):
                if world.macs[m].enqueue(d, p):
                    accepted[m] += 1

            world.sim.schedule_at(now_us * 1000, enqueue)
        world.run(2.0)
        for mac_index, dst in ((2, 0), (3, 1)):
            mac = world.macs[mac_index]
            delivered = world.macs[dst].stats.delivered_packets
            # Drain SR windows: no frame may linger unresolved.
            outstanding = sum(s.outstanding for s in mac._sr_senders.values())
            queued = mac.queue_length + (1 if mac._head is not None else 0)
            assert queued == 0
            assert outstanding == 0
            assert delivered <= accepted[mac_index]
            assert delivered + mac.stats.retry_drops >= accepted[mac_index]
