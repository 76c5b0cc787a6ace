"""AP-side receiver switching and persistent-exposure mechanics."""

from repro.core.config import CoMapConfig
from repro.core.neighbor_table import NeighborTable
from repro.core.protocol import CoMapAgent
from repro.mac.comap import CoMapMac, CoMapMacConfig
from repro.mac.rate_control import FixedRate
from repro.mac.timing import OFDM_TIMING
from repro.phy.rates import OFDM_RATES
from repro.util.geometry import Point

from tests.conftest import build_mac_world


def build_downlink_world(config=CoMapMacConfig()):
    """An AP with two clients: one concurrency-safe, one not.

    Every MAC runs on ``config``.

    Geometry (x-axis, meters):

        APfar(-40) <- Cfar(-32)      [the ongoing link]
        AP(0) -> Cnear(-12)          [downlink; Cnear too close to Cfar? no:]
        AP(0) -> Csafe(8)            [downlink; far from the ongoing link]

    When Cfar transmits to APfar, the AP overhears the header.  Its head
    frame targets Cnear, whose reception would be corrupted by the
    ongoing transmitter (Cfar at 20 m vs AP at 12 m -> insufficient SIR
    margin); the queue holds a frame for Csafe (48 m from Cfar), which
    passes — the AP must promote it ("it may choose another receiver
    further away from the current transmitter and verify again").
    """
    positions = [
        (-40.0, 0.0),   # 0: APfar
        (-32.0, 0.0),   # 1: Cfar (ongoing sender)
        (0.0, 0.0),     # 2: AP (the node under test)
        (-12.0, 0.0),   # 3: Cnear
        (8.0, 0.0),     # 4: Csafe
    ]
    protocol_config = CoMapConfig(t_sir_db=4.0)
    table = NeighborTable()

    def factory(i, sim, radio, rngs):
        agent = CoMapAgent(
            node_id=i,
            propagation=radio.channel.propagation,
            config=protocol_config,
            tx_power_dbm=0.0,
            t_cs_dbm=-87.0,
            neighbor_table=table,
        )
        return CoMapMac(
            i, sim, radio, OFDM_TIMING, OFDM_RATES, rngs,
            config=config,
            rate_policy=FixedRate(OFDM_RATES.by_bps(6_000_000)),
            agent=agent,
        )

    world = build_mac_world(
        positions, mac_factory=factory, tx_power_dbm=0.0,
        cs_threshold_dbm=-87.0, alpha=2.9, sigma_db=4.0, shadowing_mode="none",
    )
    meta = {0: (True, None), 1: (False, 0), 2: (True, None),
            3: (False, 2), 4: (False, 2)}
    for i, (x, y) in enumerate(positions):
        is_ap, ap = meta[i]
        table.update(i, Point(x, y), is_ap=is_ap, associated_ap=ap)
    return world


class TestReceiverSwitching:
    def test_validation_differs_between_receivers(self):
        world = build_downlink_world()
        agent = world.macs[2].agent
        assert not agent.concurrency_allowed(1, 0, 3)   # Cnear: unsafe
        assert agent.concurrency_allowed(1, 0, 4)       # Csafe: fine

    def test_ap_promotes_safe_receiver(self):
        world = build_downlink_world()
        ap = world.macs[2]
        # Keep the ongoing link busy and give the AP a mixed queue with
        # the unsafe receiver at the head.
        for _ in range(40):
            world.macs[1].enqueue(0, 1400)
        for _ in range(20):
            ap.enqueue(3, 1400)
            ap.enqueue(4, 1400)
        world.run(0.5)
        assert ap.comap_stats.receiver_switches > 0
        # Both clients are eventually served.
        assert world.delivered(3, (2, 3)) == 20
        assert world.delivered(4, (2, 4)) == 20

    def test_switch_preserves_head_frame(self):
        # The demoted head goes back to the queue front, not to the void.
        world = build_downlink_world()
        ap = world.macs[2]
        for _ in range(40):
            world.macs[1].enqueue(0, 1400)
        ap.enqueue(3, 1400)
        ap.enqueue(4, 1400)
        world.run(0.5)
        assert world.delivered(3, (2, 3)) == 1
        assert world.delivered(4, (2, 4)) == 1


class TestPersistentExposure:
    def test_signatures_recorded_from_headers(self):
        world = build_downlink_world()
        ap = world.macs[2]
        for _ in range(5):
            world.macs[1].enqueue(0, 1400)
        ap.enqueue(4, 1400)
        world.run(0.2)
        assert (1, 0) in ap._link_signatures

    def test_signature_opportunities_counted(self):
        world = build_downlink_world()
        ap = world.macs[2]
        for _ in range(60):
            world.macs[1].enqueue(0, 1400)
        for _ in range(30):
            ap.enqueue(4, 1400)
        world.run(0.5)
        stats = ap.comap_stats
        assert stats.concurrent_transmissions > 0
        # Streaming requires signature-based reopening at least sometimes.
        assert stats.signature_opportunities + stats.opportunities_validated > 0

    def test_persistent_exposure_can_be_disabled(self):
        world = build_downlink_world(CoMapMacConfig(persistent_exposure=False))
        ap = world.macs[2]
        for _ in range(60):
            world.macs[1].enqueue(0, 1400)
        for _ in range(30):
            ap.enqueue(4, 1400)
        world.run(0.5)
        assert ap.comap_stats.signature_opportunities == 0
