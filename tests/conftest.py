"""Shared test fixtures and stub objects."""

from collections import deque
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Deque, Dict, List, Optional, Tuple

import pytest

from repro.experiments.parallel import ResultCache
from repro.mac.frames import Frame, FrameType
from repro.mac.timing import OFDM_TIMING
from repro.phy.channel import Channel
from repro.phy.propagation import LogNormalShadowing
from repro.phy.radio import Radio, RadioConfig
from repro.phy.rates import OFDM_RATES
from repro.sim.engine import Simulator
from repro.util.geometry import Point
from repro.util.rng import RngStreams


class StubMac:
    """Records every PHY indication; lets tests drive radios directly."""

    def __init__(self):
        self.received: List[Tuple[Frame, float]] = []
        self.corrupted: List[Frame] = []
        self.completed: List[Frame] = []
        self.busy_edges: List[str] = []
        self.energy_samples: List[float] = []

    def on_frame_received(self, frame, rssi_dbm):
        self.received.append((frame, rssi_dbm))

    def on_frame_corrupted(self, frame):
        self.corrupted.append(frame)

    def on_tx_complete(self, frame):
        self.completed.append(frame)

    def on_medium_busy(self):
        self.busy_edges.append("busy")

    def on_medium_idle(self):
        self.busy_edges.append("idle")

    def on_energy_changed(self, energy_mw):
        self.energy_samples.append(energy_mw)

    def on_header_overheard(self, frame, rssi_dbm):
        """Embedded-announcement decodes land here; stubs ignore them."""


@dataclass
class PhyWorld:
    """A small PHY-only world: simulator, channel, and stub-MAC radios."""

    sim: Simulator
    channel: Channel
    radios: List[Radio]
    macs: List[StubMac]

    def data_frame(self, src: int, dst: int, payload: int = 500, rate=None) -> Frame:
        return Frame(
            kind=FrameType.DATA,
            src=src,
            dst=dst,
            rate=rate or OFDM_RATES.by_bps(6_000_000),
            payload_bytes=payload,
        )


def build_phy_world(
    positions,
    tx_power_dbm: float = 20.0,
    cs_threshold_dbm: float = -80.0,
    alpha: float = 3.3,
    sigma_db: float = 0.0,
    shadowing_mode: str = "none",
    seed: int = 0,
    cull_margin_db=None,
) -> PhyWorld:
    """Create radios at ``positions`` with stub MACs on one channel."""
    sim = Simulator()
    channel = Channel(
        sim=sim,
        propagation=LogNormalShadowing(alpha=alpha, sigma_db=sigma_db),
        timing=OFDM_TIMING,
        rngs=RngStreams(seed),
        shadowing_mode=shadowing_mode,
        cull_margin_db=cull_margin_db,
    )
    radios, macs = [], []
    for i, (x, y) in enumerate(positions):
        radio = Radio(
            radio_id=i,
            position=Point(x, y),
            config=RadioConfig(
                tx_power_dbm=tx_power_dbm, cs_threshold_dbm=cs_threshold_dbm
            ),
            channel=channel,
        )
        mac = StubMac()
        radio.bind_mac(mac)
        radios.append(radio)
        macs.append(mac)
    return PhyWorld(sim=sim, channel=channel, radios=radios, macs=macs)


@dataclass
class MacWorld:
    """A full MAC-level world: DCF (or CO-MAP) entities on one channel."""

    sim: Simulator
    channel: Channel
    radios: List[Radio]
    macs: list
    #: Frames offered beyond what a sender's queue holds, per sender.
    backlogs: Dict[int, Deque[Tuple[int, int]]] = field(default_factory=dict)

    def offer(self, src: int, dst: int, payload_bytes: int, count: int) -> None:
        """Offer ``count`` frames src -> dst, more than a MAC queue holds.

        What does not fit waits here and tops the queue up as it drains
        (through ``on_queue_space``, as ``SaturatedSource`` does for a
        node), so the sender stays backlogged until all were sent.
        """
        backlog = self.backlogs.get(src)
        if backlog is None:
            backlog = self.backlogs[src] = deque()
            self.macs[src].on_queue_space = lambda: self._top_up(src)
        backlog.extend([(dst, payload_bytes)] * count)
        self._top_up(src)

    def _top_up(self, src: int) -> None:
        mac, backlog = self.macs[src], self.backlogs[src]
        while backlog and mac.enqueue(*backlog[0]):
            backlog.popleft()

    def run(self, seconds: float) -> None:
        self.sim.run(until=self.sim.now + int(seconds * 1e9))

    def delivered(self, rx: int, flow: Optional[Tuple[int, int]] = None) -> int:
        stats = self.macs[rx].stats
        if flow is None:
            return stats.delivered_packets
        return stats.delivered_packets_by_flow.get(flow, 0)


def build_mac_world(
    positions,
    mac_factory=None,
    tx_power_dbm: float = 20.0,
    cs_threshold_dbm: float = -80.0,
    alpha: float = 3.3,
    sigma_db: float = 0.0,
    shadowing_mode: str = "none",
    seed: int = 0,
    config=None,
    rate_bps: int = 6_000_000,
) -> MacWorld:
    """Create DCF MACs at ``positions`` (deterministic channel by default).

    Every default-built MAC runs on the one ``config``, as in a network.
    """
    from repro.mac.dcf import DcfMac, MacConfig
    from repro.mac.rate_control import FixedRate

    sim = Simulator()
    rngs = RngStreams(seed)
    channel = Channel(
        sim=sim,
        propagation=LogNormalShadowing(alpha=alpha, sigma_db=sigma_db),
        timing=OFDM_TIMING,
        rngs=rngs,
        shadowing_mode=shadowing_mode,
    )
    config = config or MacConfig()
    radios, macs = [], []
    for i, (x, y) in enumerate(positions):
        radio = Radio(
            radio_id=i,
            position=Point(x, y),
            config=RadioConfig(tx_power_dbm=tx_power_dbm, cs_threshold_dbm=cs_threshold_dbm),
            channel=channel,
        )
        if mac_factory is not None:
            mac = mac_factory(i, sim, radio, rngs)
        else:
            mac = DcfMac(
                i, sim, radio, OFDM_TIMING, OFDM_RATES, rngs,
                config=config,
                rate_policy=FixedRate(OFDM_RATES.by_bps(rate_bps)),
            )
        radios.append(radio)
        macs.append(mac)
    return MacWorld(sim=sim, channel=channel, radios=radios, macs=macs)


@pytest.fixture
def phy_pair():
    """Two radios 10 m apart (strong link)."""
    return build_phy_world([(0.0, 0.0), (10.0, 0.0)])


@pytest.fixture
def phy_trio():
    """Sender at 0, receiver at 10 m, far node at 200 m."""
    return build_phy_world([(0.0, 0.0), (10.0, 0.0), (200.0, 0.0)])


@pytest.fixture
def store_lookups(monkeypatch):
    """Result-store hits and misses from here on: every
    ``ResultCache.get`` counts as one or the other."""
    lookups = SimpleNamespace(hits=0, misses=0)
    real_get = ResultCache.get

    def get(self, digest):
        hit, value, counters = real_get(self, digest)
        if hit:
            lookups.hits += 1
        else:
            lookups.misses += 1
        return hit, value, counters

    monkeypatch.setattr(ResultCache, "get", get)
    return lookups
