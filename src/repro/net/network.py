"""The network orchestrator: builds nodes, runs simulations, collects results.

A :class:`Network` instantiates one simulator + channel from a
:class:`repro.experiments.params.ScenarioParams`, creates APs and clients
with the configured MAC flavour (a key of :data:`MAC_KINDS`), performs
the CO-MAP location exchange (with a pluggable position-error model),
attaches traffic and measures per-flow goodput.

Location exchange is modelled as the paper describes it operationally:
every client reports its (localization-estimated) position to its AP and
APs redistribute positions to nearby participants — the net effect being
that every CO-MAP agent knows the same *reported* coordinates of its 2-hop
neighborhood, so the agents of a band read one neighbor table.  The
exchange itself costs a handful of tiny frames per node ("little
communication overhead"), which we account for as an explicit overhead
estimate rather than by injecting frames, so protocol benefits and costs
stay separately measurable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.adaptation import AdaptationTable
from repro.core.neighbor_table import NeighborTable
from repro.core.protocol import CoMapAgent
from repro.mac.cmap import CmapMac
from repro.mac.comap import CoMapMac, CoMapMacConfig
from repro.mac.csr import CsrMac
from repro.mac.dcf import DcfMac, MacConfig
from repro.mac.exposed import ExposedMacConfig
from repro.mac.frames import COMAP_HEADER_BYTES, MAC_DATA_OVERHEAD_BYTES
from repro.mac.rate_control import FixedRate, MinstrelLite
from repro.net.localization import NoError, PositionErrorModel
from repro.net.node import Node
from repro.net.traffic import CbrSource, SaturatedSource, TcpLiteFlow
from repro.phy.channel import Channel
from repro.phy.propagation import LogNormalShadowing
from repro.phy.radio import Radio, RadioConfig
from repro.sim.engine import Simulator
from repro.util.geometry import Point
from repro.util.rng import RngStreams
from repro.util.units import SECOND, s_to_ns

#: mac_kind -> (MAC class, MAC config class).  A kind runs the CO-MAP
#: location machinery (exchange, reports, adaptation) iff its MAC is a
#: :class:`CoMapMac`; "csr" is CO-MAP plus the wired-backhaul coordination.
MAC_KINDS = {
    "dcf": (DcfMac, MacConfig),
    "comap": (CoMapMac, CoMapMacConfig),
    "cmap": (CmapMac, ExposedMacConfig),
    "csr": (CsrMac, CoMapMacConfig),
}


def _build_mac_config(cls, overrides: Optional[dict]) -> MacConfig:
    """``cls`` built with ``overrides``; an unknown field raises."""
    overrides = overrides or {}
    names = {f.name for f in dataclasses.fields(cls)}
    for key in overrides:
        if key not in names:
            raise AttributeError(f"unknown MAC config field {key!r}")
    return cls(**overrides)


@dataclass(frozen=True)
class FlowResult:
    """Outcome of one (src, dst) flow."""

    src: int
    dst: int
    goodput_bps: float
    delivered_packets: int
    delivered_bytes: int

    @property
    def goodput_mbps(self) -> float:
        """Goodput in Mbit/s."""
        return self.goodput_bps / 1e6


@dataclass
class RunResults:
    """Aggregated results of one simulation run."""

    duration_ns: int
    flows: Dict[Tuple[int, int], FlowResult] = field(default_factory=dict)
    #: Per-node transmit duty cycle (fraction of the run spent on-air).
    airtime_share: Dict[int, float] = field(default_factory=dict)

    def goodput_bps(self, src: int, dst: int) -> float:
        """Goodput of one flow; zero when the flow delivered nothing."""
        result = self.flows.get((src, dst))
        return result.goodput_bps if result is not None else 0.0

    def goodput_mbps(self, src: int, dst: int) -> float:
        """Goodput of one flow in Mbit/s."""
        return self.goodput_bps(src, dst) / 1e6

    @property
    def aggregate_goodput_bps(self) -> float:
        """Sum of all flows' goodput."""
        return sum(flow.goodput_bps for flow in self.flows.values())

    def per_flow_mbps(self) -> Dict[Tuple[int, int], float]:
        """Mapping of flow -> goodput in Mbit/s."""
        return {key: flow.goodput_mbps for key, flow in self.flows.items()}

    def fairness(self, flows: Optional[List[Tuple[int, int]]] = None) -> float:
        """Jain's fairness index over the given flows (default: all).

        Flows that delivered nothing count as zero, so starvation under
        exposed/hidden-terminal pathologies is visible in the index.
        """
        from repro.util.stats import jain_fairness

        if flows is None:
            values = [flow.goodput_bps for flow in self.flows.values()]
        else:
            values = [self.goodput_bps(src, dst) for src, dst in flows]
        if not values:
            raise ValueError("no flows to compute fairness over")
        return jain_fairness(values)


class Network:
    """One simulated WLAN instance."""

    def __init__(
        self,
        params,
        mac_kind: str = "dcf",
        seed: int = 0,
        error_model: Optional[PositionErrorModel] = None,
        mac_overrides: Optional[dict] = None,
    ) -> None:
        if mac_kind not in MAC_KINDS:
            raise ValueError(
                f"mac_kind must be one of {tuple(MAC_KINDS)}, got {mac_kind!r}"
            )
        self.params = params
        self.mac_kind = mac_kind
        self._mac_cls, mac_config_cls = MAC_KINDS[mac_kind]
        #: The one MAC config every node of this network runs on: this
        #: kind's config with ``mac_overrides`` applied through its
        #: constructor, so the config's own validation sees them.
        self.mac_config = _build_mac_config(mac_config_cls, mac_overrides)
        #: True when this kind's MACs run on positions (CO-MAP and C-SR).
        self._location_aware = issubclass(self._mac_cls, CoMapMac)
        self.rngs = RngStreams(seed)
        self.sim = Simulator()
        self.propagation = LogNormalShadowing(params.alpha, params.sigma_db)
        self._channels: Dict[int, Channel] = {}
        #: One neighbor table per band, read by the band's CO-MAP agents.
        self._neighbor_tables: Dict[int, NeighborTable] = {}
        #: Band-0 medium (most scenarios are single-channel).
        self.channel = self.channel_for(0)
        self.error_model: PositionErrorModel = error_model or NoError()
        self.nodes: Dict[int, Node] = {}
        self.nodes_by_name: Dict[str, Node] = {}
        self._next_id = 0
        self._finalized = False
        #: The AP coordination plane of a "csr" network (see finalize()).
        self.backhaul = None
        self._adaptation_table: Optional[AdaptationTable] = None
        # Mobility-driven adaptation refreshes are filtered (only the
        # mover's attached same-band MACs) and coalesced (one refresh pass
        # per sim-time instant) — see _mark_adaptation_dirty.
        self._dirty_adaptation: set = set()
        # Handle of the scheduled zero-delay drain (None when no drain is
        # queued).  A handle — not a bool — so an inline drain can cancel
        # a stale queued drain instead of letting both run.
        self._adaptation_drain_handle = None
        #: The installed :class:`repro.faults.FaultInjector`, if any; it
        #: may hold back fresh reports (see :meth:`_report_fresh`).
        self.faults = None

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def channel_for(self, band: int) -> Channel:
        """The medium for one frequency band (created on first use).

        Non-overlapping bands are perfectly orthogonal: radios on
        different bands neither interfere with nor sense each other, as
        in the paper's office floor ("only the ones using the same
        frequency band are considered").
        """
        channel = self._channels.get(band)
        if channel is None:
            channel = Channel(
                sim=self.sim,
                propagation=self.propagation,
                timing=self.params.timing,
                rngs=self.rngs,
                shadowing_mode=self.params.shadowing_mode,
                band=band,
                cull_margin_db=self.params.cull_margin_db,
            )
            self._channels[band] = channel
            self._neighbor_tables[band] = NeighborTable()
        return channel

    @property
    def channels(self) -> Dict[int, Channel]:
        """All instantiated per-band media."""
        return dict(self._channels)

    def add_ap(self, name: str, x: float, y: float, band: int = 0) -> Node:
        """Create an access point at ``(x, y)`` meters on ``band``."""
        return self._make_node(name, Point(x, y), is_ap=True, band=band)

    def add_client(
        self,
        name: str,
        x: float,
        y: float,
        ap: Optional[Node] = None,
        cs_threshold_dbm: Optional[float] = None,
        band: Optional[int] = None,
    ) -> Node:
        """Create a client, optionally associating it to ``ap``.

        ``cs_threshold_dbm`` overrides the scenario-wide carrier-sense
        threshold for this node only (experimental control, e.g. the
        CS-disabled interferers of the Fig. 7 model validation).  The
        band defaults to the AP's band (or 0 when unassociated).
        """
        if band is None:
            band = ap.band if ap is not None else 0
        node = self._make_node(
            name, Point(x, y), is_ap=False,
            cs_threshold_dbm=cs_threshold_dbm, band=band,
        )
        if ap is not None:
            node.associate(ap)
        return node

    def _make_node(
        self,
        name: str,
        position: Point,
        is_ap: bool,
        cs_threshold_dbm: Optional[float] = None,
        band: int = 0,
    ) -> Node:
        if self._finalized:
            raise RuntimeError("cannot add nodes after finalize()")
        if name in self.nodes_by_name:
            raise ValueError(f"duplicate node name {name!r}")
        node_id = self._next_id
        self._next_id += 1
        params = self.params
        radio = Radio(
            radio_id=node_id,
            position=position,
            config=RadioConfig(
                tx_power_dbm=params.tx_power_dbm,
                cs_threshold_dbm=(
                    cs_threshold_dbm
                    if cs_threshold_dbm is not None
                    else params.cs_threshold_dbm
                ),
            ),
            channel=self.channel_for(band),
        )
        rate_policy = self._make_rate_policy(node_id)
        agent: Optional[CoMapAgent] = None
        location_kwargs = {}
        if self._location_aware:
            agent = CoMapAgent(
                node_id=node_id,
                propagation=self.propagation,
                config=params.comap,
                tx_power_dbm=params.tx_power_dbm,
                t_cs_dbm=params.cs_threshold_dbm,
                neighbor_table=self._neighbor_tables[band],
                adaptation=self._adaptation(),
            )
            location_kwargs["agent"] = agent
        mac = self._mac_cls(
            node_id,
            self.sim,
            radio,
            params.timing,
            params.rates,
            self.rngs,
            config=self.mac_config,
            rate_policy=rate_policy,
            **location_kwargs,
        )
        node = Node(node_id, name, radio, mac, is_ap=is_ap, agent=agent)
        self.nodes[node_id] = node
        self.nodes_by_name[name] = node
        return node

    def _make_rate_policy(self, node_id: int):
        params = self.params
        if params.data_rate_bps is not None:
            return FixedRate(params.rates.by_bps(params.data_rate_bps))
        return MinstrelLite(params.rates, self.rngs.stream("minstrel", node_id))

    def _adaptation(self) -> AdaptationTable:
        """One shared (lazily built) adaptation table for all agents.

        Its cells are shared further, with every table of the process
        built from the same parameters (see :mod:`repro.core.adaptation`).
        """
        if self._adaptation_table is None:
            params = self.params
            data_rate = (
                params.rates.by_bps(params.data_rate_bps)
                if params.data_rate_bps is not None
                else params.rates.top
            )
            header_ns = params.timing.preamble_ns + params.rates.base.airtime_ns(
                COMAP_HEADER_BYTES
            )
            self._adaptation_table = AdaptationTable(
                timing=params.timing,
                data_rate=data_rate,
                ack_rate=params.rates.base,
                config=params.comap,
                extra_header_ns=header_ns,
            )
        return self._adaptation_table

    # ------------------------------------------------------------------
    # Location exchange
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Perform the location exchange and initial adaptation pass.

        Each node's first report goes out, in node-id order, through the
        band table the run writes, so every band table holds its nodes in
        node-id order, and (with a location TTL) arms its MAC's staleness
        check.  One adaptation pass over every MAC follows, not one per
        report.
        """
        if self._finalized:
            return
        self._finalized = True
        for channel in self._channels.values():
            # Eager candidate-grid build (no-op with no radio attached):
            # the topology is complete here, so the cell-size heuristic
            # sees the full extent.
            channel.prepare_spatial()
        if not self._location_aware:
            return
        for node in self.nodes.values():
            self._write_row(node, self._new_report(node))
            node.mac.location_reported()
        self._refresh_all_adaptation()
        if self.mac_kind == "csr":
            self._wire_backhaul()

    def _wire_backhaul(self) -> None:
        """Create the AP coordination plane of a "csr" network.

        ``params.csr_backhaul_latency_ns = None`` (the default) leaves
        the backhaul off entirely: no bus, no ledger, no scheduled
        events — the network is then bit-identical to plain CO-MAP.
        APs attach in node-id order so backhaul fan-out is deterministic.
        """
        latency = self.params.csr_backhaul_latency_ns
        if latency is None:
            return
        from repro.net.backhaul import Backhaul

        self.backhaul = Backhaul(self.sim, latency)
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            if node.is_ap and isinstance(node.mac, CsrMac):
                node.mac.bind_backhaul(self.backhaul)

    def _new_report(self, node: Node) -> Point:
        """Run ``node``'s location service once and record the report.

        Each node perturbs its reports from its own
        ``substream("locerr", id)`` rather than one shared stream, so the
        number of draws one node's error model consumes (2 for a positive
        radius/sigma, 0 on the certainty path) can never shift another
        node's realizations: sweeping an error radius through 0 stays a
        local change.
        """
        report = self.error_model.apply(
            node.position, self.rngs.substream("locerr", node.node_id)
        )
        node.agent.mark_reported(report, node.position)
        return report

    def _write_row(self, node: Node, position: Point) -> bool:
        """Write ``position`` as ``node``'s row of its band's table.

        Nodes on other (orthogonal) frequency bands can neither interfere
        nor be sensed, so their tables never hold it.  Returns True when
        the write added the row or moved it.
        """
        ap = node.associated_ap
        return self._neighbor_tables[node.band].update(
            node.node_id, position, is_ap=node.is_ap,
            associated_ap=ap.node_id if ap is not None else None,
            now=self.sim.now,
        )

    def _refresh_all_adaptation(self) -> None:
        """Re-run the (N_ht, c) -> (CW, payload) lookup on every CO-MAP MAC."""
        for node in self.nodes.values():
            self._refresh_node_adaptation(node)

    def _refresh_node_adaptation(self, node: Node) -> None:
        """Re-run the (N_ht, c) -> (CW, payload) lookup on one MAC."""
        if not isinstance(node.mac, CoMapMac):
            return
        if node.is_ap:
            receivers = [client.node_id for client in node.clients]
        elif node.associated_ap is not None:
            receivers = [node.associated_ap.node_id]
        else:
            receivers = []
        node.mac.refresh_adaptation(receivers)

    def _mark_adaptation_dirty(self, moved: Node) -> None:
        """Queue adaptation refreshes caused by a write to ``moved``'s row.

        Only the attached CO-MAP MACs sharing ``moved``'s frequency band
        read that row; MACs on orthogonal bands cannot change their
        (N_ht, c) estimates, and a detached MAC is refreshed by its own
        report when it re-joins.

        While the simulator is running, refreshes are additionally
        coalesced to one pass per sim-time instant: the drain runs as a
        zero-delay event, after every same-instant report has updated the
        band table, so K same-tick reports cost one refresh per affected
        MAC instead of K.
        """
        for node in self.nodes.values():
            if node.agent is None or node.band != moved.band:
                continue
            if node.radio.attached:
                self._dirty_adaptation.add(node.node_id)
        if not self._dirty_adaptation:
            return
        self._request_adaptation_drain()

    def _request_adaptation_drain(self) -> None:
        """Run or schedule one drain for the current dirty set.

        Between runs the drain executes inline (a deferred event would
        not fire until the next ``run``); mid-run it is coalesced into a
        single zero-delay event per instant.  An inline drain consumes
        the whole dirty set, so it also cancels any drain still queued
        from an interrupted run — otherwise that stale event would
        re-refresh the same MACs at sim start.
        """
        if not self.sim.running:
            if self._adaptation_drain_handle is not None:
                self.sim.cancel(self._adaptation_drain_handle)
                self._adaptation_drain_handle = None
            self._drain_adaptation_refresh()
        elif self._adaptation_drain_handle is None:
            self._adaptation_drain_handle = self.sim.schedule(
                0, self._drain_adaptation_refresh
            )

    def _drain_adaptation_refresh(self) -> None:
        """Refresh every MAC marked dirty since the last drain."""
        self._adaptation_drain_handle = None
        dirty, self._dirty_adaptation = self._dirty_adaptation, set()
        for node_id in sorted(dirty):
            node = self.nodes.get(node_id)
            if node is not None:
                self._refresh_node_adaptation(node)

    def publish_report(self, node: Node, position: Point) -> None:
        """Tell ``node``'s peers it is at ``position``.

        The band table records ``position`` as ``node``'s row, which every
        same-band CO-MAP agent reads.  When the write adds or moves the
        row, the affected MACs re-run adaptation; a keep-alive at the same
        position only refreshes the row's freshness, which no (N_ht, c)
        estimate reads, and may end ``node``'s own fallback.  The node's
        report stays what its location service last produced: the fault
        injector publishes frozen and drifted positions through here, and
        those must never become what a later keep-alive repeats.
        """
        if self._write_row(node, position):
            self._mark_adaptation_dirty(node)
        node.mac.location_reported()

    def publish_fresh_report(self, node: Node) -> None:
        """Run ``node``'s location service once and publish the report.

        Asks no fault: :meth:`_report_fresh` asks the installed injector
        first, and the injector's keep-alive calls this only when none
        governs the node.
        """
        self.publish_report(node, self._new_report(node))

    def _report_fresh(self, node: Node) -> bool:
        """Run ``node``'s location service mid-run and publish the report.

        The one mid-run report path, for moves and re-joins alike.  The
        installed fault injector may hold the report back (outage, frozen
        or drift window) or drop it (beacon loss); then no report is made
        and the node's row keeps whatever the last publication left.
        Returns True when a report was published.
        """
        if self.faults is not None and not self.faults.allow_report(
            node, self.sim.now
        ):
            return False
        self.publish_fresh_report(node)
        return True

    def update_node_position(self, node: Node, position: Point) -> bool:
        """Move a node; re-report if the move exceeds the threshold.

        Returns True when a new position report was propagated (Section
        V's mobility management: "every node updates its position only if
        its movement is larger than a certain distance").  A detached node
        moves but reports nothing: its location service is down with it,
        and :meth:`reattach_node` reports where it is on its return.
        """
        node.radio.move_to(position)
        if node.agent is None or not node.radio.attached:
            return False
        if not node.agent.should_report_move(position):
            return False
        return self._report_fresh(node)

    # ------------------------------------------------------------------
    # Churn (nodes leaving and re-joining mid-run)
    # ------------------------------------------------------------------
    def detach_node(self, node: Node) -> None:
        """Take a node off the air mid-run (it left the network).

        Suspends the MAC (cancelling all pending timers and owed
        responses, requeueing the in-flight MSDU; a C-SR AP also leaves
        the backhaul), detaches the radio from its channel (scrubbing it
        from in-flight transmissions' observer sets), and drops the node's
        row from its band table — its position describes a peer that is no
        longer there, so every same-band agent drops the verdicts derived
        from it.
        """
        if not node.radio.attached:
            raise RuntimeError(f"node {node.name!r} is already detached")
        node.mac.suspend()
        node.radio.channel.detach(node.radio)
        if self._neighbor_tables[node.band].remove(node.node_id):
            self._mark_adaptation_dirty(node)

    def reattach_node(self, node: Node) -> None:
        """Bring a detached node back on the air (it re-joined).

        Re-attaches the radio (the mid-run attach contract applies: it
        does not observe transmissions already in flight), makes — for
        CO-MAP — a fresh position report through the path a move takes,
        so the network re-learns the node and the node's peers
        re-validate concurrency against it, and resumes the MAC.  The
        report goes first, so the MAC contends on what it says; a report
        the fault injector holds back leaves the node's row absent until
        its next keep-alive.  The node itself reads its band's table,
        which stayed current while it was away.
        """
        if node.radio.attached:
            raise RuntimeError(f"node {node.name!r} is not detached")
        node.radio.channel.attach(node.radio)
        if node.agent is not None:
            self._report_fresh(node)
        node.mac.resume()

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def install_faults(self, plan):
        """Install a :class:`repro.faults.FaultPlan` on this network.

        Must be called after :meth:`finalize`, and once: the injector
        stays in :attr:`faults`, and a second plan is rejected rather
        than left to take over the first one's hooks.  Returns the
        installed :class:`repro.faults.FaultInjector` (:meth:`counters`
        reports its counters under ``faults/``, at zero until one fires).
        """
        if not self._finalized:
            raise RuntimeError("install faults after Network.finalize()")
        if self.faults is not None:
            raise RuntimeError("a fault plan is already installed")
        from repro.faults.injector import FaultInjector

        self.faults = FaultInjector(self, plan)
        return self.faults

    def location_overhead_bytes(self) -> int:
        """Estimated one-shot location-exchange cost (Section V).

        Each node uploads one 12-byte position record; each AP
        redistributes the records of all participants to its clients.
        """
        n = len(self.nodes)
        clients = sum(1 for node in self.nodes.values() if not node.is_ap)
        record = 12 + MAC_DATA_OVERHEAD_BYTES
        return clients * record + clients * n * record

    # ------------------------------------------------------------------
    # Traffic attachment
    # ------------------------------------------------------------------
    def add_saturated(self, src: Node, dst: Node, payload_bytes: Optional[int] = None) -> SaturatedSource:
        """Attach an always-backlogged flow src -> dst."""
        self._require_finalized()
        return SaturatedSource(
            self.sim, src, dst,
            payload_bytes=payload_bytes,
            default_payload=self.params.default_payload_bytes,
        )

    def add_cbr(
        self,
        src: Node,
        dst: Optional[Node],
        rate_bps: float,
        payload_bytes: Optional[int] = None,
        start_ns: int = 0,
    ) -> CbrSource:
        """Attach a constant-bit-rate flow src -> dst (broadcast if dst None)."""
        self._require_finalized()
        return CbrSource(
            self.sim, src, dst, rate_bps,
            payload_bytes=payload_bytes,
            default_payload=self.params.default_payload_bytes,
            start_ns=start_ns,
        )

    def add_tcp(
        self,
        src: Node,
        dst: Node,
        payload_bytes: Optional[int] = None,
        window: int = 8,
    ) -> TcpLiteFlow:
        """Attach a TCP-lite flow src -> dst (ACKs ride the reverse path)."""
        self._require_finalized()
        return TcpLiteFlow(
            self.sim, src, dst,
            payload_bytes=payload_bytes,
            default_payload=self.params.default_payload_bytes,
            window=window,
        )

    def _require_finalized(self) -> None:
        if not self._finalized:
            raise RuntimeError("call finalize() before attaching traffic")

    # ------------------------------------------------------------------
    # Execution and results
    # ------------------------------------------------------------------
    def run(self, duration_s: float) -> RunResults:
        """Run the simulation for ``duration_s`` seconds of air time."""
        self._require_finalized()
        self.sim.run(until=self.sim.now + s_to_ns(duration_s))
        return self.results()

    def results(self) -> RunResults:
        """Per-flow goodput measured at the receivers' MACs."""
        duration = self.sim.now
        results = RunResults(duration_ns=duration)
        if duration <= 0:
            return results
        for node in self.nodes.values():
            stats = node.mac.stats
            results.airtime_share[node.node_id] = node.radio.airtime_tx_ns / duration
            for flow, nbytes in stats.delivered_by_flow.items():
                packets = stats.delivered_packets_by_flow.get(flow, 0)
                results.flows[flow] = FlowResult(
                    src=flow[0],
                    dst=flow[1],
                    goodput_bps=nbytes * 8 * SECOND / duration,
                    delivered_packets=packets,
                    delivered_bytes=nbytes,
                )
        return results

    def counters(self) -> Dict[str, int]:
        """Network-wide counter snapshot, read from the parts that count.

        Keys are ``prefix/name``: the C-SR backhaul's under ``csr/``
        (once wired), the engine's under ``sim/``, each band's channel's
        under ``channel/``, each MAC's under its own prefixes
        (:meth:`repro.mac.dcf.DcfMac.counters`) and an installed fault
        plan's under ``faults/`` (all of them, at zero until one fires).
        Same-named counters of different bands or nodes are summed.
        Every value is an integer.
        """
        out: Dict[str, int] = {}

        def add(prefix: str, counts: Dict[str, int]) -> None:
            for name, value in counts.items():
                key = prefix + name
                out[key] = out.get(key, 0) + value

        if self.backhaul is not None:
            add("csr/", self.backhaul.counters())
        add("sim/", self.sim.counters())
        for channel in self._channels.values():
            add("channel/", channel.counters())
        for node in self.nodes.values():
            add("", node.mac.counters())
        if self.faults is not None:
            add("faults/", self.faults.counters)
        return out

    def node(self, name: str) -> Node:
        """Look a node up by name."""
        return self.nodes_by_name[name]
