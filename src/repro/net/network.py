"""The network orchestrator: builds nodes, runs simulations, collects results.

A :class:`Network` instantiates one simulator + channel from a
:class:`repro.experiments.params.ScenarioParams`, creates APs and clients
with the configured MAC flavour (a key of :data:`MAC_KINDS`), performs
the CO-MAP location exchange (with a pluggable position-error model),
attaches traffic and measures per-flow goodput.

Location exchange is modelled as the paper describes it operationally:
every client reports its (localization-estimated) position to its AP and
APs redistribute positions to nearby participants — the net effect being
that every CO-MAP agent knows the *reported* coordinates of its 2-hop
neighborhood.  The exchange itself costs a handful of tiny frames per
node ("little communication overhead"), which we account for as an
explicit overhead estimate rather than by injecting frames, so protocol
benefits and costs stay separately measurable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.adaptation import AdaptationTable
from repro.core.protocol import CoMapAgent
from repro.mac.cmap import CmapMac, CmapMacConfig
from repro.mac.comap import CoMapMac, CoMapMacConfig
from repro.mac.csr import CsrMac, CsrMacConfig
from repro.mac.dcf import DcfMac, MacConfig
from repro.mac.frames import MAC_DATA_OVERHEAD_BYTES
from repro.mac.rate_control import FixedRate, MinstrelLite
from repro.mac.timing import PhyTiming
from repro.net.localization import NoError, PositionErrorModel
from repro.net.node import Node
from repro.net.traffic import CbrSource, SaturatedSource, TcpLiteFlow
from repro.obs.counters import CounterRegistry
from repro.phy.channel import Channel
from repro.phy.propagation import LogNormalShadowing
from repro.phy.radio import Radio, RadioConfig
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder
from repro.util.geometry import Point
from repro.util.rng import RngStreams
from repro.util.units import SECOND, s_to_ns

#: mac_kind -> (MAC class, MAC config class).  A kind runs the CO-MAP
#: location machinery (exchange, reports, adaptation) iff its MAC is a
#: :class:`CoMapMac`; "csr" is CO-MAP plus the wired-backhaul coordination.
MAC_KINDS = {
    "dcf": (DcfMac, MacConfig),
    "comap": (CoMapMac, CoMapMacConfig),
    "cmap": (CmapMac, CmapMacConfig),
    "csr": (CsrMac, CsrMacConfig),
}


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
        trace_categories: Optional[List[str]] = None,
    ) -> None:
        if mac_kind not in MAC_KINDS:
            raise ValueError(
                f"mac_kind must be one of {tuple(MAC_KINDS)}, got {mac_kind!r}"
            )
        self.params = params
        self.mac_kind = mac_kind
        self._mac_cls, self._mac_config_cls = MAC_KINDS[mac_kind]
        #: True when this kind's MACs run on positions (CO-MAP and C-SR).
        self._location_aware = issubclass(self._mac_cls, CoMapMac)
        self.rngs = RngStreams(seed)
        self.sim = Simulator()
        self.trace = TraceRecorder(trace_categories)
        self.trace.bind_clock(lambda: self.sim.now)
        #: Per-network counter registry: every MAC, channel, and the
        #: engine register sources here (see ``docs/observability.md``).
        self.registry = CounterRegistry()
        self.registry.register_source("sim", self.sim.counters)
        self.propagation = LogNormalShadowing(params.alpha, params.sigma_db)
        self._channels: Dict[int, Channel] = {}
        #: Band-0 medium (most scenarios are single-channel).
        self.channel = self.channel_for(0)
        self.error_model: PositionErrorModel = error_model or NoError()
        self.mac_overrides = dict(mac_overrides or {})
        self.nodes: Dict[int, Node] = {}
        self.nodes_by_name: Dict[str, Node] = {}
        self.sources: List[object] = []
        self.tcp_flows: List[TcpLiteFlow] = []
        self._next_id = 0
        self._finalized = False
        self._run_duration_ns = 0
        #: The AP coordination plane of a "csr" network (see finalize()).
        self.backhaul = None
        self._adaptation_table: Optional[AdaptationTable] = None
        self._reported_positions: Dict[int, Point] = {}
        # Mobility-driven adaptation refreshes are filtered (only MACs
        # whose neighbor tables observed the move) and coalesced (one
        # refresh pass per sim-time instant) — see _mark_adaptation_dirty.
        self._dirty_adaptation: set = set()
        # Handle of the scheduled zero-delay drain (None when no drain is
        # queued).  A handle — not a bool — so an inline drain can cancel
        # a stale queued drain instead of letting both run.
        self._adaptation_drain_handle = None
        #: Node ids currently detached from the medium (churn faults).
        self._detached: set = set()
        #: Optional fault injector vetoing scenario-driven position
        #: reports (``allow_report(node, now) -> bool``); see
        #: :meth:`install_faults`.
        self.fault_filter = None

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
                trace=self.trace,
                band=band,
                registry=self.registry,
                cull_margin_db=getattr(self.params, "cull_margin_db", None),
            )
            self._channels[band] = channel
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
                noise_floor_dbm=params.noise_floor_dbm,
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
            config=self._mac_config(),
            rate_policy=rate_policy,
            trace=self.trace,
            **location_kwargs,
        )
        node = Node(node_id, name, radio, mac, is_ap=is_ap, agent=agent)
        mac.register_counters(self.registry)
        self.nodes[node_id] = node
        self.nodes_by_name[name] = node
        return node

    def _make_rate_policy(self, node_id: int):
        params = self.params
        if params.data_rate_bps is not None:
            return FixedRate(params.rates.by_bps(params.data_rate_bps))
        return MinstrelLite(params.rates, self.rngs.stream("minstrel", node_id))

    def _mac_config(self) -> MacConfig:
        params = self.params
        kwargs = dict(
            cw_min=params.cw_min,
            cw_max=params.cw_max,
            retry_limit=params.retry_limit,
            queue_limit=params.queue_limit,
        )
        if self._location_aware:
            kwargs.update(
                sr_window=params.comap.sr_window,
                announce_mode=params.comap.announce_mode,
            )
        config = self._mac_config_cls(**kwargs)
        for key, value in self.mac_overrides.items():
            if not hasattr(config, key):
                raise AttributeError(f"unknown MAC config field {key!r}")
            setattr(config, key, value)
        return config

    def _adaptation(self) -> AdaptationTable:
        """One shared (lazily built) adaptation table for all agents."""
        if self._adaptation_table is None:
            params = self.params
            data_rate = (
                params.rates.by_bps(params.data_rate_bps)
                if params.data_rate_bps is not None
                else params.rates.top
            )
            header_ns = params.timing.preamble_ns + params.rates.base.airtime_ns(16)
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
        """Perform the location exchange and initial adaptation pass."""
        if self._finalized:
            return
        self._finalized = True
        for channel in self._channels.values():
            # Eager candidate-grid build (no-op with no radio attached):
            # the topology is complete here, so the cell-size heuristic
            # sees the full extent, and the occupancy histogram snapshots
            # the as-built distribution.
            if channel.prepare_spatial() is not None:
                channel.record_spatial_occupancy()
        if not self._location_aware:
            return
        for node in self.nodes.values():
            reported = self.error_model.apply(
                node.position, self._localization_rng(node)
            )
            self._reported_positions[node.node_id] = reported
        self._broadcast_positions()
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
        latency = getattr(self.params, "csr_backhaul_latency_ns", None)
        if latency is None:
            return
        from repro.net.backhaul import Backhaul

        self.backhaul = Backhaul(self.sim, latency, registry=self.registry)
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            if node.is_ap and isinstance(node.mac, CsrMac):
                node.mac.bind_backhaul(self.backhaul)

    def _localization_rng(self, node: Node):
        """The per-node localization-error substream.

        Each node perturbs its reports from ``substream("locerr", id)``
        rather than one shared stream, so the number of draws one node's
        error model consumes (2 for a positive radius/sigma, 0 on the
        certainty path) can never shift another node's realizations —
        sweeping an error radius through 0 stays a local change.  Matches
        the PR-5 "certainty consumes no draws" convention.
        """
        return self.rngs.substream("locerr", node.node_id)

    def _broadcast_positions(self) -> None:
        """Every agent learns the *reported* position of its band peers.

        Nodes on other (orthogonal) frequency bands can neither interfere
        nor be sensed, so they are irrelevant to — and must be kept out
        of — the interference reasoning.
        """
        for observer in self.nodes.values():
            agent = observer.agent
            if agent is None:
                continue
            for subject in self.nodes.values():
                if subject.band != observer.band:
                    continue
                ap_id = (
                    subject.associated_ap.node_id
                    if subject.associated_ap is not None
                    else None
                )
                agent.observe_neighbor(
                    subject.node_id,
                    self._reported_positions[subject.node_id],
                    is_ap=subject.is_ap,
                    associated_ap=ap_id,
                    now=self.sim.now,
                )
            agent.mark_reported(self._reported_positions[observer.node_id])

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
        """Queue adaptation refreshes caused by ``moved``'s position report.

        Only MACs whose neighbor tables actually observed the move — the
        CO-MAP agents sharing ``moved``'s frequency band — are affected;
        MACs on orthogonal bands never learn the position and their
        (N_ht, c) estimates cannot change, so they are not touched (the
        old behavior refreshed every MAC in the network on every accepted
        report, making dense mobility O(N²) per tick).

        While the simulator is running, refreshes are additionally
        coalesced to one pass per sim-time instant: the drain runs as a
        zero-delay event, after every same-instant report has updated the
        neighbor tables, so K same-tick reports cost one refresh per
        affected MAC instead of K.
        """
        for node in self.nodes.values():
            if node.agent is None or node.band != moved.band:
                continue
            if moved.node_id in node.agent.neighbor_table:
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
                self._adaptation_drain_handle.cancel()
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

    def publish_report(self, node: Node, reported: Point) -> None:
        """Propagate one position report through the location service.

        Every same-band CO-MAP agent (the ones that can hear the AP's
        redistribution) observes ``reported`` as ``node``'s position; the
        node's own agent records the report and affected MACs re-run
        adaptation.  Fault injectors call this directly to publish
        frozen, drifted, or periodic keep-alive reports.
        """
        self._reported_positions[node.node_id] = reported
        for observer in self.nodes.values():
            if observer.agent is None or observer.band != node.band:
                continue
            if observer.node_id in self._detached:
                continue  # a detached node's location service is down too
            ap_id = (
                node.associated_ap.node_id if node.associated_ap is not None else None
            )
            observer.agent.observe_neighbor(
                node.node_id, reported, is_ap=node.is_ap, associated_ap=ap_id,
                now=self.sim.now,
            )
        if node.agent is not None:
            node.agent.mark_reported(reported)
        self._mark_adaptation_dirty(node)

    def update_node_position(self, node: Node, position: Point) -> bool:
        """Move a node; re-report if the move exceeds the threshold.

        Returns True when a new position report was propagated (Section
        V's mobility management: "every node updates its position only if
        its movement is larger than a certain distance").
        """
        node.radio.move_to(position)
        if node.agent is None:
            return False
        if not node.agent.should_report_move(position):
            return False
        if self.fault_filter is not None and not self.fault_filter.allow_report(
            node, self.sim.now
        ):
            return False
        reported = self.error_model.apply(position, self._localization_rng(node))
        self.publish_report(node, reported)
        return True

    # ------------------------------------------------------------------
    # Churn (nodes leaving and re-joining mid-run)
    # ------------------------------------------------------------------
    def detach_node(self, node: Node) -> None:
        """Take a node off the air mid-run (it left the network).

        Suspends the MAC (cancelling all pending timers, requeueing the
        in-flight MSDU), detaches the radio from its channel (scrubbing
        it from in-flight transmissions' observer sets), and makes every
        remaining same-band CO-MAP agent forget the node — its cached
        positions, PRR verdicts, and co-occurrence entries describe a
        peer that is no longer there.
        """
        if node.node_id in self._detached:
            raise RuntimeError(f"node {node.name!r} is already detached")
        self._detached.add(node.node_id)
        node.mac.suspend()
        node.radio.channel.detach(node.radio)
        dirty = False
        for observer in self.nodes.values():
            if observer is node or observer.agent is None:
                continue
            if observer.band != node.band:
                continue
            if node.node_id in observer.agent.neighbor_table:
                observer.agent.forget_neighbor(node.node_id)
                self._dirty_adaptation.add(observer.node_id)
                dirty = True
        if dirty:
            self._request_adaptation_drain()

    def reattach_node(self, node: Node) -> None:
        """Bring a detached node back on the air (it re-joined).

        Re-attaches the radio (the mid-run attach contract applies: it
        does not observe transmissions already in flight), resumes the
        MAC, and — for CO-MAP — publishes a fresh position report so the
        network re-learns the node and the node's peers re-validate
        concurrency against it.
        """
        if node.node_id not in self._detached:
            raise RuntimeError(f"node {node.name!r} is not detached")
        node.radio.channel.attach(node.radio)
        self._detached.discard(node.node_id)
        node.mac.resume()
        if node.agent is not None:
            reported = self.error_model.apply(
                node.position, self._localization_rng(node)
            )
            self.publish_report(node, reported)

    @property
    def detached_nodes(self) -> set:
        """Ids of nodes currently off the air."""
        return set(self._detached)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def install_faults(self, plan):
        """Install a :class:`repro.faults.FaultPlan` on this network.

        Must be called after :meth:`finalize`.  Returns the installed
        :class:`repro.faults.FaultInjector` (its counters register under
        the ``faults/`` prefix of this network's registry).
        """
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(self, plan)
        injector.install()
        return injector

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
        source = SaturatedSource(
            self.sim, src, dst,
            payload_bytes=payload_bytes,
            default_payload=self.params.default_payload_bytes,
        )
        self.sources.append(source)
        return source

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
        source = CbrSource(
            self.sim, src, dst, rate_bps,
            payload_bytes=payload_bytes,
            default_payload=self.params.default_payload_bytes,
            start_ns=start_ns,
        )
        self.sources.append(source)
        return source

    def add_tcp(
        self,
        src: Node,
        dst: Node,
        payload_bytes: Optional[int] = None,
        window: int = 8,
    ) -> TcpLiteFlow:
        """Attach a TCP-lite flow src -> dst (ACKs ride the reverse path)."""
        self._require_finalized()
        flow = TcpLiteFlow(
            self.sim, src, dst,
            payload_bytes=payload_bytes,
            default_payload=self.params.default_payload_bytes,
            window=window,
        )
        self.sources.append(flow)
        self.tcp_flows.append(flow)
        return flow

    def _require_finalized(self) -> None:
        if not self._finalized:
            raise RuntimeError("call finalize() before attaching traffic")

    # ------------------------------------------------------------------
    # Execution and results
    # ------------------------------------------------------------------
    def run(self, duration_s: float) -> RunResults:
        """Run the simulation for ``duration_s`` seconds of air time."""
        self._require_finalized()
        horizon = self._run_duration_ns + s_to_ns(duration_s)
        self.sim.run(until=horizon)
        self._run_duration_ns = horizon
        return self.results()

    def results(self) -> RunResults:
        """Per-flow goodput measured at the receivers' MACs."""
        duration = self._run_duration_ns or self.sim.now
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

    def counters(self) -> Dict[str, float]:
        """Network-wide counter snapshot, aggregated across nodes/bands.

        Keys are ``prefix/name`` (``mac/…``, ``comap/…``, ``arq/…``,
        ``channel/…``, ``sim/…``); same-named counters from different
        nodes are summed by the registry.
        """
        return self.registry.snapshot()

    def node(self, name: str) -> Node:
        """Look a node up by name."""
        return self.nodes_by_name[name]
