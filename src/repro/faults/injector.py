"""Deterministic, schedule-driven fault injection.

The :class:`FaultInjector` turns a declarative
:class:`repro.faults.schedule.FaultPlan` into concrete simulator events
and MAC/network hooks:

* **Location-service faults** run through a periodic *keep-alive
  ticker*.  When the plan contains any location fault the injector
  becomes the location service: each ``report_interval_ns`` it
  republishes every attached CO-MAP node's last report (its agent's
  ``reported_position``) through :meth:`Network.publish_report` — except
  where a spec suppresses it (outage), repeats it while fresh reports
  are held back (frozen), drops it (beacon loss), or biases it (drift).
  Frozen and drifted positions are publications only, never the node's
  report, so the first keep-alive after a window republishes the report
  again — or, when the node has moved past the 5 m threshold since that
  report (a move whose report a window held back or dropped), makes and
  publishes a fresh one.  Fresh reports, a move's or a re-join's, pass
  :meth:`allow_report`.  Both read one precedence,
  :meth:`_location_fault`.  Without keep-alives a configured
  ``location_ttl_ns`` would age *healthy* nodes into fallback too.
* **Control-plane faults** hook the MAC receive path (``fault_hooks``)
  for ACK and announcement loss, and schedule point events for
  co-occurrence map expiry/corruption.
* **Churn** schedules :meth:`Network.detach_node` /
  :meth:`Network.reattach_node` pairs.

Determinism: every probabilistic decision draws from
``RngStreams.substream("fault", kind, node_name)`` — content-addressed
streams that exist only because the plan asked for them, so runs with
faults disabled (or an empty plan) consume zero extra randomness and
stay bit-identical to runs without an injector.  Probabilities >= 1
short-circuit without consuming a draw, so raising a drop probability
to certainty cannot shift later draws.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.faults.schedule import (
    LOCATION_FAULTS,
    AckLossBurst,
    AnnouncementLoss,
    BeaconLoss,
    CoMapCorruption,
    CoMapExpiry,
    FaultPlan,
    FrozenLocation,
    LocationDrift,
    LocationOutage,
    NodeChurn,
)
from repro.mac.frames import FrameType
from repro.util.geometry import Point


class FaultInjector:
    """Realizes one :class:`FaultPlan` against one finalized network.

    Construction installs the plan: it registers the counters, hooks the
    MACs and schedules every planned fault.  :meth:`Network.install_faults`
    is the one caller, and the one guard against a second plan.
    """

    def __init__(self, network, plan: FaultPlan) -> None:
        for name in plan.node_names:
            if name not in network.nodes_by_name:
                raise ValueError(f"fault plan targets unknown node {name!r}")
        self.network = network
        self.plan = plan
        self.sim = network.sim
        self._counters: Dict[str, int] = {
            "reports_suppressed": 0,
            "reports_frozen": 0,
            "reports_dropped": 0,
            "drift_applied": 0,
            "acks_dropped": 0,
            "announcements_dropped": 0,
            "comap_entries_expired": 0,
            "comap_entries_corrupted": 0,
            "churn_leaves": 0,
            "churn_joins": 0,
        }
        # Per-node spec indexes, keyed the way each hook needs them.
        self._location_specs: Dict[str, Tuple] = {}
        self._ack_specs: Dict[int, Tuple[AckLossBurst, ...]] = {}
        self._announce_specs: Dict[int, Tuple[AnnouncementLoss, ...]] = {}
        # Counters are registered even for an empty plan, so manifests
        # always show the faults/ namespace (at zero) once an injector
        # is attached — "no faults fired" is then an explicit statement.
        network.registry.register_source("faults", self._counters.copy)

        for name in plan.node_names:
            node = network.nodes_by_name[name]
            specs = plan.for_node(name)
            location = tuple(s for s in specs if isinstance(s, LOCATION_FAULTS))
            if location:
                self._location_specs[name] = location
            acks = tuple(s for s in specs if isinstance(s, AckLossBurst))
            announces = tuple(s for s in specs if isinstance(s, AnnouncementLoss))
            if acks:
                self._ack_specs[node.node_id] = acks
            if announces:
                self._announce_specs[node.node_id] = announces
            if acks or announces:
                node.mac.fault_hooks = self
            # The node's churn windows take their slots in time order, so
            # a re-join fires before a leave at the same instant.
            churn = iter(sorted(
                (s for s in specs if isinstance(s, NodeChurn)),
                key=lambda s: s.leave_ns,
            ))
            specs = tuple(
                next(churn) if isinstance(s, NodeChurn) else s for s in specs
            )
            for spec in specs:
                if isinstance(spec, CoMapExpiry):
                    self.sim.schedule_at(
                        spec.at_ns, lambda s=spec: self._expire_co_map(s)
                    )
                elif isinstance(spec, CoMapCorruption):
                    self.sim.schedule_at(
                        spec.at_ns, lambda s=spec: self._corrupt_co_map(s)
                    )
                elif isinstance(spec, NodeChurn):
                    self.sim.schedule_at(
                        spec.leave_ns, lambda s=spec: self._leave(s)
                    )
                    self.sim.schedule_at(
                        spec.rejoin_ns, lambda s=spec: self._rejoin(s)
                    )

        if plan.has_location_faults:
            self.sim.schedule(plan.report_interval_ns, self._tick)

    @property
    def counters(self) -> Dict[str, int]:
        """Snapshot of the injector's fault counters."""
        return dict(self._counters)

    def _rng(self, kind: str, node: str):
        return self.network.rngs.substream("fault", kind, node)

    def _bernoulli(self, kind: str, name: str, prob: float) -> bool:
        if prob <= 0.0:
            return False
        if prob >= 1.0:
            return True  # certainty never consumes a draw
        return self._rng(kind, name).random() < prob

    # ------------------------------------------------------------------
    # Location-service faults (keep-alive ticker + report filter)
    # ------------------------------------------------------------------
    def _location_fault(self, name: str, now: int):
        """The location spec governing ``name``'s reports at ``now``, or None.

        An active outage governs first, then a drift, then a frozen
        window (of one class, the first in plan order).  Otherwise an
        active beacon-loss window governs a report its drop draw loses;
        that draw is the only one, made only when none of the three is
        active.
        """
        active = [
            spec for spec in self._location_specs.get(name, ()) if spec.active(now)
        ]
        for cls in (LocationOutage, LocationDrift, FrozenLocation, BeaconLoss):
            for spec in active:
                if isinstance(spec, cls):
                    if cls is BeaconLoss and not self._bernoulli(
                        "beacon", name, spec.drop_prob
                    ):
                        return None
                    return spec
        return None

    def allow_report(self, node, now: int) -> bool:
        """May ``node`` publish a fresh report (a move's or a re-join's)?

        During outage/frozen/drift windows the injector owns the node's
        reporting (the ticker publishes what the faulty service would);
        under beacon loss, fresh reports face the same Bernoulli drop as
        keep-alives.
        """
        spec = self._location_fault(node.name, now)
        if spec is None:
            return True
        if isinstance(spec, BeaconLoss):
            self._counters["reports_dropped"] += 1
        else:
            self._counters["reports_suppressed"] += 1
        return False

    def _tick(self) -> None:
        """One keep-alive pass over every attached CO-MAP node."""
        now = self.sim.now
        net = self.network
        for node in net.nodes.values():
            if node.agent is None or not node.radio.attached:
                continue
            spec = self._location_fault(node.name, now)
            report = node.agent.reported_position
            if spec is None:
                if node.agent.should_report_move(node.position):
                    # A move whose report a window held back or dropped.
                    net.publish_fresh_report(node)
                else:
                    net.publish_report(node, report)  # healthy keep-alive
            elif isinstance(spec, LocationDrift):
                net.publish_report(node, self._drifted(spec, report, now))
                self._counters["drift_applied"] += 1
            elif isinstance(spec, FrozenLocation):
                # Refresh freshness with the stale pre-window report.
                net.publish_report(node, report)
                self._counters["reports_frozen"] += 1
            elif isinstance(spec, BeaconLoss):
                self._counters["reports_dropped"] += 1
            else:  # an outage: no report at all
                self._counters["reports_suppressed"] += 1
        self.sim.schedule(self.plan.report_interval_ns, self._tick)

    def _drifted(self, spec: LocationDrift, base: Point, now: int) -> Point:
        """``base`` moved at ``rate_mps`` along ``heading_deg`` since the
        window opened."""
        import math

        elapsed_s = (now - spec.start_ns) / 1e9
        distance = spec.rate_mps * elapsed_s
        heading = math.radians(spec.heading_deg)
        return Point(
            base.x + distance * math.cos(heading),
            base.y + distance * math.sin(heading),
        )

    # ------------------------------------------------------------------
    # Control-plane faults (MAC receive hooks + scheduled map damage)
    # ------------------------------------------------------------------
    def drop_rx(self, node_id: int, frame) -> bool:
        """``DcfMac.on_frame_received`` hook: lose the frame entirely."""
        if frame.kind is not FrameType.ACK or frame.dst != node_id:
            return False
        return self._lose(node_id, self._ack_specs, "ack", "acks_dropped")

    def drop_announcement(self, node_id: int, frame) -> bool:
        """``CoMapMac.on_header_overheard`` hook: lose the announcement."""
        return self._lose(
            node_id, self._announce_specs, "announce", "announcements_dropped"
        )

    def _lose(self, node_id: int, specs, kind: str, counter: str) -> bool:
        """One drop draw per active loss window of the node, in plan order;
        the first that loses the item counts under ``counter``."""
        now = self.sim.now
        for spec in specs.get(node_id, ()):
            if spec.active(now) and self._bernoulli(
                kind, spec.node, spec.drop_prob
            ):
                self._counters[counter] += 1
                return True
        return False

    def _expire_co_map(self, spec: CoMapExpiry) -> None:
        agent = self.network.nodes_by_name[spec.node].agent
        if agent is None:
            return
        expired = agent.co_map.entry_count
        agent.co_map.clear()
        self._counters["comap_entries_expired"] += expired

    def _corrupt_co_map(self, spec: CoMapCorruption) -> None:
        agent = self.network.nodes_by_name[spec.node].agent
        if agent is None:
            return
        flipped = agent.co_map.corrupt(
            self._rng("corrupt", spec.node), spec.flip_prob
        )
        self._counters["comap_entries_corrupted"] += flipped

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------
    def _leave(self, spec: NodeChurn) -> None:
        node = self.network.nodes_by_name[spec.node]
        self.network.detach_node(node)
        self._counters["churn_leaves"] += 1

    def _rejoin(self, spec: NodeChurn) -> None:
        node = self.network.nodes_by_name[spec.node]
        self.network.reattach_node(node)
        self._counters["churn_joins"] += 1
