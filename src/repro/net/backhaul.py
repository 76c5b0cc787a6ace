"""Modeled wired backhaul connecting co-located APs (the C-SR control plane).

Enterprise deployments wire their APs to a common switch, and the
coordinated spatial-reuse MAC (:mod:`repro.mac.csr`) rides on exactly
that: a zero-loss message bus with a configurable one-way latency,
driven by the simulation's event engine.  Every ``publish`` schedules
one delivery event per *other* attached endpoint — with fewer than two
endpoints nothing is scheduled at all, so a single-AP C-SR network
fires bit-identically (including ``sim/events_fired``) to plain CO-MAP.

The backhaul also owns the **shared TXOP ledger** — the switch-side
view of which transmit opportunities are currently active, one per AP.
A message carries only its sender's id: it tells a peer, one wire
latency later, that the sender registered a TXOP, and the peer reads
the TXOPs themselves from the ledger.  The ledger is the authoritative
shared state the coordination protocol reads and writes: two APs
electing concurrent transmissions in the same instant must see each
other's registrations, which delayed point-to-point messages alone
cannot provide.

The bus counts two things, which :meth:`Backhaul.counters` reports and
the network snapshot carries as ``csr/backhaul_messages`` (publishes
that reached at least one peer) and ``csr/backhaul_deliveries``.  Every
delivery takes the configured ``latency_ns``, so the latency needs no
counter of its own.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.engine import Simulator

#: A message handler: ``fn(src_id)``, told that ``src_id`` registered a TXOP.
BackhaulHandler = Callable[[int], None]


class TxopRecord:
    """One active transmit opportunity in the shared ledger: the AP
    ``src`` sends to ``dst`` until ``expires_at``."""

    __slots__ = ("src", "dst", "expires_at")

    def __init__(self, src: int, dst: int, expires_at: int) -> None:
        self.src = src
        self.dst = dst
        self.expires_at = expires_at

    @property
    def link(self) -> Tuple[int, int]:
        return (self.src, self.dst)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TxopRecord {self.src}->{self.dst} until={self.expires_at}>"


class Backhaul:
    """Zero-loss, fixed-latency message bus between attached endpoints."""

    def __init__(self, sim: Simulator, latency_ns: int) -> None:
        if latency_ns < 0:
            raise ValueError("backhaul latency cannot be negative")
        self.sim = sim
        self.latency_ns = int(latency_ns)
        #: Attach-order endpoint map (AP id -> handler).  Iteration order
        #: is attachment order, which callers keep deterministic.
        self._endpoints: Dict[int, BackhaulHandler] = {}
        self._ledger: Dict[int, TxopRecord] = {}
        #: Publishes that reached at least one peer, and deliveries made.
        self.messages = 0
        self.deliveries = 0

    def counters(self) -> Dict[str, int]:
        """The bus's counters (the network reports them under ``csr/``)."""
        return {
            "backhaul_messages": self.messages,
            "backhaul_deliveries": self.deliveries,
        }

    # ------------------------------------------------------------------
    # Message bus
    # ------------------------------------------------------------------
    def attach(self, node_id: int, handler: BackhaulHandler) -> None:
        """Wire ``node_id`` to the bus.  Attach in deterministic order."""
        if node_id in self._endpoints:
            raise ValueError(f"node {node_id} already attached to backhaul")
        self._endpoints[node_id] = handler

    def detach(self, node_id: int) -> None:
        """Take an endpoint off the bus (churn); drops its ledger entry.

        Messages already on the wire to it are dropped at delivery.
        """
        self._endpoints.pop(node_id, None)
        self._ledger.pop(node_id, None)

    def publish(self, src_id: int) -> int:
        """Tell every *other* endpoint that ``src_id`` registered a TXOP.

        Returns the number of deliveries scheduled.  With fewer than two
        endpoints this is 0 and **no event is scheduled** — the lonely
        AP's run stays bit-identical to one without a backhaul.
        """
        peers = [nid for nid in self._endpoints if nid != src_id]
        if not peers:
            return 0
        self.messages += 1
        for nid in peers:
            self.sim.schedule(self.latency_ns, self._deliver, nid, src_id)
        return len(peers)

    def _deliver(self, node_id: int, src_id: int) -> None:
        handler = self._endpoints.get(node_id)
        if handler is None:
            return  # the endpoint detached while the message was on the wire
        self.deliveries += 1
        handler(src_id)

    # ------------------------------------------------------------------
    # Shared TXOP ledger
    # ------------------------------------------------------------------
    def register_txop(self, record: TxopRecord) -> None:
        """Record ``record`` as its sender's active transmit opportunity."""
        self._ledger[record.src] = record

    def active_txops(self, now: int, exclude: Optional[int] = None) -> List[TxopRecord]:
        """Live ledger entries at ``now`` (pruning expired ones)."""
        expired = [
            src for src, rec in self._ledger.items() if rec.expires_at <= now
        ]
        for src in expired:
            del self._ledger[src]
        return [rec for src, rec in self._ledger.items() if src != exclude]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Backhaul endpoints={len(self._endpoints)} "
            f"latency_ns={self.latency_ns}>"
        )
