"""Traffic sources and a minimal reliable transport.

Three workloads cover the paper's evaluation:

* :class:`SaturatedSource` — always-backlogged sender (the analytical
  model's saturation assumption; used for Fig. 7 validation).
* :class:`CbrSource` — constant bit rate, e.g. the 3 Mbps two-way CBR of
  the Fig. 10 large-scale runs.
* :class:`TcpLiteFlow` — a compact sliding-window transport with
  cumulative ACKs and a fixed RTO, standing in for the Iperf TCP traffic
  of the testbed experiments.  It creates genuine two-way MAC traffic
  (data up, transport ACKs down) without a full TCP stack.

All sources honour the MAC's ``preferred_payload()`` so CO-MAP's
hidden-terminal packet-size adaptation takes effect transparently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.mac.frames import BROADCAST, Frame
from repro.net.node import Node
from repro.sim.engine import Simulator
from repro.util.units import SECOND


def _payload_for(node: Node, requested: Optional[int], default: int) -> int:
    """Resolve the payload size: explicit > MAC advice > scenario default."""
    if requested is not None:
        return requested
    advised = node.mac.preferred_payload()
    return advised if advised is not None else default


class SaturatedSource:
    """Keeps the sender's MAC queue topped up — never runs dry."""

    def __init__(
        self,
        sim: Simulator,
        src: Node,
        dst: Node,
        payload_bytes: Optional[int] = None,
        default_payload: int = 1000,
        depth: int = 2,
    ) -> None:
        if depth < 1:
            raise ValueError("queue depth must be at least 1")
        self.sim = sim
        self.src = src
        self.dst = dst
        self._requested_payload = payload_bytes
        self._default_payload = default_payload
        self.depth = depth
        self.flow = (src.node_id, dst.node_id)
        self.packets_offered = 0
        src.add_queue_space_listener(self._refill)
        self._refill()

    def _refill(self) -> None:
        """Top the MAC queue back up to the configured depth."""
        mac = self.src.mac
        while mac.queue_length < self.depth:
            payload = _payload_for(self.src, self._requested_payload, self._default_payload)
            if not mac.enqueue(self.dst.node_id, payload, flow=self.flow):
                break
            self.packets_offered += 1


class CbrSource:
    """Constant-bit-rate source (packets at fixed intervals)."""

    def __init__(
        self,
        sim: Simulator,
        src: Node,
        dst: Optional[Node],
        rate_bps: float,
        payload_bytes: Optional[int] = None,
        default_payload: int = 1000,
        start_ns: int = 0,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("CBR rate must be positive")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.rate_bps = float(rate_bps)
        self._requested_payload = payload_bytes
        self._default_payload = default_payload
        dst_id = dst.node_id if dst is not None else BROADCAST
        self._dst_id = dst_id
        self.flow = (src.node_id, dst_id)
        self.packets_offered = 0
        self.packets_dropped = 0
        sim.schedule(start_ns, self._emit)

    def _emit(self) -> None:
        """Enqueue one packet and schedule the next."""
        payload = _payload_for(self.src, self._requested_payload, self._default_payload)
        if self.src.mac.enqueue(self._dst_id, payload, flow=self.flow):
            self.packets_offered += 1
        else:
            self.packets_dropped += 1
        interval_ns = int(round(payload * 8 * SECOND / self.rate_bps))
        self.sim.schedule(max(interval_ns, 1), self._emit)


@dataclass
class _TcpSegment:
    """Sender-side record of one outstanding segment."""

    seq: int
    payload_bytes: int
    rto_handle: Optional[list] = None


class TcpLiteFlow:
    """A minimal reliable sliding-window transport over the MAC.

    Semantics: fixed congestion window ``window`` segments, cumulative
    ACKs riding 40-byte packets on the reverse direction, fixed RTO with
    go-back retransmission of the earliest unacknowledged segment.
    Receiver-side goodput (`delivered_bytes`) counts in-order unique
    payload, which matches the paper's Iperf goodput measure.
    """

    TRANSPORT_ACK_BYTES = 40

    def __init__(
        self,
        sim: Simulator,
        src: Node,
        dst: Node,
        payload_bytes: Optional[int] = None,
        default_payload: int = 1000,
        window: int = 8,
        rto_ns: int = 200_000_000,
    ) -> None:
        if window < 1:
            raise ValueError("window must be at least 1 segment")
        self.sim = sim
        self.src = src
        self.dst = dst
        self._requested_payload = payload_bytes
        self._default_payload = default_payload
        self.window = window
        self.rto_ns = rto_ns
        self.flow = (src.node_id, dst.node_id)
        # Sender state.
        self._next_seq = 0
        self._snd_una = 0  # lowest unacknowledged sequence
        self._outstanding: Dict[int, _TcpSegment] = {}
        self.segments_sent = 0
        self.retransmissions = 0
        # Receiver state.
        self._rcv_next = 0
        self._out_of_order: Dict[int, int] = {}  # seq -> payload size
        self.delivered_bytes = 0
        self.delivered_segments = 0
        self._refill_listener_registered = False
        # Wiring: data arrives at dst, transport ACKs arrive back at src.
        dst.add_delivery_listener(self._on_dst_delivery)
        src.add_delivery_listener(self._on_src_delivery)
        self._fill_window()

    # ------------------------------------------------------------------
    # Sender
    # ------------------------------------------------------------------
    def _fill_window(self) -> None:
        """Send new segments while the window allows."""
        while self._next_seq < self._snd_una + self.window:
            payload = _payload_for(self.src, self._requested_payload, self._default_payload)
            seq = self._next_seq
            ok = self.src.mac.enqueue(
                self.dst.node_id,
                payload,
                flow=self.flow,
                app_meta={"tcp_seq": seq},
            )
            if not ok:
                # MAC queue full: try again when space frees up.
                if not self._refill_listener_registered:
                    self.src.add_queue_space_listener(self._fill_window)
                    self._refill_listener_registered = True
                return
            segment = _TcpSegment(seq=seq, payload_bytes=payload)
            segment.rto_handle = self.sim.schedule(self.rto_ns, self._on_rto, seq)
            self._outstanding[seq] = segment
            self.segments_sent += 1
            self._next_seq += 1

    def _on_rto(self, seq: int) -> None:
        """Retransmission timeout: resend the segment if still unacked."""
        segment = self._outstanding.get(seq)
        if segment is None:
            return
        self.retransmissions += 1
        self.src.mac.enqueue(
            self.dst.node_id,
            segment.payload_bytes,
            flow=self.flow,
            app_meta={"tcp_seq": seq},
        )
        segment.rto_handle = self.sim.schedule(self.rto_ns, self._on_rto, seq)

    def _on_src_delivery(self, frame: Frame) -> None:
        """Transport ACK came back: slide the window."""
        app = frame.meta.get("app") or {}
        ack = app.get("tcp_ack")
        if ack is None or frame.src != self.dst.node_id:
            return
        if ack <= self._snd_una:
            return
        for seq in range(self._snd_una, ack):
            segment = self._outstanding.pop(seq, None)
            if segment is not None and segment.rto_handle is not None:
                self.sim.cancel(segment.rto_handle)
        self._snd_una = ack
        self._fill_window()

    # ------------------------------------------------------------------
    # Receiver
    # ------------------------------------------------------------------
    def _on_dst_delivery(self, frame: Frame) -> None:
        """Data segment arrived at the receiver: deliver in order, ACK."""
        app = frame.meta.get("app") or {}
        seq = app.get("tcp_seq")
        if seq is None or frame.src != self.src.node_id:
            return
        if seq >= self._rcv_next and seq not in self._out_of_order:
            self._out_of_order[seq] = frame.payload_bytes
        while self._rcv_next in self._out_of_order:
            self.delivered_bytes += self._out_of_order.pop(self._rcv_next)
            self.delivered_segments += 1
            self._rcv_next += 1
        # Cumulative ACK on the reverse path (40-byte packet).
        self.dst.mac.enqueue(
            self.src.node_id,
            self.TRANSPORT_ACK_BYTES,
            flow=(self.dst.node_id, self.src.node_id),
            app_meta={"tcp_ack": self._rcv_next},
        )

    def goodput_bps(self, duration_ns: int) -> float:
        """Application-level goodput over ``duration_ns``."""
        if duration_ns <= 0:
            raise ValueError("duration must be positive")
        return self.delivered_bytes * 8 * SECOND / duration_ns
