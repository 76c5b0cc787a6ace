"""IEEE 802.11 DCF: CSMA/CA with binary exponential backoff.

This is the paper's baseline ("basic DCF") and the foundation the CO-MAP
MAC extends.  The state machine follows the standard's Distributed
Coordination Function as abstracted by Bianchi's model (which the paper
builds on):

* a station draws a backoff before **every** data transmission, matching
  both Bianchi's assumption and saturated operation;
* the backoff counter decrements only while the medium has been idle for
  DIFS (EIFS after a corrupted reception), freezes on busy, and resumes
  without a new draw;
* unicast data is acknowledged SIFS after reception; a missing ACK doubles
  the contention window (from :data:`CW_MIN` up to :data:`CW_MAX`) and
  retries up to :data:`RETRY_LIMIT` times;
* with RTS/CTS on, every unicast data frame is protected by the exchange;
* a **constant contention window** mode (``constant_cw=W`` drawing
  uniformly from ``[0, W-1]``) reproduces the constant-W networks of the
  paper's analytical model (Fig. 7), where ``tau = 2 / (W + 1)``.

Subclass hooks (used by :class:`repro.mac.comap.CoMapMac`) are the
underscore-prefixed template methods: frame composition, busy-ignore
predicate, ACK construction/outcome handling, and overhearing callbacks.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.mac.frames import (
    _ACK, _COMAP_HEADER, _CTS, _DATA, _RTS, BROADCAST, Frame,
)
from repro.mac.rate_control import FixedRate, RatePolicy
from repro.mac.timing import PhyTiming
from repro.obs.counters import Histogram
from repro.phy.radio import Radio, noop_hook
from repro.phy.rates import RateTable
from repro.sim.engine import Simulator
from repro.util.rng import RngStreams

FlowId = Tuple[int, int]

#: Bucket bounds (ns) for per-flow MAC latency histograms: 250 µs to 5 s
#: covers one clean exchange up to deep-queue saturation delays.
LATENCY_BUCKETS_NS = (
    250_000, 500_000, 1_000_000, 2_500_000, 5_000_000, 10_000_000,
    25_000_000, 50_000_000, 100_000_000, 250_000_000, 500_000_000,
    1_000_000_000, 2_500_000_000, 5_000_000_000,
)


#: The DCF constants every scenario runs: the binary exponential backoff
#: window runs from ``CW_MIN`` to ``CW_MAX`` slots, a frame is dropped
#: after ``RETRY_LIMIT`` retransmissions, and a MAC holds at most
#: ``QUEUE_LIMIT`` MSDUs behind its head.
CW_MIN = 31
CW_MAX = 1023
RETRY_LIMIT = 7
QUEUE_LIMIT = 64


@dataclass(frozen=True)
class MacConfig:
    """The DCF switches a scenario chooses, fixed once the MAC is built.

    ``constant_cw`` (when set) replaces binary exponential backoff with a
    fixed window of ``W`` slots, drawing uniformly from ``[0, W-1]`` —
    exactly the constant-backoff-window networks of the paper's system
    model where ``tau = 2/(W+1)``.  It is the *configured* window: the
    one in force is :attr:`DcfMac.constant_cw`, which CO-MAP's
    adaptation may pin at run time.  A :class:`repro.net.network.Network`
    builds one config for all its MACs (``mac_overrides`` sets it).
    """

    constant_cw: Optional[int] = None
    #: Virtual carrier sense.  The paper disables RTS/CTS everywhere
    #: ("due to its overhead, inefficiency, and aggravation of the ET
    #: problem"); it is implemented here as a baseline so those claims
    #: can be *demonstrated* (see bench_rts_cts_baseline).
    use_rts_cts: bool = False

    def __post_init__(self) -> None:
        if self.constant_cw is not None and self.constant_cw < 1:
            raise ValueError("constant CW must be at least 1 slot")


@dataclass
class Mpdu:
    """One queued MAC service data unit awaiting (re)transmission."""

    dst: int
    payload_bytes: int
    flow: FlowId
    seq: int
    enqueued_at: int
    attempts: int = 0
    app_meta: Optional[dict] = None


@dataclass
class LinkStats:
    """Sender- and receiver-side counters for one MAC entity.

    ``delivered_bytes``/``delivered_packets`` count *unique* payload
    received (duplicates from lost ACKs are detected via per-flow sequence
    sets and counted separately), which is the paper's goodput definition.
    """

    enqueued: int = 0
    queue_drops: int = 0
    data_transmissions: int = 0
    retransmissions: int = 0
    rts_sent: int = 0
    cts_sent: int = 0
    nav_reservations_honored: int = 0
    acks_sent: int = 0
    ack_skipped_busy: int = 0
    successes: int = 0
    retry_drops: int = 0
    delivered_packets: int = 0
    delivered_bytes: int = 0
    duplicates: int = 0
    delivered_by_flow: Dict[FlowId, int] = field(default_factory=dict)
    delivered_packets_by_flow: Dict[FlowId, int] = field(default_factory=dict)

    def record_delivery(self, flow: FlowId, payload_bytes: int) -> None:
        """Account one unique delivered packet."""
        self.delivered_packets += 1
        self.delivered_bytes += payload_bytes
        self.delivered_by_flow[flow] = self.delivered_by_flow.get(flow, 0) + payload_bytes
        self.delivered_packets_by_flow[flow] = (
            self.delivered_packets_by_flow.get(flow, 0) + 1
        )


class MacState(enum.Enum):
    """Coarse DCF sender state (ACK/CTS transmission is orthogonal)."""

    IDLE = "idle"
    CONTEND = "contend"
    TX = "tx"
    WAIT_CTS = "wait-cts"
    WAIT_ACK = "wait-ack"


#: The states the MAC modules test on the frame path, bound once as
#: globals, as :mod:`repro.mac.frames` binds the frame kinds (``_DATA``
#: and the rest).  Before Python 3.12 the enum metaclass defines
#: ``__getattr__``, which routes every member read through its class
#: (``MacState.CONTEND``, ``FrameType.DATA``) into a slow attribute hook:
#: about 100-165 ns against 10-15 ns for a global under Python 3.11, on
#: several tests per frame per receiver and per contender.
_IDLE = MacState.IDLE
_CONTEND = MacState.CONTEND
_TX = MacState.TX
_WAIT_CTS = MacState.WAIT_CTS
_WAIT_ACK = MacState.WAIT_ACK


class DcfMac:
    """An 802.11 DCF MAC entity bound to one :class:`Radio`."""

    #: Optional fault-injection hooks (see :mod:`repro.faults`).  ``None``
    #: (the class default) keeps the receive path branch-light: a single
    #: attribute check per decoded frame, no draws, no behavior change.
    fault_hooks = None

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        radio: Radio,
        timing: PhyTiming,
        rates: RateTable,
        rngs: RngStreams,
        config: Optional[MacConfig] = None,
        rate_policy: Optional[RatePolicy] = None,
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.radio = radio
        self.timing = timing
        self.rates = rates
        #: EIFS at this MAC's base rate; timing and rates are fixed for
        #: its lifetime, so the wait is derived once, not per idle edge.
        self._eifs_ns = timing.eifs_ns(rates.base)
        self.config = config or MacConfig()
        self.rate_policy = rate_policy or FixedRate(rates.top)
        self.stats = LinkStats()
        #: The constant window in force (``None``: binary exponential
        #: backoff).  Starts as the configured one; CO-MAP's adaptation
        #: pins and releases it, never the config.
        self.constant_cw = self.config.constant_cw
        self._rngs = rngs
        #: The backoff stream, created at the first draw: in a large
        #: topology most nodes never contend.  Its key fixes its seed, so
        #: when it is created changes no value.
        self._rng = None
        #: Whether busy edges ask :meth:`_should_ignore_busy`.  Decided
        #: here, once, like the radio's ``noop_hook`` read: plain DCF's
        #: predicate carries the mark and always answers False, so a MAC
        #: that keeps it never counts through a busy medium.
        self._may_ignore_busy = not getattr(
            self._should_ignore_busy, "noop_hook", False
        )
        radio.bind_mac(self)

        self._queue: Deque[Mpdu] = deque()
        self._head: Optional[Mpdu] = None
        self._state = _IDLE
        self._cw = CW_MIN
        self._backoff_slots: Optional[int] = None
        self._countdown_started_at: Optional[int] = None
        self._ifs_handle: Optional[list] = None
        self._countdown_handle: Optional[list] = None
        self._ack_timeout_handle: Optional[list] = None
        self._cts_timeout_handle: Optional[list] = None
        self._nav_until: int = 0
        self._nav_resume_handle: Optional[list] = None
        #: What this MAC does SIFS after a reception: send the ACK or CTS
        #: it owes, or the data a CTS cleared (at most one at a time).
        self._sifs_handle: Optional[list] = None
        self._need_eifs = False
        self._tx_train: List[Frame] = []
        self._rts_data_frame: Optional[Frame] = None
        self._suspended = False
        self._tx_seq = itertools.count(0)
        self._seq_by_flow: Dict[FlowId, itertools.count] = {}
        self._rx_seen: Dict[FlowId, Set[int]] = {}
        #: Enqueue-to-delivery latency of each flow this MAC delivered
        #: (receiver side), created at the flow's first unique delivery.
        #: An in-process query (the C-SR studies' p99), not a counter.
        self.latency: Dict[FlowId, Histogram] = {}
        #: Upper-layer delivery callback: fn(frame) on unique reception.
        self.on_deliver: Optional[Callable[[Frame], None]] = None
        #: Called whenever a queue slot frees up (sources use it to refill).
        self.on_queue_space: Optional[Callable[[], None]] = None

    def counters(self) -> Dict[str, int]:
        """This MAC's counters, keyed ``prefix/name``.

        DCF's are the scalar fields of its :class:`LinkStats` under
        ``mac/`` (the per-flow breakdowns stay internal); subclasses add
        their own prefixes.  The hot path keeps plain attribute
        increments, and :meth:`repro.net.network.Network.counters` sums
        these views over every node.
        """
        return {
            f"mac/{name}": value
            for name, value in vars(self.stats).items()
            if isinstance(value, int)
        }

    # ------------------------------------------------------------------
    # Upper-layer interface
    # ------------------------------------------------------------------
    def enqueue(
        self,
        dst: int,
        payload_bytes: int,
        flow: Optional[FlowId] = None,
        app_meta: Optional[dict] = None,
    ) -> bool:
        """Queue one MSDU for ``dst``.  Returns False on queue overflow.

        ``app_meta`` rides along into the data frame's ``meta["app"]`` and
        is delivered to the receiver's upper layer — the transport
        substrate (:mod:`repro.net.traffic`) uses it for TCP-lite headers.
        """
        if payload_bytes <= 0:
            raise ValueError("payload must be positive")
        if len(self._queue) >= QUEUE_LIMIT:
            self.stats.queue_drops += 1
            return False
        flow = flow or (self.node_id, dst)
        counter = self._seq_by_flow.setdefault(flow, itertools.count(0))
        mpdu = Mpdu(
            dst=dst,
            payload_bytes=payload_bytes,
            flow=flow,
            seq=next(counter),
            enqueued_at=self.sim.now,
            app_meta=app_meta,
        )
        self._queue.append(mpdu)
        self.stats.enqueued += 1
        if self._state is _IDLE and not self._suspended:
            self._start_next()
        return True

    @property
    def queue_length(self) -> int:
        """Number of MSDUs waiting behind the current head."""
        return len(self._queue)

    @property
    def state(self) -> MacState:
        """Current coarse sender state (inspected by tests)."""
        return self._state

    def preferred_payload(self) -> Optional[int]:
        """Advised MSDU payload size; ``None`` means "no preference".

        The base DCF never advises; the CO-MAP MAC overrides this with the
        HT-aware packet-size adaptation of Section IV-D.
        """
        return None

    # ------------------------------------------------------------------
    # Sender state machine
    # ------------------------------------------------------------------
    def _start_next(self) -> None:
        """Pick the next MSDU and begin contention, or go idle."""
        assert self._head is None
        head = self._select_next()
        if head is None:
            self._state = _IDLE
            return
        self._head = head
        self._cw = CW_MIN
        self._begin_contention()
        if self.on_queue_space is not None:
            self.on_queue_space()

    def _select_next(self) -> Optional[Mpdu]:
        """Template method: choose the next MSDU (FIFO by default)."""
        if not self._queue:
            return None
        return self._queue.popleft()

    def _begin_contention(self) -> None:
        """Draw a backoff and start (or wait for) the countdown."""
        self._state = _CONTEND
        self._backoff_slots = self._draw_backoff()
        self._resume_contention()

    def _draw_backoff(self) -> int:
        """Uniform draw from the current contention window."""
        rng = self._rng
        if rng is None:
            rng = self._rng = self._rngs.stream("backoff", self.node_id)
        if self.constant_cw is not None:
            return int(rng.integers(0, self.constant_cw))
        return int(rng.integers(0, self._cw + 1))

    def _resume_contention(self) -> None:
        """Arm the IFS wait if the medium permits counting down."""
        if not self._may_arm_ifs():
            return
        if self.radio.medium_busy() and not (
            self._may_ignore_busy and self._should_ignore_busy()
        ):
            return  # stay frozen until on_medium_idle
        self._arm_ifs()

    def _may_arm_ifs(self) -> bool:
        """Contending, neither waiting out the IFS nor counting, no NAV.

        The NAV is active while a decoded reservation covers the current
        instant (``now < _nav_until``).
        """
        return (
            self._state is _CONTEND
            and self._ifs_handle is None
            and self._countdown_handle is None
            and self.sim.now >= self._nav_until
        )

    def _arm_ifs(self) -> None:
        """Start the IFS wait; the caller has cleared the medium for it.

        DIFS normally; EIFS after observing a corrupted frame.
        """
        ifs = self._eifs_ns if self._need_eifs else self.timing.difs_ns
        self._ifs_handle = self.sim.schedule(ifs, self._ifs_elapsed)

    def _ifs_elapsed(self) -> None:
        """The medium stayed idle through the IFS; start the slot countdown."""
        self._ifs_handle = None
        self._need_eifs = False
        assert self._backoff_slots is not None
        if self._backoff_slots <= 0:
            self._backoff_expired()
            return
        self._countdown_started_at = self.sim.now
        self._countdown_handle = self.sim.schedule(
            self._backoff_slots * self.timing.slot_ns, self._backoff_expired
        )

    def _backoff_expired(self) -> None:
        """Backoff reached zero: transmit the head MSDU."""
        self._countdown_handle = None
        self._countdown_started_at = None
        self._backoff_slots = None
        self._transmit_head()

    def _freeze_contention(self) -> None:
        """Medium went busy: stop the countdown, crediting whole idle slots."""
        handle = self._ifs_handle
        if handle is not None:
            self.sim.cancel(handle)
            self._ifs_handle = None
        handle = self._countdown_handle
        if handle is not None:
            assert self._countdown_started_at is not None
            assert self._backoff_slots is not None
            # Integer ns, so the floor division counts whole slots only.
            elapsed = self.sim.now - self._countdown_started_at
            remaining = self._backoff_slots - elapsed // self.timing.slot_ns
            self._backoff_slots = remaining if remaining > 0 else 0
            self.sim.cancel(handle)
            self._countdown_handle = None
            self._countdown_started_at = None

    def _transmit_head(self) -> None:
        """Compose and send the frame train for the head MSDU."""
        assert self._head is not None
        if self.radio.transmitting:
            # Half-duplex guard: an ACK of ours is still on the air (the
            # countdown raced its start).  Go again once it completes.
            self._state = _CONTEND
            self._backoff_slots = 0
            return
        self._state = _TX
        head = self._head
        head.attempts += 1
        if head.attempts > 1:
            self.stats.retransmissions += 1
        rate = self.rate_policy.select(head.dst)
        if self._rts_applies(head):
            self._send_rts(head, rate)
            return
        frames = self._compose_frames(head, rate)
        self._tx_train = list(frames)
        self._send_next_in_train()

    # ------------------------------------------------------------------
    # RTS/CTS (virtual carrier sense)
    # ------------------------------------------------------------------
    def _rts_applies(self, head: Mpdu) -> bool:
        """Should this attempt be protected by an RTS/CTS exchange?"""
        return self.config.use_rts_cts and head.dst != BROADCAST

    def _send_rts(self, head: Mpdu, rate) -> None:
        """Open the exchange with an RTS carrying the full reservation."""
        data = self._build_data_frame(head, rate)
        self._rts_data_frame = data
        sifs = self.timing.sifs_ns
        cts_air = self.timing.cts_airtime_ns(self.rates.base)
        remaining = (
            sifs + cts_air
            + sifs + self.timing.frame_airtime_ns(data)
            + sifs + self.timing.ack_airtime_ns(self.rates.base)
        )
        rts = Frame(
            kind=_RTS, src=self.node_id, dst=head.dst,
            rate=self.rates.base, seq=head.seq, flow=head.flow,
            meta={"dur": remaining},
        )
        self.stats.rts_sent += 1
        self.radio.start_transmission(rts)

    def _accept_rts(self, rts: Frame) -> None:
        """Answer an RTS addressed to us with a CTS after SIFS."""
        cts_air = self.timing.cts_airtime_ns(self.rates.base)
        remaining = max(int(rts.meta.get("dur", 0)) - self.timing.sifs_ns - cts_air, 0)
        cts = Frame(
            kind=_CTS, src=self.node_id, dst=rts.src,
            rate=self.rates.base, seq=rts.seq, flow=rts.flow,
            meta={"dur": remaining},
        )
        self._sifs_handle = self.sim.schedule(
            self.timing.sifs_ns, self._send_control, cts
        )

    def _send_control(self, frame: Frame) -> None:
        """Transmit a control response unless the radio is mid-frame."""
        if self.radio.transmitting:
            self.stats.ack_skipped_busy += 1
            return
        self.radio.start_transmission(frame)

    def _accept_cts(self, cts: Frame) -> None:
        """CTS for our pending RTS: clear to send the data train."""
        if self._state is not _WAIT_CTS or self._head is None:
            return
        if cts.flow != self._head.flow or cts.seq != self._head.seq:
            return
        if self._cts_timeout_handle is not None:
            self.sim.cancel(self._cts_timeout_handle)
            self._cts_timeout_handle = None
        self._sifs_handle = self.sim.schedule(
            self.timing.sifs_ns, self._launch_protected_data
        )

    def _launch_protected_data(self) -> None:
        """Send the data frame the CTS cleared."""
        if self._head is None or self.radio.transmitting:
            return
        self._state = _TX
        self._tx_train = [self._rts_data_frame]
        self._send_next_in_train()

    def _cts_timeout(self, frame: Frame) -> None:
        """No CTS: treat like a missing ACK (collision on the RTS)."""
        self._cts_timeout_handle = None
        self._report_rate_outcome(frame.dst, success=False)
        self._handle_ack_timeout(frame)

    # ------------------------------------------------------------------
    # NAV (virtual carrier sense state)
    # ------------------------------------------------------------------
    def _set_nav(self, duration_ns: int) -> None:
        """Extend the NAV and freeze/resume contention accordingly."""
        if duration_ns <= 0:
            return
        until = self.sim.now + int(duration_ns)
        if until <= self._nav_until:
            return
        self._nav_until = until
        if self._state is _CONTEND:
            self._freeze_contention()
        if self._nav_resume_handle is not None:
            self.sim.cancel(self._nav_resume_handle)
        self._nav_resume_handle = self.sim.schedule_at(until, self._nav_expired)

    def _nav_expired(self) -> None:
        """The reserved period ended; contention may resume."""
        self._nav_resume_handle = None
        if self._state is _CONTEND:
            self._resume_contention()

    def _compose_frames(self, head: Mpdu, rate) -> List[Frame]:
        """Template method: the frames sent back-to-back for one attempt.

        Base DCF sends just the data frame; CO-MAP prepends its
        announcement header.
        """
        return [self._build_data_frame(head, rate)]

    def _build_data_frame(self, head: Mpdu, rate) -> Frame:
        """Materialize the data frame for the current attempt."""
        frame = Frame(
            kind=_DATA,
            src=self.node_id,
            dst=head.dst,
            rate=rate,
            payload_bytes=head.payload_bytes,
            seq=head.seq,
            flow=head.flow,
            retry=head.attempts - 1,
        )
        if head.app_meta is not None:
            frame.meta["app"] = head.app_meta
        # Enqueue timestamp for the receiver-side latency histogram; meta
        # never affects physics, and the Mpdu's stamp survives retries so
        # the measured latency includes queueing and retransmissions.
        frame.meta["enq"] = head.enqueued_at
        return frame

    def _send_next_in_train(self) -> None:
        """Transmit the next frame of the back-to-back train."""
        frame = self._tx_train.pop(0)
        if frame.kind is _DATA:
            self.stats.data_transmissions += 1
        self.radio.start_transmission(frame)

    # ------------------------------------------------------------------
    # PHY indications
    # ------------------------------------------------------------------
    def on_tx_complete(self, frame: Frame) -> None:
        """Radio callback: our own frame finished its airtime."""
        if self._suspended:
            return  # detached mid-flight; suspend() already reset the machine
        kind = frame.kind
        if kind is _ACK or kind is _CTS:
            self._after_control_tx()
            return
        if kind is _RTS:
            self._state = _WAIT_CTS
            cts_air = self.timing.cts_airtime_ns(self.rates.base)
            timeout = self.timing.sifs_ns + cts_air + self.timing.ack_timeout_slack_ns
            self._cts_timeout_handle = self.sim.schedule(
                timeout, self._cts_timeout, self._rts_data_frame
            )
            return
        if kind is _COMAP_HEADER:
            # More of the train (the data frame) follows immediately.
            if self._tx_train:
                self._send_next_in_train()
            return
        # Data frame.
        if self._tx_train:
            self._send_next_in_train()
            return
        if frame.is_broadcast:
            self._finish_attempt(success=True)
            return
        self._state = _WAIT_ACK
        timeout = self.timing.ack_timeout_ns(self.rates.base)
        self._ack_timeout_handle = self.sim.schedule(timeout, self._ack_timeout, frame)

    def _after_control_tx(self) -> None:
        """Resume contention after an ACK we sent on behalf of a receiver."""
        if self._state is _CONTEND:
            self._resume_contention()

    def on_frame_received(self, frame: Frame, rssi_dbm: float) -> None:
        """Radio callback: a frame was decoded successfully."""
        if self.fault_hooks is not None and self.fault_hooks.drop_rx(self.node_id, frame):
            return
        kind = frame.kind
        if kind is _DATA:
            if frame.dst == self.node_id:
                self._accept_data(frame, rssi_dbm)
            return
        if kind is _ACK:
            if frame.dst == self.node_id:
                self._accept_ack(frame)
            return
        if kind is _RTS:
            if frame.dst == self.node_id:
                self.stats.cts_sent += 1
                self._accept_rts(frame)
            else:
                self.stats.nav_reservations_honored += 1
                self._set_nav(int(frame.meta.get("dur", 0)))
            return
        if kind is _CTS:
            if frame.dst == self.node_id:
                self._accept_cts(frame)
            else:
                self.stats.nav_reservations_honored += 1
                self._set_nav(int(frame.meta.get("dur", 0)))
            return
        if kind is _COMAP_HEADER:
            self.on_header_overheard(frame, rssi_dbm)

    def _accept_data(self, frame: Frame, rssi_dbm: float) -> None:
        """Deliver unique payload upward and schedule the ACK."""
        flow = frame.flow or (frame.src, frame.dst)
        seen = self._rx_seen.setdefault(flow, set())
        if frame.seq in seen:
            self.stats.duplicates += 1
        else:
            seen.add(frame.seq)
            self.stats.record_delivery(flow, frame.payload_bytes)
            self._observe_latency(flow, frame)
            if self.on_deliver is not None:
                self.on_deliver(frame)
        ack = self._build_ack(frame)
        self._sifs_handle = self.sim.schedule(
            self.timing.sifs_ns, self._send_ack, ack
        )

    def _observe_latency(self, flow: FlowId, frame: Frame) -> None:
        """Record enqueue-to-delivery latency for a unique reception.

        Deterministic sim-time arithmetic on the sender's meta stamp —
        no RNG, no scheduling — so the histograms can never perturb the
        physics.  Quantiles (the C-SR studies' p99) are in-process
        queries on :attr:`latency`.
        """
        enqueued_at = frame.meta.get("enq")
        if enqueued_at is None:
            return
        hist = self.latency.get(flow)
        if hist is None:
            hist = self.latency[flow] = Histogram(
                f"latency/{flow[0]}->{flow[1]}", LATENCY_BUCKETS_NS
            )
        hist.observe(self.sim.now - enqueued_at)

    def _build_ack(self, data_frame: Frame) -> Frame:
        """Template method: construct the ACK for a received data frame."""
        return Frame(
            kind=_ACK,
            src=self.node_id,
            dst=data_frame.src,
            rate=self.rates.base,
            seq=data_frame.seq,
            flow=data_frame.flow,
        )

    def _send_ack(self, ack: Frame) -> None:
        """Put the ACK on the air unless the radio is mid-transmission."""
        if self.radio.transmitting:
            self.stats.ack_skipped_busy += 1
            return
        self.stats.acks_sent += 1
        self.radio.start_transmission(ack)

    def _accept_ack(self, ack: Frame) -> None:
        """Handle an ACK addressed to us."""
        if self._state is not _WAIT_ACK or self._head is None:
            return
        if ack.flow != self._head.flow or ack.seq != self._head.seq:
            self._on_foreign_ack(ack)
            return
        if self._ack_timeout_handle is not None:
            self.sim.cancel(self._ack_timeout_handle)
            self._ack_timeout_handle = None
        self._report_rate_outcome(self._head.dst, success=True)
        self._finish_attempt(success=True)

    def _on_foreign_ack(self, ack: Frame) -> None:
        """Template method: ACK for us but not for the head (SR-ARQ uses it)."""

    def _ack_timeout(self, frame: Frame) -> None:
        """No ACK arrived in time for ``frame``."""
        self._ack_timeout_handle = None
        self._report_rate_outcome(frame.dst, success=False)
        self._handle_ack_timeout(frame)

    def _report_rate_outcome(self, dst: int, success: bool) -> None:
        """Template method: feed the ACK outcome to the rate controller."""
        self.rate_policy.report(dst, success=success)

    def _handle_ack_timeout(self, frame: Frame) -> None:
        """Drop the head past the retry limit, else retry it."""
        assert self._head is not None
        if self._head.attempts > RETRY_LIMIT:
            self.stats.retry_drops += 1
            self._finish_attempt(success=False)
            return
        self._retry(frame)

    def _retry(self, frame: Frame) -> None:
        """Template method: stop-and-wait retry with BEB (base behaviour)."""
        if self.constant_cw is None:
            self._cw = min(2 * (self._cw + 1) - 1, CW_MAX)
        self._begin_contention()

    def _finish_attempt(self, success: bool) -> None:
        """Head MSDU leaves the MAC (delivered or dropped); move on."""
        if success:
            self.stats.successes += 1
        self._head = None
        self._state = _IDLE
        self._start_next()

    # ------------------------------------------------------------------
    # Churn: suspend / resume (node leaving and re-joining mid-run)
    # ------------------------------------------------------------------
    def _cancel_timers(self) -> None:
        """Cancel every pending MAC timer.  Idempotent."""
        for name in (
            "_ifs_handle",
            "_countdown_handle",
            "_ack_timeout_handle",
            "_cts_timeout_handle",
            "_nav_resume_handle",
            "_sifs_handle",
        ):
            handle = getattr(self, name)
            if handle is not None:
                self.sim.cancel(handle)
                setattr(self, name, None)

    def suspend(self) -> None:
        """Take the MAC off the air: the node left the network.

        Cancels all pending timers, and with them an owed ACK or CTS (the
        node is gone before it comes due, so the peer times out as it
        would on a lost response) or the data a CTS just cleared, requeues
        the in-flight head MSDU at the front of the queue (so
        :meth:`resume` retries it first, with a fresh attempt history),
        and parks the state machine.  Safe to call mid-transmission: the
        radio's detach path stops delivering air events, and the
        :attr:`_suspended` guard swallows any ``on_tx_complete`` for a
        frame already on the air.
        """
        if self._suspended:
            return
        self._suspended = True
        self._cancel_timers()
        self._countdown_started_at = None
        self._backoff_slots = None
        self._tx_train = []
        self._rts_data_frame = None
        self._nav_until = 0
        self._need_eifs = False
        if self._head is not None:
            head = self._head
            head.attempts = 0
            self._head = None
            self._queue.appendleft(head)
        self._state = _IDLE
        self._cw = CW_MIN

    def resume(self) -> None:
        """Bring a suspended MAC back on the air (the node re-joined)."""
        if not self._suspended:
            return
        self._suspended = False
        if self._queue and self._state is _IDLE and self._head is None:
            self._start_next()

    @property
    def suspended(self) -> bool:
        """True while the node is detached from the network."""
        return self._suspended

    # ------------------------------------------------------------------
    # Medium state
    # ------------------------------------------------------------------
    def on_medium_busy(self) -> None:
        """Radio callback: CCA went busy."""
        if self._state is not _CONTEND:
            return
        if self._may_ignore_busy and self._should_ignore_busy():
            return
        self._freeze_contention()

    def on_medium_idle(self) -> None:
        """Radio callback: CCA went idle.

        The radio has just read the medium free and nothing has run since,
        so contention resumes without a second CCA query.
        """
        if self._may_arm_ifs():
            self._arm_ifs()

    @noop_hook
    def _should_ignore_busy(self) -> bool:
        """Template method: CO-MAP keeps counting through exposed traffic.

        Always False here, so a MAC is asked only if its class overrides
        it (:attr:`_may_ignore_busy`).
        """
        return False

    def on_frame_corrupted(self, frame: Frame) -> None:
        """Radio callback: a reception failed the SIR test."""
        self._need_eifs = True

    @noop_hook
    def on_energy_changed(self, energy_mw: float) -> None:
        """Radio callback: in-air energy changed (CO-MAP RSSI monitor hook).

        A no-op here, so the radio never calls it; subclasses that
        override it are called.
        """

    def on_header_overheard(self, frame: Frame, rssi_dbm: float) -> None:
        """Template method: a CO-MAP announcement header was decoded."""

    def on_data_overheard(self, frame: Frame, rssi_dbm: float) -> None:
        """Never called: DCF drops a decoded data frame for someone else.

        Kept only because ``perfbench/spans.py`` names it in ``ENTRY_POINTS``.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DcfMac node={self.node_id} state={self._state.value}>"
