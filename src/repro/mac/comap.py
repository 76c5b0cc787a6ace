"""The CO-MAP MAC: location-aided exposed/hidden-terminal handling.

Extends :class:`repro.mac.exposed.ExposedMac` (DCF plus the shared
exposed-transmission episode) with the four runtime mechanisms of
Section IV:

1. **Transmission announcement** — every data frame is preceded by a
   small header frame carrying the (source, destination) of the upcoming
   transmission (the paper's commodity-hardware variant), plus a duration
   hint (the standard 802.11 Duration field), so neighbors can identify
   exposed-transmission opportunities *before* the payload occupies the
   channel.
2. **Exposed-terminal concurrency** — on decoding a header, a contending
   node consults its :class:`repro.core.protocol.CoMapAgent`
   (co-occurrence map, then eq. 3).  If validation passes it keeps its
   backoff counting down *through* the ongoing transmission and transmits
   concurrently when the counter expires.
3. **Enhanced multi-ET scheduling** — while counting down, the node
   records ``RSSI_1`` and abandons the opportunity if the measured energy
   rises by the carrier-sense quantum ``T'_cs`` (another exposed terminal
   got there first), preventing ET-vs-ET collisions at the shared
   receiver side.
4. **Selective-repeat ARQ** — a missing ACK (often just corrupted by the
   tail of the concurrent transmission) defers the frame inside a
   ``W_send`` window instead of retransmitting; later ACKs carry the
   receiver's recent-sequence list and confirm retroactively.

Hidden-terminal mitigation (Section IV-D) enters through
:meth:`CoMapMac.refresh_adaptation`, which pins the contention window in
force (:attr:`DcfMac.constant_cw`, never the config) and advises the MSDU
payload size from the analytical optimum for the estimated ``(N_ht, c)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.arq import SrReceiver, SrSender
from repro.core.protocol import CoMapAgent
from repro.mac.dcf import _CONTEND, _IDLE, _WAIT_ACK, FlowId, Mpdu
from repro.mac.exposed import OPPORTUNITY_SLACK_NS, ExposedMac, ExposedMacConfig
from repro.mac.frames import _DATA, Frame
from repro.util.units import dbm_to_mw


#: How long a link's RSSI signature stays usable for persistent exposure
#: without hearing a fresh announcement header from it.
EXPOSURE_MEMORY_NS = 5_000_000


@dataclass(frozen=True)
class CoMapMacConfig(ExposedMacConfig):
    """CO-MAP additions on top of the DCF and episode knobs.

    ``enhanced_scheduler=False`` reproduces the paper's testbed emulation
    (concurrency by CCA override without RSSI monitoring) and powers the
    multi-ET ablation.  The announcement method and the selective-repeat
    window are protocol settings: :class:`repro.core.config.CoMapConfig`
    owns them, and the MAC reads them from its agent.
    """

    enable_adaptation: bool = True
    enhanced_scheduler: bool = True
    #: Persistent exposure: once a link is validated as co-occurring,
    #: busy-channel energy attributable to that link (by RSSI signature,
    #: within T'_cs) no longer freezes the backoff.  This is the paper's
    #: testbed mechanism ("we enable the concurrent transmissions of one
    #: ET by disabling its carrier sense with a high CCA threshold"),
    #: bounded here by per-link RSSI attribution and a recency window
    #: (:data:`EXPOSURE_MEMORY_NS`).
    persistent_exposure: bool = True


@dataclass
class CoMapStats:
    """Counters specific to the CO-MAP mechanisms."""

    headers_sent: int = 0
    opportunities_validated: int = 0
    opportunities_rejected: int = 0
    opportunities_abandoned: int = 0
    signature_opportunities: int = 0
    concurrent_transmissions: int = 0
    receiver_switches: int = 0
    #: Window-exhausted resends.  The window's own counts (advances,
    #: prompt and late confirmations) are :class:`SrSender`'s, under
    #: ``arq/``.
    sr_retransmissions: int = 0
    #: (N_ht, c) -> (CW, payload) re-lookups this MAC performed: one at
    #: finalize, then one each time a same-band report adds or moves a
    #: row, or a node leaves (a keep-alive at an unchanged position
    #: refreshes nothing).  Only the MACs that read the changed row are
    #: refreshed, so this counter is how tests assert unrelated MACs stay
    #: untouched.  A lookup while degraded counts too.
    adaptation_refreshes: int = 0
    #: Graceful-degradation fallback (stale location input): fallbacks
    #: started (the instant the node's own row outlived
    #: ``location_ttl_ns``, or a re-join without a row), fallbacks ended
    #: (by the node's next report), and data frames transmitted while
    #: degraded.
    fallback_entered: int = 0
    fallback_exited: int = 0
    fallback_tx_frames: int = 0

    def as_counter_dict(self) -> Dict[str, int]:
        """Registry-source view (all fields are scalar counters)."""
        return dict(vars(self))


class CoMapMac(ExposedMac):
    """DCF extended with the CO-MAP exposed/hidden-terminal machinery.

    The episode lifecycle is :class:`ExposedMac`'s; CO-MAP decides from
    positions which episodes to take, abandons one when a rival ET
    starts first, and reopens one from a known link's RSSI signature.

    An episode stays open across our own transmissions: during one
    exposed episode the sender streams several frames of its
    selective-repeat window ("a transmitter sends a set of frames with
    consecutive sequence numbers specified by a window size"), so the
    next head keeps counting through the ongoing transmission until the
    episode ends (expiry, rival ET, or an idle medium).
    """

    # The episode's teardown, inherited unchanged.  Bound in this class's
    # own dict because perfbench/spans.py wraps them on CoMapMac itself.
    on_medium_idle = ExposedMac.on_medium_idle
    _expire_opportunity = ExposedMac._expire_opportunity

    def __init__(self, *args, agent: CoMapAgent, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if not isinstance(self.config, CoMapMacConfig):
            raise TypeError("CoMapMac requires a CoMapMacConfig")
        self.agent = agent
        self.comap_stats = self._episode_stats = CoMapStats()
        # Per-announced-link RSSI signatures: link -> (ewma_mw, last_seen_ns).
        self._link_signatures: Dict[tuple, tuple] = {}
        # The instant after which every signature is stale: the newest
        # last_seen_ns plus EXPOSURE_MEMORY_NS, written only by
        # _remember_signature.  Past it the scans skip the dict, and a
        # frozen contender skips its re-examination of a busy medium.
        self._signatures_fresh_until_ns = -1
        #: Shadowing back-off applied to the predicted concurrent SIR (dB).
        self._exposed_sir_margin_db = math.sqrt(2.0) * (
            agent.model.propagation.sigma_db
        )
        #: The last (N_ht, c) advice: payload (None until a refresh) and
        #: window (None: binary exponential backoff; the configured one
        #: until a refresh).  Kept through a fallback; the window is in
        #: force only outside one.
        self._advised_payload: Optional[int] = None
        self._advised_window = self.config.constant_cw
        self._fallback_active = False
        #: The pending staleness check: at most one, armed from the node's
        #: first report on while ``location_ttl_ns`` is set; None without
        #: a TTL, during a fallback and while suspended.
        self._staleness_handle: Optional[list] = None
        self._sr_senders: Dict[FlowId, SrSender] = {}
        self._sr_receivers: Dict[FlowId, SrReceiver] = {}
        # The carrier-sense quantum T'_cs: the part of T_cs that is not
        # noise floor (Table I lists -80.14 dBm for T_cs = -80 dBm).
        self._t_cs_prime_mw = max(
            dbm_to_mw(self.radio.config.cs_threshold_dbm) - self.radio.noise_mw, 0.0
        )

    def register_counters(self, registry) -> None:
        """Add the CO-MAP and selective-repeat counters to the registry."""
        super().register_counters(registry)
        registry.register_source("comap", self.comap_stats.as_counter_dict)
        registry.register_source("comap", self._degradation_counters)
        registry.register_source("arq", self._arq_counters)

    def _degradation_counters(self) -> Dict[str, int]:
        """Staleness counters kept on the agent, merged under ``comap/``."""
        return {"stale_denials": self.agent.stale_denials}

    # ------------------------------------------------------------------
    # Graceful degradation (fallback to plain DCF on stale location)
    # ------------------------------------------------------------------
    def _degraded(self) -> bool:
        """True while this node is in a location fallback (plain DCF).

        Only reads the state: :meth:`_location_expired` starts a fallback
        the instant the node's own row outlives
        :attr:`CoMapConfig.location_ttl_ns`, :meth:`resume` one for a
        node back without its row, and :meth:`location_reported` ends
        it.  With the TTL unset (the default) it is always False.
        """
        return self._fallback_active

    def location_reported(self) -> None:
        """This node's location service just published a report.

        The report ends a fallback, so the first backoff drawn after the
        recovery already runs on the advised window, and it makes sure a
        staleness check is pending for the row it refreshed.
        """
        if self.agent.config.location_ttl_ns is None:
            return
        if self._fallback_active:
            self._fallback_active = False
            self.comap_stats.fallback_exited += 1
            self.constant_cw = self._advised_window
        if self._staleness_handle is None:
            self._arm_staleness_check()

    def _arm_staleness_check(self) -> None:
        """Check the node's own row again the instant it would go stale."""
        agent = self.agent
        updated_at = agent.neighbor_table.get(self.node_id).updated_at
        self._staleness_handle = self.sim.schedule_at(
            updated_at + agent.config.location_ttl_ns + 1, self._location_expired
        )

    def _location_expired(self) -> None:
        """Start a fallback if the node's row was not refreshed in time."""
        self._staleness_handle = None
        if not self.agent.location_stale(self.sim.now):
            self._arm_staleness_check()
            return
        self._enter_fallback()

    def _enter_fallback(self) -> None:
        """Fall back to plain DCF until the node's next report.

        Entering fallback ends the live opportunity and puts the
        configured window back in force, and :meth:`preferred_payload`
        hides the advised payload, so backoff matches plain DCF until the
        next report.  The advice itself is kept: leaving fallback pins
        its window again, so no refresh is needed to restore it.
        """
        self._fallback_active = True
        self.comap_stats.fallback_entered += 1
        self._end_opportunity()
        self.constant_cw = self.config.constant_cw

    def _arq_counters(self) -> Dict[str, int]:
        """Aggregate :class:`SrSender` counters across this node's flows."""
        totals: Dict[str, int] = {}
        for sender in self._sr_senders.values():
            for key, value in sender.counters().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    # ------------------------------------------------------------------
    # Adaptation (hidden terminals, Section IV-D)
    # ------------------------------------------------------------------
    def refresh_adaptation(self, receivers: List[int]) -> Optional[tuple]:
        """Re-derive (CW, payload) advice for this node's links.

        For a client ``receivers`` holds just its AP; an AP passes all of
        its associated clients and the worst-case (max) counts are used.
        The advice is kept while degraded and applied when fallback ends.
        Returns the ``(N_ht, c)`` estimate behind the advice, or None when
        adaptation is disabled or no receiver is known.
        """
        if not self.config.enable_adaptation or self.agent.adaptation is None:
            return None
        if not receivers:
            return None
        self.comap_stats.adaptation_refreshes += 1
        hidden = contenders = 0
        for receiver in receivers:
            h, c = self.agent.link_counts(receiver)
            hidden = max(hidden, h)
            contenders = max(contenders, c)
        setting = self.agent.adaptation.best_settings(hidden, contenders)
        self._advised_payload = setting.payload_bytes
        # Without distinguished hidden terminals, binary exponential
        # backoff already adapts the window to the contention level —
        # pinning a constant CW would only remove that adaptivity.
        self._advised_window = setting.window if hidden else None
        if not self._degraded():
            self.constant_cw = self._advised_window
        return hidden, contenders

    def preferred_payload(self) -> Optional[int]:
        """Advised MSDU size from the (N_ht, c) lookup, if adaptation ran."""
        if self.config.enable_adaptation and not self._degraded():
            return self._advised_payload
        return None

    # ------------------------------------------------------------------
    # Announcement headers
    # ------------------------------------------------------------------
    def _compose_frames(self, head: Mpdu, rate) -> List[Frame]:
        """Prefix the data frame with the announcement header.

        For an exposed concurrent transmission the data rate is chosen
        from the location-predicted SIR under the ongoing interferer
        (rather than the rate controller's solo-channel estimate): "a
        higher data rate could be adapted if it is located further away
        from the ongoing transmission".
        """
        if self._degraded():
            # Plain-DCF fallback: no announcement header, no exposed-rate
            # reasoning from (stale) positions.
            self.comap_stats.fallback_tx_frames += 1
            return [self._build_data_frame(head, rate)]
        if self._exposed_link is not None:
            rate = self._exposed_rate(head.dst, rate)
        elif self.config.persistent_exposure:
            # A validated exposed link may fire mid-frame at any moment
            # while its signature is fresh; cap the rate at what survives
            # that interference so concurrency does not poison our frames.
            rate = self._environment_capped_rate(head.dst, rate)
        data = self._build_data_frame(head, rate)
        if self._exposed_link is not None:
            data.meta["exposed"] = True
        if not self.config.announce_headers:
            return [data]
        if not self.agent.announce_worthwhile(head.dst):
            # Positions rule out any exposed terminal for this link — the
            # announcement would be pure overhead.
            return [data]
        self.comap_stats.headers_sent += 1
        if self.agent.config.announce_mode == "embedded":
            data.meta["embedded_announce"] = True
            data.meta["dur"] = self.timing.frame_airtime_ns(data)
            return [data]
        return [self._announcement_header(head, data), data]

    # ------------------------------------------------------------------
    # Exposed-terminal concurrency (Section IV-C)
    # ------------------------------------------------------------------
    def on_header_overheard(self, frame: Frame, rssi_dbm: float) -> None:
        """A neighbor announced a transmission: look for an ET opportunity.

        ``frame`` is either a separate announcement header (delivered at
        its end, just before the data frame starts) or — in embedded mode
        — the announced data frame itself, partially decoded while still
        in the air.
        """
        if self.fault_hooks is not None and self.fault_hooks.drop_announcement(
            self.node_id, frame
        ):
            return
        if self._degraded():
            return  # stale positions cannot validate concurrency
        if frame.dst == self.node_id:
            return  # our own incoming traffic, not an opportunity
        self._remember_signature((frame.src, frame.dst), rssi_dbm)
        state = self._state
        if state is not _CONTEND and state is not _WAIT_ACK:
            return
        if self._head is None:
            return
        if self._opportunity is not None:
            return
        link = (frame.src, frame.dst)
        if not self._aim_at_concurrent_receiver(link):
            self.comap_stats.opportunities_rejected += 1
            return
        self.comap_stats.opportunities_validated += 1
        duration_ns = int(frame.meta.get("dur", 0))
        if frame.kind is _DATA:
            # Embedded announcement: the announced frame is already on the
            # air, so its energy is in the current reading — open now.
            self._take_opportunity(
                link, self.radio.energy_mw(),
                duration_ns + OPPORTUNITY_SLACK_NS,
            )
            return
        self._arm_opportunity(link, duration_ns)

    def _aim_at_concurrent_receiver(self, link) -> bool:
        """Validate the head's receiver; APs may switch to another queued one."""
        assert self._head is not None
        now = self.sim.now
        if self.agent.concurrency_allowed(link[0], link[1], self._head.dst, now=now):
            return True
        # "It may choose another receiver further away from the current
        # transmitter and verify again" — scan the queue for a different
        # destination that passes and promote it to head.
        for index, mpdu in enumerate(self._queue):
            if mpdu.dst == self._head.dst:
                continue
            if self.agent.concurrency_allowed(link[0], link[1], mpdu.dst, now=now):
                del self._queue[index]
                self._queue.appendleft(self._head)
                self._head = mpdu
                self.comap_stats.receiver_switches += 1
                return True
        return False

    def on_energy_changed(self, energy_mw: float) -> None:
        """RSSI monitor: open armed episodes, detect rival ETs."""
        if self._pending_link is not None:
            super().on_energy_changed(energy_mw)
            return
        if self._opportunity is None:
            # A frozen contender re-examines the medium at every energy
            # change: the transmission now in the air may carry a known
            # signature and reopen a persistent-exposure episode.  With
            # every signature stale, a busy medium keeps it frozen
            # (_try_signature_opportunity would answer False), so it is
            # not asked.
            if (
                self._state is _CONTEND
                and self._ifs_handle is None
                and self._countdown_handle is None
            ):
                if (
                    self.sim.now > self._signatures_fresh_until_ns
                    and self.radio.medium_busy()
                ):
                    return
                self._resume_contention()
            return
        if not self.config.enhanced_scheduler:
            return  # CCA-override emulation: transmit blindly at expiry.
        threshold = (
            self._opportunity.rssi1_mw
            + self._t_cs_prime_mw
            + self._opportunity.ack_allowance_mw
        )
        if energy_mw >= threshold:
            # RSSI_2 = RSSI_1 + T'_cs (beyond the validated link's own
            # ACK level): another exposed terminal started first —
            # abandon rather than collide at the shared receiver.
            self.comap_stats.opportunities_abandoned += 1
            self._end_opportunity()

    def _predicted_ack_power_mw(self, link) -> float:
        """Expected RSSI of the ongoing receiver's ACKs at this node."""
        dist = self.agent.neighbor_table.distance(self.node_id, link[1])
        if dist is None or dist <= 0:
            return 0.0
        propagation = self.agent.model.propagation
        rx_dbm = propagation.mean_rx_dbm(self.radio.tx_power_dbm, dist)
        return dbm_to_mw(rx_dbm)

    def _remember_signature(self, link: tuple, rssi_dbm: float) -> None:
        """EWMA of the received power of a link's announcements."""
        power_mw = dbm_to_mw(rssi_dbm)
        prior = self._link_signatures.get(link)
        if prior is None:
            ewma = power_mw
        else:
            ewma = 0.5 * prior[0] + 0.5 * power_mw
        now = self.sim.now
        self._link_signatures[link] = (ewma, now)
        self._signatures_fresh_until_ns = now + EXPOSURE_MEMORY_NS

    def _should_ignore_busy(self) -> bool:
        """Count through the open episode, or reopen one by signature.

        Never through our own transmissions (half-duplex), and never
        while degraded: in plain DCF every busy medium freezes the count.
        """
        if self.radio.transmitting or self._degraded():
            return False
        return self._opportunity is not None or self._try_signature_opportunity()

    def _try_signature_opportunity(self) -> bool:
        """Persistent exposure: attribute the busy medium to a known ET link.

        If the current in-air energy matches (within ``T'_cs``) the RSSI
        signature of a recently announced link that the co-occurrence map
        clears for our head's receiver, start an exposed episode without
        waiting for the next header — this is what keeps two exposed
        links running concurrently even while each is deaf to the other's
        headers during its own transmissions.
        """
        if not self.config.persistent_exposure:
            return False
        if self._state is not _CONTEND or self._head is None:
            return False
        now = self.sim.now
        if now > self._signatures_fresh_until_ns:
            return False  # no fresh signature
        energy = self.radio.energy_mw()
        if energy <= 0.0:
            return False
        for link, (signature_mw, last_seen) in self._link_signatures.items():
            if now - last_seen > EXPOSURE_MEMORY_NS:
                continue
            if energy > signature_mw + self._t_cs_prime_mw:
                continue  # more power in the air than that link alone emits
            if link[0] == self._head.dst or link[1] == self._head.dst:
                continue
            if not self.agent.concurrency_allowed(
                link[0], link[1], self._head.dst, now=now
            ):
                continue
            self._open_opportunity(link, energy, EXPOSURE_MEMORY_NS)
            self.comap_stats.signature_opportunities += 1
            return True
        return False

    def _exposed_rate(self, dst: int, fallback):
        """Fastest rate safe under the location-predicted concurrent SIR."""
        assert self._exposed_link is not None
        predicted = self.agent.predicted_concurrent_sir_db(self._exposed_link[0], dst)
        if predicted is None:
            return fallback
        safe_sir = predicted - self._exposed_sir_margin_db - self._power_penalty_db()
        return self.rates.best_for_sir(safe_sir)

    def _power_penalty_db(self) -> float:
        """How far below the default power this attempt transmits (dB)."""
        return 0.0

    def _environment_capped_rate(self, dst: int, fallback):
        """Cap the controller's rate by concurrent interference exposure.

        Considers every link with a fresh RSSI signature that the
        co-occurrence map clears for ``dst`` (i.e. links that may
        legitimately transmit over us) and returns the fastest rate whose
        SIR requirement the worst of them still satisfies.
        """
        worst_sir = None
        for link in self._fresh_allowed_links(dst):
            predicted = self.agent.predicted_concurrent_sir_db(link[0], dst)
            if predicted is None:
                continue
            if worst_sir is None or predicted < worst_sir:
                worst_sir = predicted
        if worst_sir is None:
            return fallback
        capped = self.rates.best_for_sir(worst_sir - self._exposed_sir_margin_db)
        return capped if capped.bps < fallback.bps else fallback

    def _fresh_allowed_links(self, dst: int):
        """Recently announced links the co-occurrence map clears for ``dst``."""
        now = self.sim.now
        if now > self._signatures_fresh_until_ns:
            return  # no fresh signature
        for link, (_sig, last_seen) in self._link_signatures.items():
            if now - last_seen > EXPOSURE_MEMORY_NS:
                continue
            if link[0] == dst or link[1] == dst:
                continue
            if self.agent.co_map.query(link, dst) is not True:
                continue
            yield link

    def _in_concurrency_environment(self, dst: int) -> bool:
        """True when a validated exposed link has been active recently."""
        return next(iter(self._fresh_allowed_links(dst)), None) is not None

    def _report_rate_outcome(self, dst: int, success: bool) -> None:
        """Keep exposed-transmission outcomes out of the rate controller.

        The controller estimates the solo channel; a concurrent frame's
        fate reflects the interferer, and its rate was chosen from
        positions, not by the controller.
        """
        if self._exposed_link is not None:
            return
        super()._report_rate_outcome(dst, success)

    # ------------------------------------------------------------------
    # Selective-repeat ARQ (Section IV-C4)
    # ------------------------------------------------------------------
    def _sr_sender(self, flow: FlowId) -> SrSender:
        sender = self._sr_senders.get(flow)
        if sender is None:
            sender = SrSender(self.agent.config.sr_window)
            self._sr_senders[flow] = sender
        return sender

    def _sr_receiver(self, flow: FlowId) -> SrReceiver:
        receiver = self._sr_receivers.get(flow)
        if receiver is None:
            receiver = SrReceiver(max(self.agent.config.sr_window, 1))
            self._sr_receivers[flow] = receiver
        return receiver

    def _build_ack(self, data_frame: Frame) -> Frame:
        """Piggyback the recently received sequence list on every ACK."""
        ack = super()._build_ack(data_frame)
        flow = data_frame.flow or (data_frame.src, data_frame.dst)
        receiver = self._sr_receiver(flow)
        receiver.on_received(data_frame.seq)
        ack.meta["sr_received"] = receiver.ack_payload()
        return ack

    def _accept_ack(self, ack: Frame) -> None:
        """Confirm deferred frames from the piggybacked sequence list.

        The ACK's own sequence is passed through so a deferred frame
        confirmed by its *own* delayed ACK counts as a prompt
        confirmation, not a late one — only frames vouched for by a
        later ACK's list belong in ``arq/late_confirms``.
        """
        flow = ack.flow
        received = ack.meta.get("sr_received")
        if flow is not None and received:
            sender = self._sr_senders.get(flow)
            if sender is not None:
                confirmed = sender.confirm(received, own_seq=ack.seq)
                self.stats.successes += len(confirmed)
        super()._accept_ack(ack)

    def _retry(self, frame: Frame) -> None:
        """Advance the window instead of retransmitting, when possible.

        Selective repeat exists for the exposed-transmission ACK-loss
        problem (Section IV-C4): the data very likely arrived and only
        the ACK was trampled by the concurrent transmission's tail.  A
        loss on a *normal* attempt means collision or bad channel —
        stop-and-wait with exponential backoff handles those.
        """
        if self.agent.config.sr_window <= 1 or self._degraded():
            # Degraded: no concurrency is being attempted, so a missing
            # ACK means collision/bad channel — plain stop-and-wait BEB.
            super()._retry(frame)
            return
        concurrency_loss = frame.meta.get("exposed") or self._in_concurrency_environment(
            frame.dst
        )
        if not concurrency_loss:
            super()._retry(frame)
            return
        head = self._head
        sender = self._sr_sender(head.flow)
        if not sender.window_full and self._queue:
            # Selective repeat: the ACK may merely have been corrupted by
            # the concurrent transmission's tail — move on, a later ACK
            # can still vouch for this frame.
            sender.defer(head.seq, head)
            self._head = None
            self._state = _IDLE
            self._start_next()
            return
        # Window exhausted (or nothing else to send): retransmit now.
        self.comap_stats.sr_retransmissions += 1
        self._begin_contention()

    def _select_next(self) -> Optional[Mpdu]:
        """Serve window-exhausted retransmissions before fresh traffic."""
        if self.agent.config.sr_window > 1:
            for flow, sender in self._sr_senders.items():
                if sender.window_full or (sender.outstanding and not self._queue):
                    entry = sender.next_retransmit()
                    if entry is not None:
                        self.comap_stats.sr_retransmissions += 1
                        return entry[1]
        return super()._select_next()

    def suspend(self) -> None:
        """Churn: also forget every link's RSSI signature and stop the
        staleness check (the node's next report re-arms it)."""
        if self._suspended:
            return
        self._link_signatures.clear()
        if self._staleness_handle is not None:
            self.sim.cancel(self._staleness_handle)
            self._staleness_handle = None
        super().suspend()

    def resume(self) -> None:
        """Churn: a node back without its own row is in fallback.

        Its re-join report was held back by a location fault, so with a
        ``location_ttl_ns`` it has no fresh location input: it contends
        as plain DCF until its next publication ends the fallback.
        """
        if not self._suspended:
            return
        if (
            self.agent.config.location_ttl_ns is not None
            and not self._fallback_active
            and self.node_id not in self.agent.neighbor_table
        ):
            self._enter_fallback()
        super().resume()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CoMapMac node={self.node_id} state={self._state.value}>"
