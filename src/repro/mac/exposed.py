"""The exposed-transmission episode shared by CO-MAP, C-SR and CMAP.

An *episode* is the time a MAC spends transmitting over a link it
overheard (Section IV-C).  Whatever decided to take it, it runs one
fixed sequence: a header frame announces the link; a contender arms the
episode on the header and opens it when the announced frame's energy
arrives (``RSSI_1``); while it is open the backoff counts down through
the busy medium; it ends at expiry (announced duration plus
``opportunity_slack_ns``), when the medium goes idle, when the subclass
abandons it, or when the MAC leaves the network.

Subclasses decide which episodes to take: :class:`repro.mac.cmap.CmapMac`
from a conflict map learned from losses, :class:`repro.mac.comap.CoMapMac`
from positions, and :class:`repro.mac.csr.CsrMac` also from a backhaul
TXOP ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.mac.dcf import DcfMac, MacConfig, MacState, Mpdu
from repro.mac.frames import Frame, FrameType
from repro.sim.engine import EventHandle

Link = Tuple[int, int]


@dataclass
class ExposedMacConfig(MacConfig):
    """Knobs of the shared exposed-transmission episode."""

    announce_headers: bool = True
    #: Safety margin added to the announced duration before an unexpired
    #: opportunity is forcibly dropped (covers the peer's SIFS+ACK tail).
    opportunity_slack_ns: int = 400_000


class _Opportunity:
    """An exposed-transmission opportunity being exploited.

    ``ack_allowance_mw`` is the expected received power of the ongoing
    link's own ACKs at this node (predicted from positions): the
    rival-ET abandon test must not fire on the acknowledgements the
    validated link legitimately elicits.
    """

    __slots__ = ("link", "rssi1_mw", "ack_allowance_mw", "expires_handle")

    def __init__(self, link, rssi1_mw: float, ack_allowance_mw: float = 0.0):
        self.link = link
        self.rssi1_mw = rssi1_mw
        self.ack_allowance_mw = ack_allowance_mw
        self.expires_handle: Optional[EventHandle] = None


class ExposedMac(DcfMac):
    """DCF plus the exposed-transmission episode; subclasses decide when.

    A subclass must set ``self._episode_stats`` to its counter dataclass
    (one with a ``concurrent_transmissions`` field) in its constructor.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._opportunity: Optional[_Opportunity] = None
        self._pending_link: Optional[Link] = None  # armed, awaiting RSSI_1
        self._pending_duration_ns = 0
        self._pending_baseline_mw = 0.0
        #: The link the current attempt runs concurrently with (None for
        #: a normal attempt); set at launch, kept until the next one.
        self._exposed_link: Optional[Link] = None
        self._episode_stats = None

    def _announcement_header(self, head: Mpdu, data: Frame) -> Frame:
        """The header frame announcing ``data`` (base rate, with duration)."""
        return Frame(
            kind=FrameType.COMAP_HEADER,
            src=self.node_id,
            dst=head.dst,
            rate=self.rates.base,
            seq=head.seq,
            flow=head.flow,
            meta={"dur": self.timing.frame_airtime_ns(data)},
        )

    def _arm_opportunity(self, link: Link, duration_ns: int) -> None:
        """Take the episode a separate header announced, once its frame airs.

        The data frame hits the air in the same instant the header ends;
        ``RSSI_1`` must be captured *then* (when the frame's energy is
        present), so opening waits for the next energy rise above the
        current (header-free) baseline.
        """
        self._pending_link = link
        self._pending_baseline_mw = self.radio.energy_mw()
        self._pending_duration_ns = duration_ns

    def _open_opportunity(self, link: Link, rssi1_mw: float, horizon_ns: int) -> None:
        """Open an episode over ``link`` that expires ``horizon_ns`` from now."""
        opportunity = _Opportunity(
            link,
            rssi1_mw=rssi1_mw,
            ack_allowance_mw=self._predicted_ack_power_mw(link),
        )
        opportunity.expires_handle = self.sim.schedule(
            horizon_ns, self._expire_opportunity, opportunity
        )
        self._opportunity = opportunity

    def _predicted_ack_power_mw(self, link: Link) -> float:
        """Expected RSSI of ``link``'s ACKs here (0: no location model)."""
        return 0.0

    def on_energy_changed(self, energy_mw: float) -> None:
        """Open the armed episode when the announced frame hits the air."""
        if self._pending_link is None or energy_mw <= self._pending_baseline_mw:
            # Nothing armed, or the energy fell or held (e.g. the header
            # itself leaving the air) — the announced frame is not up yet.
            return
        # This energy level is RSSI_1, the baseline the enhanced
        # scheduler compares to.
        link, self._pending_link = self._pending_link, None
        self._open_opportunity(
            link, energy_mw,
            self._pending_duration_ns + self.config.opportunity_slack_ns,
        )
        self._resume_contention()

    def _expire_opportunity(self, opportunity: _Opportunity) -> None:
        """The announced transmission (plus slack) is over."""
        if self._opportunity is opportunity:
            opportunity.expires_handle = None
            self._end_opportunity()

    def _end_opportunity(self) -> None:
        """Close the episode; a contender on a busy medium freezes again."""
        self._clear_opportunity()
        if self._state is MacState.CONTEND and self.radio.medium_busy():
            self._freeze_contention()

    def _clear_opportunity(self) -> None:
        """Drop the episode (open or armed) and its expiry timer."""
        if self._opportunity is not None:
            if self._opportunity.expires_handle is not None:
                self._opportunity.expires_handle.cancel()
            self._opportunity = None
        self._pending_link = None

    def _should_ignore_busy(self) -> bool:
        """Count down through the episode's ongoing transmission.

        Never through our *own* transmissions (e.g. an ACK we owe a
        peer): the radio is half-duplex, so the countdown must wait.
        """
        if self.radio.transmitting:
            return False
        return self._opportunity is not None

    def on_medium_idle(self) -> None:
        """Medium fully idle: an *open* exposed episode is over.

        An armed (not yet opened) one survives — the channel reads idle
        for the zero-width instant between the announcement header
        leaving the air and the data frame entering it.
        """
        if self._opportunity is not None:
            self._clear_opportunity()
        super().on_medium_idle()

    def _transmit_head(self) -> None:
        """Launch the attempt, exposed if an episode is open."""
        opportunity = self._opportunity
        self._exposed_link = opportunity.link if opportunity is not None else None
        if opportunity is not None:
            self._episode_stats.concurrent_transmissions += 1
        super()._transmit_head()

    def suspend(self) -> None:
        """Churn: also shed the episode when leaving the network."""
        if self._suspended:
            return
        self._clear_opportunity()
        self._exposed_link = None
        super().suspend()
