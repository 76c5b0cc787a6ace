"""A half-duplex radio: clear-channel assessment and SIR-based reception.

Reception model (matching NS-2's interference handling, which the paper
validates its analytical model against):

* The radio **locks** onto the first frame that arrives while it is
  neither transmitting nor already locked, provided the frame's received
  power clears the rate's sensitivity.
* While locked it tracks the **maximum concurrent interference** (sum of
  all other in-air power).  At frame end the frame survives iff

  ``signal / (max_interference + noise_floor) >= sir_threshold(rate)``.

* A frame arriving during a lock is interference, unless it would
  decode over everything else on the air: then message-in-message
  capture re-locks onto it and the old frame counts as missed (standard
  on commodity 802.11 hardware, and required for an exposed terminal's
  receiver to pick its own sender's frame out of an overheard weaker
  transmission it happened to lock first).  Frames arriving while the
  radio transmits are missed entirely but still contribute energy
  afterwards.

The noise floor is :data:`repro.phy.channel.NOISE_FLOOR_DBM` at every
radio.

Clear-channel assessment is pure energy detection against
``cs_threshold_dbm`` (the paper's ``T_cs``), which is what lets hidden
terminals arise: a node whose received energy stays under ``T_cs`` sees an
idle medium even while a distant sender is corrupting its receiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log10
from typing import TYPE_CHECKING, Optional

from repro.phy.channel import NOISE_FLOOR_DBM, Channel, Transmission
from repro.util.geometry import Point
from repro.util.units import dbm_to_mw, mw_to_dbm

if TYPE_CHECKING:  # avoid a phy <-> mac import cycle; hints only
    from repro.mac.frames import Frame


def noop_hook(fn):
    """Mark a MAC hook whose base version does nothing, so callers skip it.

    A marked callback is a no-op and a marked predicate always answers
    False.  The mark is read once per MAC: by :meth:`Radio.bind_mac` for
    ``on_energy_changed`` and by ``DcfMac.__init__`` for
    ``_should_ignore_busy``; a subclass that overrides the hook loses the
    mark and is called.  It is a function attribute, not identity with
    the original function: ``functools.wraps`` copies ``__dict__``, so a
    wrapped no-op (a span tracer's, say) is still recognised and skipped.
    """
    fn.noop_hook = True
    return fn


@dataclass(frozen=True)
class RadioConfig:
    """Per-radio PHY parameters, fixed for the radio's lifetime.

    ``tx_power_dbm`` is the *configured* transmit power; the power the
    radio transmits at right now is :attr:`Radio.tx_power_dbm`, which
    C-SR's power cap lowers and restores.
    ``cs_threshold_dbm`` is the paper's ``T_cs``.
    """

    tx_power_dbm: float = 0.0
    cs_threshold_dbm: float = -82.0


class Radio:
    """One node's PHY front end, attached to a :class:`Channel`."""

    def __init__(
        self,
        radio_id: int,
        position: Point,
        config: RadioConfig,
        channel: Channel,
    ) -> None:
        self.radio_id = radio_id
        self.position = position
        self.config = config
        #: The current transmit power (dBm): the configured one until
        #: :meth:`set_tx_power_dbm` changes it.
        self.tx_power_dbm = config.tx_power_dbm
        self.channel = channel
        self.sim = channel.sim
        self.mac = None  # bound via bind_mac()
        self._cs_threshold_mw = dbm_to_mw(config.cs_threshold_dbm)
        self._noise_mw = dbm_to_mw(NOISE_FLOOR_DBM)
        self._in_air: dict = {}  # Transmission -> rx power mW
        # sum(self._in_air.values()) after every _in_air mutation: that
        # expression, or the one value it sums to when only one frame is in
        # the air, so it is the sum a recomputation over the same dict
        # would give.
        self._energy_mw = 0.0
        #: False while the MAC's on_energy_changed is a marked no-op.
        self._hears_energy = False
        self._current_tx: Optional[Transmission] = None
        # The reception lock: the frame being received (None: unlocked),
        # its signal and the largest interference seen during it.  A frame
        # is locked only at its own air start, so the transmission is the
        # lock's identity.
        self._lock_tx: Optional[Transmission] = None
        self._lock_signal_mw = 0.0
        self._lock_interference_mw = 0.0
        self._busy = False
        # Counters (inspected by tests and metrics).
        self.frames_received = 0
        self.frames_corrupted = 0
        self.frames_missed = 0
        self.frames_transmitted = 0
        #: Cumulative airtime spent transmitting (ns) — duty-cycle metric.
        self.airtime_tx_ns = 0
        self._attached = False  # set by channel.attach via on_attached()
        channel.attach(self)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind_mac(self, mac) -> None:
        """Attach the MAC entity that receives PHY indications.

        Whether to deliver ``on_energy_changed`` is decided here, once: a
        hook marked with :func:`noop_hook` (plain DCF's) is never called.
        """
        self.mac = mac
        self._hears_energy = not getattr(mac.on_energy_changed, "noop_hook", False)

    @property
    def attached(self) -> bool:
        """True while the radio is registered with its channel."""
        return self._attached

    def on_attached(self) -> None:
        """Channel callback: the radio joined (or re-joined) the medium."""
        self._attached = True

    def on_detached(self) -> None:
        """Channel callback: the radio left the medium mid-run.

        Resets all reception state: frames still in the air no longer
        reach this radio (a half-received lock counts as missed), CCA
        reads idle, and an own transmission still in flight is disowned —
        it stays on the air for its observers, but its ``on_own_tx_end``
        is ignored, also after a re-join.  The MAC is expected to be
        suspended separately (see ``Network.detach_node``), so no busy or
        idle edge is delivered here.
        """
        self._attached = False
        if self._lock_tx is not None:
            self.frames_missed += 1
            self._lock_tx = None
        self._in_air.clear()
        self._energy_mw = 0.0
        self._current_tx = None
        self._busy = False

    def move_to(self, position: Point) -> None:
        """Update the radio's physical position (mobility support).

        The channel's receiver tables — which hold the deterministic
        path loss that drives below-floor culling — describe paths that
        no longer exist, so they are dropped, and the radio is rehashed
        in the candidate grid.  Its links' shadowing draws continue their
        streams where they stopped.
        """
        self.position = position
        self.channel.on_radio_moved(self.radio_id)

    def set_tx_power_dbm(self, dbm: float) -> None:
        """Change this radio's current transmit power (C-SR power capping).

        The only writer of :attr:`tx_power_dbm`; the configured power in
        :attr:`config` never changes, so restoring it is
        ``set_tx_power_dbm(radio.config.tx_power_dbm)``.  The channel's
        receiver table for this sender, which encodes the old power, is
        dropped; shadowing draws are a property of the link and are
        untouched.  No-op at the current power, so repeated
        caps/restores to the same value cost nothing.
        """
        if dbm == self.tx_power_dbm:
            return
        self.tx_power_dbm = dbm
        self.channel.on_radio_power_changed(self.radio_id)

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------
    @property
    def transmitting(self) -> bool:
        """True while this radio's own frame is on the air."""
        return self._current_tx is not None

    def energy_mw(self) -> float:
        """Total in-air power currently measured at this radio (mW).

        A memo, recomputed whenever the in-air set changes rather than
        per query.
        """
        return self._energy_mw

    def medium_busy(self) -> bool:
        """Clear-channel assessment: own transmission or energy over T_cs."""
        return self._current_tx is not None or self._energy_mw >= self._cs_threshold_mw

    @property
    def noise_mw(self) -> float:
        """Thermal noise floor in mW."""
        return self._noise_mw

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------
    def start_transmission(self, frame: "Frame") -> Transmission:
        """Begin sending ``frame``; the radio is deaf until it completes."""
        if not self._attached:
            raise RuntimeError(
                f"radio {self.radio_id} is detached and cannot transmit"
            )
        if self._current_tx is not None:
            raise RuntimeError(
                f"radio {self.radio_id} is already transmitting "
                f"{self._current_tx.frame.describe()}"
            )
        if self._lock_tx is not None:
            # Physically we cannot keep receiving while transmitting; the
            # half-received frame is lost.
            self.frames_missed += 1
            self._lock_tx = None
        self.frames_transmitted += 1
        self._current_tx = self.channel.transmit(self, frame)
        self._update_busy()
        return self._current_tx

    def on_own_tx_end(self, tx: Transmission) -> None:
        """Channel callback: this radio's own frame finished."""
        if tx is not self._current_tx:
            # Disowned by a detach during its airtime (see on_detached);
            # the radio may have re-joined, and even started a new frame.
            return
        self._current_tx = None
        self.airtime_tx_ns += tx.duration_ns
        frame = tx.frame
        self._update_busy()
        if self.mac is not None:
            self.mac.on_tx_complete(frame)

    # ------------------------------------------------------------------
    # Receive path (channel callbacks)
    # ------------------------------------------------------------------
    def on_air_start(self, tx: Transmission, power_mw: float) -> None:
        """A foreign transmission began: reception, CCA and MAC in one pass.

        The one radio call per receiver per frame start.  Callback order:
        the lock (or capture) and its embedded-decode scheduling, then the
        busy/idle edge, then ``on_energy_changed`` — CO-MAP's RSSI monitor
        sees the edge first.  The channel calls it only on attached radios.
        An idle radio locks inline; only a frame carrying an embedded
        announcement needs :meth:`_lock_onto`'s decode scheduling.
        """
        in_air = self._in_air
        if in_air:
            in_air[tx] = power_mw
            energy = sum(in_air.values())
        else:
            # Alone on the medium: sum() over the one entry is that
            # (positive) float itself, so the memo skips the call.
            in_air[tx] = energy = power_mw
        self._energy_mw = energy
        # While transmitting we are deaf: the frame is silently missed but
        # still contributes energy once our own transmission finishes.
        if self._current_tx is None:
            rate = tx.frame.rate
            if self._lock_tx is None:
                if power_mw >= rate.sensitivity_mw:
                    if tx.embedded:
                        self._lock_onto(tx, power_mw, energy)
                    else:
                        self._lock_tx = tx
                        self._lock_signal_mw = power_mw
                        self._lock_interference_mw = energy - power_mw
                elif power_mw >= self._noise_mw:
                    # Detectable but undecodable: a genuine miss.  Frames
                    # below the noise floor are invisible to a real radio
                    # and are not counted — keeping this counter identical
                    # whether or not below-floor culling skipped them.
                    self.frames_missed += 1
            elif (
                power_mw >= rate.sensitivity_mw
                and power_mw / (energy - power_mw + self._noise_mw)
                >= rate.sir_threshold_ratio
            ):
                # Message-in-message capture: the new frame would decode
                # with everything else (the lock included) as noise, so it
                # drowns out the ongoing reception; re-lock and count the
                # old one lost.
                self.frames_missed += 1
                self._lock_onto(tx, power_mw, energy)
            else:
                # New arrival is interference for the ongoing reception.
                interference = energy - self._lock_signal_mw
                if interference > self._lock_interference_mw:
                    self._lock_interference_mw = interference
        busy = self._current_tx is not None or energy >= self._cs_threshold_mw
        mac = self.mac
        if busy != self._busy:
            self._busy = busy
            if mac is not None:
                if busy:
                    mac.on_medium_busy()
                else:
                    mac.on_medium_idle()
        if self._hears_energy:
            mac.on_energy_changed(self._energy_mw)

    def on_air_end(self, tx: Transmission) -> None:
        """A foreign transmission ended: reception, CCA and MAC in one pass.

        A lock on ``tx`` is decided first: the frame is delivered iff
        ``signal / (max_interference + noise) >= sir_threshold(rate)``,
        else it counts as corrupted.  The edge and energy callbacks follow
        in :meth:`on_air_start`'s order.
        """
        in_air = self._in_air
        if in_air.pop(tx, None) is None:
            # Detached while the frame was in flight (perhaps re-joined
            # since): the radio no longer tracks it.
            return
        self._energy_mw = sum(in_air.values()) if in_air else 0.0
        mac = self.mac
        if self._lock_tx is tx:
            self._lock_tx = None
            frame = tx.frame
            signal = self._lock_signal_mw
            if signal / (self._lock_interference_mw + self._noise_mw) >= (
                frame.rate.sir_threshold_ratio
            ):
                self.frames_received += 1
                if mac is not None:
                    # mw_to_dbm's expression: a locked signal cleared the
                    # rate's sensitivity, so it is positive.
                    mac.on_frame_received(frame, 10.0 * log10(signal))
            else:
                self.frames_corrupted += 1
                if mac is not None:
                    mac.on_frame_corrupted(frame)
        busy = self._current_tx is not None or self._energy_mw >= self._cs_threshold_mw
        if busy != self._busy:
            self._busy = busy
            if mac is not None:
                if busy:
                    mac.on_medium_busy()
                else:
                    mac.on_medium_idle()
        if self._hears_energy:
            mac.on_energy_changed(self._energy_mw)

    def _lock_onto(self, tx: Transmission, power_mw: float, energy_mw: float) -> None:
        """Lock onto ``tx``; everything else in the air is interference.

        Capture re-locks through here, and so does an idle radio for a
        frame carrying an embedded announcement; an idle radio locks any
        other frame inline in :meth:`on_air_start`.

        Also models the partial packet decode of an embedded announcement
        (CO-MAP v1).  The paper's first header implementation inserts an
        extra FCS after the sequence-number field "so that the PHY layer
        can pass the source and destination addresses to upper layers
        before the receipt of frame payload".  We deliver the announcement
        once the address portion has been on the air — provided the lock
        survives (no capture/abort) and the interference seen so far
        leaves the header decodable.
        """
        self._lock_tx = tx
        self._lock_signal_mw = power_mw
        self._lock_interference_mw = energy_mw - power_mw
        if not tx.embedded:
            return
        from repro.mac.frames import EMBEDDED_DECODE_BYTES

        delay = tx.frame.rate.airtime_ns(EMBEDDED_DECODE_BYTES)
        self.sim.schedule(delay, self._embedded_decode, tx)

    def _embedded_decode(self, tx: Transmission) -> None:
        """Deliver the announcement if the header portion decoded cleanly.

        Only while ``tx`` is still the lock: since it was locked, a capture
        may have moved the lock, or a transmit start or a detach cleared it.
        """
        if self._lock_tx is not tx or self.mac is None:
            return
        signal = self._lock_signal_mw
        sir = signal / (self._lock_interference_mw + self._noise_mw)
        if sir >= tx.frame.rate.sir_threshold_ratio:
            self.mac.on_header_overheard(tx.frame, mw_to_dbm(signal))

    # ------------------------------------------------------------------
    # CCA transitions
    # ------------------------------------------------------------------
    def _update_busy(self) -> None:
        """Recompute CCA and notify the MAC on busy/idle edges.

        For the transmit path; the air edges test CCA inline.
        """
        busy = self.medium_busy()
        if busy == self._busy:
            return
        self._busy = busy
        if self.mac is None:
            return
        if busy:
            self.mac.on_medium_busy()
        else:
            self.mac.on_medium_idle()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Radio {self.radio_id} at {self.position}>"
