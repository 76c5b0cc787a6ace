"""Coordinated multi-AP spatial reuse (C-SR) on the CO-MAP map.

Extends :class:`repro.mac.comap.CoMapMac` with the AP-side coordination
of 802.11bn-style coordinated spatial reuse: APs share their
co-occurrence/location state over a modeled wired backhaul
(:mod:`repro.net.backhaul`) and elect *compatible concurrent
transmissions* at TXOP granularity.

The protocol, per transmit opportunity:

1. **Announcement** — the AP that wins a TXOP (its backoff expired and
   its data train hits the air) registers the TXOP ``(src, dst,
   expires_at)`` in the backhaul's shared ledger and publishes that it
   did to its peer APs, who hear of it after the configured wire
   latency and read the TXOP from the ledger.
2. **Election** — a peer AP with a frame pending consults the shared
   co-occurrence map: its own receiver must be compatible with *every*
   active TXOP in the ledger (the same eq. 3 validation CO-MAP applies
   over the air).  Denial means plain deferral — carrier sense keeps
   the AP frozen exactly as before.
3. **Power capping** — an elected secondary computes the highest
   transmit power whose interference at each primary receiver stays
   below ``NOISE_FLOOR_DBM + INTERFERENCE_MARGIN_DB`` (the C-SR power rule)
   and transmits at that cap, restoring its default power when the
   train leaves the air.  The default is the radio's configured power
   (``radio.config.tx_power_dbm``, frozen); the cap and the restore
   write only the radio's current power (``radio.tx_power_dbm``).  If
   the cap falls below ``MIN_TX_POWER_DBM`` — or the capped link cannot
   sustain even the base rate under the predicted SIR — the election is
   abandoned.
4. **Jitter** — an elected secondary defers its join by a uniform draw
   from ``[0, CSR_JITTER_NS]`` (its ``substream("csr", node)``), which
   decorrelates simultaneous electors.

An unbound ``CsrMac`` (no backhaul: a single AP, or
``csr_backhaul_latency_ns=None``) takes none of these paths and behaves
bit-identically to :class:`CoMapMac` — the equivalence tests pin this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.protocol import CoMapAgent
from repro.mac.comap import CoMapMac
from repro.mac.dcf import _CONTEND, _TX, Mpdu
from repro.mac.exposed import OPPORTUNITY_SLACK_NS
from repro.mac.frames import Frame
from repro.net.backhaul import Backhaul, TxopRecord
from repro.phy.channel import NOISE_FLOOR_DBM


#: Interference budget at a primary receiver: a secondary's capped
#: transmit power must keep its mean received power there below
#: ``NOISE_FLOOR_DBM + INTERFERENCE_MARGIN_DB``.
INTERFERENCE_MARGIN_DB = 6.0
#: Elections whose power cap falls below this are abandoned — a
#: whisper-quiet transmission wastes a TXOP on an undecodable frame.
MIN_TX_POWER_DBM = -10.0
#: Upper bound of the uniform join-jitter window (ns).
CSR_JITTER_NS = 9_000


@dataclass
class CsrStats:
    """Counters specific to the C-SR coordination rounds."""

    txop_announced: int = 0
    coordination_rounds: int = 0
    concurrent_granted: int = 0
    concurrent_denied: int = 0
    power_capped_tx: int = 0


class CsrMac(CoMapMac):
    """CO-MAP extended with backhaul-coordinated spatial reuse.

    Only MACs bound to a :class:`~repro.net.backhaul.Backhaul` (the APs
    of a multi-AP "csr" network) coordinate; unbound instances — clients,
    or every node when the backhaul is disabled — run the inherited
    CO-MAP machinery untouched.  A bound AP that leaves (churn) detaches
    from the backhaul, which drops its TXOP from the ledger, and comes
    back at its configured power; it re-attaches when it re-joins.
    """

    def __init__(self, node_id, sim, radio, timing, rates, rngs,
                 *, agent: CoMapAgent, **kwargs) -> None:
        super().__init__(node_id, sim, radio, timing, rates, rngs,
                         agent=agent, **kwargs)
        self.csr_stats = CsrStats()
        self.backhaul: Optional[Backhaul] = None
        self._csr_rng = None  # lazily created substream("csr", node_id)
        #: Power cap (dBm) for the current elected episode, None when
        #: transmitting at default power.
        self._csr_cap_dbm: Optional[float] = None
        self._train_duration_ns = 0

    def bind_backhaul(self, backhaul: Backhaul) -> None:
        """Wire this AP into the coordination plane."""
        self.backhaul = backhaul
        backhaul.attach(self.node_id, self._on_backhaul)

    def counters(self) -> Dict[str, int]:
        """CO-MAP's counters plus the C-SR coordination counters (``csr/``)."""
        out = super().counters()
        for name, value in vars(self.csr_stats).items():
            out[f"csr/{name}"] = value
        return out

    def _csr_stream(self):
        """The jitter substream (content-addressed, created on first draw)."""
        if self._csr_rng is None:
            self._csr_rng = self._rngs.substream("csr", self.node_id)
        return self._csr_rng

    # ------------------------------------------------------------------
    # Primary side: TXOP announcement
    # ------------------------------------------------------------------
    def _compose_frames(self, head: Mpdu, rate) -> List[Frame]:
        """Apply the episode's power cap and record the train duration.

        This runs after :meth:`DcfMac._transmit_head`'s half-duplex
        guard and before the first frame hits the air — exactly the
        window in which the capped power must be in effect.
        """
        if self.backhaul is not None:
            if self._exposed_link is not None and self._csr_cap_dbm is not None:
                self.radio.set_tx_power_dbm(self._csr_cap_dbm)
                self.csr_stats.power_capped_tx += 1
        frames = super()._compose_frames(head, rate)
        if self.backhaul is not None:
            total = sum(self.timing.frame_airtime_ns(f) for f in frames)
            total += self.timing.sifs_ns + self.timing.ack_airtime_ns(
                self.rates.base
            )
            self._train_duration_ns = total
        return frames

    def _transmit_head(self) -> None:
        """Announce the TXOP over the backhaul once the train launches."""
        super()._transmit_head()
        if self.backhaul is None or self._state is not _TX:
            return  # unbound, or the half-duplex guard deferred the train
        head = self._head
        if head is None:
            return
        expires_at = self.sim.now + self._train_duration_ns + OPPORTUNITY_SLACK_NS
        self.backhaul.register_txop(TxopRecord(self.node_id, head.dst, expires_at))
        if self.backhaul.publish(self.node_id):
            self.csr_stats.txop_announced += 1

    # ------------------------------------------------------------------
    # Secondary side: election and power capping
    # ------------------------------------------------------------------
    def _on_backhaul(self, src_id: int) -> None:
        """A peer AP registered a TXOP (heard after the wire latency)."""
        self.csr_stats.coordination_rounds += 1
        self._consider_csr_join()

    def _consider_csr_join(self) -> None:
        """Try to elect a concurrent transmission against the ledger."""
        if self.backhaul is None:
            return
        if self._state is not _CONTEND or self._head is None:
            return
        if self._opportunity is not None or self._pending_link is not None:
            return
        if self._degraded():
            return  # stale positions cannot validate coordination either
        now = self.sim.now
        records = self.backhaul.active_txops(now, exclude=self.node_id)
        if not records:
            return  # the announced TXOP already expired in transit
        grant = self._csr_power_grant(records)
        if grant is None:
            self.csr_stats.concurrent_denied += 1
            return
        cap_dbm, primary = grant
        self.csr_stats.concurrent_granted += 1
        jitter = int(self._csr_stream().integers(0, CSR_JITTER_NS + 1))
        if jitter > 0:
            self.sim.schedule(
                jitter, self._activate_csr_opportunity, primary, cap_dbm
            )
        else:
            self._activate_csr_opportunity(primary, cap_dbm)

    def _csr_power_grant(
        self, records: List[TxopRecord]
    ) -> Optional[Tuple[float, TxopRecord]]:
        """Validate the head against every active TXOP and cap the power.

        Returns ``(cap_dbm, primary)`` — the transmit power satisfying
        the interference budget at *every* primary receiver, and the
        record with the worst predicted SIR toward our receiver (the one
        the episode's rate must survive) — or ``None`` when any primary
        denies compatibility or the cap cannot carry the base rate.
        """
        head = self._head
        assert head is not None
        agent = self.agent
        now = self.sim.now
        propagation = agent.model.propagation
        default_dbm = self.radio.config.tx_power_dbm
        cap = default_dbm
        worst_sir: Optional[float] = None
        primary: Optional[TxopRecord] = None
        for record in records:
            if not agent.concurrency_allowed(
                record.src, record.dst, head.dst, now=now
            ):
                return None
            distance = agent.neighbor_table.distance(self.node_id, record.dst)
            if distance is None or distance <= 0:
                return None  # cannot bound our interference at the receiver
            # The C-SR power rule: mean received power at the primary
            # receiver must stay within the interference budget.
            path_loss_db = default_dbm - propagation.mean_rx_dbm(
                default_dbm, distance
            )
            allowed = NOISE_FLOOR_DBM + INTERFERENCE_MARGIN_DB + path_loss_db
            if allowed < cap:
                cap = allowed
            predicted = agent.predicted_concurrent_sir_db(record.src, head.dst)
            if predicted is None:
                return None  # no SIR prediction — cannot pick a safe rate
            if worst_sir is None or predicted < worst_sir:
                worst_sir = predicted
                primary = record
        if cap < MIN_TX_POWER_DBM:
            return None
        assert worst_sir is not None and primary is not None
        penalty_db = default_dbm - cap
        safe_sir = worst_sir - self._exposed_sir_margin_db - penalty_db
        if safe_sir < self.rates.base.sir_threshold_db:
            return None  # even the base rate cannot survive the episode
        return cap, primary

    def _activate_csr_opportunity(
        self, record: TxopRecord, cap_dbm: float
    ) -> None:
        """Open the shared exposed-transmission episode for the grant."""
        if self._state is not _CONTEND or self._head is None:
            return
        if self._opportunity is not None or self._degraded():
            return
        remaining = record.expires_at - self.sim.now
        if remaining <= 0:
            return  # jitter outlived the TXOP
        self._csr_cap_dbm = (
            cap_dbm if cap_dbm < self.radio.config.tx_power_dbm else None
        )
        self._take_opportunity(record.link, self.radio.energy_mw(), remaining)

    def _power_penalty_db(self) -> float:
        """The episode's power cap, charged against its rate choice."""
        if self._csr_cap_dbm is None:
            return 0.0
        return self.radio.config.tx_power_dbm - self._csr_cap_dbm

    # ------------------------------------------------------------------
    # Episode teardown
    # ------------------------------------------------------------------
    def on_tx_complete(self, frame: Frame) -> None:
        """Restore the default transmit power once the train is off the air."""
        super().on_tx_complete(frame)
        if not self._tx_train and not self.radio.transmitting:
            self._restore_tx_power()

    def _restore_tx_power(self) -> None:
        """Back to the configured power, when a cap left the radio below it."""
        radio = self.radio
        if radio.tx_power_dbm != radio.config.tx_power_dbm:
            radio.set_tx_power_dbm(radio.config.tx_power_dbm)

    def _clear_opportunity(self) -> None:
        super()._clear_opportunity()
        self._csr_cap_dbm = None

    def suspend(self) -> None:
        """Churn: also leave the backhaul (and its ledger) and drop the cap."""
        if self._suspended:
            return
        self._restore_tx_power()
        self._csr_cap_dbm = None
        if self.backhaul is not None:
            self.backhaul.detach(self.node_id)
        super().suspend()

    def resume(self) -> None:
        """Churn: re-join the backhaul before contending again."""
        if not self._suspended:
            return
        if self.backhaul is not None:
            self.backhaul.attach(self.node_id, self._on_backhaul)
        super().resume()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CsrMac node={self.node_id} state={self._state.value}>"
