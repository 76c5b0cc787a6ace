"""PHY timing profiles: slot / SIFS / DIFS / EIFS / preamble durations.

Two profiles cover the paper's two evaluation substrates:

* :data:`DSSS_TIMING` — 802.11b long-preamble DSSS, used by the 6-laptop
  testbed scenarios (slot 20 µs, SIFS 10 µs, 192 µs PLCP preamble+header).
* :data:`OFDM_TIMING` — 802.11a/g OFDM, used for the NS-2-style large
  scale runs at 6 Mbps (slot 9 µs, SIFS 16 µs, 20 µs preamble+SIGNAL).

All durations are engine ticks (integer nanoseconds).  Frame airtime is
``preamble + total_bytes * 8 / rate`` — OFDM symbol padding is ignored, a
sub-1 % idealization documented in DESIGN.md.

Airtimes are memoized per ``(bit rate, size)``: DCF, CO-MAP, and C-MAP
all recompute frame/ACK/CTS airtimes and EIFS per frame, yet the distinct
key set is tiny (a handful of rates times a handful of sizes).  A
:class:`Rate` enters an airtime only through its ``bps``, so the memo
keys on that int rather than hashing the frozen ``Rate``.  Every memoized
value is produced by exactly the expression the unmemoized path evaluates
(integer arithmetic on frozen inputs), so the cache is exact by
construction.  DIFS is derived once per profile, in ``__post_init__``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.mac.frames import ACK_BYTES, CTS_BYTES, MAC_DATA_OVERHEAD_BYTES, Frame
from repro.phy.rates import Rate
from repro.util.units import MICROSECOND


@dataclass(frozen=True)
class PhyTiming:
    """Interframe spacing and per-frame overhead for one PHY flavour."""

    name: str
    slot_ns: int
    sifs_ns: int
    preamble_ns: int
    #: Propagation/turnaround slack added to ACK timeout beyond SIFS+ACK.
    ack_timeout_slack_ns: int

    def __post_init__(self) -> None:
        # Derived values only, attached via object.__setattr__ because the
        # dataclass is frozen.  Neither is a field, so eq/repr and the
        # ``dataclasses.fields`` that seeds and store keys encode do not
        # see them.  DIFS = SIFS + 2 * slot (802.11-2007 9.2.10) is read on
        # every idle edge of every contending MAC; the airtime memo is
        # keyed (kind, bit rate[, size]).
        object.__setattr__(self, "difs_ns", self.sifs_ns + 2 * self.slot_ns)
        object.__setattr__(self, "_memo", {})

    def eifs_ns(self, base_rate: Rate) -> int:
        """EIFS = SIFS + ACK airtime at the base rate + DIFS.

        Applied after a corrupted reception (802.11-2007 9.2.3.4) so the
        sender of the corrupted frame has room to be ACKed.
        """
        memo: Dict[Tuple, int] = self._memo  # type: ignore[attr-defined]
        key = ("eifs", base_rate.bps)
        value = memo.get(key)
        if value is None:
            value = self.sifs_ns + self.ack_airtime_ns(base_rate) + self.difs_ns
            memo[key] = value
        return value

    def frame_airtime_ns(self, frame: Frame) -> int:
        """Total on-air duration of ``frame`` at its own rate.

        Memoized per ``(rate.bps, total_bytes)`` — the airtime depends on
        the frame only through those two values.
        """
        memo: Dict[Tuple, int] = self._memo  # type: ignore[attr-defined]
        key = ("frame", frame.rate.bps, frame.total_bytes)
        value = memo.get(key)
        if value is None:
            value = self.preamble_ns + frame.rate.airtime_ns(frame.total_bytes)
            memo[key] = value
        return value

    def ack_airtime_ns(self, rate: Rate) -> int:
        """Duration of an ACK control frame at ``rate``."""
        memo: Dict[Tuple, int] = self._memo  # type: ignore[attr-defined]
        key = ("ack", rate.bps)
        value = memo.get(key)
        if value is None:
            value = self.preamble_ns + rate.airtime_ns(ACK_BYTES)
            memo[key] = value
        return value

    def cts_airtime_ns(self, rate: Rate) -> int:
        """Duration of a CTS control frame at ``rate``."""
        memo: Dict[Tuple, int] = self._memo  # type: ignore[attr-defined]
        key = ("cts", rate.bps)
        value = memo.get(key)
        if value is None:
            value = self.preamble_ns + rate.airtime_ns(CTS_BYTES)
            memo[key] = value
        return value

    def ack_timeout_ns(self, rate: Rate) -> int:
        """How long a sender waits for an ACK before declaring loss."""
        memo: Dict[Tuple, int] = self._memo  # type: ignore[attr-defined]
        key = ("ack_timeout", rate.bps)
        value = memo.get(key)
        if value is None:
            value = (
                self.sifs_ns + self.ack_airtime_ns(rate) + self.ack_timeout_slack_ns
            )
            memo[key] = value
        return value

    def data_exchange_ns(self, rate: Rate, payload_bytes: int, ack_rate: Rate) -> int:
        """Airtime of one successful DATA/ACK exchange including DIFS.

        This is the paper's ``T_s`` (eq. 8):
        ``T_HDR + T_payload + SIFS + T_ACK + DIFS`` — the analytical model
        and the simulator share this arithmetic so Fig. 7 comparisons are
        apples-to-apples.
        """
        return (
            self.data_airtime_ns(rate, payload_bytes)
            + self.sifs_ns + self.ack_airtime_ns(ack_rate) + self.difs_ns
        )

    def collision_ns(self, rate: Rate, payload_bytes: int) -> int:
        """The paper's ``T_c`` (eq. 8): ``T_HDR + T_payload + DIFS``."""
        return self.data_airtime_ns(rate, payload_bytes) + self.difs_ns

    def data_airtime_ns(self, rate: Rate, payload_bytes: int) -> int:
        """``T_HDR + T_payload``: a data frame carrying ``payload_bytes``
        at ``rate``, MAC overhead included."""
        return self.preamble_ns + rate.airtime_ns(
            payload_bytes + MAC_DATA_OVERHEAD_BYTES
        )


#: 802.11b long-preamble DSSS timing (testbed scenarios).
DSSS_TIMING = PhyTiming(
    name="dsss",
    slot_ns=20 * MICROSECOND,
    sifs_ns=10 * MICROSECOND,
    preamble_ns=192 * MICROSECOND,
    ack_timeout_slack_ns=2 * 20 * MICROSECOND,
)

#: 802.11a/g OFDM timing (large-scale NS-2-style scenarios).
OFDM_TIMING = PhyTiming(
    name="ofdm",
    slot_ns=9 * MICROSECOND,
    sifs_ns=16 * MICROSECOND,
    preamble_ns=20 * MICROSECOND,
    ack_timeout_slack_ns=2 * 9 * MICROSECOND,
)
