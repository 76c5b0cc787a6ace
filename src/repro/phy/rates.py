"""802.11 bit rates with per-rate SIR thresholds and sensitivities.

The paper's testbed runs 802.11b/g hardware (Intel 4965AGN) with DSSS
rates 1-11 Mbps; the NS-2 evaluation fixes the data rate at 6 Mbps
(HR/DSSS PHY, 2.4 GHz).  Two standard rate tables are provided:

* :data:`DSSS_RATES` — 802.11b (1, 2, 5.5, 11 Mbps).  The SIR thresholds
  follow the paper's statement that "the minimum SINRs of 802.11b are
  normally 10 dB for 11 Mbps down to 4 dB for 1 Mbps".
* :data:`OFDM_RATES` — 802.11a/g (6-54 Mbps) with textbook thresholds.

Minstrel-style rate adaptation (:mod:`repro.mac.rate_control`) walks these
tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple


@dataclass(frozen=True)
class Rate:
    """One modulation/coding point.

    Attributes
    ----------
    bps:
        Data bit rate in bits per second.
    sir_threshold_db:
        Minimum signal-to-interference(+noise) ratio for successful
        decoding at this rate.
    sensitivity_dbm:
        Minimum received power to lock onto a frame at this rate.
    sensitivity_mw, sir_threshold_ratio:
        The two thresholds in the linear domain (mW and power ratio), set
        once at construction by exactly :func:`repro.util.units.dbm_to_mw`
        and :func:`repro.util.units.db_to_ratio`.  The radio reads them
        per receiver per frame.  They are plain attributes, not fields:
        ``dataclasses.fields`` feeds ``derive_seed`` and result-store
        keys, which must not change.
    """

    bps: int
    sir_threshold_db: float
    sensitivity_dbm: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "sensitivity_mw", 10.0 ** (self.sensitivity_dbm / 10.0)
        )
        object.__setattr__(
            self, "sir_threshold_ratio", 10.0 ** (self.sir_threshold_db / 10.0)
        )

    @property
    def mbps(self) -> float:
        """Bit rate in Mbit/s (cosmetic)."""
        return self.bps / 1e6

    def airtime_ns(self, payload_bytes: int) -> int:
        """Nanoseconds to clock out ``payload_bytes`` at this rate."""
        if payload_bytes < 0:
            raise ValueError("payload size cannot be negative")
        return int(round(payload_bytes * 8 * 1e9 / self.bps))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mbps:g}Mbps"


class RateTable:
    """An ordered set of rates (slowest first) with lookup helpers."""

    def __init__(self, rates: Sequence[Rate]) -> None:
        if not rates:
            raise ValueError("a rate table needs at least one rate")
        ordered = sorted(rates, key=lambda r: r.bps)
        if len({r.bps for r in ordered}) != len(ordered):
            raise ValueError("duplicate bit rates in table")
        self._rates: Tuple[Rate, ...] = tuple(ordered)
        self._by_bps: Dict[int, Rate] = {r.bps: r for r in ordered}

    @property
    def rates(self) -> Tuple[Rate, ...]:
        """All rates, slowest first."""
        return self._rates

    @property
    def base(self) -> Rate:
        """The most robust (slowest) rate — used for ACKs and headers."""
        return self._rates[0]

    @property
    def top(self) -> Rate:
        """The fastest rate in the table."""
        return self._rates[-1]

    def by_bps(self, bps: int) -> Rate:
        """Exact-match lookup by bit rate."""
        try:
            return self._by_bps[bps]
        except KeyError:
            raise KeyError(f"no {bps} b/s rate in table: {self._rates}") from None

    def best_for_sir(self, sir_db: float) -> Rate:
        """The fastest rate whose threshold the given SIR satisfies.

        Falls back to the base rate if even that is not decodable — the
        caller decides whether the frame survives.
        """
        best = self._rates[0]
        for rate in self._rates:
            if sir_db >= rate.sir_threshold_db:
                best = rate
        return best

    def index_of(self, rate: Rate) -> int:
        """Position of ``rate`` in the slow→fast ordering."""
        return self._rates.index(rate)

    def __len__(self) -> int:
        return len(self._rates)

    def __iter__(self):
        return iter(self._rates)


#: 802.11b DSSS/CCK rates.  Thresholds span the paper's 4-10 dB range.
DSSS_RATES = RateTable(
    [
        Rate(bps=1_000_000, sir_threshold_db=4.0, sensitivity_dbm=-94.0),
        Rate(bps=2_000_000, sir_threshold_db=6.0, sensitivity_dbm=-91.0),
        Rate(bps=5_500_000, sir_threshold_db=8.0, sensitivity_dbm=-87.0),
        Rate(bps=11_000_000, sir_threshold_db=10.0, sensitivity_dbm=-82.0),
    ]
)

#: 802.11a/g OFDM rates with textbook SIR requirements.
OFDM_RATES = RateTable(
    [
        Rate(bps=6_000_000, sir_threshold_db=6.0, sensitivity_dbm=-90.0),
        Rate(bps=9_000_000, sir_threshold_db=7.8, sensitivity_dbm=-89.0),
        Rate(bps=12_000_000, sir_threshold_db=9.0, sensitivity_dbm=-87.0),
        Rate(bps=18_000_000, sir_threshold_db=10.8, sensitivity_dbm=-85.0),
        Rate(bps=24_000_000, sir_threshold_db=17.0, sensitivity_dbm=-82.0),
        Rate(bps=36_000_000, sir_threshold_db=18.8, sensitivity_dbm=-78.0),
        Rate(bps=48_000_000, sir_threshold_db=24.0, sensitivity_dbm=-74.0),
        Rate(bps=54_000_000, sir_threshold_db=24.6, sensitivity_dbm=-72.0),
    ]
)
