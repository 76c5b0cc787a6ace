"""Unit conversions used throughout the simulator.

Power is handled in two representations:

* **dBm** — the logarithmic form used by every 802.11 parameter in the
  paper (transmit power, carrier-sense threshold ``T_cs``, noise floor).
* **milliwatts (mW)** — the linear form required whenever powers add,
  e.g. when a radio sums the energy of concurrent transmissions for
  clear-channel assessment or computes an SIR denominator.

Time inside the discrete-event engine is **integer nanoseconds** so that
event ordering is exact and runs are bit-reproducible; the constants below
make MAC-layer timing declarations readable (``10 * MICROSECOND``).
"""

from __future__ import annotations

import math
from typing import Iterable, List

#: One microsecond expressed in engine ticks (nanoseconds).
MICROSECOND: int = 1_000
#: One millisecond expressed in engine ticks (nanoseconds).
MILLISECOND: int = 1_000_000
#: One second expressed in engine ticks (nanoseconds).
SECOND: int = 1_000_000_000


def dbm_to_mw(dbm: float) -> float:
    """Convert a power level from dBm to milliwatts.

    >>> dbm_to_mw(0.0)
    1.0
    >>> dbm_to_mw(20.0)
    100.00000000000001
    """
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw: float) -> float:
    """Convert a power level from milliwatts to dBm.

    Raises :class:`ValueError` for non-positive power, which has no
    logarithmic representation (use ``-inf`` handling at the call site if
    a silent floor is desired).
    """
    if mw <= 0.0:
        raise ValueError(f"power must be positive to convert to dBm, got {mw}")
    return 10.0 * math.log10(mw)


def db_to_ratio(db: float) -> float:
    """Convert a relative level in dB to a linear power ratio."""
    return 10.0 ** (db / 10.0)


def db_block_to_ratios(levels_db: Iterable[float]) -> List[float]:
    """:func:`db_to_ratio` of each level, in order, in one comprehension.

    The same expression, written out to save a call per value; the
    channel converts its shadowing draw blocks with it.
    """
    return [10.0 ** (db / 10.0) for db in levels_db]


def ratio_to_db(ratio: float) -> float:
    """Convert a linear power ratio to dB."""
    if ratio <= 0.0:
        raise ValueError(f"ratio must be positive to convert to dB, got {ratio}")
    return 10.0 * math.log10(ratio)


def ns_to_s(ns: int) -> float:
    """Convert engine ticks (nanoseconds) to seconds."""
    return ns / SECOND


def s_to_ns(seconds: float) -> int:
    """Convert seconds to engine ticks (nanoseconds), rounding to nearest."""
    return int(round(seconds * SECOND))
