"""Shared utilities: unit conversions, RNG streams, statistics, geometry.

These helpers are deliberately dependency-light; everything above them
(`repro.phy`, `repro.mac`, ...) builds on these primitives.
"""

from repro.util.units import (
    dbm_to_mw,
    mw_to_dbm,
    db_to_ratio,
    ratio_to_db,
    MICROSECOND,
    MILLISECOND,
    SECOND,
    ns_to_s,
    s_to_ns,
)
from repro.util.rng import RngStreams
from repro.util.stats import EmpiricalCdf, jain_fairness
from repro.util.geometry import Point, distance

__all__ = [
    "dbm_to_mw",
    "mw_to_dbm",
    "db_to_ratio",
    "ratio_to_db",
    "MICROSECOND",
    "MILLISECOND",
    "SECOND",
    "ns_to_s",
    "s_to_ns",
    "RngStreams",
    "EmpiricalCdf",
    "jain_fairness",
    "Point",
    "distance",
]
