"""The simulator's execution modes, as a fixed table for run reports.

The channel has one execution path: the hot-path caches and coalesced
air notifications are unconditional, hash-grid candidate generation is
the only candidate generator, and there is no struct-of-arrays backend.
The table below records that state under the mode names older reports
used, so a report can still say which modes produced its numbers.  It
reads no environment: ``REPRO_HOTPATH``, ``REPRO_VECTOR`` and
``REPRO_SPATIAL`` no longer select anything.
"""

from __future__ import annotations

from typing import Dict

_MODES: Dict[str, bool] = {"hotpath": True, "vector": False, "spatial": True}


def mode_enabled(name: str) -> bool:
    """Whether the named execution mode is active; ``KeyError`` if unknown."""
    return _MODES[name]
