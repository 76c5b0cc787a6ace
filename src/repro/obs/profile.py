"""Profiling harness: cProfile/pstats wired into run manifests.

Enabled via the ``REPRO_PROFILE`` environment knob (any value other
than ``0``/``false``/``no``/``off``).  When active, a sweep executed
through :func:`repro.experiments.parallel.run_tasks` records:

* **per-phase wall times** — the sweep's cache-scan and execute phases;
* **a top-N cumulative table** — the :data:`TOP` most expensive
  functions by cumulative time, extracted from the cProfile run via
  :mod:`pstats`.

The block lands in the manifest's optional ``profile`` field, so the
perf trajectory of a sweep is archived next to its provenance —
compare two manifests to see where the time moved.

The harness degrades gracefully: if another profiler is already active
in the process (coverage tools, an outer :class:`Profiler`),
``start`` records the failure and the block is emitted with an empty
table and an ``error`` note instead of crashing the sweep.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from typing import Any, Dict, List, Optional

#: Environment knob: truthy values enable the profiling harness.
PROFILE_ENV = "REPRO_PROFILE"

#: How many functions the cumulative table keeps.
TOP = 20

_FALSY = ("", "0", "false", "no", "off")


def profiling_enabled() -> bool:
    """True when ``REPRO_PROFILE`` asks for the harness."""
    return os.environ.get(PROFILE_ENV, "").strip().lower() not in _FALSY


class Profiler:
    """One cProfile session plus named phase wall times.

    Typical use (what ``run_tasks`` does internally)::

        prof = maybe_profiler()
        if prof is not None:
            prof.start()
        ... work ...
        if prof is not None:
            prof.stop()
            prof.add_phase("execute", elapsed_s)
            manifest_profile = prof.as_block()
    """

    def __init__(self) -> None:
        self._profile = cProfile.Profile()
        self._active = False
        self._error: Optional[str] = None
        self._phases: List[Dict[str, Any]] = []
        self._started = 0.0
        self._wall_s = 0.0

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Begin collecting.  Safe when another profiler already runs."""
        if self._active:
            return
        self._started = time.perf_counter()
        try:
            self._profile.enable()
        except (ValueError, RuntimeError) as exc:
            # cProfile refuses to nest (e.g. under coverage tooling or an
            # outer Profiler); keep phase timings, note the loss.
            self._error = str(exc)
        self._active = True

    def stop(self) -> None:
        """Stop collecting; idempotent."""
        if not self._active:
            return
        if self._error is None:
            try:
                self._profile.disable()
            except (ValueError, RuntimeError) as exc:  # pragma: no cover
                self._error = str(exc)
        self._wall_s += time.perf_counter() - self._started
        self._active = False

    # -- phases ---------------------------------------------------------
    def add_phase(self, name: str, wall_s: float) -> None:
        """Record an externally-timed phase (seconds)."""
        self._phases.append({"name": str(name), "wall_s": float(wall_s)})

    # -- reporting ------------------------------------------------------
    def top_functions(self) -> List[Dict[str, Any]]:
        """The :data:`TOP` most expensive functions by cumulative time.

        Each entry: ``function`` (``file:line(name)``), ``calls``,
        ``primitive_calls``, ``tottime_s``, ``cumtime_s``.
        """
        if self._error is not None:
            return []
        stats = pstats.Stats(self._profile)
        rows = sorted(
            stats.stats.items(), key=lambda item: item[1][3], reverse=True
        )
        out = []
        for (filename, line, name), (cc, nc, tt, ct, _callers) in rows[:TOP]:
            out.append(
                {
                    "function": f"{os.path.basename(filename)}:{line}({name})",
                    "calls": int(nc),
                    "primitive_calls": int(cc),
                    "tottime_s": float(tt),
                    "cumtime_s": float(ct),
                }
            )
        return out

    def as_block(self) -> Dict[str, Any]:
        """The manifest ``profile`` block: phases + top-N (+ error note)."""
        block: Dict[str, Any] = {
            "wall_s": self._wall_s,
            "phases": list(self._phases),
            "top": self.top_functions(),
        }
        if self._error is not None:
            block["error"] = self._error
        return block


def maybe_profiler() -> Optional[Profiler]:
    """A fresh :class:`Profiler` when ``REPRO_PROFILE`` is set, else None."""
    return Profiler() if profiling_enabled() else None
