"""Structured event tracing.

A lightweight, optional recorder that subsystems call into (``channel``,
``mac``, ``arq`` categories).  Traces power the timeline-style analyses of
the paper's Fig. 6 (DCF vs CO-MAP communication procedure) and are heavily
used by integration tests to assert *sequencing* properties that end-state
metrics cannot see (e.g. "the exposed terminal started while the first
transmission was still in the air").
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Environment knob: comma-separated trace categories to enable on the
#: global recorder ("1" is shorthand for just ``sweep``).
TRACE_ENV = "REPRO_TRACE"


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event: time, category, event name, and free-form detail."""

    time: int
    category: str
    name: str
    detail: Tuple[Tuple[str, Any], ...] = ()

    def get(self, key: str, default: Any = None) -> Any:
        """Look up one detail field by name."""
        for k, v in self.detail:
            if k == key:
                return v
        return default

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kv = " ".join(f"{k}={v}" for k, v in self.detail)
        return f"[{self.time:>12d}] {self.category}/{self.name} {kv}"


class TraceRecorder:
    """Collects :class:`TraceEvent` records during a run.

    Recording is off unless categories are enabled, so the hot path costs a
    single set-membership test when tracing is unused.
    """

    def __init__(self, categories: Optional[List[str]] = None) -> None:
        self._enabled = set(categories or [])
        self._events: List[TraceEvent] = []
        self._clock: Callable[[], int] = lambda: 0

    def bind_clock(self, clock: Callable[[], int]) -> None:
        """Attach the simulator clock used to timestamp records."""
        self._clock = clock

    def enable(self, category: str) -> None:
        """Start recording events of ``category``."""
        self._enabled.add(category)

    def wants(self, category: str) -> bool:
        """True when ``category`` is being recorded (cheap guard for callers)."""
        return category in self._enabled

    def record(self, category: str, name: str, **detail: Any) -> None:
        """Record one event if its category is enabled."""
        if category not in self._enabled:
            return
        self._events.append(
            TraceEvent(
                time=self._clock(),
                category=category,
                name=name,
                detail=tuple(sorted(detail.items())),
            )
        )

    def merge(self, events: Iterable[TraceEvent]) -> int:
        """Append already-recorded events (e.g. from a worker process).

        The events keep their original timestamps and bypass the
        category filter — they were filtered when first recorded, by a
        recorder configured identically in the worker.  Returns how many
        were merged.
        """
        before = len(self._events)
        self._events.extend(events)
        return len(self._events) - before

    def events(
        self, category: Optional[str] = None, name: Optional[str] = None
    ) -> List[TraceEvent]:
        """Return recorded events, optionally filtered by category and name."""
        out = self._events
        if category is not None:
            out = [e for e in out if e.category == category]
        if name is not None:
            out = [e for e in out if e.name == name]
        return list(out)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def counts(self, events: Optional[Iterable[TraceEvent]] = None) -> Dict[str, int]:
        """Histogram of ``category/name`` occurrences in ``events``.

        Counts every recorded event by default; pass a slice (e.g. the
        events one sweep added) to count just those.
        """
        hist: Dict[str, int] = {}
        for event in self._events if events is None else events:
            key = f"{event.category}/{event.name}"
            hist[key] = hist.get(key, 0) + 1
        return hist

    def clear(self) -> None:
        """Drop all recorded events (categories stay enabled)."""
        self._events.clear()


_global_recorder: Optional[TraceRecorder] = None


def global_recorder() -> TraceRecorder:
    """The process-wide recorder for cross-run instrumentation.

    Per-network recorders are clocked by simulated time; this one spans
    whole sweeps (many networks, possibly many worker processes), so it
    is clocked by wall time in nanoseconds.  The sweep executor in
    :mod:`repro.experiments.parallel` records ``sweep``-category
    progress/timing events here; like any recorder it stays silent until
    a category is enabled.
    """
    global _global_recorder
    if _global_recorder is None:
        _global_recorder = TraceRecorder()
        _global_recorder.bind_clock(time.perf_counter_ns)
    return _global_recorder


def configure_from_env(recorder: Optional[TraceRecorder] = None) -> TraceRecorder:
    """Enable the categories named by ``$REPRO_TRACE`` on a recorder.

    ``REPRO_TRACE=1`` enables the ``sweep`` category (the profiling
    hooks of the parallel executor); any other non-empty value is read
    as a comma-separated category list (e.g. ``REPRO_TRACE=sweep,mac``).
    Defaults to the global recorder; called by every sweep worker so the
    opt-in follows the environment into child processes.
    """
    rec = recorder if recorder is not None else global_recorder()
    raw = os.environ.get(TRACE_ENV, "")
    if raw and raw != "0":
        categories = ["sweep"] if raw == "1" else raw.split(",")
        for category in categories:
            category = category.strip()
            if category:
                rec.enable(category)
    return rec
