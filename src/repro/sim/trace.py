"""Structured event tracing.

A :class:`TraceRecorder` keeps the events of the categories enabled on
it and drops every other record call.  The one recorder the simulator
writes to is the process-global :func:`global_recorder`: the sweep
executor (:mod:`repro.experiments.parallel`) records its ``sweep``
progress and timing events there, pool workers ship theirs home, and
run manifests and ``trace.jsonl`` (:mod:`repro.obs.trace_io`) are read
from it.  Per-network observability is the counter registry
(:mod:`repro.obs.counters`).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Environment switch: any value except empty or "0" enables the ``sweep``
#: category on the global recorder.
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

    Recording is off unless categories are enabled: a record call for a
    disabled category appends nothing.
    """

    def __init__(self, categories: Optional[List[str]] = None) -> None:
        self._enabled = set(categories or [])
        self._events: List[TraceEvent] = []
        self._clock: Callable[[], int] = lambda: 0

    def bind_clock(self, clock: Callable[[], int]) -> None:
        """Attach the clock used to timestamp records."""
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

    It spans whole sweeps (many networks, possibly many worker
    processes), so it is clocked by wall time in nanoseconds.  The sweep
    executor in :mod:`repro.experiments.parallel` records
    ``sweep``-category progress/timing events here; like any recorder it
    stays silent until a category is enabled.
    """
    global _global_recorder
    if _global_recorder is None:
        _global_recorder = TraceRecorder()
        _global_recorder.bind_clock(time.perf_counter_ns)
    return _global_recorder


def configure_from_env(recorder: Optional[TraceRecorder] = None) -> TraceRecorder:
    """Enable the ``sweep`` category on a recorder when ``$REPRO_TRACE`` is on.

    Any value except empty or ``0`` turns the sweep trace on: the sweep
    executor records nothing else.  Defaults to the global recorder;
    called by every sweep worker so the opt-in follows the environment
    into child processes.
    """
    rec = recorder if recorder is not None else global_recorder()
    if os.environ.get(TRACE_ENV, "") not in ("", "0"):
        rec.enable("sweep")
    return rec
