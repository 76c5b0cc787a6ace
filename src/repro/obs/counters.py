"""Typed metric primitives and the process-wide counter tally.

A network's counters are read from the parts that keep them: each part
(the engine, each band's channel, each MAC, the C-SR backhaul, an
installed fault injector) counts with plain integer attributes and
reports them through its own ``counters()`` method, and
:meth:`repro.net.network.Network.counters` sums those views into one
``{prefix/name: int}`` snapshot.  Nothing here is involved in that.

This module holds what is left to share:

* :class:`Counter` — one monotonically increasing integer;
* :class:`Histogram` — a bucketed streaming summary; each MAC keeps one
  per delivered flow (:attr:`repro.mac.dcf.DcfMac.latency`), and its
  quantiles are in-process queries, never snapshot keys;
* :class:`CounterRegistry` — a namespace of counters.  The process-wide
  instance (:func:`global_registry`) is the sweep tally: snapshots are
  plain ``{name: int}`` dicts, picklable and JSON-safe, and
  :func:`diff_snapshot` + :meth:`CounterRegistry.merge_snapshot` are
  how the parallel sweep executor ships worker-side counter deltas back
  to the parent process.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Histogram:
    """Bucketed streaming summary of observed samples.

    Constant memory per histogram — no sample retention — so it is safe
    on hot paths.  ``buckets`` is a non-empty sequence of strictly
    increasing upper bounds (Prometheus ``le`` semantics: a sample lands
    in the first bucket whose bound is >= the sample; larger samples
    land in an implicit overflow bucket); with the exact count, sum, min
    and max they give :meth:`quantile`, the latency percentiles of the
    C-SR floor studies.
    """

    __slots__ = ("name", "count", "total", "minimum", "maximum",
                 "bounds", "bucket_counts")

    def __init__(self, name: str, buckets: Iterable[Number]) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name!r}: empty bucket list")
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name!r}: bucket bounds must strictly increase"
            )
        self.bounds: Tuple[float, ...] = bounds
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)  # +1: overflow

    def observe(self, value: Number) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        self.bucket_counts[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observed samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the ``q``-quantile from bucket counts.

        Returns the smallest bucket bound at or below which at least a
        ``q`` fraction of samples fell, clamped into the exact observed
        ``[min, max]`` range (so ``quantile(1.0)`` is exactly the max
        and coarse buckets cannot report a value no sample reached).
        0.0 when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile fraction must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, self.bucket_counts):
            cumulative += bucket_count
            if cumulative >= rank and cumulative > 0:
                return min(max(bound, self.minimum), self.maximum)
        return self.maximum

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count} sum={self.total}>"


class CounterRegistry:
    """A namespace of :class:`Counter` objects: the sweep tally."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """Get-or-create the :class:`Counter` called ``name``."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def snapshot(self) -> Dict[str, int]:
        """Every counter's value, ``{name: value}``."""
        return {name: counter.value for name, counter in self._counters.items()}

    def merge_snapshot(self, snapshot: Dict[str, Number]) -> None:
        """Fold a snapshot (e.g. a worker-process delta) into counters.

        Each positive value is added to the same-named :class:`Counter`
        (created on first sight).  Negative values are ignored rather
        than violating counter monotonicity.
        """
        for name, value in snapshot.items():
            if value > 0:
                self.counter(name).value += value

    def clear(self) -> None:
        """Drop every counter."""
        self._counters.clear()

    def __len__(self) -> int:
        return len(self._counters)


def diff_snapshot(
    before: Dict[str, Number], after: Dict[str, Number]
) -> Dict[str, Number]:
    """Per-key ``after - before`` (keys absent from ``before`` count from 0).

    Only strictly positive deltas are kept: the result is exactly what
    :meth:`CounterRegistry.merge_snapshot` in another process needs.
    """
    delta: Dict[str, Number] = {}
    for key, value in after.items():
        change = value - before.get(key, 0)
        if change > 0:
            delta[key] = change
    return delta


_global_registry: Optional[CounterRegistry] = None


def global_registry() -> CounterRegistry:
    """The process-wide registry for cross-run instrumentation.

    It spans whole sweeps (a network's own counters are
    :meth:`~repro.net.network.Network.counters`).  The parallel executor
    snapshots it around each worker task and merges the deltas back into
    the parent process's instance, so worker-side counters are never
    lost.
    """
    global _global_registry
    if _global_registry is None:
        _global_registry = CounterRegistry()
    return _global_registry
