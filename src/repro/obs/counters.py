"""Typed metric primitives and the counter registry.

Subsystems (``mac.dcf``, ``mac.comap``, ``core.arq``, ``phy.channel``,
``sim.engine``) expose their counters through a
:class:`CounterRegistry` instead of ad-hoc attribute scraping.  Two ways
in:

* **Owned metrics** — :meth:`CounterRegistry.counter` /
  :meth:`~CounterRegistry.histogram` return live, typed metric objects
  the caller increments directly.
* **Sources** — :meth:`CounterRegistry.register_source` attaches a
  zero-argument callable returning ``{name: number}``.  Hot-path code
  keeps its cheap dataclass counters (a bare attribute increment) and
  pays the dict-building cost only when a snapshot is taken.  Several
  sources may share one prefix (e.g. every CO-MAP MAC registers under
  ``comap``); overlapping names are *summed*, which is exactly the
  per-network aggregation the experiment metrics need.

Snapshots are plain ``{qualified_name: number}`` dicts — picklable,
JSON-safe, and mergeable across process boundaries
(:func:`diff_snapshot` + :meth:`CounterRegistry.merge_snapshot` are how
the parallel sweep executor ships worker-side counter deltas back to the
parent process).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

Number = Union[int, float]

#: Separator between a metric's prefix/namespace and its short name.
SEP = "/"


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
    """Streaming summary of observed samples (count/sum/min/max).

    Constant memory per histogram — no sample retention — so it is safe
    on hot paths and trivially mergeable across processes.  An optional
    ``buckets`` sequence of increasing upper bounds adds fixed-size
    bucket counts (Prometheus ``le`` semantics: a sample lands in the
    first bucket whose bound is >= the sample; larger samples land in an
    implicit overflow bucket), enabling :meth:`quantile` — the latency
    percentiles of the C-SR floor studies.  Snapshot flattening is
    unchanged by buckets; quantiles are an in-process query.
    """

    __slots__ = ("name", "count", "total", "minimum", "maximum",
                 "bounds", "bucket_counts")

    def __init__(
        self, name: str, buckets: Optional[Iterable[Number]] = None
    ) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        if buckets is None:
            self.bounds: Optional[Tuple[float, ...]] = None
            self.bucket_counts: Optional[List[int]] = None
        else:
            bounds = tuple(float(b) for b in buckets)
            if not bounds:
                raise ValueError(f"histogram {name!r}: empty bucket list")
            if any(b >= a for b, a in zip(bounds, bounds[1:])):
                raise ValueError(
                    f"histogram {name!r}: bucket bounds must strictly increase"
                )
            self.bounds = bounds
            self.bucket_counts = [0] * (len(bounds) + 1)  # +1: overflow

    def observe(self, value: Number) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        if self.bounds is not None:
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
        Requires buckets; 0.0 when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile fraction must be in [0, 1], got {q}")
        if self.bounds is None:
            raise ValueError(
                f"histogram {self.name!r} has no buckets; quantiles need "
                f"Histogram(name, buckets=...)"
            )
        if not self.count:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, self.bucket_counts):
            cumulative += bucket_count
            if cumulative >= rank and cumulative > 0:
                return min(max(bound, self.minimum), self.maximum)
        return self.maximum

    def as_dict(self) -> Dict[str, Number]:
        """Flattened scalar view used by snapshots."""
        out: Dict[str, Number] = {"count": self.count, "sum": self.total}
        if self.count:
            out["min"] = self.minimum
            out["max"] = self.maximum
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count} sum={self.total}>"


SourceFn = Callable[[], Dict[str, Number]]


class CounterRegistry:
    """A namespace of typed metrics plus pull-based counter sources."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Union[Counter, Histogram]] = {}
        self._sources: List[Tuple[str, SourceFn]] = []

    # -- owned metrics -------------------------------------------------
    def _get_or_create(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """Get-or-create the :class:`Counter` called ``name``."""
        return self._get_or_create(name, Counter)

    def histogram(
        self, name: str, buckets: Optional[Iterable[Number]] = None
    ) -> Histogram:
        """Get-or-create the :class:`Histogram` called ``name``.

        ``buckets`` (optional increasing upper bounds) takes effect only
        at creation; a later get with different buckets is an error, so
        two call sites cannot silently disagree on a histogram's shape.
        """
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, buckets=buckets)
            self._metrics[name] = metric
            return metric
        if not isinstance(metric, Histogram):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not Histogram"
            )
        if buckets is not None:
            bounds = tuple(float(b) for b in buckets)
            if metric.bounds != bounds:
                raise ValueError(
                    f"histogram {name!r} already created with buckets "
                    f"{metric.bounds}, not {bounds}"
                )
        return metric

    def get(self, name: str) -> Optional[Union[Counter, Histogram]]:
        """The owned metric called ``name``, or None when absent.

        Read-only lookup for in-process queries (e.g. histogram
        quantiles) that must not create an empty metric as a side
        effect the way the get-or-create accessors would.
        """
        return self._metrics.get(name)

    # -- pull sources --------------------------------------------------
    def register_source(self, prefix: str, fn: SourceFn) -> None:
        """Attach a callable polled at snapshot time.

        ``fn()`` must return ``{short_name: number}``; each key appears
        in snapshots as ``prefix/short_name``.  Multiple sources may use
        the same prefix — same-named values are summed.
        """
        self._sources.append((prefix, fn))

    # -- snapshots -----------------------------------------------------
    def snapshot(self) -> Dict[str, Number]:
        """All metrics and sources flattened to ``{name: number}``.

        Histograms flatten to ``name/count``, ``name/sum`` (plus
        ``min``/``max`` once non-empty).
        """
        out: Dict[str, Number] = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, Histogram):
                for key, value in metric.as_dict().items():
                    out[f"{name}{SEP}{key}"] = value
            else:
                out[name] = metric.value
        for prefix, fn in self._sources:
            for key, value in fn().items():
                qualified = f"{prefix}{SEP}{key}" if prefix else key
                out[qualified] = out.get(qualified, 0) + value
        return out

    def merge_snapshot(self, snapshot: Dict[str, Number]) -> None:
        """Fold a snapshot (e.g. a worker-process delta) into counters.

        Each positive value is added to the same-named owned
        :class:`Counter` (created on first sight); a name a histogram
        holds raises ``TypeError``, as :meth:`counter` does.  Negative
        values are ignored rather than violating counter monotonicity.
        """
        for name, value in snapshot.items():
            if value > 0:
                self.counter(name).value += value

    def clear(self) -> None:
        """Drop every owned metric and registered source."""
        self._metrics.clear()
        self._sources.clear()

    def __len__(self) -> int:
        return len(self._metrics) + len(self._sources)


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

    Per-network registries belong to their :class:`~repro.net.network.Network`;
    this one spans whole sweeps.  The parallel executor snapshots it
    around each worker task and merges the deltas back into the parent
    process's instance, so worker-side counters are never lost.
    """
    global _global_registry
    if _global_registry is None:
        _global_registry = CounterRegistry()
    return _global_registry
