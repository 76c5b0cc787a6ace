"""Statistics helpers for experiment evaluation.

The paper reports results as empirical CDFs of per-link goodput
(Figs. 9 and 10), mean goodput gains (77.5 % for ET scenarios, 38.5 % for
HT networks) and per-position goodput curves.  This module provides the
CDFs, Jain's fairness index and confidence intervals over repeated runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence

import numpy as np


class EmpiricalCdf:
    """Empirical cumulative distribution function over a sample set.

    Mirrors the "Empirical CDF" panels of Figs. 9/10: ``F(x)`` is the
    fraction of samples ``<= x``.
    """

    def __init__(self, samples: Iterable[float]) -> None:
        data = sorted(float(s) for s in samples)
        if not data:
            raise ValueError("EmpiricalCdf requires at least one sample")
        self._samples = data

    @property
    def samples(self) -> Sequence[float]:
        """The sorted underlying samples."""
        return tuple(self._samples)

    def __len__(self) -> int:
        return len(self._samples)

    def quantile(self, q: float) -> float:
        """Return the ``q``-quantile (0 <= q <= 1) of the samples."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be within [0, 1], got {q}")
        if q == 0.0:
            return self._samples[0]
        idx = int(np.ceil(q * len(self._samples))) - 1
        return self._samples[max(idx, 0)]

    def mean(self) -> float:
        """Arithmetic mean of the samples."""
        return float(np.mean(self._samples))

    def median(self) -> float:
        """Median of the samples."""
        return self.quantile(0.5)


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    Equals 1.0 when all links obtain identical goodput and approaches
    ``1/n`` under complete starvation of all but one link.  The values
    are scaled by their largest magnitude first: the index does not
    change, and squares of tiny values no longer underflow into
    subnormals, which pushed it above 1.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("fairness of an empty set is undefined")
    peak = float(np.max(np.abs(arr)))
    if peak == 0.0:
        return 1.0
    arr = arr / peak
    return float(np.sum(arr)) ** 2 / (arr.size * float(np.sum(arr**2)))


@dataclass(frozen=True)
class ConfidenceInterval:
    """Mean with a symmetric Student-t confidence interval."""

    mean: float
    half_width: float
    confidence: float
    count: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """True when ``value`` lies inside the interval."""
        return self.low <= value <= self.high

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.mean:.3f} ± {self.half_width:.3f} "
            f"({self.confidence * 100:.0f}% CI, n={self.count})"
        )


def confidence_interval(
    samples: Sequence[float], confidence: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of repeated runs.

    Experiment runners repeat every configuration with independent seeds;
    this is the standard way to report those replicates (the paper runs
    each simulation "10 times and the average results are recorded").
    """
    from scipy import stats as scipy_stats

    data = np.asarray(list(samples), dtype=float)
    if data.size < 2:
        raise ValueError("a confidence interval needs at least two samples")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly between 0 and 1")
    mean = float(np.mean(data))
    sem = float(np.std(data, ddof=1)) / (data.size ** 0.5)
    t_value = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=data.size - 1))
    return ConfidenceInterval(
        mean=mean,
        half_width=t_value * sem,
        confidence=confidence,
        count=int(data.size),
    )


def cdf_table(samples_by_label: Dict[str, Sequence[float]], points: int = 10) -> str:
    """Render aligned CDF columns for several labelled sample sets.

    Used by benchmark harnesses to print Fig. 9/10-style comparisons.
    """
    labels = list(samples_by_label)
    cdfs = {label: EmpiricalCdf(samples_by_label[label]) for label in labels}
    lines = ["quantile  " + "  ".join(f"{label:>14s}" for label in labels)]
    for i in range(1, points + 1):
        q = i / points
        row = f"{q:8.2f}  " + "  ".join(
            f"{cdfs[label].quantile(q):14.3f}" for label in labels
        )
        lines.append(row)
    return "\n".join(lines)
