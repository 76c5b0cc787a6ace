"""Optimal (contention window, payload) search (Section IV-D3).

"To reduce the computation overhead on mobile devices, we calculate the
best packet configurations for different numbers of HTs and contending
nodes beforehand.  The results are recorded in a 2-dimension array" —
this module is that precomputation: an exhaustive grid search over the
given contention windows and payload sizes, maximizing the analytical
goodput of :class:`repro.analytical.ht_model.HtGoodputModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analytical.ht_model import HtGoodputModel


@dataclass(frozen=True)
class OptimalSetting:
    """The best configuration found for one (hidden, contenders) cell."""

    window: int
    payload_bytes: int
    predicted_goodput_bps: float


class SettingOptimizer:
    """Grid search over (W, payload) for each (h, c) cell, with caching."""

    def __init__(
        self,
        model: HtGoodputModel,
        windows: Sequence[int],
        payloads: Sequence[int],
        attacker_window: int = None,
        attacker_payload: int = None,
    ) -> None:
        if not windows or not payloads:
            raise ValueError("choice grids cannot be empty")
        self.model = model
        self.windows = tuple(sorted(set(int(w) for w in windows)))
        self.payloads = tuple(sorted(set(int(p) for p in payloads)))
        self.attacker_window = attacker_window
        self.attacker_payload = attacker_payload
        self._cache: Dict[Tuple[int, int], OptimalSetting] = {}

    def best(self, hidden: int, contenders: int) -> OptimalSetting:
        """Best (W, payload) for ``h`` hidden terminals and ``c`` contenders."""
        key = (int(hidden), int(contenders))
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        best: OptimalSetting | None = None
        for window in self.windows:
            for payload in self.payloads:
                goodput = self.model.goodput_bps(
                    window, key[1], key[0], payload,
                    attacker_window=self.attacker_window,
                    attacker_payload=self.attacker_payload,
                )
                if best is None or goodput > best.predicted_goodput_bps:
                    best = OptimalSetting(window, payload, goodput)
        assert best is not None
        self._cache[key] = best
        return best

    def table(self, max_hidden: int, max_contenders: int) -> List[List[OptimalSetting]]:
        """The paper's 2-D array: rows = hidden count, columns = contenders."""
        return [
            [self.best(h, c) for c in range(max_contenders + 1)]
            for h in range(max_hidden + 1)
        ]

    def render_table(self, max_hidden: int, max_contenders: int) -> str:
        """Human-readable (W, payload) matrix for reports and examples."""
        rows = ["h\\c " + "".join(f"{c:>14d}" for c in range(max_contenders + 1))]
        for h in range(max_hidden + 1):
            cells = [
                f"  W={s.window:<4d}L={s.payload_bytes:<5d}"[:14].rjust(14)
                for s in (self.best(h, c) for c in range(max_contenders + 1))
            ]
            rows.append(f"{h:<4d}" + "".join(cells))
        return "\n".join(rows)
