"""Packet-size and contention-window adaptation (Section IV-D3).

Binds the hidden-terminal estimator's ``(h, c)`` counts to the
analytically optimal ``(W, payload)`` lookup.  The table is clamped at
:data:`MAX_HIDDEN_TERMINALS` and :data:`MAX_CONTENDERS` (the paper
precomputes a finite 2-D array), so outlier estimates degrade gracefully
instead of triggering unbounded searches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analytical.bianchi import BianchiSlotModel
from repro.analytical.ht_model import HtGoodputModel
from repro.analytical.optimizer import OptimalSetting, SettingOptimizer
from repro.core.config import CoMapConfig

if TYPE_CHECKING:  # hints only — core must stay import-independent of mac
    from repro.mac.timing import PhyTiming
    from repro.phy.rates import Rate

#: The contention windows the optimizer searches (802.11's BEB stages).
CW_CHOICES = (31, 63, 127, 255, 511, 1023)
#: The MSDU payload sizes the optimizer searches (bytes).
PAYLOAD_CHOICES = tuple(range(100, 2001, 100))
#: The bounds of the precomputed (W, payload) array (Section IV-D3):
#: larger (N_ht, c) estimates are clamped to them.
MAX_HIDDEN_TERMINALS = 10
MAX_CONTENDERS = 10


class AdaptationTable:
    """The precomputed best-(W, payload) matrix, evaluated lazily."""

    def __init__(
        self,
        timing: "PhyTiming",
        data_rate: "Rate",
        ack_rate: "Rate",
        config: CoMapConfig,
        extra_header_ns: int = 0,
    ) -> None:
        slot_model = BianchiSlotModel(
            timing=timing,
            data_rate=data_rate,
            ack_rate=ack_rate,
            extra_header_ns=extra_header_ns,
        )
        self._optimizer = SettingOptimizer(
            model=HtGoodputModel(slot_model),
            windows=CW_CHOICES,
            payloads=PAYLOAD_CHOICES,
            attacker_window=config.attacker_window,
            attacker_payload=config.attacker_payload,
        )

    def best_settings(self, hidden: int, contenders: int) -> OptimalSetting:
        """Advised (W, payload) for the estimated ``(h, c)`` counts.

        Counts are clamped to the table bounds, mirroring the paper's
        finite precomputed array.
        """
        h = max(0, min(int(hidden), MAX_HIDDEN_TERMINALS))
        c = max(0, min(int(contenders), MAX_CONTENDERS))
        return self._optimizer.best(h, c)

    def render(self) -> str:
        """The full matrix, rendered for reports and examples."""
        return self._optimizer.render_table(MAX_HIDDEN_TERMINALS, MAX_CONTENDERS)
