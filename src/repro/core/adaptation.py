"""Packet-size and contention-window adaptation (Section IV-D3).

Binds the hidden-terminal estimator's ``(h, c)`` counts to the
analytically optimal ``(W, payload)`` lookup.  The table is clamped at
:data:`MAX_HIDDEN_TERMINALS` and :data:`MAX_CONTENDERS` (the paper
precomputes a finite 2-D array), so outlier estimates degrade gracefully
instead of triggering unbounded searches.

The paper computes that array "beforehand", once.  Here every table whose
inputs are equal shares one :class:`SettingOptimizer` per process
(:func:`_shared_optimizer`), so a cell is evaluated once per process and
parameter set, however many networks a sweep builds.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Optional

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
#: How many parameter sets the process-wide optimizer memo keeps.
SHARED_OPTIMIZERS = 32


@lru_cache(maxsize=SHARED_OPTIMIZERS)
def _shared_optimizer(
    timing: "PhyTiming",
    data_rate: "Rate",
    ack_rate: "Rate",
    extra_header_ns: int,
    attacker_window: Optional[int],
    attacker_payload: Optional[int],
) -> SettingOptimizer:
    """The one optimizer of this process for these (frozen) inputs.

    The goodput model is a pure function of its arguments, and the
    optimizer caches only the frozen :class:`OptimalSetting` it derives,
    so a shared copy advises exactly what a private one would.  Sharing
    saves only repeats: the first table per process and parameter set
    still evaluates every cell it reads (120 goodput evaluations per
    ``(h, c)`` cell), and a process that sweeps more than
    :data:`SHARED_OPTIMIZERS` parameter sets evicts the least recently
    used one, to be rebuilt on its next use.
    """
    slot_model = BianchiSlotModel(
        timing=timing,
        data_rate=data_rate,
        ack_rate=ack_rate,
        extra_header_ns=extra_header_ns,
    )
    return SettingOptimizer(
        model=HtGoodputModel(slot_model),
        windows=CW_CHOICES,
        payloads=PAYLOAD_CHOICES,
        attacker_window=attacker_window,
        attacker_payload=attacker_payload,
    )


class AdaptationTable:
    """The precomputed best-(W, payload) matrix, evaluated lazily and
    shared by every table built from equal inputs (:func:`_shared_optimizer`)."""

    def __init__(
        self,
        timing: "PhyTiming",
        data_rate: "Rate",
        ack_rate: "Rate",
        config: CoMapConfig,
        extra_header_ns: int = 0,
    ) -> None:
        self._optimizer = _shared_optimizer(
            timing,
            data_rate,
            ack_rate,
            int(extra_header_ns),
            config.attacker_window,
            config.attacker_payload,
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
