"""CO-MAP's control plane: the paper's primary contribution.

The pipeline of Fig. 5 — **neighbor table → PRR test (eq. 3) →
co-occurrence map** — lives here, together with hidden-terminal counting
(eq. 4), the packet-size/contention-window adaptation table (Section
IV-D3) and the selective-repeat ARQ used against the ACK-loss problem
(Section IV-C4).  The PRR step is computed, never cached: the
co-occurrence map is the one store of concurrency verdicts.

The :class:`repro.core.protocol.CoMapAgent` facade composes all of it and
is what :class:`repro.mac.comap.CoMapMac` consults at runtime.
"""

from repro.core.config import CoMapConfig
from repro.core.neighbor_table import NeighborTable, NeighborEntry
from repro.core.co_occurrence import CoOccurrenceMap
from repro.core.concurrency import ConcurrencyValidator, ValidationResult
from repro.core.ht_estimation import HtEstimator, InterferenceClass, NeighborRole
from repro.core.adaptation import AdaptationTable
from repro.core.arq import SrSender, SrReceiver
from repro.core.protocol import CoMapAgent

__all__ = [
    "CoMapConfig",
    "NeighborTable",
    "NeighborEntry",
    "CoOccurrenceMap",
    "ConcurrencyValidator",
    "ValidationResult",
    "HtEstimator",
    "InterferenceClass",
    "NeighborRole",
    "AdaptationTable",
    "SrSender",
    "SrReceiver",
    "CoMapAgent",
]
