"""CO-MAP protocol configuration.

Defaults follow the paper's Table I (NS-2 settings); the testbed scenarios
override the propagation and threshold fields through
:mod:`repro.experiments.params`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class CoMapConfig:
    """Thresholds and knobs of the CO-MAP control plane.

    Every agent of a network shares one instance (``ScenarioParams.comap``),
    and it is the only place the announcement method and the
    selective-repeat window are set: :class:`repro.mac.comap.CoMapMac`
    reads both from its agent's config.  Sharing is safe because the
    config is frozen: a variant is a new config,
    ``params.with_overrides(comap=dataclasses.replace(params.comap, ...))``,
    never a write that every copy of the params object would see.

    Table I's ``T_PRR`` (95 %) is :data:`repro.core.concurrency.T_PRR`,
    the movement threshold of Section V's update rule is
    :data:`repro.core.protocol.POSITION_UPDATE_THRESHOLD_M`, and the
    adaptation table's bounds are in :mod:`repro.core.adaptation`: every
    scenario runs one value of each.

    Attributes
    ----------
    t_sir_db:
        Required signal-to-interference ratio used inside the PRR model —
        the paper sets it to the threshold of the *lowest* rate (4 dB on
        the testbed) or 10 for NS-2.
    sr_window:
        Selective-repeat ARQ sending window ``W_send``; 1 degenerates to
        stop-and-wait.
    """

    t_sir_db: float = 10.0
    sr_window: int = 8
    #: Announcement implementation: "separate" header packet (testbed
    #: method, robust under rate adaptation) or "embedded" 4-byte early
    #: FCS (NS-2 method, cheaper and earlier, but overhearers must decode
    #: at the data rate).
    announce_mode: str = "separate"
    #: Contention window assumed for non-adaptive hidden terminals when
    #: precomputing the (CW, payload) table.  ``None`` restores the
    #: paper's homogeneous assumption (attackers share the tagged
    #: station's window) — kept as an ablation, since against saturated
    #: legacy interferers the homogeneous table advises pathologically
    #: large windows.
    attacker_window: int = 32
    #: Payload size assumed for non-adaptive hidden terminals (bytes).
    attacker_payload: int = 1000
    #: Freshness horizon (ns) for a node's *own* location report.  The
    #: instant the node's row has gone this long without a report, the
    #: MAC reverts to plain DCF, until its next report.
    #: ``None`` (the default) disables staleness tracking entirely, which
    #: keeps every pre-existing scenario bit-identical.
    location_ttl_ns: Optional[int] = None

    def __post_init__(self) -> None:
        if self.sr_window < 1:
            raise ValueError("selective-repeat window must be at least 1")
        if self.announce_mode not in ("separate", "embedded"):
            raise ValueError(
                f"announce_mode must be 'separate' or 'embedded', "
                f"got {self.announce_mode!r}"
            )
        if self.location_ttl_ns is not None and self.location_ttl_ns <= 0:
            raise ValueError(
                f"location_ttl_ns must be positive when set, got {self.location_ttl_ns}"
            )
