"""Declarative fault schedules (see ``docs/robustness.md``).

A :class:`FaultPlan` is an immutable, declarative description of every
fault to inject into one run: *what* (the spec class), *who* (a node
name), and *when* (absolute simulated nanoseconds).  Plans are plain
frozen dataclasses, so they pickle cleanly into parallel sweep tasks and
feed :func:`repro.util.rng.derive_seed`-style canonical encodings — the
same plan always realizes the same faults, bit for bit.

Window-based specs (outages, beacon loss, ACK bursts, …) are *active*
for ``start_ns <= now < start_ns + duration_ns``.  Point specs (map
expiry/corruption, churn) fire at their scheduled instant.  All
probabilistic specs draw from ``RngStreams.substream("fault", kind,
node)``, so fault randomness can never perturb backoff, shadowing, or
any other subsystem stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

#: Default location-service keep-alive period (20 ms), matching the
#: order of magnitude of beacon intervals in infrastructure WLANs.
DEFAULT_REPORT_INTERVAL_NS = 20_000_000


def _require_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class _Window:
    """A spec that holds one node for ``start_ns <= now < start_ns + duration_ns``."""

    node: str
    start_ns: int
    duration_ns: int

    def __post_init__(self) -> None:
        if self.start_ns < 0:
            raise ValueError(f"start_ns cannot be negative, got {self.start_ns}")
        if self.duration_ns <= 0:
            raise ValueError(
                f"duration_ns must be positive, got {self.duration_ns}"
            )

    def active(self, now: int) -> bool:
        """True while ``now`` falls inside the fault window."""
        return self.start_ns <= now < self.start_ns + self.duration_ns


@dataclass(frozen=True)
class _LossWindow(_Window):
    """A window that loses each of the node's items with ``drop_prob``."""

    drop_prob: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_prob("drop_prob", self.drop_prob)


@dataclass(frozen=True)
class LocationOutage(_Window):
    """The node's location service produces no reports at all.

    Its keep-alives are suppressed, so with a ``location_ttl_ns``
    configured the node's entries (and every peer's view of it) age out
    and CO-MAP degrades to plain DCF until the window ends.
    """


@dataclass(frozen=True)
class FrozenLocation(_Window):
    """Reports keep flowing but repeat the stale pre-window position.

    Freshness is maintained (no fallback), but the coordinates feeding
    eq. (3) silently stop tracking the node's true movement.
    """


@dataclass(frozen=True)
class BeaconLoss(_LossWindow):
    """Individual position beacons are dropped with ``drop_prob``."""

    drop_prob: float = 0.5


@dataclass(frozen=True)
class LocationDrift(_Window):
    """Reported positions accumulate a linear bias of ``rate_mps``.

    The drift is deterministic (rate and heading are part of the spec):
    the published position is the window-start report displaced by
    ``rate_mps * elapsed`` along ``heading_deg``.  It is never the node's
    report, so peers see the report again once the window closes.
    """

    rate_mps: float = 1.0
    heading_deg: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.rate_mps < 0:
            raise ValueError(f"rate_mps cannot be negative, got {self.rate_mps}")


@dataclass(frozen=True)
class AckLossBurst(_LossWindow):
    """ACKs addressed to the node are dropped at its receiver.

    Stresses the selective-repeat ARQ exactly where the paper motivates
    it: the data arrives, only the acknowledgement is lost.
    """


@dataclass(frozen=True)
class AnnouncementLoss(_LossWindow):
    """CO-MAP announcements are not decoded by the node.

    Covers both announcement implementations: separate header frames and
    embedded early-FCS announcements.  The node loses exposed-terminal
    opportunities it would otherwise have exploited.
    """


@dataclass(frozen=True)
class CoMapExpiry:
    """At ``at_ns``, every entry of the node's co-occurrence map expires."""

    node: str
    at_ns: int

    def __post_init__(self) -> None:
        if self.at_ns < 0:
            raise ValueError(f"at_ns cannot be negative, got {self.at_ns}")


@dataclass(frozen=True)
class CoMapCorruption:
    """At ``at_ns``, stored verdicts flip with probability ``flip_prob``.

    An *allowed* entry becomes *denied* and vice versa — modelling a
    corrupted control-plane update rather than a clean loss.
    """

    node: str
    at_ns: int
    flip_prob: float = 1.0

    def __post_init__(self) -> None:
        if self.at_ns < 0:
            raise ValueError(f"at_ns cannot be negative, got {self.at_ns}")
        _require_prob("flip_prob", self.flip_prob)


@dataclass(frozen=True)
class NodeChurn:
    """The node leaves the network at ``leave_ns``, re-joins at ``rejoin_ns``."""

    node: str
    leave_ns: int
    rejoin_ns: int

    def __post_init__(self) -> None:
        if self.leave_ns < 0:
            raise ValueError(f"leave_ns cannot be negative, got {self.leave_ns}")
        if self.rejoin_ns <= self.leave_ns:
            raise ValueError(
                f"rejoin_ns ({self.rejoin_ns}) must come after "
                f"leave_ns ({self.leave_ns})"
            )


#: Specs that model the *location service* failing.  Their presence in a
#: plan activates the injector's periodic keep-alive ticker.
LOCATION_FAULTS = (LocationOutage, FrozenLocation, BeaconLoss, LocationDrift)

FaultSpec = Union[
    LocationOutage,
    FrozenLocation,
    BeaconLoss,
    LocationDrift,
    AckLossBurst,
    AnnouncementLoss,
    CoMapExpiry,
    CoMapCorruption,
    NodeChurn,
]


@dataclass(frozen=True)
class FaultPlan:
    """Everything to inject into one run.

    An empty plan is valid and injects nothing: installing it changes no
    behavior (no ticker, no hooks, no scheduled events), which is what
    the faults-off golden-equivalence tests pin down.
    """

    events: Tuple[FaultSpec, ...] = ()
    #: Location-service keep-alive period.  Only used when the plan
    #: contains at least one location fault: the injector then *becomes*
    #: the location service, republishing every node's last report each
    #: interval (except where a spec suppresses, freezes, drops, or
    #: drifts it).
    report_interval_ns: int = DEFAULT_REPORT_INTERVAL_NS

    def __post_init__(self) -> None:
        if self.report_interval_ns <= 0:
            raise ValueError(
                f"report_interval_ns must be positive, got {self.report_interval_ns}"
            )
        object.__setattr__(self, "events", tuple(self.events))
        # A node can leave only while attached: its churn windows may
        # touch (re-join and leave at one instant) but not overlap.
        churn = sorted(
            (event for event in self.events if isinstance(event, NodeChurn)),
            key=lambda event: (event.node, event.leave_ns),
        )
        for before, after in zip(churn, churn[1:]):
            if after.node == before.node and after.leave_ns < before.rejoin_ns:
                raise ValueError(
                    f"churn windows of node {after.node!r} overlap: it leaves "
                    f"at {after.leave_ns} before re-joining at {before.rejoin_ns}"
                )

    @property
    def has_location_faults(self) -> bool:
        """Does this plan model a failing location service?"""
        return any(isinstance(event, LOCATION_FAULTS) for event in self.events)

    def for_node(self, name: str) -> Tuple[FaultSpec, ...]:
        """All specs targeting one node, in plan order."""
        return tuple(event for event in self.events if event.node == name)

    @property
    def node_names(self) -> Tuple[str, ...]:
        """Sorted names of every node the plan touches."""
        return tuple(sorted({event.node for event in self.events}))
