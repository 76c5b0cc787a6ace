"""CMAP-style baseline: a conflict map *learned from losses*.

The paper's closest related work for exposed terminals is CMAP
(Vutukuru et al., NSDI'08), which "passively monitors the network
traffic to build a conflict map with potentially interfering links.  It
suffers nevertheless from losses until conflict map entries populated."
CO-MAP's pitch against it is the *rapid update*: positions rebuild the
co-occurrence map instantly after mobility, while an empirical map must
re-learn through collisions.

This module implements that baseline so the claim can be measured:

* transmissions are announced with the same header frames CO-MAP uses
  (an identification substrate both schemes need);
* on overhearing a header for link L while holding a frame for ``dst``,
  the MAC consults its empirical table for (L, dst):
  - fewer than ``MIN_TRIALS`` attempts -> **probe** (transmit
    concurrently and see what happens — this is where the learning
    losses come from);
  - otherwise allow concurrency iff the observed success rate clears
    ``SUCCESS_THRESHOLD`` (with an occasional epsilon re-probe so the
    map can recover from stale negatives);
* every concurrent attempt's ACK outcome updates the entry.

Everything else — the announcement header, the episode it opens,
counting down through the busy medium, expiry and teardown — is the
:class:`repro.mac.exposed.ExposedMac` machinery CO-MAP runs too, so the
comparison isolates *how the map is built*.  Unlike CO-MAP, a CMAP
episode ends with the attempt it carried (one header, one attempt), and
there is no rival-ET monitor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.mac.dcf import _CONTEND, Mpdu
from repro.mac.exposed import ExposedMac, Link
from repro.mac.frames import Frame


#: Attempts before an entry's verdict is trusted.
MIN_TRIALS = 4
#: Concurrency allowed when the observed success rate clears this.
SUCCESS_THRESHOLD = 0.7
#: Probability of re-probing a learned-negative entry.
REPROBE_PROBABILITY = 0.02


@dataclass
class _Entry:
    """Empirical concurrency statistics for one (link, receiver) pair."""

    attempts: int = 0
    successes: int = 0

    @property
    def success_rate(self) -> float:
        return self.successes / self.attempts if self.attempts else 0.0


@dataclass
class CmapStats:
    """Counters specific to the learned conflict map."""

    headers_sent: int = 0
    probes: int = 0
    concurrent_transmissions: int = 0
    learned_allowed: int = 0
    learned_denied: int = 0
    reprobes: int = 0


class CmapMac(ExposedMac):
    """DCF extended with loss-learned exposed-terminal concurrency."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.cmap_stats = self._episode_stats = CmapStats()
        self._conflict_map: Dict[Tuple[int, int, int], _Entry] = {}
        # Reuse the backoff stream's generator (the same object the first
        # backoff draw will fetch).
        self._probe_rng = self._rngs.stream("backoff", self.node_id)

    def counters(self) -> Dict[str, int]:
        """DCF's counters plus the learned conflict map's (``cmap/``)."""
        out = super().counters()
        for name, value in vars(self.cmap_stats).items():
            out[f"cmap/{name}"] = value
        return out

    # ------------------------------------------------------------------
    # The learned map
    # ------------------------------------------------------------------
    def entry(self, link: Link, dst: int) -> _Entry:
        """The empirical record for transmitting to ``dst`` during ``link``."""
        return self._conflict_map.setdefault((link[0], link[1], dst), _Entry())

    def _decide(self, link: Link, dst: int) -> bool:
        """Probe-then-exploit decision for one opportunity."""
        entry = self.entry(link, dst)
        if entry.attempts < MIN_TRIALS:
            self.cmap_stats.probes += 1
            return True
        if entry.success_rate >= SUCCESS_THRESHOLD:
            self.cmap_stats.learned_allowed += 1
            return True
        if self._probe_rng.random() < REPROBE_PROBABILITY:
            self.cmap_stats.reprobes += 1
            return True
        self.cmap_stats.learned_denied += 1
        return False

    def _record_outcome(self, link: Link, dst: int, success: bool) -> None:
        entry = self.entry(link, dst)
        entry.attempts += 1
        if success:
            entry.successes += 1

    def map_size(self) -> int:
        """Number of (link, receiver) entries learned so far."""
        return len(self._conflict_map)

    # ------------------------------------------------------------------
    # Announcements (same substrate as CO-MAP)
    # ------------------------------------------------------------------
    def _compose_frames(self, head: Mpdu, rate):
        data = self._build_data_frame(head, rate)
        if self._exposed_link is not None:
            data.meta["exposed"] = True
        if not self.config.announce_headers:
            return [data]
        self.cmap_stats.headers_sent += 1
        return [self._announcement_header(head, data), data]

    # ------------------------------------------------------------------
    # Taking an episode (header-gated, like CO-MAP's separate mode)
    # ------------------------------------------------------------------
    def on_header_overheard(self, frame: Frame, rssi_dbm: float) -> None:
        if self._state is not _CONTEND or self._head is None:
            return
        if self._opportunity is not None or self._pending_link is not None:
            return
        link = (frame.src, frame.dst)
        if link[0] == self._head.dst or link[1] == self._head.dst:
            return
        if not self._decide(link, self._head.dst):
            return
        self._arm_opportunity(link, int(frame.meta.get("dur", 0)))

    def _transmit_head(self) -> None:
        super()._transmit_head()
        # The link stays in _exposed_link for the outcome; the episode
        # itself ends with this attempt (per-header gating).
        self._clear_opportunity()

    # ------------------------------------------------------------------
    # Learning from outcomes
    # ------------------------------------------------------------------
    def _report_rate_outcome(self, dst: int, success: bool) -> None:
        """Learn from a concurrent attempt's ACK outcome, then pass it on.

        DCF calls this once per attempt: on the matching ACK and on every
        ACK or CTS timeout.
        """
        if self._exposed_link is not None:
            self._record_outcome(self._exposed_link, dst, success)
            self._exposed_link = None
        super()._report_rate_outcome(dst, success)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CmapMac node={self.node_id} entries={self.map_size()}>"
