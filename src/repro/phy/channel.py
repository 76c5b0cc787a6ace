"""The shared wireless medium.

The :class:`Channel` owns the set of in-flight :class:`Transmission`\\ s.
When a radio starts transmitting, the channel draws a received power for
every other attached radio from the propagation model (one shadowing
realization per frame by default — this is what makes the simulated
packet-reception rate converge to the paper's eq. 3) and notifies each
radio, which updates its clear-channel assessment and reception state.

Shadowing modes
---------------

``per_frame``
    A fresh ``X_sigma`` per (transmitter, receiver, frame).  Default;
    realizes the statistical PRR model.
``none``
    Pure deterministic path loss.

Per-link RNG substreams
-----------------------

Shadowing draws come from a *per-(transmitter, receiver)* generator,
keyed through :meth:`repro.util.rng.RngStreams.substream` with the same
SHA-256 :func:`~repro.util.rng.derive_seed` derivation the parallel
sweep executor uses for task seeds.  Each ordered pair owns an
independent counter-based stream, so consuming (or *skipping*) draws on
one link can never perturb any other link's randomness.  That
independence is the precondition for below-floor culling: a culled
link's draw is simply never taken, and every other link still sees
exactly the sequence it would have seen with culling off.  A receiver
table creates the generators of all its new links in one batch
(:meth:`~repro.util.rng.RngStreams.substreams`); each is the generator
its link would get alone.

In ``per_frame`` mode a link takes its draws from a block of
:data:`SHADOWING_BLOCK` values filled by one generator call
(:meth:`~repro.phy.propagation.LogNormalShadowing.shadowing_block`),
which holds exactly the values the same number of scalar draws would
give.  A link keeps its block for the channel's lifetime: a radio that
detaches (or moves) and comes back continues each of its links' streams
where they stopped, as if every draw had been taken one at a time.

Below-floor interference culling
--------------------------------

For every (sender, receiver) pair the channel derives the deterministic
mean received power (path loss only).  When that mean sits more than
``cull_margin_db`` below **both** the receiver's noise floor and its
carrier-sense threshold, the receiver is skipped entirely for the
sender's frames: no shadowing draw, no ``rx_power_mw`` entry, and
neither the ``on_air_start`` nor the ``on_air_end`` notification.  The
margin defaults to 6σ of the shadowing model (20 dB when σ = 0); the
``cull_margin_db`` argument (``ScenarioParams.cull_margin_db``) sets it
explicitly, and ``"off"`` disables culling — the reference the
equivalence tests compare against.  Culled notifications are counted in
the ``channel/culled_links`` counter, per frame.  The margin is the
channel's only execution setting.

Candidate generation
--------------------

The channel keeps a :class:`repro.phy.spatial.SpatialIndex` over its
attached radios and sweeps only the radios inside the sender's *reach
radius* — the provably sound cull boundary derived by
:meth:`repro.phy.propagation.LogNormalShadowing.reach_radius_m` from
the sender's transmit power, the weakest ``min(noise_floor, T_cs)``
threshold ever attached to the band, and the culling margin.  Every
radio the grid skips would have failed the cull test, and every
candidate still runs the exact cull test; grid skips are charged to
``channel/culled_links`` so the counter equals a full sweep's.
Candidates are sorted into attach order, which keeps the notification
order of a sweep over every attached radio.  With culling off the reach
radius is infinite and the grid returns every attached radio.  The
weakest threshold is never relaxed on detach (a stale, lower value only
enlarges the radius — sound, and it keeps detach O(1)).

Receiver tables
---------------

What a sender's frame reaches changes only when a radio attaches,
detaches, moves or changes its transmit power, so the channel runs the
grid query and the cull test once per such change, not once per frame.
Each sender has a receiver table, built at its first frame and kept
until invalidated: its cull survivors in attach order, each with the
link's linear mean power and its shadowing draw block, plus the counts
one frame adds to ``culled_links`` and ``spatial_skipped``.  A frame is
then a walk over the table: one draw, one multiply and one dict store
per receiver.  Attach, detach and any move drop every table;
:meth:`repro.phy.radio.Radio.set_tx_power_dbm` drops only that
sender's.  Receiver thresholds never invalidate a table: radio configs
are frozen (the radio itself reads them once, at construction), and a
sender's current power is the radio's own ``tx_power_dbm``.

The discipline is *cache, never re-derive*: a table holds exactly the
values the per-frame derivation would compute — the mean as
``dbm_to_mw(mean_rx_dbm(...))``, each frame's power as ``mean_mw *
db_to_ratio(offset)`` — so no result depends on when a table was built
(``tests/test_hotpath_equivalence.py`` rebuilds on every frame and
checks the goldens).

A frame's per-receiver ``on_air_start`` (and ``on_air_end``)
notifications all share one timestamp, so one engine event per frame
edge delivers them all, in attach order: 4 events per frame instead of
``2N + 2``.  Both edges go only to the radios still keyed in the
frame's ``rx_power_mw``, which a detach scrubs: a radio that leaves and
re-joins while a frame is on the air hears neither edge of that frame.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.phy.propagation import LogNormalShadowing
from repro.phy.spatial import SpatialIndex
from repro.sim.engine import Simulator
from repro.util.rng import RngStreams
from repro.util.units import db_block_to_ratios, dbm_to_mw

if TYPE_CHECKING:  # avoid a phy <-> mac import cycle; hints only
    from repro.mac.frames import Frame
    from repro.mac.timing import PhyTiming
    from repro.phy.radio import Radio

#: Valid values for the channel's ``shadowing_mode``.
SHADOWING_MODES = ("per_frame", "none")

#: Per-frame shadowing draws taken per generator call, per link.  Larger
#: blocks amortise the call further but hold more floats per link.
SHADOWING_BLOCK = 16

#: Propagation + CCA detection latency: a transmission becomes
#: observable at other radios only this long after it starts (and stops
#: being observable this long after it ends).  Without it, two stations
#: whose backoff counters expire in the same slot would serialize instead
#: of colliding (zero-latency carrier sense), and DCF would be
#: collision-free — wildly unphysical.  1 us approximates
#: aCCATime/propagation at WLAN ranges.
AIR_LATENCY_NS = 1_000

#: The thermal noise floor of every receiver (dBm): the -95 dBm the paper
#: quotes for 2.4 GHz WiFi.
NOISE_FLOOR_DBM = -95.0

#: Default margin as a multiple of the shadowing sigma.
CULL_SIGMA_FACTOR = 6.0

#: Default margin (dB) when the propagation model has no shadowing term.
#: With σ = 0 there is no randomness to guard against, but culled links
#: still drop their (deterministic) interference energy; 20 dB keeps each
#: culled contribution at ≤ 1 % of the receiver's noise floor.
CULL_DETERMINISTIC_MARGIN_DB = 20.0


def resolve_cull_margin_db(
    sigma_db: float, override: Union[float, str, None] = None
) -> Optional[float]:
    """Resolve the culling margin: an explicit override, else the default.

    Returns the margin in dB, or ``None`` when culling is disabled
    (``"off"``, case-insensitive, or any negative value).  With no
    override the default is ``6 * sigma_db`` (``20`` dB for a
    shadowing-free model).
    """
    value: Union[float, str, None] = override
    if value is None:
        if sigma_db > 0.0:
            return CULL_SIGMA_FACTOR * float(sigma_db)
        return CULL_DETERMINISTIC_MARGIN_DB
    if isinstance(value, str):
        if value.lower() == "off":
            return None
        value = float(value)  # a malformed margin should fail loudly
    margin = float(value)
    return None if margin < 0.0 else margin


class _ReceiverTable:
    """One sender's receivers, valid until the next topology or power change.

    ``entries`` holds ``(radio_id, mean_mw, draws)`` per cull survivor,
    in attach order: the link's linear mean power and its shadowing draw
    block (the list kept in ``Channel._link_draws``, refilled in place;
    ``None`` without shadowing).  ``culled`` is what each frame adds to
    ``links_culled``, ``skipped`` the part of it the grid never visited.
    """

    __slots__ = ("entries", "culled", "skipped")

    def __init__(
        self,
        entries: List[Tuple[int, float, Optional[List[float]]]],
        culled: int,
        skipped: int,
    ) -> None:
        self.entries = entries
        self.culled = culled
        self.skipped = skipped


class Transmission:
    """One frame in flight: who sent it, when it ends, and its per-radio power."""

    __slots__ = ("frame", "sender", "start_ns", "end_ns", "embedded", "rx_power_mw")

    def __init__(self, frame: "Frame", sender: "Radio", start_ns: int, end_ns: int):
        self.frame = frame
        self.sender = sender
        self.start_ns = start_ns
        self.end_ns = end_ns
        #: Whether the frame carries an embedded CO-MAP announcement, read
        #: once per frame rather than once per receiver.  The sender sets
        #: the flag while composing the frame, before it goes on the air.
        self.embedded = bool(frame.meta.get("embedded_announce"))
        #: Received power in mW at each listening radio, keyed by radio id.
        #: Radios culled below the noise floor have no entry — this dict is
        #: the authoritative set of radios that observe the transmission.
        self.rx_power_mw: Dict[int, float] = {}

    @property
    def duration_ns(self) -> int:
        """Airtime of the transmission."""
        return self.end_ns - self.start_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Transmission {self.frame.describe()} [{self.start_ns},{self.end_ns}]>"


class Channel:
    """Broadcast medium connecting all radios of one frequency band."""

    def __init__(
        self,
        sim: Simulator,
        propagation: LogNormalShadowing,
        timing: "PhyTiming",
        rngs: RngStreams,
        shadowing_mode: str = "per_frame",
        band: int = 0,
        cull_margin_db: Union[float, str, None] = None,
    ) -> None:
        if shadowing_mode not in SHADOWING_MODES:
            raise ValueError(
                f"shadowing_mode must be one of {SHADOWING_MODES}, got {shadowing_mode!r}"
            )
        self.sim = sim
        self.propagation = propagation
        self.timing = timing
        self.shadowing_mode = shadowing_mode
        #: Frequency band index.  Radios only interact when they share a
        #: Channel object, so non-overlapping bands are modeled as separate
        #: channels — matching the paper's floor where "only the ones using
        #: the same frequency band are considered".
        self.band = int(band)
        #: :data:`AIR_LATENCY_NS`, for the callers that time against it.
        self.air_latency_ns = AIR_LATENCY_NS
        self._rngs = rngs
        #: Resolved culling margin in dB, or None with culling off.
        self.cull_margin_db = resolve_cull_margin_db(
            propagation.sigma_db, cull_margin_db
        )
        #: Attached radios, keyed by id.  Insertion order *is* attach
        #: order — the dict doubles as the ordered radio store, so
        #: detach is an O(1) pop that preserves the iteration order of
        #: every remaining radio (pinned by tests/test_spatial.py).
        self._radios_by_id: Dict[int, "Radio"] = {}
        #: Monotone per-radio attach sequence numbers: candidate sets
        #: sort by these to restore attach-order delivery.  A
        #: re-attached radio gets a fresh (higher) number, matching its
        #: new position at the end of the dict's insertion order.
        self._attach_seq: Dict[int, int] = {}
        self._next_attach_seq = 0
        self._active: List[Transmission] = []
        #: The candidate grid (see repro.phy.spatial), built lazily at
        #: the first transmission (cell sizing needs the topology
        #: extent) or eagerly via :meth:`prepare_spatial`.
        self._spatial: Optional[SpatialIndex] = None
        #: Weakest ``min(noise_floor, T_cs)`` ever attached to the band:
        #: the threshold the reach radius must stay sound against.
        #: Monotone non-increasing — never relaxed on detach (a stale,
        #: lower value only enlarges radii; see the module docstring).
        self._weakest_threshold_dbm = math.inf
        #: Strongest attach-time transmit power (cell-size heuristic).
        self._max_tx_power_dbm = -math.inf
        self.spatial_queries = 0
        self.spatial_candidates = 0
        self.spatial_skipped = 0
        #: Receiver table per sender id; dropped on topology and power
        #: changes (see the module docstring).
        self._tables: Dict[int, _ReceiverTable] = {}
        #: ``per_frame`` mode: each link's not yet used shadowing draws as
        #: linear ratios, next one last.  Semantic state, not a perf
        #: cache, and never dropped: see the module docstring.
        self._link_draws: Dict[Tuple[int, int], List[float]] = {}
        #: Counters for diagnostics and tests.
        self.frames_sent = 0
        self.links_culled = 0

    def counters(self) -> Dict[str, int]:
        """This band's counters.

        :meth:`repro.net.network.Network.counters` reports them under
        ``channel/``, summed over the bands, so a multi-band network's
        snapshot reports medium-wide totals.  ``culled_links`` counts
        per-radio notifications skipped by below-floor culling.
        Settings are not counters: read the margin from
        :attr:`cull_margin_db` and the grid's cell size from
        :attr:`spatial_index`.
        """
        grid = self._spatial
        return {
            "frames_sent": self.frames_sent,
            "active_transmissions": len(self._active),
            "radios": len(self._radios_by_id),
            "culled_links": self.links_culled,
            # Candidate-grid activity.  One query per receiver-table
            # build: candidates = radios the queries returned (after
            # sender exclusion).  Per frame: skipped = attached radios
            # the frame's table never visited.  Every skipped radio is a
            # link the cull test would have rejected, and skips are
            # charged into ``culled_links`` too, so that counter equals a
            # full sweep's.
            "spatial_queries": self.spatial_queries,
            "spatial_candidates": self.spatial_candidates,
            "spatial_skipped": self.spatial_skipped,
            "spatial_cells": grid.cell_count if grid is not None else 0,
        }

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------
    def attach(self, radio: "Radio") -> None:
        """Register a radio with the medium.

        Mid-run attach contract: a radio attached while transmissions are
        in flight does **not** observe them.  Both air edges are delivered
        only to radios keyed in the transmission's ``rx_power_mw``, so it
        receives no retroactive ``on_air_start`` (its CCA never saw the
        frame begin) and no spurious ``on_air_end`` — also when it left
        and re-joined within a frame's air latency.  It starts
        participating with the first transmission that begins after the
        attach.
        """
        if radio.radio_id in self._radios_by_id:
            raise ValueError(f"duplicate radio id {radio.radio_id}")
        self._radios_by_id[radio.radio_id] = radio
        self._tables.clear()  # every sender may reach the newcomer
        self._attach_seq[radio.radio_id] = self._next_attach_seq
        self._next_attach_seq += 1
        threshold = min(NOISE_FLOOR_DBM, radio.config.cs_threshold_dbm)
        if threshold < self._weakest_threshold_dbm:
            self._weakest_threshold_dbm = threshold
        if radio.tx_power_dbm > self._max_tx_power_dbm:
            self._max_tx_power_dbm = radio.tx_power_dbm
        if self._spatial is not None:
            position = radio.position
            self._spatial.add(radio.radio_id, position.x, position.y)
        radio.on_attached()

    def detach(self, radio: "Radio") -> None:
        """Remove a radio from the medium (the node left the network).

        Mid-run detach contract, mirroring :meth:`attach`: the radio is
        scrubbed from every in-flight transmission's observer set, so it
        will never receive an ``on_air_end`` for a frame it stopped
        listening to — nor any notification for frames that start after
        the detach.  Every receiver table is dropped (it may re-attach
        somewhere else).  The radio's own
        :meth:`repro.phy.radio.Radio.on_detached` resets its reception
        state (in-air frames, CCA, lock).
        """
        if self._radios_by_id.pop(radio.radio_id, None) is None:
            raise ValueError(f"radio id {radio.radio_id} is not attached")
        # O(1) departure: the ordered dict pop above removed the radio
        # without disturbing any other radio's iteration position.  The
        # attach-seq entry goes with it; the weakest-threshold floor is
        # deliberately *not* recomputed (see the module docstring — a
        # stale, lower floor is still sound).
        del self._attach_seq[radio.radio_id]
        if self._spatial is not None:
            self._spatial.remove(radio.radio_id)
        for tx in self._active:
            tx.rx_power_mw.pop(radio.radio_id, None)
        self._tables.clear()
        radio.on_detached()

    @property
    def radios(self) -> List["Radio"]:
        """All attached radios, in attach order (a fresh copy per call).

        Safe to mutate or hold across attach/detach.
        """
        return list(self._radios_by_id.values())

    def on_radio_moved(self, radio_id: int) -> None:
        """Invalidate everything position-dependent for ``radio_id``.

        Called by :meth:`repro.phy.radio.Radio.move_to`: drops every
        receiver table (the radio's distance to every sender changed)
        and rehashes it in the candidate grid.  Its links' shadowing
        draws continue where they stopped.
        """
        self._tables.clear()
        if self._spatial is not None:
            radio = self._radios_by_id.get(radio_id)
            if radio is not None:  # detach scrubs the grid itself
                position = radio.position  # move_to updated it already
                self._spatial.move(radio_id, position.x, position.y)

    def on_radio_power_changed(self, radio_id: int) -> None:
        """Invalidate everything tx-power-dependent for ``radio_id``.

        Called by :meth:`repro.phy.radio.Radio.set_tx_power_dbm` (the
        C-SR coordinated power capping): drops the radio's own receiver
        table, whose means and reach encode the old transmit power.
        Other senders' tables and the grid position are unchanged.
        """
        self._tables.pop(radio_id, None)

    @property
    def active_transmissions(self) -> List[Transmission]:
        """Transmissions currently in the air."""
        return list(self._active)

    # ------------------------------------------------------------------
    # Candidate generation (see repro.phy.spatial)
    # ------------------------------------------------------------------
    @property
    def spatial_index(self) -> Optional[SpatialIndex]:
        """The candidate grid, or None before it is built."""
        return self._spatial

    def prepare_spatial(self) -> Optional[SpatialIndex]:
        """Eagerly build the grid (idempotent; None while nothing is attached).

        :meth:`repro.net.network.Network.finalize` calls this once the
        topology is complete so the cell-size heuristic sees the full
        extent and the counters report the grid before traffic starts.
        Without it the first transmission builds the grid lazily from
        whatever is attached at that point — still sound (cell size is
        perf-only), possibly less well sized.
        """
        return self._ensure_spatial()

    def _ensure_spatial(self) -> Optional[SpatialIndex]:
        grid = self._spatial
        if grid is not None:
            return grid
        radios = self._radios_by_id
        if not radios:
            return None  # defer until something is attached
        grid = SpatialIndex(self._resolve_cell_size())
        for radio in radios.values():
            position = radio.position
            grid.add(radio.radio_id, position.x, position.y)
        self._spatial = grid
        return grid

    def _resolve_cell_size(self) -> float:
        """Cell edge for the grid: reach radius, clamped to the extent.

        A cell the size of the strongest transmitter's reach radius
        makes a query touch ~9 cells regardless of N; clamping to the
        topology's larger axis span keeps a floor smaller than the
        radius from degenerating below one cell of useful resolution
        (it becomes a 1–2 cell grid, i.e. a sweep over every radio).
        With culling off every query is unbounded and any positive edge
        works.  Frozen at first build: radios attached later may shift
        the extent or the power maximum, which only affects constants,
        never soundness — per-sender query radii always come from
        :meth:`_reach_radius`.
        """
        reach = self._reach_radius(self._max_tx_power_dbm)
        xs = [r.position.x for r in self._radios_by_id.values()]
        ys = [r.position.y for r in self._radios_by_id.values()]
        extent = max(max(xs) - min(xs), max(ys) - min(ys))
        cell = min(reach, extent) if extent > 0.0 else reach
        # Floored at the reference distance: a near-zero extent would
        # overflow the cell index, and culling off with every radio at
        # one point leaves no finite size at all.
        floor_m = self.propagation.reference_distance_m
        return max(cell, floor_m) if math.isfinite(cell) else floor_m

    def _reach_radius(self, tx_power_dbm: float) -> float:
        """Sound culling radius for a transmit power.

        ``math.inf`` with culling off: no radio can be skipped.
        """
        if self.cull_margin_db is None:
            return math.inf
        return self.propagation.reach_radius_m(
            tx_power_dbm, self._weakest_threshold_dbm, self.cull_margin_db
        )

    def _spatial_candidates(self, sender: "Radio") -> List["Radio"]:
        """Candidate receivers for one receiver-table build, in attach order.

        A provable superset of the cull survivors (every skipped radio
        fails ``mean + margin >= min(noise, T_cs)``); the caller still
        runs the exact cull test per candidate.  Sorting by attach
        sequence gives the delivery order of a sweep over every
        attached radio, so outcomes do not depend on grid layout.
        """
        grid = self._spatial or self._ensure_spatial()
        position = sender.position
        ids = grid.query_disk(
            position.x, position.y, self._reach_radius(sender.tx_power_dbm)
        )
        self.spatial_queries += 1
        sender_id = sender.radio_id
        ids = [i for i in ids if i != sender_id]
        ids.sort(key=self._attach_seq.__getitem__)
        self.spatial_candidates += len(ids)
        by_id = self._radios_by_id
        return [by_id[i] for i in ids]

    # ------------------------------------------------------------------
    # Transmission lifecycle
    # ------------------------------------------------------------------
    def transmit(self, sender: "Radio", frame: "Frame") -> Transmission:
        """Put ``frame`` on the air from ``sender``; returns the record.

        Called by :meth:`repro.phy.radio.Radio.start_transmission` only.
        Radios whose mean received power sits ``cull_margin_db`` below
        both their noise floor and their carrier-sense threshold are
        skipped entirely (no draw, no ``rx_power_mw`` entry, no events).
        """
        duration = self.timing.frame_airtime_ns(frame)
        tx = Transmission(frame, sender, self.sim.now, self.sim.now + duration)
        self._active.append(tx)
        self.frames_sent += 1
        table = self._tables.get(sender.radio_id) or self._build_table(sender)
        rx_power_mw = tx.rx_power_mw
        if self.shadowing_mode == "none":
            for radio_id, mean_mw, _ in table.entries:
                rx_power_mw[radio_id] = mean_mw
        else:
            for radio_id, mean_mw, draws in table.entries:
                if not draws:
                    self._fill_draws((sender.radio_id, radio_id), draws)
                rx_power_mw[radio_id] = mean_mw * draws.pop()
        if rx_power_mw:
            self.sim.schedule(AIR_LATENCY_NS, self._deliver_air_start, tx)
        self.spatial_skipped += table.skipped
        self.links_culled += table.culled
        self.sim.schedule(duration, self._end_transmission, tx)
        return tx

    def _build_table(self, sender: "Radio") -> _ReceiverTable:
        """Derive ``sender``'s receiver table and keep it until invalidated.

        The one grid query and cull test per table: each candidate's
        mean is ``mean_rx_dbm`` at the current distance and transmit
        power, tested against the receiver's thresholds and stored as
        ``dbm_to_mw`` of it.
        """
        candidates = self._spatial_candidates(sender)
        # The radios the grid skipped are exactly radios the cull test
        # below would have rejected, so they count as culled.
        skipped = len(self._radios_by_id) - 1 - len(candidates)
        culled = skipped
        margin = self.cull_margin_db
        mean_rx_dbm = self.propagation.mean_rx_dbm
        tx_power_dbm = sender.tx_power_dbm
        position = sender.position
        sender_id = sender.radio_id
        link_draws = self._link_draws if self.shadowing_mode == "per_frame" else None
        new_links = []
        entries = []
        for radio in candidates:
            mean_dbm = mean_rx_dbm(tx_power_dbm, position.distance_to(radio.position))
            if margin is not None:
                if (
                    mean_dbm + margin < NOISE_FLOOR_DBM
                    and mean_dbm + margin < radio.config.cs_threshold_dbm
                ):
                    culled += 1
                    continue
            radio_id = radio.radio_id
            draws = None
            if link_draws is not None:
                draws = link_draws.get((sender_id, radio_id))
                if draws is None:
                    draws = link_draws[sender_id, radio_id] = []
                    new_links.append(radio_id)
            entries.append((radio_id, dbm_to_mw(mean_dbm), draws))
        if new_links:
            # Every new link is filled by the frame this table is built for,
            # so seeding their generators here, in one batch, changes no draw.
            self._rngs.substreams(("shadowing", self.band, sender_id), new_links)
        table = self._tables[sender_id] = _ReceiverTable(entries, culled, skipped)
        return table

    def _end_transmission(self, tx: Transmission) -> None:
        """Remove a finished transmission and notify its observers.

        Only radios keyed in ``tx.rx_power_mw`` are notified.  Radios
        culled at transmit time and radios attached while the frame was
        in flight never hear about it (see :meth:`attach` for the mid-run
        attach contract).
        """
        self._active.remove(tx)
        if tx.rx_power_mw:
            self.sim.schedule(AIR_LATENCY_NS, self._deliver_air_end, tx)
        tx.sender.on_own_tx_end(tx)

    def _deliver_air_start(self, tx: Transmission) -> None:
        """Start-of-air delivery to every receiver of a frame, in attach order.

        Only radios still keyed in ``tx.rx_power_mw``: one detached since
        :meth:`transmit` was scrubbed from it, and must not hear the frame
        begin even if it has re-joined since.
        """
        radios_by_id = self._radios_by_id
        for radio_id, power_mw in tx.rx_power_mw.items():
            radios_by_id[radio_id].on_air_start(tx, power_mw)

    def _deliver_air_end(self, tx: Transmission) -> None:
        """End-of-air delivery to every radio that saw the frame start."""
        radios_by_id = self._radios_by_id
        for radio_id in tx.rx_power_mw:
            radio = radios_by_id.get(radio_id)
            if radio is not None:  # detached radios never hear the end
                radio.on_air_end(tx)

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _link_rng(self, key: Tuple[int, int]):
        """The ordered pair's private shadowing generator.

        Seeded via ``derive_seed(root, "shadowing", band, tx, rx)``, so
        the stream depends only on the link's identity — never on how
        many draws other links consumed or whether they were culled.
        """
        return self._rngs.substream("shadowing", self.band, *key)

    def _fill_draws(self, key: Tuple[int, int], draws: List[float]) -> None:
        """Refill the link's empty draw block, in place, with its next offsets.

        As linear ratios, so a frame's power is ``mean_mw *
        db_to_ratio(offset)``: one multiply per frame instead of a ``10 **``
        of the recomposed dB sum.  The link's generator was created just
        before its first fill, by the first receiver table that held the
        link, in one batch with that table's other new links
        (:meth:`~repro.util.rng.RngStreams.substreams`).
        """
        offsets = self.propagation.shadowing_block(self._link_rng(key), SHADOWING_BLOCK)
        # Reversed, so that pop() takes them in stream order.
        draws.extend(db_block_to_ratios(reversed(offsets)))
