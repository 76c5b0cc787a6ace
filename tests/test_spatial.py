"""The hash-grid spatial index and its channel integration.

The grid is the channel's only candidate generator.  Covered here:

* :class:`repro.phy.spatial.SpatialIndex` unit behavior — membership
  errors, empty-cell cleanup, degenerate huge and infinite radii;
* hypothesis properties: grid membership after arbitrary
  attach/move/detach sequences equals brute-force recomputation, and
  ``query_disk`` always returns a superset of the true in-disk members;
* reach-radius soundness: no radio outside the query disk can survive
  the exact cull test, across alpha / tx power / margin / threshold;
* the brute-force candidate oracle: on every frame of randomized
  topologies with mobility, detach/re-attach and C-SR power changes,
  at cull margins off / 0 / default, the frame reaches exactly the
  attached radios whose mean passes the cull test, in attach order,
  and ``culled_links`` grows by the brute-force count; at every
  receiver-table rebuild every survivor is a candidate and candidates
  come in attach order; a rebuild follows each move, churn and power
  change, and only those;
* the O(1) detach: removal preserves attach iteration order, re-attach
  appends;
* copy discipline: ``Channel.radios`` copies;
* the ``spatial_*`` counters, the cull margin bounding the reach
  radius, and archived manifests carrying a ``spatial`` block.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.manifest import RunManifest, build_manifest, validate_manifest
from repro.phy.channel import NOISE_FLOOR_DBM
from repro.phy.propagation import REACH_RADIUS_SLACK, LogNormalShadowing
from repro.phy.radio import Radio, RadioConfig
from repro.phy.spatial import SpatialIndex
from repro.util.geometry import Point

from tests.conftest import StubMac, build_phy_world

NEAR = (0.0, 0.0)
MID = (10.0, 0.0)
FAR = (5_000.0, 0.0)


# ----------------------------------------------------------------------
# SpatialIndex unit behavior
# ----------------------------------------------------------------------
class TestSpatialIndex:
    def test_rejects_nonpositive_cell(self):
        with pytest.raises(ValueError):
            SpatialIndex(0.0)
        with pytest.raises(ValueError):
            SpatialIndex(-5.0)

    def test_add_remove_membership(self):
        grid = SpatialIndex(10.0)
        grid.add(1, 3.0, 4.0)
        grid.add(2, -3.0, 4.0)
        assert len(grid) == 2
        assert 1 in grid and 2 in grid
        assert grid.cell_count == 2  # negative x floors into its own cell
        grid.remove(1)
        assert 1 not in grid
        assert grid.cell_count == 1

    def test_double_add_and_unknown_remove_fail_loudly(self):
        grid = SpatialIndex(10.0)
        grid.add(1, 0.0, 0.0)
        with pytest.raises(ValueError):
            grid.add(1, 5.0, 5.0)
        with pytest.raises(ValueError):
            grid.remove(99)
        with pytest.raises(ValueError):
            grid.move(99, 0.0, 0.0)

    def test_empty_cells_are_dropped(self):
        grid = SpatialIndex(10.0)
        grid.add(1, 5.0, 5.0)
        grid.move(1, 95.0, 5.0)
        assert grid.cell_count == 1
        grid.remove(1)
        assert grid.cell_count == 0

    def test_query_disk_superset_and_exclusion(self):
        grid = SpatialIndex(10.0)
        grid.add(1, 0.0, 0.0)
        grid.add(2, 25.0, 0.0)
        grid.add(3, 500.0, 500.0)
        near = grid.query_disk(0.0, 0.0, 30.0)
        assert set(near) >= {1, 2}
        assert 3 not in near

    def test_huge_radius_iterates_nonempty_cells(self):
        # A query box of ~10^16 cells must not cost O(box area).
        grid = SpatialIndex(1.0)
        grid.add(1, 0.0, 0.0)
        grid.add(2, 1e8, 1e8)
        out = grid.query_disk(0.0, 0.0, 1e9)
        assert sorted(out) == [1, 2]

    def test_infinite_radius_returns_every_member(self):
        # Culling off: the reach radius is unbounded.
        grid = SpatialIndex(1.0)
        for member, (x, y) in enumerate([(0.0, 0.0), (-1e12, 3.0), (5.0, 1e15)]):
            grid.add(member, x, y)
        assert sorted(grid.query_disk(7.0, 7.0, math.inf)) == [0, 1, 2]

    def test_rim_member_survives_rounding(self):
        # y - radius rounds to 0.0 while the member sits just below it.
        grid = SpatialIndex(1.0)
        grid.add(0, 0.0, -1.7346264713681363e-283)
        assert grid.query_disk(0.0, 1.0, 1.0) == [0]


# ----------------------------------------------------------------------
# Hypothesis: grid == brute force under arbitrary mutation sequences
# ----------------------------------------------------------------------
coord = st.floats(
    min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False
)
ops_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=7), coord, coord),
    min_size=1,
    max_size=60,
)


class TestGridProperties:
    @settings(max_examples=60, deadline=None)
    @given(ops_strategy, st.floats(min_value=0.5, max_value=500.0))
    def test_membership_matches_brute_force(self, ops, cell):
        grid = SpatialIndex(cell)
        truth = {}
        for member, x, y in ops:
            if member in truth:
                # Alternate move/remove by parity of the count so both
                # paths are exercised against the oracle.
                if (x > y) == (member % 2 == 0):
                    grid.move(member, x, y)
                    truth[member] = (x, y)
                else:
                    grid.remove(member)
                    del truth[member]
            else:
                grid.add(member, x, y)
                truth[member] = (x, y)
        assert len(grid) == len(truth)
        cells = grid.members()
        assert set(cells) == set(truth)
        for member, (x, y) in truth.items():
            assert cells[member] == (
                math.floor(x / cell),
                math.floor(y / cell),
            )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(coord, coord), min_size=1, max_size=40),
        st.tuples(coord, coord),
        st.floats(min_value=0.0, max_value=2e4),
        st.floats(min_value=0.5, max_value=500.0),
    )
    def test_query_disk_is_superset_of_disk(self, points, center, radius, cell):
        grid = SpatialIndex(cell)
        for i, (x, y) in enumerate(points):
            grid.add(i, x, y)
        cx, cy = center
        hits = set(grid.query_disk(cx, cy, radius))
        for i, (x, y) in enumerate(points):
            if math.hypot(x - cx, y - cy) <= radius:
                assert i in hits  # never misses a true in-disk member
        assert hits <= set(range(len(points)))  # never invents members


# ----------------------------------------------------------------------
# Reach-radius soundness
# ----------------------------------------------------------------------
class TestReachRadius:
    def test_rejects_negative_margin(self):
        prop = LogNormalShadowing(alpha=3.3, sigma_db=0.0)
        with pytest.raises(ValueError):
            prop.reach_radius_m(20.0, -80.0, -1.0)

    def test_floors_at_reference_distance(self):
        # A threshold above the strongest possible mean culls everyone;
        # the radius still stays a valid (positive) query disk.
        prop = LogNormalShadowing(alpha=3.3, sigma_db=0.0)
        radius = prop.reach_radius_m(0.0, 50.0, 0.0)
        assert radius >= prop.reference_distance_m
        assert radius == pytest.approx(
            prop.reference_distance_m * (1.0 + REACH_RADIUS_SLACK)
        )

    @settings(max_examples=120, deadline=None)
    @given(
        st.floats(min_value=2.0, max_value=4.5),
        st.floats(min_value=-10.0, max_value=30.0),
        st.floats(min_value=-100.0, max_value=-60.0),
        st.floats(min_value=0.0, max_value=40.0),
        st.floats(min_value=1e-6, max_value=10.0),
    )
    def test_no_survivor_beyond_radius(self, alpha, tx, threshold, margin, overshoot):
        # The analytical core of the equivalence proof: at any distance
        # strictly beyond the reach radius the mean power (the cull
        # test's input — shadowing is additive and symmetric around it)
        # sits more than ``margin`` below the threshold, so the exact
        # scalar test `mean + margin >= threshold` must fail.
        prop = LogNormalShadowing(alpha=alpha, sigma_db=0.0)
        radius = prop.reach_radius_m(tx, threshold, margin)
        d = radius * (1.0 + overshoot)
        assert prop.mean_rx_dbm(tx, d) + margin < threshold

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=8_000.0),
                st.floats(min_value=0.0, max_value=8_000.0),
            ),
            min_size=2,
            max_size=12,
        ),
        st.floats(min_value=0.0, max_value=30.0),
    )
    def test_grid_never_loses_a_survivor(self, positions, margin):
        # End-to-end soundness on randomized sparse topologies: the
        # receivers that hear a frame are exactly the brute-force cull
        # survivors, and every other radio counts as culled.
        world = build_phy_world(positions, cull_margin_db=margin)
        sender = world.radios[0]
        survivors = brute_force_survivors(world.channel, sender)
        tx = sender.start_transmission(world.data_frame(0, 1))
        world.sim.run()
        assert list(tx.rx_power_mw) == survivors
        assert world.channel.links_culled == len(positions) - 1 - len(survivors)


# ----------------------------------------------------------------------
# The brute-force candidate oracle
# ----------------------------------------------------------------------
def brute_force_survivors(channel, sender):
    """Ids of attached radios whose mean passes the cull test, attach order."""
    margin = channel.cull_margin_db
    survivors = []
    for radio in channel.radios:
        if radio is sender:
            continue
        if margin is not None:
            mean_dbm = channel.propagation.mean_rx_dbm(
                sender.tx_power_dbm,
                sender.position.distance_to(radio.position),
            )
            if (
                mean_dbm + margin < NOISE_FLOOR_DBM
                and mean_dbm + margin < radio.config.cs_threshold_dbm
            ):
                continue
        survivors.append(radio.radio_id)
    return survivors


def every_attached_radio(channel, sender):
    """A sweep over every attached radio: the grid's reference generator.

    Patched over ``Channel._spatial_candidates`` by the differential
    tests, it reproduces a channel without a grid.
    """
    return [radio for radio in channel.radios if radio is not sender]


class RebuildRecorder:
    """Records every receiver-table rebuild of one channel.

    Wraps the channel's candidate generator, which runs once per
    rebuild, and checks each candidate list against the brute-force
    oracle: every survivor is a candidate, and candidates come in attach
    order.  ``senders`` lists the rebuilding senders' ids in order.
    """

    def __init__(self, channel):
        self.channel = channel
        self.senders = []
        self._generate = channel._spatial_candidates
        channel._spatial_candidates = self._recording

    def _recording(self, sender):
        candidates = self._generate(sender)
        ids = [c.radio_id for c in candidates]
        attach_order = [radio.radio_id for radio in self.channel.radios]
        assert set(brute_force_survivors(self.channel, sender)) <= set(ids)
        assert ids == sorted(ids, key=attach_order.index)
        self.senders.append(sender.radio_id)
        return candidates


def transmit_checked(world, sender, dst):
    """Send one frame and check what it reached against the oracle."""
    channel = world.channel
    survivors = brute_force_survivors(channel, sender)
    attached = len(channel.radios)
    culled_before = channel.links_culled
    tx = sender.start_transmission(world.data_frame(sender.radio_id, dst))
    world.sim.run()
    assert list(tx.rx_power_mw) == survivors  # attach order included
    assert channel.links_culled - culled_before == attached - 1 - len(survivors)


# 0–2 km: the cull fires beyond ~760 m, and cells hold several radios.
_city = st.floats(
    min_value=0.0, max_value=2_000.0, allow_nan=False, allow_infinity=False
)
_event = st.tuples(
    st.sampled_from(["move", "churn", "power"]),
    st.integers(min_value=0, max_value=6),
    _city,
    _city,
    st.sampled_from([0.0, 10.0, 20.0]),
)


class TestCandidateOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        positions=st.lists(
            st.tuples(_city, _city), min_size=2, max_size=7, unique=True
        ),
        order=st.permutations(range(7)),
        events=st.lists(_event, max_size=6),
        margin=st.sampled_from(["off", 0.0, None]),
        sigma_db=st.sampled_from([0.0, 4.0]),
    )
    def test_every_frame_matches_brute_force(
        self, positions, order, events, margin, sigma_db
    ):
        world = build_phy_world(
            positions, sigma_db=sigma_db, shadowing_mode="per_frame",
            cull_margin_db=margin,
        )
        channel = world.channel
        rebuilds = RebuildRecorder(channel)
        # Re-attach in a drawn order so attach order differs from id order.
        for index in order:
            if index < len(world.radios):
                channel.detach(world.radios[index])
                channel.attach(world.radios[index])
        for event in [None] + events:
            if event is not None:
                kind, index, x, y, power = event
                radio = world.radios[index % len(world.radios)]
                if kind == "move":
                    radio.move_to(Point(x, y))
                elif kind == "power":  # C-SR power capping
                    changed = power != radio.tx_power_dbm
                    radio.set_tx_power_dbm(power)
                elif radio.attached:
                    channel.detach(radio)
                else:
                    channel.attach(radio)
            attached = channel.radios
            # Every sender builds its first table, and a move or a churn
            # drops every table; a power change drops only the sender's.
            expected = [sender.radio_id for sender in attached]
            if event is not None and kind == "power":
                expected = [i for i in expected if changed and i == radio.radio_id]
            before = len(rebuilds.senders)
            for i, sender in enumerate(attached):
                transmit_checked(world, sender, attached[i - 1].radio_id)
            assert rebuilds.senders[before:] == expected
        assert channel.spatial_queries == len(rebuilds.senders)


# ----------------------------------------------------------------------
# O(1) detach + iteration-order regression (satellite)
# ----------------------------------------------------------------------
class TestDetachOrder:
    def test_detach_preserves_attach_order(self):
        world = build_phy_world([NEAR, MID, (20.0, 0.0), (30.0, 0.0)])
        channel = world.channel
        assert [r.radio_id for r in channel.radios] == [0, 1, 2, 3]
        channel.detach(world.radios[1])
        assert [r.radio_id for r in channel.radios] == [0, 2, 3]
        channel.detach(world.radios[3])
        assert [r.radio_id for r in channel.radios] == [0, 2]

    def test_reattach_appends_at_end(self):
        world = build_phy_world([NEAR, MID, (20.0, 0.0)])
        channel = world.channel
        channel.detach(world.radios[0])
        channel.attach(world.radios[0])
        assert [r.radio_id for r in channel.radios] == [1, 2, 0]

    def test_detach_keeps_grid_consistent(self):
        world = build_phy_world([NEAR, MID, FAR])
        grid = world.channel.prepare_spatial()
        assert len(grid) == 3
        world.channel.detach(world.radios[2])
        assert len(grid) == 2
        assert 2 not in grid


# ----------------------------------------------------------------------
# Copy discipline: radios copies
# ----------------------------------------------------------------------
class TestRadiosAccessors:
    def test_radios_property_copies(self):
        world = build_phy_world([NEAR, MID])
        snapshot = world.channel.radios
        assert snapshot is not world.channel.radios  # fresh list per call
        world.channel.detach(world.radios[1])
        assert len(snapshot) == 2  # caller's copy unaffected


# ----------------------------------------------------------------------
# Channel integration: candidates, counters, gating
# ----------------------------------------------------------------------
class TestChannelSpatial:
    def test_candidates_in_attach_order(self):
        world = build_phy_world([NEAR, (30.0, 0.0), (20.0, 0.0), (10.0, 0.0)])
        channel = world.channel
        channel.detach(world.radios[1])
        channel.attach(world.radios[1])  # now last in attach order
        got = channel._spatial_candidates(world.radios[0])
        assert [r.radio_id for r in got] == [2, 3, 1]

    def test_counters_tick_and_culled_identity(self):
        world = build_phy_world([NEAR, MID, FAR])
        world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run()
        counters = world.channel.counters()
        assert counters["spatial_queries"] == 1
        assert counters["spatial_candidates"] == 1  # FAR never visited
        assert counters["spatial_skipped"] == 1
        assert counters["spatial_cells"] >= 1
        assert world.channel.spatial_index.cell_size_m > 0.0
        # The grid-skipped radio is still charged as a culled link.
        assert counters["culled_links"] == 1

    def test_margin_bounds_reach_radius(self):
        # The cull margin is the candidate generator's only setting.
        world = build_phy_world([NEAR, MID, FAR], cull_margin_db="off")
        assert world.channel._reach_radius(20.0) == math.inf
        world = build_phy_world([NEAR, MID, FAR], cull_margin_db=40.0)
        assert world.channel._reach_radius(20.0) < FAR[0]

    def test_inert_without_cull_margin(self):
        # With culling off the disk is unbounded: the grid still runs
        # but skips nothing, and every radio hears the frame.
        world = build_phy_world([NEAR, MID, FAR], cull_margin_db="off")
        assert world.channel.prepare_spatial() is not None
        tx = world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run()
        assert set(tx.rx_power_mw) == {1, 2}
        counters = world.channel.counters()
        assert counters["spatial_queries"] == 1
        assert counters["spatial_candidates"] == 2
        assert counters["spatial_skipped"] == counters["culled_links"] == 0

    @pytest.mark.parametrize("margin", [None, "off"])
    def test_near_coincident_radios_get_a_usable_cell(self, margin):
        # A subnormal extent must not become the cell edge (x / cell
        # would overflow), nor may an unbounded reach.
        world = build_phy_world([NEAR, (0.0, 2.2250738585e-313)], cull_margin_db=margin)
        grid = world.channel.prepare_spatial()
        assert grid.cell_size_m == world.channel.propagation.reference_distance_m
        tx = world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run()
        assert list(tx.rx_power_mw) == [1]

    def test_prepare_spatial_idempotent(self):
        world = build_phy_world([NEAR, MID])
        grid = world.channel.prepare_spatial()
        assert grid is not None
        assert world.channel.prepare_spatial() is grid
        assert world.channel.spatial_index is grid

    def test_move_rehashes_and_uncults(self):
        world = build_phy_world([NEAR, MID, FAR])
        world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run()
        world.radios[2].move_to(Point(20.0, 0.0))
        tx = world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run()
        assert 2 in tx.rx_power_mw

    def test_midrun_attach_joins_grid(self):
        world = build_phy_world([NEAR, MID])
        world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run()
        late = Radio(
            radio_id=99,
            position=Point(5.0, 0.0),
            config=RadioConfig(tx_power_dbm=20.0, cs_threshold_dbm=-80.0),
            channel=world.channel,
        )
        late.bind_mac(StubMac())
        tx = world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run()
        assert 99 in tx.rx_power_mw


# ----------------------------------------------------------------------
# Archived manifests carrying a spatial block
# ----------------------------------------------------------------------
class TestManifestSpatialBlock:
    def _manifest_kwargs(self):
        return dict(
            label="t", tasks=[], jobs=1, wall_s=0.0, params={}, seeds=[],
            counters={},
        )

    def test_manifest_roundtrip_with_spatial(self):
        # Nothing writes the block any more; archived manifests that
        # carry one still validate and load, without it.
        manifest = build_manifest(**self._manifest_kwargs())
        payload = manifest.to_dict()
        assert "spatial" not in payload
        payload["spatial"] = {
            "cell_size_m": {"count": 1, "min": 30.0, "max": 30.0, "mean": 30.0},
            "reach_radius_m": {"count": 1, "min": 250.0, "max": 250.0, "mean": 250.0},
        }
        validate_manifest(payload)
        assert RunManifest.from_dict(payload) == manifest

    def test_old_manifests_still_validate(self):
        # Archived manifests predate the spatial field entirely.
        manifest = build_manifest(**self._manifest_kwargs())
        payload = manifest.to_dict()
        validate_manifest(payload)
        assert RunManifest.from_dict(payload) == manifest
        # Manifests written while the grid could be switched off carry
        # an ``enabled`` flag; they load unchanged otherwise.
        for version in (1, 2):
            payload = dict(
                manifest.to_dict(), version=version,
                spatial={"enabled": False},
            )
            validate_manifest(payload)
            assert RunManifest.from_dict(payload) == manifest
