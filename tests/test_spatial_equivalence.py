"""Grid candidate generation against a sweep over every attached radio.

The hash grid is the channel's only candidate generator, and it must be
a pure execution choice: per-node counters, ``rx_power_mw`` maps,
per-flow goodput and ``culled_links`` equal what a sweep over every
attached radio gives.  The sweep survives only here, patched over
``Channel._spatial_candidates`` by :func:`without_grid`, as the oracle:

* a **differential harness**: hypothesis-randomized sparse topologies
  (spread wide enough that culling actually fires), including mobility
  and detach/re-attach, run with the grid and with the sweep;
* **margin matrix**: the same comparison at non-default cull margins,
  on PHY worlds and on a full-MAC scenario;
* **golden equivalence**: the sweep reproduces the pinned Fig-8 /
  Fig-10 / sparse-floor fixtures the grid produced, and setting the
  retired ``REPRO_SPATIAL`` / ``REPRO_VECTOR`` / ``REPRO_HOTPATH``
  variables changes nothing.
"""

import os
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.channel import Channel
from repro.util.geometry import Point

from tests.conftest import build_phy_world
from tests.goldens import assert_baseline_matches, diff, run_scenario
from tests.test_spatial import every_attached_radio


@contextmanager
def without_grid():
    """Swap the grid for a sweep over every attached radio in the block."""
    with mock.patch.object(Channel, "_spatial_candidates", every_attached_radio):
        yield


# ----------------------------------------------------------------------
# Differential harness: randomized sparse topologies, grid vs sweep
# ----------------------------------------------------------------------
def _drive(world, rounds=3, mover=None):
    """Round-robin one frame from every radio; collect all observables.

    ``mover``: optional ``(round, world) -> None`` hook run between
    rounds — the mobility variants rehash a radio mid-run with it.
    """
    n = len(world.radios)
    rx_maps = []
    for r in range(rounds):
        if mover is not None:
            mover(r, world)
        for src in range(n):
            if not world.radios[src].attached:
                continue  # churn variants detach a radio for a round
            dst = (src + 1) % n
            tx = world.radios[src].start_transmission(
                world.data_frame(src, dst)
            )
            world.sim.run()
            rx_maps.append(dict(tx.rx_power_mw))
    counters = [
        (
            radio.frames_transmitted,
            radio.frames_received,
            radio.frames_corrupted,
            radio.frames_missed,
        )
        for radio in world.radios
    ]
    energies = [mac.energy_samples for mac in world.macs]
    edges = [mac.busy_edges for mac in world.macs]
    return rx_maps, counters, energies, edges, world.channel.links_culled


def _grid_and_sweep(positions, rounds=3, mover=None, **kwargs):
    grid = _drive(build_phy_world(positions, **kwargs), rounds, mover)
    with without_grid():
        sweep = _drive(build_phy_world(positions, **kwargs), rounds, mover)
    return grid, sweep


# Wide placements (0–6 km): with the conftest defaults the cull fires
# beyond ~760 m, so random draws mix surviving and culled links.
_coord = st.floats(
    min_value=0.0, max_value=6_000.0, allow_nan=False, allow_infinity=False
)
_placement = st.lists(
    st.tuples(_coord, _coord), min_size=2, max_size=6, unique=True
)


class TestDifferentialHarness:
    @settings(max_examples=25, deadline=None)
    @given(
        positions=_placement,
        seed=st.integers(min_value=0, max_value=2**16),
        sigma_db=st.sampled_from([0.0, 4.0]),
        mode=st.sampled_from(["per_frame", "none"]),
    )
    def test_random_topologies_agree(self, positions, seed, sigma_db, mode):
        grid, sweep = _grid_and_sweep(
            positions, sigma_db=sigma_db, shadowing_mode=mode, seed=seed
        )
        assert grid == sweep

    @settings(max_examples=10, deadline=None)
    @given(
        positions=_placement,
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_agreement_with_vector_backend(self, positions, seed):
        # The retired backend's variable no longer selects anything.
        with mock.patch.dict(os.environ, {"REPRO_VECTOR": "1"}):
            grid, sweep = _grid_and_sweep(
                positions, sigma_db=4.0, shadowing_mode="per_frame", seed=seed
            )
        assert grid == sweep

    @settings(max_examples=10, deadline=None)
    @given(
        positions=_placement,
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_agreement_survives_hotpath_off(self, positions, seed):
        # The retired knob's "off" value no longer selects anything.
        with mock.patch.dict(os.environ, {"REPRO_HOTPATH": "off"}):
            grid, sweep = _grid_and_sweep(
                positions, sigma_db=4.0, shadowing_mode="per_frame", seed=seed
            )
        assert grid == sweep

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_mobility_agrees(self, seed):
        # Radio 1 walks from cull range into the sender's cell and back
        # out — incremental rehashing must never change an observable.
        positions = [(0.0, 0.0), (5_000.0, 0.0), (30.0, 10.0)]
        waypoints = [
            Point(5_000.0, 0.0), Point(40.0, 0.0),
            Point(900.0, 900.0), Point(4_500.0, 20.0),
        ]

        def mover(round_index, world):
            world.radios[1].move_to(waypoints[round_index % len(waypoints)])

        grid, sweep = _grid_and_sweep(
            positions, rounds=4, mover=mover,
            sigma_db=4.0, shadowing_mode="per_frame", seed=seed,
        )
        assert grid == sweep

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_detach_reattach_agrees(self, seed):
        positions = [(0.0, 0.0), (20.0, 0.0), (3_000.0, 0.0)]

        def churn(round_index, world):
            if round_index == 1:
                world.channel.detach(world.radios[2])
            elif round_index == 2:
                world.channel.attach(world.radios[2])

        grid, sweep = _grid_and_sweep(
            positions, rounds=4, mover=churn,
            sigma_db=4.0, shadowing_mode="per_frame", seed=seed,
        )
        assert grid == sweep


# ----------------------------------------------------------------------
# Margin matrix: grid equals sweep at every margin
# ----------------------------------------------------------------------
class TestMarginMatrix:
    @pytest.mark.parametrize("margin", [0.0, 6.0, 20.0, 45.0])
    def test_margins_agree(self, margin):
        positions = [(0.0, 0.0), (15.0, 0.0), (700.0, 0.0), (2_500.0, 0.0)]
        grid, sweep = _grid_and_sweep(
            positions, sigma_db=5.0, shadowing_mode="per_frame", seed=9,
            cull_margin_db=margin,
        )
        assert grid == sweep

    @pytest.mark.parametrize("cull", [3.0, 30.0])
    def test_scenario_margin_overrides_agree(self, cull):
        # Full-MAC oracle runs at non-default margins (no golden
        # fixture exists there; the sweep is the reference).
        _, grid = run_scenario("sparse_floor", cull=cull)
        with without_grid():
            _, sweep = run_scenario("sparse_floor", cull=cull)
        assert diff(sweep, grid) == []
        assert grid["links_culled"] == sweep["links_culled"]


# ----------------------------------------------------------------------
# Golden end-to-end equivalence (fig8 / fig10 / sparse floor)
# ----------------------------------------------------------------------
@contextmanager
def counting_rebuilds():
    """Count receiver-table rebuilds per channel inside the block."""
    rebuilds = Counter()
    build = Channel._build_table

    def counting(channel, sender):
        rebuilds[channel] += 1
        return build(channel, sender)

    with mock.patch.object(Channel, "_build_table", counting):
        yield rebuilds


def _queried_every_rebuild(net, rebuilds):
    """The grid answered every table rebuild, and tables outlived frames."""
    return all(
        ch.spatial_queries == rebuilds[ch] > 0
        and rebuilds[ch] < ch.frames_sent
        for ch in net.channels.values()
    )


class TestGoldenEquivalence:
    @pytest.mark.parametrize("scenario", ["fig8", "fig10", "sparse_floor"])
    def test_spatial_matches_golden(self, scenario):
        golden = assert_baseline_matches(scenario)
        with without_grid():
            _, sweep = run_scenario(scenario)
        assert diff(golden, sweep) == []
        # Grid skips are charged into the culled counter per frame, so
        # even the cull total matches the sweep exactly.
        assert sweep["links_culled"] == golden["links_culled"]

    @pytest.mark.parametrize("scenario", ["fig8", "fig10", "sparse_floor"])
    def test_spatial_vector_matches_golden(self, scenario):
        # Neither retired knob can switch the grid off or a backend on.
        golden = assert_baseline_matches(scenario)
        retired = {"REPRO_SPATIAL": "0", "REPRO_VECTOR": "1"}
        with mock.patch.dict(os.environ, retired), counting_rebuilds() as rebuilds:
            net, snap = run_scenario(scenario)
        assert diff(golden, snap) == []
        assert snap["events_fired"] == golden["events_fired"]
        assert _queried_every_rebuild(net, rebuilds)

    def test_spatial_with_hotpath_off_matches_golden(self):
        golden = assert_baseline_matches("fig8")
        with mock.patch.dict(os.environ, {"REPRO_HOTPATH": "off"}), \
                counting_rebuilds() as rebuilds:
            net, snap = run_scenario("fig8")
        assert diff(golden, snap) == []
        # Air notifications stay coalesced: same event count.
        assert snap["events_fired"] == golden["events_fired"]
        assert _queried_every_rebuild(net, rebuilds)

    def test_sparse_floor_grid_actually_skips(self):
        # The sparse floor's two cells sit 4 km apart — far outside
        # reach — so the grid must absorb every cull without visiting
        # the far cell's radios at all.
        net, _ = run_scenario("sparse_floor")
        totals = {
            key: sum(ch.counters()[key] for ch in net.channels.values())
            for key in ("spatial_skipped", "culled_links")
        }
        assert totals["spatial_skipped"] == totals["culled_links"] > 0
