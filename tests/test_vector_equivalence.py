"""The channel against a from-scratch reference, and the retired ``REPRO_VECTOR``.

The struct-of-arrays backend that ``REPRO_VECTOR=1`` once selected is
gone; the scalar channel is the only implementation.  What the backend's
differential harness used to check — rx powers, culling, mobility and
detach/re-attach across randomized topologies — is checked here against
:class:`ReferenceMedium`, which re-derives every frame's received powers
from scratch: every attached radio, no caches, no grid.  The remaining
tests pin that the retired variable selects nothing.
"""

import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.channel import NOISE_FLOOR_DBM
from repro.phy.propagation import LogNormalShadowing
from repro.util.geometry import Point
from repro.util.hotpath import mode_enabled
from repro.util.rng import RngStreams
from repro.util.units import db_to_ratio, dbm_to_mw

from tests.conftest import build_phy_world
from tests.goldens import assert_baseline_matches, diff, run_scenario

VECTOR_ENV = "REPRO_VECTOR"


# ----------------------------------------------------------------------
# The retired knob
# ----------------------------------------------------------------------
class TestKnob:
    def test_default_is_disabled(self, monkeypatch):
        monkeypatch.delenv(VECTOR_ENV, raising=False)
        assert mode_enabled("vector") is False

    @pytest.mark.parametrize("value", ["1", "on", "yes", "anything"])
    def test_enabling_values(self, monkeypatch, value):
        # Values that used to enable the backend no longer do.
        monkeypatch.setenv(VECTOR_ENV, value)
        assert mode_enabled("vector") is False

    @pytest.mark.parametrize("value", ["off", "OFF", "0", "false", "no"])
    def test_disabling_values(self, monkeypatch, value):
        monkeypatch.setenv(VECTOR_ENV, value)
        assert mode_enabled("vector") is False

    def test_registry_rejects_unknown_mode(self):
        with pytest.raises(KeyError):
            mode_enabled("warp-drive")

    def test_knobs_are_independent(self, monkeypatch):
        monkeypatch.setenv(VECTOR_ENV, "1")
        monkeypatch.setenv("REPRO_HOTPATH", "off")
        monkeypatch.setenv("REPRO_SPATIAL", "0")
        assert mode_enabled("vector") is False
        assert mode_enabled("hotpath") is True
        assert mode_enabled("spatial") is True


class TestNumpyGuard:
    def test_unset_knob_never_touches_backend(self):
        import importlib.util

        assert importlib.util.find_spec("repro.phy.vector") is None
        world = build_phy_world([(0.0, 0.0), (10.0, 0.0)])
        world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run()
        assert world.radios[1].frames_received == 1


# ----------------------------------------------------------------------
# Shadowing draws: the link's substream, in order
# ----------------------------------------------------------------------
class TestDrawBitIdentity:
    def test_block_fill_equals_sequential_scalar_draws(self):
        # A block of frames on one link consumes the link's substream
        # draw by draw, exactly as sequential scalar draws would.
        frames = 300
        world = build_phy_world(
            [(0.0, 0.0), (10.0, 0.0)],
            sigma_db=5.0, shadowing_mode="per_frame", seed=11,
        )
        powers = []
        for _ in range(frames):
            tx = world.radios[0].start_transmission(world.data_frame(0, 1))
            world.sim.run()
            powers.append(tx.rx_power_mw[1])
        channel = world.channel
        mean_mw = dbm_to_mw(channel.propagation.mean_rx_dbm(20.0, 10.0))
        stream = RngStreams(11).substream("shadowing", 0, 0, 1)
        assert powers == [
            mean_mw * db_to_ratio(channel.propagation.shadowing_db(stream))
            for _ in range(frames)
        ]

    def test_sigma_zero_consumes_no_draws(self):
        prop = LogNormalShadowing(alpha=3.3, sigma_db=0.0)
        stream = RngStreams(seed=7).substream("shadowing", 0, 1, 2)
        before = stream.bit_generator.state
        assert [prop.shadowing_db(stream) for _ in range(8)] == [0.0] * 8
        assert stream.bit_generator.state == before


# ----------------------------------------------------------------------
# Differential harness: randomized topologies, channel vs reference
# ----------------------------------------------------------------------
class ReferenceMedium:
    """Every frame's rx powers derived from scratch, in attach order."""

    def __init__(self, world, seed):
        self.channel = world.channel
        self.rngs = RngStreams(seed)
        self.culled = 0

    def frame(self, sender):
        channel = self.channel
        propagation = channel.propagation
        margin = channel.cull_margin_db
        powers = {}
        for radio in channel.radios:
            if radio is sender:
                continue
            mean_dbm = propagation.mean_rx_dbm(
                sender.tx_power_dbm,
                sender.position.distance_to(radio.position),
            )
            if margin is not None and (
                mean_dbm + margin < NOISE_FLOOR_DBM
                and mean_dbm + margin < radio.config.cs_threshold_dbm
            ):
                self.culled += 1
                continue
            key = (sender.radio_id, radio.radio_id)
            stream = self.rngs.substream("shadowing", channel.band, *key)
            if channel.shadowing_mode == "none":
                power = dbm_to_mw(mean_dbm)
            else:
                power = dbm_to_mw(mean_dbm) * db_to_ratio(
                    propagation.shadowing_db(stream)
                )
            powers[radio.radio_id] = power
        return powers


def _drive(world, rounds=3, reference=None):
    """Round-robin one frame from every radio; collect all observables.

    With a ``reference``, every frame's rx map is checked against it.
    """
    n = len(world.radios)
    rx_maps = []
    for _ in range(rounds):
        for src in range(n):
            sender = world.radios[src]
            if not sender.attached:
                continue
            expected = reference.frame(sender) if reference is not None else None
            tx = sender.start_transmission(world.data_frame(src, (src + 1) % n))
            world.sim.run()
            rx_maps.append(dict(tx.rx_power_mw))
            if expected is not None:
                assert rx_maps[-1] == expected
    if reference is not None:
        assert world.channel.links_culled == reference.culled
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
    return rx_maps, counters, energies, edges


_coord = st.floats(
    min_value=0.0, max_value=200.0, allow_nan=False, allow_infinity=False
)
_placement = st.lists(
    st.tuples(_coord, _coord), min_size=2, max_size=5, unique=True
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
        world = build_phy_world(
            positions, sigma_db=sigma_db, shadowing_mode=mode, seed=seed
        )
        _drive(world, reference=ReferenceMedium(world, seed))

    @settings(max_examples=10, deadline=None)
    @given(
        positions=_placement,
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_agreement_survives_hotpath_off(self, positions, seed):
        retired = {"REPRO_HOTPATH": "off", VECTOR_ENV: "1"}
        with mock.patch.dict(os.environ, retired):
            world = build_phy_world(
                positions, sigma_db=4.0, shadowing_mode="per_frame", seed=seed
            )
            _drive(world, reference=ReferenceMedium(world, seed))


# ----------------------------------------------------------------------
# Culling, mobility, and the attach/detach contracts
# ----------------------------------------------------------------------
NEAR, MID, FAR = (0.0, 0.0), (10.0, 0.0), (5_000.0, 0.0)


class TestVectorChannelContracts:
    def test_culling_matches_scalar(self):
        kwargs = dict(sigma_db=5.0, shadowing_mode="per_frame", seed=11)
        world = build_phy_world([NEAR, MID, FAR], **kwargs)
        culled = _drive(world, reference=ReferenceMedium(world, 11))
        exhaustive = _drive(
            build_phy_world([NEAR, MID, FAR], cull_margin_db="off", **kwargs)
        )
        assert world.channel.links_culled > 0
        assert culled[1] == exhaustive[1]

    def test_mobility_invalidates_rows(self):
        # The move drops the radio's mean powers; its links' draw
        # streams continue where they stopped.
        world = build_phy_world([NEAR, MID, FAR], shadowing_mode="per_frame",
                                sigma_db=4.0, seed=5)
        reference = ReferenceMedium(world, 5)
        first = _drive(world, rounds=1, reference=reference)
        world.radios[2].move_to(Point(20.0, 0.0))
        second = _drive(world, rounds=1, reference=reference)
        assert 2 not in first[0][0] and 2 in second[0][0]

    @pytest.mark.parametrize("mode", ["per_frame"])
    def test_detach_reattach_matches_scalar(self, mode):
        # A re-attached radio's links continue their streams.
        world = build_phy_world([NEAR, MID, (30.0, 0.0)], shadowing_mode=mode,
                                sigma_db=4.0, seed=6)
        reference = ReferenceMedium(world, 6)
        _drive(world, rounds=1, reference=reference)
        victim = world.radios[2]
        world.channel.detach(victim)
        gone = _drive(world, rounds=1, reference=reference)
        world.channel.attach(victim)
        back = _drive(world, rounds=1, reference=reference)
        assert 2 not in gone[0][0] and 2 in back[0][0]

    def test_counters_exposed(self):
        world = build_phy_world([NEAR, MID, FAR])
        world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run()
        counters = world.channel.counters()
        assert not [key for key in counters if key.startswith("vector_")]
        assert counters["culled_links"] == 1  # FAR was culled
        assert counters["spatial_queries"] == counters["frames_sent"] == 1


# ----------------------------------------------------------------------
# Golden end-to-end equivalence (fig8 / fig10 / sparse floor)
# ----------------------------------------------------------------------
class TestGoldenEquivalence:
    @pytest.mark.parametrize("scenario", ["fig8", "fig10", "sparse_floor"])
    def test_vector_matches_golden(self, scenario):
        golden = assert_baseline_matches(scenario)
        with mock.patch.dict(os.environ, {VECTOR_ENV: "1"}):
            _, snap = run_scenario(scenario)
        assert diff(golden, snap) == []
        assert snap["events_fired"] == golden["events_fired"]

    def test_vector_with_hotpath_off_matches_golden(self):
        golden = assert_baseline_matches("fig8")
        with mock.patch.dict(os.environ, {VECTOR_ENV: "1", "REPRO_HOTPATH": "off"}):
            _, snap = run_scenario("fig8")
        assert diff(golden, snap) == []
