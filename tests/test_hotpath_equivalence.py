"""The frame hot path: caches against a from-scratch derivation.

The channel keeps a receiver table per sender (each link's
linear-domain mean power and its block of shadowing ratios); the radio
caches its in-air energy sum and per-rate sensitivity/SIR constants;
``PhyTiming`` memoizes airtimes.  The discipline is *cache, never
re-derive*: every cached value comes from the exact expression a
from-scratch derivation evaluates.  These tests pin that against
derivations written out here — per link on a PHY-only world, and end to
end on the golden Fig. 8 / Fig. 10 / sparse-floor scenarios with the
caches bypassed (every frame rebuilds its sender's receiver table).  The
caches and the coalesced air notifications are unconditional: the
retired ``REPRO_HOTPATH`` variable selects nothing.
"""

from unittest import mock

import pytest

from repro.phy.channel import Channel
from repro.phy.radio import Radio
from repro.util.geometry import Point
from repro.util.hotpath import mode_enabled
from repro.util.rng import RngStreams
from repro.util.units import db_to_ratio, dbm_to_mw

from tests.conftest import build_phy_world
from tests.goldens import assert_baseline_matches, diff, run_scenario

HOTPATH_ENV = "REPRO_HOTPATH"


# ----------------------------------------------------------------------
# The retired knob
# ----------------------------------------------------------------------
def _events_per_frame():
    """Engine events one frame to three receivers costs."""
    world = build_phy_world([(0.0, 0.0), (5.0, 0.0), (10.0, 0.0), (15.0, 0.0)])
    world.radios[0].start_transmission(world.data_frame(0, 1))
    world.sim.run()
    return world.sim.events_fired


class TestKnob:
    def test_default_is_enabled(self, monkeypatch):
        monkeypatch.delenv(HOTPATH_ENV, raising=False)
        assert mode_enabled("hotpath") is True
        # start-of-air, end-of-transmission, end-of-air: coalesced.
        assert _events_per_frame() == 3

    @pytest.mark.parametrize("value", ["off", "OFF", "0", "false", "no"])
    def test_disabling_values(self, monkeypatch, value):
        # Values that used to disable the caches no longer do.
        monkeypatch.setenv(HOTPATH_ENV, value)
        assert mode_enabled("hotpath") is True
        assert _events_per_frame() == 3

    @pytest.mark.parametrize("value", ["1", "on", "yes", "anything"])
    def test_other_values_enable(self, monkeypatch, value):
        monkeypatch.setenv(HOTPATH_ENV, value)
        assert mode_enabled("hotpath") is True
        assert _events_per_frame() == 3


# ----------------------------------------------------------------------
# Per-link powers against a from-scratch derivation
# ----------------------------------------------------------------------
def _rx_powers(world, frames=4):
    powers = []
    for _ in range(frames):
        tx = world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run()
        powers.append(dict(tx.rx_power_mw))
    return powers


def _derived_powers(world, seed, frames, offsets=None):
    """Frame-by-frame rx power at radio 1 from radio 0, derived from scratch.

    ``offsets``: the link's shadowing stream to continue, so a test can
    follow one link across a move (a moved link continues its stream).
    """
    channel = world.channel
    sender, receiver = world.radios[0], world.radios[1]
    distance = sender.position.distance_to(receiver.position)
    mean_dbm = channel.propagation.mean_rx_dbm(sender.tx_power_dbm, distance)
    if offsets is None:
        offsets = RngStreams(seed).substream("shadowing", channel.band, 0, 1)
    mode = channel.shadowing_mode
    if mode == "none":
        return [{1: dbm_to_mw(mean_dbm)}] * frames
    return [
        {1: dbm_to_mw(mean_dbm) * db_to_ratio(channel.propagation.shadowing_db(offsets))}
        for _ in range(frames)
    ]


class TestPhyEquivalence:
    @pytest.mark.parametrize("mode", ["none", "per_frame"])
    def test_rx_power_identical_per_mode(self, mode):
        world = build_phy_world(
            [(0.0, 0.0), (10.0, 0.0)], sigma_db=5.0, shadowing_mode=mode, seed=11
        )
        assert _rx_powers(world) == _derived_powers(world, 11, frames=4)

    def test_mobility_invalidation_identical(self):
        world = build_phy_world(
            [(0.0, 0.0), (10.0, 0.0)],
            sigma_db=5.0,
            shadowing_mode="per_frame",
            seed=3,
        )
        offsets = RngStreams(3).substream("shadowing", 0, 0, 1)
        first = _rx_powers(world, frames=2)
        assert first == _derived_powers(world, 3, frames=2, offsets=offsets)
        # The move drops the receiver tables but not the link's draws:
        # the next frame sees the new distance and the link's next draw.
        world.radios[1].move_to(Point(25.0, 0.0))
        second = _rx_powers(world, frames=2)
        assert second == _derived_powers(world, 3, frames=2, offsets=offsets)
        assert second != first


# ----------------------------------------------------------------------
# Golden end-to-end equivalence with the caches bypassed
# ----------------------------------------------------------------------
_transmit = Channel.transmit


def _transmit_uncached(channel, sender, frame):
    """Transmit with every receiver table dropped first: each frame
    re-derives its survivors and mean powers."""
    channel._tables.clear()
    return _transmit(channel, sender, frame)


def _uncached_energy_mw(radio):
    return sum(radio._in_air.values()) if radio._in_air else 0.0


#: Stands in for the radio's energy memo: every read re-derives the sum
#: and every write is dropped.
_UNCACHED_ENERGY = property(_uncached_energy_mw, lambda radio, value: None)


class TestGoldenEquivalence:
    """Re-deriving receiver tables per frame and in-air energy per use
    reproduces the committed fixtures: the caches change no physics."""

    @pytest.mark.parametrize("scenario", ["fig8", "fig10", "sparse_floor"])
    def test_rederivation_matches_golden(self, scenario):
        golden = assert_baseline_matches(scenario)
        with mock.patch.object(Channel, "transmit", _transmit_uncached), \
                mock.patch.object(Radio, "_energy_mw", _UNCACHED_ENERGY, create=True):
            net, snap = run_scenario(scenario)
        assert diff(golden, snap) == []
        assert snap["events_fired"] == golden["events_fired"]
        # One grid query per frame: no table outlived its frame.
        for channel in net.channels.values():
            assert channel.spatial_queries == channel.frames_sent > 0
