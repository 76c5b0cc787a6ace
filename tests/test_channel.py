"""The shared medium: transmission lifecycle and shadowing modes."""

import pytest

from repro.phy.channel import Channel
from repro.phy.propagation import LogNormalShadowing
from repro.mac.timing import OFDM_TIMING
from repro.sim.engine import Simulator
from repro.util.rng import RngStreams
from repro.util.units import mw_to_dbm

from tests.conftest import build_phy_world


class TestTransmissionLifecycle:
    def test_transmission_visible_while_in_air(self, phy_pair):
        world = phy_pair
        frame = world.data_frame(0, 1)
        world.radios[0].start_transmission(frame)
        assert len(world.channel.active_transmissions) == 1
        world.sim.run()
        assert world.channel.active_transmissions == []

    def test_duration_matches_timing(self, phy_pair):
        world = phy_pair
        frame = world.data_frame(0, 1, payload=1000)
        tx = world.radios[0].start_transmission(frame)
        assert tx.duration_ns == OFDM_TIMING.frame_airtime_ns(frame)

    def test_receiver_gets_frame_at_end(self, phy_pair):
        world = phy_pair
        frame = world.data_frame(0, 1)
        world.radios[0].start_transmission(frame)
        assert world.macs[1].received == []  # nothing before airtime elapses
        world.sim.run()
        assert [f.uid for f, _ in world.macs[1].received] == [frame.uid]

    def test_sender_notified_of_completion(self, phy_pair):
        world = phy_pair
        frame = world.data_frame(0, 1)
        world.radios[0].start_transmission(frame)
        world.sim.run()
        assert world.macs[0].completed == [frame]

    def test_frames_sent_counter(self, phy_pair):
        world = phy_pair
        world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run()
        world.radios[1].start_transmission(world.data_frame(1, 0))
        world.sim.run()
        assert world.channel.frames_sent == 2

    def test_rx_power_recorded_per_radio(self, phy_trio):
        world = phy_trio
        tx = world.radios[0].start_transmission(world.data_frame(0, 1))
        assert set(tx.rx_power_mw) == {1, 2}
        # Closer radio measures more power.
        assert tx.rx_power_mw[1] > tx.rx_power_mw[2]
        world.sim.run()

    def test_duplicate_radio_id_rejected(self, phy_pair):
        from repro.phy.radio import Radio, RadioConfig
        from repro.util.geometry import Point

        with pytest.raises(ValueError):
            Radio(radio_id=0, position=Point(1, 1), config=RadioConfig(),
                  channel=phy_pair.channel)


class TestShadowingModes:
    def _one_power(self, mode, seed=0):
        world = build_phy_world([(0, 0), (20, 0)], sigma_db=6.0, shadowing_mode=mode, seed=seed)
        tx = world.radios[0].start_transmission(world.data_frame(0, 1))
        power = tx.rx_power_mw[1]
        world.sim.run()
        return world, power

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            Channel(
                sim=Simulator(),
                propagation=LogNormalShadowing(3.0, 4.0),
                timing=OFDM_TIMING,
                rngs=RngStreams(0),
                shadowing_mode="bogus",
            )

    def test_none_mode_matches_mean_path_loss(self):
        world, power = self._one_power("none")
        expected = world.channel.propagation.mean_rx_dbm(20.0, 20.0)
        assert mw_to_dbm(power) == pytest.approx(expected)

    def test_per_frame_mode_varies_between_frames(self):
        world = build_phy_world([(0, 0), (20, 0)], sigma_db=6.0, shadowing_mode="per_frame")
        tx1 = world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run()
        tx2 = world.radios[0].start_transmission(world.data_frame(0, 1))
        world.sim.run()
        assert tx1.rx_power_mw[1] != tx2.rx_power_mw[1]

    def test_same_seed_reproduces_powers(self):
        _, p1 = self._one_power("per_frame", seed=9)
        _, p2 = self._one_power("per_frame", seed=9)
        assert p1 == p2
