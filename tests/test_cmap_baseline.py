"""The CMAP-style learned-conflict-map baseline."""

import pytest

from repro.experiments.params import testbed_params as make_testbed_params
from repro.experiments.topologies import exposed_terminal_topology
from repro.mac.cmap import MIN_TRIALS, CmapMac, _Entry
from repro.util.geometry import Point


@pytest.fixture
def fixed_rate_params():
    return make_testbed_params().with_overrides(data_rate_bps=12_000_000)


class TestEntryLogic:
    def test_success_rate(self):
        entry = _Entry(attempts=4, successes=3)
        assert entry.success_rate == 0.75
        assert _Entry().success_rate == 0.0

    def test_config_requires_cmap_type(self):
        from repro.mac.dcf import MacConfig
        from tests.conftest import build_mac_world

        def bad_factory(i, sim, radio, rngs):
            from repro.mac.rate_control import FixedRate
            from repro.mac.timing import OFDM_TIMING
            from repro.phy.rates import OFDM_RATES

            return CmapMac(i, sim, radio, OFDM_TIMING, OFDM_RATES, rngs,
                           config=MacConfig(),
                           rate_policy=FixedRate(OFDM_RATES.base))

        with pytest.raises(TypeError):
            build_mac_world([(0, 0), (10, 0)], mac_factory=bad_factory)


class TestLearning:
    def run_scenario(self, c2_x, params, duration=1.0, seed=1):
        scenario = exposed_terminal_topology("cmap", c2_x=c2_x, seed=seed, params=params)
        scenario.network.run(duration)
        return scenario

    def test_probes_happen_then_exploitation(self, fixed_rate_params):
        scenario = self.run_scenario(30.0, fixed_rate_params)
        mac = scenario.extra["c1"].mac
        assert mac.cmap_stats.probes >= 1
        # Safe geometry: probes succeed and the entry flips to allowed.
        assert mac.cmap_stats.learned_allowed > 0
        assert mac.cmap_stats.concurrent_transmissions > mac.cmap_stats.probes

    def test_destructive_geometry_learned_as_denied(self, fixed_rate_params):
        scenario = self.run_scenario(16.0, fixed_rate_params)
        mac = scenario.extra["c1"].mac
        assert mac.cmap_stats.learned_denied > 0
        # After learning, almost no further concurrent attempts happen
        # (only probes and occasional re-probes).
        stats = mac.cmap_stats
        assert stats.concurrent_transmissions <= stats.probes + stats.reprobes + 3

    def test_map_entries_populated(self, fixed_rate_params):
        scenario = self.run_scenario(30.0, fixed_rate_params)
        mac = scenario.extra["c1"].mac
        assert mac.map_size() >= 1
        c2 = scenario.extra["c2"]
        ap2 = scenario.extra["ap2"]
        entry = mac.entry((c2.node_id, ap2.node_id), scenario.extra["ap1"].node_id)
        assert entry.attempts >= MIN_TRIALS

    def test_stale_map_after_mobility(self, fixed_rate_params):
        scenario = self.run_scenario(30.0, fixed_rate_params)
        net = scenario.network
        mac = scenario.extra["c1"].mac
        allowed_before = mac.cmap_stats.learned_allowed
        # Teleport C2 into the interference zone: the learned 'allowed'
        # entry is now wrong, yet CMAP keeps using it for a while.
        net.update_node_position(scenario.extra["c2"], Point(16.0, 0.0))
        net.run(0.5)
        assert mac.cmap_stats.learned_allowed > allowed_before
        # The collisions eventually register as failures.
        c2, ap2, ap1 = (scenario.extra["c2"], scenario.extra["ap2"],
                        scenario.extra["ap1"])
        entry = mac.entry((c2.node_id, ap2.node_id), ap1.node_id)
        assert entry.attempts > entry.successes

    def test_goodput_beats_dcf_in_safe_geometry(self, fixed_rate_params):
        def aggregate(kind):
            scenario = exposed_terminal_topology(kind, c2_x=30.0, seed=1,
                                                 params=fixed_rate_params)
            results = scenario.network.run(1.0)
            c2, ap2 = scenario.extra["c2"], scenario.extra["ap2"]
            return (results.goodput_mbps(*scenario.tagged_flow)
                    + results.goodput_mbps(c2.node_id, ap2.node_id))

        assert aggregate("cmap") > aggregate("dcf")


class TestChurn:
    def test_detach_sheds_the_exposed_episode(self, fixed_rate_params):
        scenario = exposed_terminal_topology("cmap", c2_x=30.0, seed=1,
                                             params=fixed_rate_params)
        net = scenario.network
        c1 = scenario.extra["c1"]
        mac = c1.mac
        for _ in range(50):
            net.sim.run(max_events=1)
            if mac._should_ignore_busy():
                break
        assert mac._should_ignore_busy(), "C1 never opened an exposed episode"
        net.detach_node(c1)
        # No timer of the detached MAC (the episode expiry included) is
        # left to fire while it is off the air.  A queued entry is live
        # unless its callback slot was emptied by a cancel.
        pending = [
            callback.__name__
            for _time, _seq, callback, _args in net.sim._queue
            if callback is not None and getattr(callback, "__self__", None) is mac
        ]
        assert pending == []
        net.reattach_node(c1)
        # A re-joined node must not count down through a busy medium on a
        # link it overheard before it left.
        assert not mac._should_ignore_busy()
