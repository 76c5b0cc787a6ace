"""Mobility with threshold-based position re-reporting (Section V)."""

import pytest

from repro.core.protocol import POSITION_UPDATE_THRESHOLD_M
from repro.experiments.params import ns2_params
from repro.experiments.topologies import exposed_terminal_topology, office_floor_topology
from repro.faults import BeaconLoss, FaultPlan, LocationDrift
from repro.net.localization import UniformDiskError
from repro.net.mobility import LinearMobility
from repro.net.network import Network
from repro.util.geometry import Point


def make_net():
    net = Network(ns2_params(), mac_kind="comap", seed=0)
    ap = net.add_ap("AP", 0, 0)
    c = net.add_client("C", 10, 0, ap=ap)
    net.finalize()
    return net, ap, c


class TestLinearMobility:
    def test_node_reaches_waypoint(self):
        net, ap, c = make_net()
        mover = LinearMobility(net, c, [(10, 30)], speed_mps=10.0, tick_s=0.05)
        net.run(4.0)
        assert mover.done
        assert c.position == Point(10, 30)

    def test_distance_accounting(self):
        net, ap, c = make_net()
        mover = LinearMobility(net, c, [(10, 30)], speed_mps=10.0, tick_s=0.05)
        net.run(4.0)
        assert mover.distance_travelled_m == pytest.approx(30.0, abs=0.01)

    def test_multiple_waypoints(self):
        net, ap, c = make_net()
        mover = LinearMobility(net, c, [(20, 0), (20, 10)], speed_mps=20.0, tick_s=0.05)
        net.run(2.0)
        assert mover.done
        assert c.position == Point(20, 10)

    def test_reports_throttled_by_threshold(self):
        net, ap, c = make_net()
        mover = LinearMobility(net, c, [(10, 40)], speed_mps=10.0, tick_s=0.05)
        net.run(5.0)
        # 40 m of travel with a 5 m threshold: roughly 8 reports, far
        # fewer than the 80 movement ticks.
        assert 4 <= mover.reports_sent <= 10

    def test_neighbors_learn_final_position(self):
        net, ap, c = make_net()
        LinearMobility(net, c, [(10, 40)], speed_mps=10.0, tick_s=0.05)
        net.run(5.0)
        reported = ap.agent.neighbor_table.position_of(c.node_id)
        # Within the threshold plus one 0.5 m tick of the final spot.
        assert reported.distance_to(Point(10, 40)) <= POSITION_UPDATE_THRESHOLD_M + 0.5

    def test_traffic_survives_mobility(self):
        net, ap, c = make_net()
        net.add_saturated(c, ap)
        LinearMobility(net, c, [(15, 10)], speed_mps=5.0, tick_s=0.1)
        results = net.run(2.0)
        assert results.goodput_mbps(c.node_id, ap.node_id) > 1.0

    def test_parameter_validation(self):
        net, ap, c = make_net()
        with pytest.raises(ValueError):
            LinearMobility(net, c, [(1, 1)], speed_mps=0.0)
        with pytest.raises(ValueError):
            LinearMobility(net, c, [(1, 1)], speed_mps=1.0, tick_s=0.0)
        with pytest.raises(ValueError):
            LinearMobility(net, c, [], speed_mps=1.0)

    def test_report_on_top_of_a_peer(self):
        # C2 walks through AP2 (36 m): at 60 ms it reports AP2's spot, so
        # eq. 3 and eq. 4 see zero distances, which they floor at d0.
        net = exposed_terminal_topology("comap", c2_x=30.0, seed=0).network
        c2, ap2 = net.node("C2"), net.node("AP2")
        LinearMobility(net, c2, [(30, 0), (50, 0)], speed_mps=100.0, tick_s=0.01)
        refreshes = net.counters()["comap/adaptation_refreshes"]
        net.run(0.06)
        assert c2.agent.reported_position == ap2.agent.reported_position
        assert net.counters()["comap/adaptation_refreshes"] > refreshes
        net.run(0.1)


class TestReportsUnderLocalizationError:
    """The 5 m rule measures the node's walk, not its error-perturbed reports."""

    @staticmethod
    def _walk(distance_m, speed_mps, seconds):
        net = office_floor_topology(
            "comap", topology_seed=1001, seed=1, error_model=UniformDiskError(10.0)
        ).network
        c0 = net.node("C0")
        start = c0.position
        mover = LinearMobility(
            net, c0, [(start.x + distance_m, start.y)], speed_mps=speed_mps, tick_s=0.2
        )
        net.run(seconds)
        return mover.reports_sent, net.counters()["comap/adaptation_refreshes"]

    def test_sub_threshold_walk_sends_no_report(self):
        # 2 m at 1 m/s: no report, and only finalize's 12 refreshes.
        assert self._walk(2.0, 1.0, 3.0) == (0, 12)

    def test_walk_past_threshold_reports(self):
        reports, _ = self._walk(8.0, 4.0, 2.2)
        assert reports == 1


def _refresh_counts(net):
    """adaptation_refreshes per node name (CO-MAP MACs only)."""
    return {
        node.name: node.mac.comap_stats.adaptation_refreshes
        for node in net.nodes.values()
        if hasattr(node.mac, "comap_stats")
    }


class TestAdaptationRefreshScope:
    """A position report must refresh only the MACs that observed it."""

    def test_report_skips_other_bands(self):
        # Two independent cells on orthogonal bands.  Band-1 agents never
        # learn band-0 positions, so a band-0 report cannot change their
        # (N_ht, c) estimates — the old code refreshed them anyway,
        # making dense mobility O(N^2) per tick.
        net = Network(ns2_params(), mac_kind="comap", seed=0)
        ap0 = net.add_ap("AP0", 0, 0, band=0)
        c0 = net.add_client("C0", 10, 0, ap=ap0)
        ap1 = net.add_ap("AP1", 0, 50, band=1)
        c1 = net.add_client("C1", 10, 50, ap=ap1)
        net.finalize()
        before = _refresh_counts(net)
        assert net.update_node_position(c0, Point(30, 0))
        after = _refresh_counts(net)
        assert after["AP0"] > before["AP0"]
        assert after["C0"] > before["C0"]
        assert after["AP1"] == before["AP1"]
        assert after["C1"] == before["C1"]

    def test_detached_mac_is_not_refreshed(self):
        net = Network(ns2_params(), mac_kind="comap", seed=0)
        ap = net.add_ap("AP", 0, 0)
        c1 = net.add_client("C1", 10, 0, ap=ap)
        c2 = net.add_client("C2", -10, 0, ap=ap)
        net.finalize()
        net.detach_node(c2)
        before = _refresh_counts(net)
        assert net.update_node_position(c1, Point(30, 0))
        after = _refresh_counts(net)
        assert after["C2"] == before["C2"]
        assert after["AP"] == before["AP"] + 1
        net.reattach_node(c2)  # its own report refreshes it
        assert _refresh_counts(net)["C2"] == after["C2"] + 1

    def test_keep_alive_refreshes_nothing(self):
        # Keep-alives every 2 ms republish each node's unchanged report:
        # no row is added or moved, so no MAC re-runs adaptation after
        # finalize's one pass.
        net = office_floor_topology("comap", topology_seed=1, seed=1).network
        finalized = net.counters()["comap/adaptation_refreshes"]
        assert finalized == len(net.nodes) == 12
        net.install_faults(FaultPlan(
            events=(BeaconLoss("C0", 0, 10**12, drop_prob=0.0),),
            report_interval_ns=2_000_000,
        ))
        net.run(0.3)
        assert net.counters()["comap/adaptation_refreshes"] == finalized

    def test_drifting_keep_alive_refreshes(self):
        # A drifted publication moves C0's row: its band re-adapts.
        net = office_floor_topology("comap", topology_seed=1, seed=1).network
        finalized = net.counters()["comap/adaptation_refreshes"]
        net.install_faults(FaultPlan(
            events=(LocationDrift("C0", 50_000_000, 100_000_000, rate_mps=20.0),),
            report_interval_ns=2_000_000,
        ))
        net.run(0.3)
        assert net.counters()["comap/adaptation_refreshes"] > finalized

    def test_sub_threshold_move_refreshes_nothing(self):
        net, ap, c = make_net()
        before = _refresh_counts(net)
        assert not net.update_node_position(c, Point(11, 0))  # 1 m move
        assert _refresh_counts(net) == before

    def test_same_instant_reports_coalesce(self):
        # Two reports landing at the same sim-time instant must cost one
        # refresh per affected MAC, not one per report.
        net = Network(ns2_params(), mac_kind="comap", seed=0)
        ap = net.add_ap("AP", 0, 0)
        c1 = net.add_client("C1", 10, 0, ap=ap)
        c2 = net.add_client("C2", -10, 0, ap=ap)
        net.finalize()
        before = _refresh_counts(net)
        net.sim.schedule(1_000, net.update_node_position, c1, Point(30, 0))
        net.sim.schedule(1_000, net.update_node_position, c2, Point(-30, 5))
        net.sim.run(until=10_000)
        after = _refresh_counts(net)
        assert all(after[name] == before[name] + 1 for name in after)

    def test_between_run_report_refreshes_synchronously(self):
        # Outside sim.run a deferred refresh would never fire; the drain
        # must happen inline so direct calls see the adapted state.
        net, ap, c = make_net()
        before = _refresh_counts(net)
        assert net.update_node_position(c, Point(30, 0))
        after = _refresh_counts(net)
        assert all(after[name] == before[name] + 1 for name in after)

    def test_prestart_report_drains_once_and_cancels_stale_drain(self):
        # A mid-run report coalesces its refresh into a zero-delay drain.
        # If the run stops before that drain fires (max_events), a report
        # arriving between runs drains inline — it must consume the dirty
        # set exactly once AND cancel the stale queued drain, or the same
        # MACs get a second (phantom) refresh pass at sim start.
        net, ap, c = make_net()
        net.sim.schedule(1_000, net.update_node_position, c, Point(30, 0))
        net.sim.run(max_events=1)  # report fired; its drain is still queued
        before = _refresh_counts(net)
        counters = net.counters()
        assert counters["comap/adaptation_refreshes"] == sum(
            _refresh_counts(net).values()
        )
        assert net.update_node_position(c, Point(60, 0))  # pre-start report
        after = _refresh_counts(net)
        # One inline pass covering both the interrupted-run report and
        # this one — not one pass per report.
        assert all(after[name] == before[name] + 1 for name in after)
        # No stale drain left behind: the queue is empty, and resuming
        # the sim fires nothing and refreshes nothing.
        assert net.sim.pending_events == 0
        fired = net.sim.run(until=net.sim.now + 10_000)
        assert fired == 0
        assert _refresh_counts(net) == after
