"""The Network orchestrator."""

import dataclasses

import pytest

from repro.experiments.params import ns2_params, testbed_params
from repro.experiments.topologies import exposed_terminal_topology, full_floor_topology
from repro.mac.frames import FrameType
from repro.net.localization import UniformDiskError
from repro.net.network import Network
from repro.util.geometry import Point


def small_network(mac_kind="dcf", **kwargs):
    net = Network(ns2_params(), mac_kind=mac_kind, **kwargs)
    ap = net.add_ap("AP", 0, 0)
    c1 = net.add_client("C1", 10, 0, ap=ap)
    c2 = net.add_client("C2", -10, 0, ap=ap)
    net.finalize()
    return net, ap, c1, c2


class TestConstruction:
    def test_invalid_mac_kind_rejected(self):
        with pytest.raises(ValueError):
            Network(ns2_params(), mac_kind="tdma")

    def test_duplicate_names_rejected(self):
        net = Network(ns2_params())
        net.add_ap("AP", 0, 0)
        with pytest.raises(ValueError):
            net.add_ap("AP", 1, 1)

    def test_association(self):
        net, ap, c1, c2 = small_network()
        assert c1.associated_ap is ap
        assert set(ap.clients) == {c1, c2}

    def test_client_cannot_be_ap_target(self):
        net = Network(ns2_params())
        c1 = net.add_client("C1", 0, 0)
        c2 = net.add_client("C2", 1, 1)
        with pytest.raises(ValueError):
            c1.associate(c2)

    def test_node_lookup_by_name(self):
        net, ap, c1, _ = small_network()
        assert net.node("C1") is c1

    def test_traffic_requires_finalize(self):
        net = Network(ns2_params())
        ap = net.add_ap("AP", 0, 0)
        c = net.add_client("C", 5, 0, ap=ap)
        with pytest.raises(RuntimeError):
            net.add_saturated(c, ap)

    def test_no_nodes_after_finalize(self):
        net, *_ = small_network()
        with pytest.raises(RuntimeError):
            net.add_ap("late", 0, 0)

    def test_per_node_cs_override(self):
        net = Network(ns2_params())
        c = net.add_client("C", 0, 0, cs_threshold_dbm=-40.0)
        assert c.radio.config.cs_threshold_dbm == -40.0

    def test_unknown_mac_override_rejected(self):
        with pytest.raises(AttributeError):
            Network(ns2_params(), mac_overrides={"bogus_field": 1})

    @pytest.mark.parametrize("override", [{"constant_cw": 0}])
    def test_invalid_mac_override_rejected(self, override):
        # The override goes through MacConfig's own validation, when the
        # network is built, not at the first backoff drawn from an empty
        # window.
        with pytest.raises(ValueError):
            Network(ns2_params(), mac_kind="comap", seed=1, mac_overrides=override)

    @pytest.mark.parametrize(
        "override", [{"sr_window": 1}, {"announce_mode": "embedded"}]
    )
    def test_protocol_setting_is_not_a_mac_override(self, override):
        # CoMapConfig owns these; set them through params.comap.
        with pytest.raises(AttributeError, match="unknown MAC config field"):
            Network(ns2_params(), mac_kind="comap", mac_overrides=override)


class TestRunsAndResults:
    def test_saturated_uplink_goodput(self):
        net, ap, c1, _ = small_network()
        net.add_saturated(c1, ap)
        results = net.run(0.3)
        goodput = results.goodput_mbps(c1.node_id, ap.node_id)
        assert 2.0 < goodput < 6.0  # a clean 6 Mbps link minus overheads

    def test_unknown_flow_reports_zero(self):
        net, ap, c1, c2 = small_network()
        net.add_saturated(c1, ap)
        results = net.run(0.1)
        assert results.goodput_bps(c2.node_id, ap.node_id) == 0.0

    def test_cbr_flow_throttled_by_rate(self):
        net, ap, c1, _ = small_network()
        net.add_cbr(c1, ap, rate_bps=500_000)
        results = net.run(0.5)
        assert results.goodput_mbps(c1.node_id, ap.node_id) == pytest.approx(0.5, rel=0.15)

    def test_consecutive_runs_accumulate(self):
        net, ap, c1, _ = small_network()
        net.add_saturated(c1, ap)
        r1 = net.run(0.1)
        r2 = net.run(0.1)
        assert r2.duration_ns == 2 * r1.duration_ns
        assert r2.flows[(c1.node_id, ap.node_id)].delivered_packets >= (
            r1.flows[(c1.node_id, ap.node_id)].delivered_packets
        )

    def test_determinism_across_identical_runs(self):
        def run_once():
            net, ap, c1, c2 = small_network(seed=11)
            net.add_saturated(c1, ap)
            net.add_saturated(c2, ap)
            return net.run(0.2).per_flow_mbps()

        assert run_once() == run_once()

    def test_aggregate_goodput(self):
        net, ap, c1, c2 = small_network()
        net.add_saturated(c1, ap)
        net.add_saturated(c2, ap)
        results = net.run(0.3)
        agg = results.aggregate_goodput_bps
        assert agg == pytest.approx(
            results.goodput_bps(c1.node_id, ap.node_id)
            + results.goodput_bps(c2.node_id, ap.node_id)
        )


class TestCoMapWiring:
    def test_agents_created_only_for_comap(self):
        net_dcf, *_ = small_network("dcf")
        net_comap, *_ = small_network("comap")
        assert all(n.agent is None for n in net_dcf.nodes.values())
        assert all(n.agent is not None for n in net_comap.nodes.values())

    def test_location_exchange_populates_tables(self):
        net, ap, c1, c2 = small_network("comap")
        agent = c1.agent
        assert len(agent.neighbor_table) == 3
        assert agent.neighbor_table.get(ap.node_id).is_ap

    def test_error_model_perturbs_reported_positions(self):
        net = Network(ns2_params(), mac_kind="comap",
                      error_model=UniformDiskError(10.0), seed=2)
        ap = net.add_ap("AP", 0, 0)
        c = net.add_client("C", 20, 0, ap=ap)
        net.finalize()
        reported = c.agent.neighbor_table.position_of(c.node_id)
        assert reported != Point(20, 0)
        assert Point(20, 0).distance_to(reported) <= 10.0

    def test_all_agents_see_same_reported_position(self):
        net = Network(ns2_params(), mac_kind="comap",
                      error_model=UniformDiskError(10.0), seed=2)
        ap = net.add_ap("AP", 0, 0)
        c = net.add_client("C", 20, 0, ap=ap)
        net.finalize()
        assert (ap.agent.neighbor_table.position_of(c.node_id)
                == c.agent.neighbor_table.position_of(c.node_id))

    def test_finalize_installs_each_band_in_node_order(self):
        # 8 APs on 3 bands, 3 clients each, finalized by the builder.
        # Every agent must learn exactly its own band's nodes, in node-id
        # order, each at that node's report (which the error model moves
        # off the truth).
        net = full_floor_topology(
            "comap", topology_seed=3, seed=1, error_model=UniformDiskError(5.0)
        ).network
        assert len(net.nodes) == 32
        for node in net.nodes.values():
            rows = node.agent.neighbor_table.neighbors()
            band = [i for i, peer in net.nodes.items() if peer.band == node.band]
            assert [row.node_id for row in rows] == band
            for row in rows:
                assert row.position == net.nodes[row.node_id].agent.reported_position
            assert node.agent.reported_position != node.position

    def test_finalize_refreshes_adaptation_once_per_mac(self):
        net = full_floor_topology("comap", topology_seed=3, seed=1).network
        # One refresh per CO-MAP MAC with a receiver, not one per report.
        assert net.counters()["comap/adaptation_refreshes"] == 32

    def test_comap_goodput_comparable_on_single_link(self):
        # One clean link: CO-MAP's machinery must not break basic delivery.
        net, ap, c1, _ = small_network("comap")
        net.add_saturated(c1, ap)
        goodput = net.run(0.3).goodput_mbps(c1.node_id, ap.node_id)
        assert goodput > 2.0

    def test_location_overhead_estimate(self):
        net, *_ = small_network("comap")
        overhead = net.location_overhead_bytes()
        assert overhead > 0
        # 2 clients upload + redistribution of 3 records to 2 clients.
        assert overhead == 2 * 40 + 2 * 3 * 40


def _frame_kinds(net, duration_s):
    """Run ``net`` and return the kinds of every frame put on the air."""
    kinds = []
    transmit = net.channel.transmit

    def spy(sender, frame):
        kinds.append(frame.kind)
        return transmit(sender, frame)

    net.channel.transmit = spy
    net.run(duration_s)
    return set(kinds)


class TestProtocolSettings:
    """The CO-MAP MAC runs the announcement method and SR window of the
    network's ``params.comap``, the only place they are set."""

    def test_ns2_params_announce_embedded(self):
        scenario = exposed_terminal_topology("comap", c2_x=30.0, seed=1,
                                             params=ns2_params())
        kinds = _frame_kinds(scenario.network, 0.05)
        assert FrameType.COMAP_HEADER not in kinds
        assert scenario.network.counters()["comap/headers_sent"] > 0
        # The testbed preset keeps the separate header packet.
        separate = exposed_terminal_topology("comap", c2_x=30.0, seed=1)
        assert FrameType.COMAP_HEADER in _frame_kinds(separate.network, 0.05)

    def test_sr_window_one_is_stop_and_wait(self):
        def deferrals(sr_window):
            params = testbed_params()
            params = params.with_overrides(
                comap=dataclasses.replace(params.comap, sr_window=sr_window)
            )
            scenario = exposed_terminal_topology("comap", c2_x=30.0, seed=1,
                                                 params=params)
            scenario.network.run(0.2)
            return scenario.network.counters().get("arq/advances", 0)

        assert deferrals(8) > 0
        assert deferrals(1) == 0


class TestPositionUpdates:
    def test_update_propagates_when_threshold_exceeded(self):
        net, ap, c1, _ = small_network("comap")
        moved = net.update_node_position(c1, Point(40, 0))
        assert moved
        assert ap.agent.neighbor_table.position_of(c1.node_id) == Point(40, 0)

    def test_small_move_suppressed(self):
        net, ap, c1, _ = small_network("comap")
        before = ap.agent.neighbor_table.position_of(c1.node_id)
        moved = net.update_node_position(c1, Point(11, 0))  # 1 m move
        assert not moved
        assert ap.agent.neighbor_table.position_of(c1.node_id) == before
        # The radio's true position moved regardless.
        assert c1.position == Point(11, 0)

    def test_dcf_network_ignores_updates(self):
        net, ap, c1, _ = small_network("dcf")
        assert not net.update_node_position(c1, Point(50, 0))
