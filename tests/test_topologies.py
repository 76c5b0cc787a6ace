"""Topology builders: geometry invariants and smoke runs."""

import pytest

from repro.experiments.topologies import (
    _FIG9_SLOTS,
    enterprise_floor_topology,
    exposed_terminal_topology,
    fig9_configurations,
    full_floor_topology,
    hidden_terminal_topology,
    ht_adaptation_topology,
    model_validation_topology,
    multi_et_topology,
    office_floor_topology,
    rival_et_topology,
)

#: Every builder that takes a MAC kind, building a location-aware network.
LOCATION_AWARE_BUILDERS = {
    "exposed": lambda: exposed_terminal_topology("comap", c2_x=30.0),
    "hidden": lambda: hidden_terminal_topology("comap", payload_bytes=500),
    "multi_et": lambda: multi_et_topology("comap"),
    "rival_et": lambda: rival_et_topology("csr"),
    "ht_adaptation": lambda: ht_adaptation_topology(
        "comap", fig9_configurations()[0]
    ),
    "office": lambda: office_floor_topology("comap", topology_seed=1),
    "enterprise": lambda: enterprise_floor_topology("csr", topology_seed=1),
    "full_floor": lambda: full_floor_topology("comap", topology_seed=3),
}


@pytest.mark.parametrize("builder", sorted(LOCATION_AWARE_BUILDERS))
def test_same_band_agents_read_one_table(builder):
    network = LOCATION_AWARE_BUILDERS[builder]().network
    by_band = {}
    for node in network.nodes.values():
        by_band.setdefault(node.band, []).append(node)
    tables = set()
    for band, nodes in by_band.items():
        table = nodes[0].agent.neighbor_table
        assert all(node.agent.neighbor_table is table for node in nodes)
        assert [row.node_id for row in table] == [node.node_id for node in nodes]
        tables.add(id(table))
    assert len(tables) == len(by_band)


class TestExposedTerminalTopology:
    def test_geometry(self):
        s = exposed_terminal_topology("dcf", c2_x=26.0)
        assert s.extra["ap1"].position.x == 0.0
        assert s.extra["ap2"].position.x == 36.0
        assert s.extra["c1"].position.x == -8.0
        assert s.extra["c2"].position.x == 26.0

    def test_smoke_run(self):
        goodput = exposed_terminal_topology("dcf", c2_x=26.0).run_goodput_mbps(0.2)
        assert goodput > 0.5

    def test_tcp_traffic_variant(self):
        s = exposed_terminal_topology("dcf", c2_x=26.0, traffic="tcp")
        assert s.run_goodput_mbps(0.3) > 0.2

    def test_comap_variant_builds_agents(self):
        s = exposed_terminal_topology("comap", c2_x=26.0)
        assert s.extra["c1"].agent is not None

    def test_mac_overrides_reach_every_mac(self):
        s = exposed_terminal_topology(
            "dcf", c2_x=26.0, mac_overrides={"use_rts_cts": True}
        )
        assert all(node.mac.config.use_rts_cts for node in s.network.nodes.values())


class TestHiddenTerminalTopology:
    def test_rejects_multiple_hts(self):
        with pytest.raises(ValueError):
            hidden_terminal_topology("dcf", payload_bytes=500, n_ht=2)

    def test_without_ht_high_goodput(self):
        g = hidden_terminal_topology("dcf", payload_bytes=1470, n_ht=0).run_goodput_mbps(0.4)
        assert g > 3.0

    def test_with_ht_goodput_collapses(self):
        g0 = hidden_terminal_topology("dcf", 1470, n_ht=0, seed=1).run_goodput_mbps(0.4)
        g1 = hidden_terminal_topology("dcf", 1470, n_ht=1, seed=1).run_goodput_mbps(0.4)
        assert g1 < g0 / 2

    def test_hidden_relation_holds(self):
        # C2 must not carrier-sense C1's transmissions (most of the time).
        s = hidden_terminal_topology("comap", 1000, n_ht=1)
        c1 = s.extra["c1"]
        agent = c1.agent
        hidden, _ = agent.link_counts(s.extra["ap1"].node_id)
        assert hidden >= 1


class TestModelValidationTopology:
    def test_contender_count_respected(self):
        s = model_validation_topology(window=63, payload_bytes=500, hidden=0, contenders=3)
        clients = [n for n in s.network.nodes.values() if not n.is_ap]
        assert len(clients) == 4  # tagged + 3 rivals

    def test_hidden_nodes_cs_disabled(self):
        s = model_validation_topology(window=63, payload_bytes=500, hidden=2)
        h0 = s.network.node("H0")
        assert h0.radio.config.cs_threshold_dbm == 40.0

    def test_smoke_run(self):
        g = model_validation_topology(window=63, payload_bytes=800, hidden=1).run_goodput_mbps(0.3)
        assert g > 0


class TestFig9Configurations:
    def test_ten_distinct_configurations(self):
        configs = fig9_configurations()
        assert len(configs) == 10
        assert len(set(configs)) == 10
        for slots in configs:
            assert len(slots) == 3
            assert len(set(slots)) == 3
            assert all(0 <= s < len(_FIG9_SLOTS) for s in slots)

    def test_slot_kinds_cover_all_roles(self):
        kinds = {kind for kind, _, _ in _FIG9_SLOTS}
        assert kinds == {"contender", "hidden", "independent"}

    def test_classification_matches_slot_labels(self):
        # Build the all-hidden configuration and check the agent agrees.
        s = ht_adaptation_topology("comap", slots=(3, 4, 5))
        c1 = s.extra["c1"]
        hidden, contenders = c1.agent.link_counts(s.network.node("AP1").node_id)
        assert hidden == 3
        s2 = ht_adaptation_topology("comap", slots=(0, 1, 2))
        c1b = s2.extra["c1"]
        hidden2, contenders2 = c1b.agent.link_counts(s2.network.node("AP1").node_id)
        assert hidden2 == 0
        assert contenders2 == 3


class TestOfficeFloorTopology:
    def test_three_aps_n_clients(self):
        s = office_floor_topology("dcf", topology_seed=1)
        aps = [n for n in s.network.nodes.values() if n.is_ap]
        clients = [n for n in s.network.nodes.values() if not n.is_ap]
        assert len(aps) == 3
        assert len(clients) == 9

    def test_two_way_flows(self):
        s = office_floor_topology("dcf", topology_seed=1)
        assert len(s.extra["flows"]) == 18

    def test_every_client_associated_to_nearest_ap(self):
        s = office_floor_topology("dcf", topology_seed=2)
        aps = s.extra["aps"]
        for client in s.extra["clients"]:
            nearest = min(aps, key=lambda ap: ap.position.distance_to(client.position))
            assert client.associated_ap is nearest

    def test_topology_seed_changes_placement(self):
        a = office_floor_topology("dcf", topology_seed=1)
        b = office_floor_topology("dcf", topology_seed=2)
        pos_a = [c.position for c in a.extra["clients"]]
        pos_b = [c.position for c in b.extra["clients"]]
        assert pos_a != pos_b

    def test_smoke_run(self):
        s = office_floor_topology("dcf", topology_seed=1)
        results = s.network.run(0.2)
        assert results.aggregate_goodput_bps > 1e6


class TestMultiEtTopology:
    def test_three_cells(self):
        s = multi_et_topology("comap")
        assert len(s.extra["clients"]) == 3
        assert len(s.extra["aps"]) == 3

    def test_scheduler_flag_plumbed(self):
        s = multi_et_topology("comap", enhanced_scheduler=False)
        assert not s.extra["clients"][0].mac.config.enhanced_scheduler


class TestSchedulerOverride:
    @pytest.mark.parametrize("builder", [multi_et_topology, rival_et_topology])
    @pytest.mark.parametrize("mac_kind", ["comap", "csr"])
    def test_disabled_scheduler_reaches_every_mac(self, builder, mac_kind):
        s = builder(mac_kind, seed=1, enhanced_scheduler=False)
        macs = [node.mac for node in s.network.nodes.values()]
        assert macs and not any(mac.config.enhanced_scheduler for mac in macs)

    @pytest.mark.parametrize("builder", [multi_et_topology, rival_et_topology])
    @pytest.mark.parametrize("mac_kind", ["dcf", "cmap"])
    def test_kind_without_scheduler_rejects_disabling_it(self, builder, mac_kind):
        with pytest.raises(AttributeError, match="enhanced_scheduler"):
            builder(mac_kind, seed=1, enhanced_scheduler=False)
