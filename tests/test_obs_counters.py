"""Counter primitives, the sweep tally (repro.obs.counters), and a
network's counter snapshot and per-flow latency."""

import pytest

from repro.experiments.params import ns2_params, testbed_params
from repro.experiments.topologies import (
    enterprise_floor_topology,
    exposed_terminal_topology,
)
from repro.faults import AckLossBurst, FaultPlan, LocationOutage, NodeChurn
from repro.net.network import Network
from repro.obs.counters import (
    Counter,
    CounterRegistry,
    Histogram,
    diff_snapshot,
)


class TestMetricPrimitives:
    def test_counter_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_histogram_streaming_summary(self):
        h = Histogram("lat", buckets=(10,))
        for v in (2.0, 8.0, 5.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == pytest.approx(15.0)
        assert h.minimum == 2.0
        assert h.maximum == 8.0
        assert h.mean == pytest.approx(5.0)

    def test_empty_histogram(self):
        h = Histogram("lat", buckets=(10,))
        assert (h.count, h.total, h.mean) == (0, 0.0, 0.0)
        assert h.minimum is None and h.maximum is None
        assert h.bucket_counts == [0, 0]


class TestHistogramBuckets:
    def test_bucket_counts_use_le_semantics(self):
        h = Histogram("lat", buckets=(10, 20, 30))
        for v in (5, 10, 15, 30, 31):
            h.observe(v)
        # le-10: {5, 10}; le-20: {15}; le-30: {30}; overflow: {31}.
        assert h.bucket_counts == [2, 1, 1, 1]

    def test_bucket_validation(self):
        with pytest.raises(ValueError, match="empty"):
            Histogram("lat", buckets=())
        with pytest.raises(ValueError, match="strictly increase"):
            Histogram("lat", buckets=(1, 1, 2))
        with pytest.raises(ValueError, match="strictly increase"):
            Histogram("lat", buckets=(3, 2))

    def test_quantile_walks_cumulative_counts(self):
        h = Histogram("lat", buckets=(10, 20, 30, 40))
        for v in (1, 2, 12, 22, 22, 22, 22, 22, 22, 38):
            h.observe(v)
        assert h.quantile(0.2) == 10.0
        assert h.quantile(0.3) == 20.0
        assert h.quantile(0.9) == 30.0
        # quantile(1.0) is clamped down to the exact observed maximum,
        # not the coarse bucket bound above it.
        assert h.quantile(1.0) == 38.0

    def test_quantile_clamps_into_observed_range(self):
        h = Histogram("lat", buckets=(100,))
        h.observe(7)
        # Every sample sits in the le-100 bucket, but no sample reached
        # 100: the estimate clamps to the observed min/max.
        assert h.quantile(0.5) == 7.0
        assert h.quantile(0.0) == 7.0

    def test_quantile_overflow_bucket_reports_maximum(self):
        h = Histogram("lat", buckets=(10,))
        h.observe(5)
        h.observe(500)
        assert h.quantile(1.0) == 500.0

    def test_quantile_requires_buckets_and_valid_q(self):
        with pytest.raises(TypeError):
            Histogram("lat")  # buckets are required
        h = Histogram("lat", buckets=(10,))
        with pytest.raises(ValueError, match="fraction"):
            h.quantile(1.5)
        assert h.quantile(0.99) == 0.0  # empty histogram


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = CounterRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_merge_snapshot_accumulates(self):
        reg = CounterRegistry()
        reg.merge_snapshot({"a": 2, "b": 1})
        reg.merge_snapshot({"a": 3, "neg": -5, "zero": 0})
        snap = reg.snapshot()
        assert snap["a"] == 5
        assert snap["b"] == 1
        assert "neg" not in snap
        assert "zero" not in snap

    def test_clear_and_len(self):
        reg = CounterRegistry()
        reg.counter("a")
        reg.counter("b").inc(3)
        assert len(reg) == 2
        assert reg.snapshot() == {"a": 0, "b": 3}
        reg.clear()
        assert len(reg) == 0
        assert reg.snapshot() == {}


class TestDiffSnapshot:
    def test_positive_deltas_only(self):
        before = {"a": 1, "b": 5, "gone": 2}
        after = {"a": 4, "b": 5, "new": 7}
        assert diff_snapshot(before, after) == {"a": 3, "new": 7}

    def test_roundtrip_with_merge(self):
        parent = CounterRegistry()
        parent.merge_snapshot(diff_snapshot({"x": 1}, {"x": 6, "y": 2}))
        snap = parent.snapshot()
        assert snap == {"x": 5, "y": 2}


#: The C-SR backhaul latency every kind below runs with (only "csr"
#: wires a backhaul from it).
BACKHAUL_NS = 200_000


def floor(mac_kind, duration_s=0.05):
    """A finished 4-AP enterprise floor with the backhaul latency set."""
    built = enterprise_floor_topology(
        mac_kind, topology_seed=2000, seed=1,
        params=ns2_params().with_overrides(csr_backhaul_latency_ns=BACKHAUL_NS),
    )
    built.network.run(duration_s)
    return built


def faulted_fig8():
    """A finished CO-MAP Fig. 8 pair under a location, ACK and churn plan."""
    built = exposed_terminal_topology(
        "comap", c2_x=30.0, seed=3, params=testbed_params()
    )
    built.network.install_faults(FaultPlan(
        events=(
            LocationOutage(node="C1", start_ns=10_000_000, duration_ns=20_000_000),
            AckLossBurst(node="C1", start_ns=10_000_000, duration_ns=20_000_000),
            NodeChurn(node="C2", leave_ns=30_000_000, rejoin_ns=40_000_000),
        ),
        report_interval_ns=2_000_000,
    ))
    built.network.run(0.06)
    return built


class TestNetworkIntegration:
    def run_network(self, mac_kind):
        net = Network(ns2_params(), mac_kind=mac_kind, seed=0)
        ap = net.add_ap("AP", 0, 0)
        c = net.add_client("C", 10, 0, ap=ap)
        net.finalize()
        net.add_saturated(c, ap)
        net.run(0.1)
        return net

    def test_network_registers_all_layers(self):
        net = self.run_network("comap")
        snap = net.counters()
        assert "comap/headers_sent" in snap
        assert snap["mac/data_transmissions"] > 0
        assert snap["channel/frames_sent"] > 0
        assert snap["sim/events_fired"] > 0

    def test_dcf_network_has_mac_but_no_comap(self):
        net = self.run_network("dcf")
        snap = net.counters()
        assert snap["mac/data_transmissions"] > 0
        assert not any(key.startswith("comap/") for key in snap)

    def test_parts_prefixed_and_summed(self):
        # Same-named counters of every node (and band) are summed under
        # the part's prefix; C-SR adds the backhaul's two under csr/.
        net = floor("csr").network
        snap = net.counters()
        macs = [node.mac for node in net.nodes.values()]
        assert snap["mac/enqueued"] == sum(mac.stats.enqueued for mac in macs)
        assert snap["csr/txop_announced"] == sum(
            mac.csr_stats.txop_announced for mac in macs
        )
        assert snap["comap/stale_denials"] == sum(
            mac.agent.stale_denials for mac in macs
        )
        assert snap["channel/frames_sent"] == sum(
            channel.frames_sent for channel in net.channels.values()
        )
        assert snap["sim/events_fired"] == net.sim.events_fired
        assert snap["csr/backhaul_messages"] == net.backhaul.messages > 0
        assert snap["csr/backhaul_deliveries"] == net.backhaul.deliveries

    @pytest.mark.parametrize("mac_kind", ["dcf", "comap", "cmap", "csr"])
    def test_every_value_is_an_int(self, mac_kind):
        snap = floor(mac_kind).network.counters()
        assert snap["mac/delivered_packets"] > 0
        assert {key: type(value) for key, value in snap.items()
                if type(value) is not int} == {}
        # No latency summary reaches a snapshot: it is MAC-held.
        assert not any(key.startswith("latency/") for key in snap)

    def test_every_value_is_an_int_under_a_fault_plan(self):
        snap = faulted_fig8().network.counters()
        assert snap["faults/churn_leaves"] == 1
        assert snap["faults/acks_dropped"] > 0
        assert {key: type(value) for key, value in snap.items()
                if type(value) is not int} == {}


class TestMacLatency:
    """Each MAC holds the latency of the flows it delivered: one sample
    per unique delivery, and no histogram for a flow it never did."""

    def assert_latency_matches_deliveries(self, net, flows):
        for node in net.nodes.values():
            mac = node.mac
            assert {
                flow: hist.count for flow, hist in mac.latency.items()
            } == mac.stats.delivered_packets_by_flow
        for src, dst in flows:
            delivered = net.nodes[dst].mac.stats.delivered_packets_by_flow
            hist = net.nodes[dst].mac.latency.get((src, dst))
            if delivered.get((src, dst), 0):
                assert hist.count == delivered[(src, dst)]
                assert 0 < hist.minimum <= hist.quantile(0.99) <= hist.maximum
            else:
                assert hist is None

    def test_csr_floor(self):
        built = floor("csr")
        flows = built.extra["flows"]
        self.assert_latency_matches_deliveries(built.network, flows)
        assert any(
            built.network.nodes[dst].mac.latency.get((src, dst)) is not None
            for src, dst in flows
        )

    def test_fig8_pair(self):
        built = exposed_terminal_topology(
            "comap", c2_x=20.0, seed=3, params=testbed_params()
        )
        net = built.network
        c1, c2 = built.extra["c1"], built.extra["c2"]
        ap1, ap2 = built.extra["ap1"], built.extra["ap2"]
        flows = [(c1.node_id, ap1.node_id), (c2.node_id, ap2.node_id)]
        # Before the run no flow has delivered, so none has a histogram.
        self.assert_latency_matches_deliveries(net, flows)
        assert all(not node.mac.latency for node in net.nodes.values())
        net.run(0.1)
        self.assert_latency_matches_deliveries(net, flows)
        # The reverse directions carry no traffic and have no histogram.
        assert c1.mac.latency.get((ap1.node_id, c1.node_id)) is None
        assert ap1.mac.latency[flows[0]].count > 0
