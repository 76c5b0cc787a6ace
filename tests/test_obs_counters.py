"""The typed counter registry (repro.obs.counters)."""

import pytest

from repro.experiments.params import ns2_params
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
        h = Histogram("lat")
        for v in (2.0, 8.0, 5.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == pytest.approx(15.0)
        assert h.minimum == 2.0
        assert h.maximum == 8.0
        assert h.mean == pytest.approx(5.0)

    def test_empty_histogram(self):
        h = Histogram("lat")
        assert h.mean == 0.0
        assert h.as_dict() == {"count": 0, "sum": 0.0}


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
        with pytest.raises(ValueError, match="no buckets"):
            Histogram("lat").quantile(0.5)
        h = Histogram("lat", buckets=(10,))
        with pytest.raises(ValueError, match="fraction"):
            h.quantile(1.5)
        assert h.quantile(0.99) == 0.0  # empty histogram

    def test_snapshot_flattening_unchanged_by_buckets(self):
        reg = CounterRegistry()
        h = reg.histogram("lat", buckets=(10, 20))
        h.observe(5)
        h.observe(15)
        snap = reg.snapshot()
        assert snap == {
            "lat/count": 2, "lat/sum": 20.0, "lat/min": 5.0, "lat/max": 15.0,
        }

    def test_registry_rejects_bucket_mismatch(self):
        reg = CounterRegistry()
        reg.histogram("lat", buckets=(10, 20))
        assert reg.histogram("lat").bounds == (10.0, 20.0)  # get without buckets
        assert reg.histogram("lat", buckets=(10, 20)).bounds == (10.0, 20.0)
        with pytest.raises(ValueError, match="already created"):
            reg.histogram("lat", buckets=(10, 30))

    def test_registry_get_is_side_effect_free(self):
        reg = CounterRegistry()
        assert reg.get("missing") is None
        assert len(reg) == 0
        c = reg.counter("present")
        assert reg.get("present") is c


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = CounterRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_type_collision_raises(self):
        reg = CounterRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.histogram("a")

    def test_snapshot_flattens_histograms(self):
        reg = CounterRegistry()
        reg.counter("sent").inc(2)
        reg.histogram("lat").observe(3.0)
        snap = reg.snapshot()
        assert snap["sent"] == 2
        assert snap["lat/count"] == 1
        assert snap["lat/sum"] == 3.0
        assert snap["lat/min"] == 3.0
        assert snap["lat/max"] == 3.0

    def test_sources_prefixed_and_summed(self):
        # Several sources sharing a prefix aggregate per-name — exactly
        # the per-network MAC-counter aggregation the metrics need.
        reg = CounterRegistry()
        reg.register_source("mac", lambda: {"tx": 2, "rx": 1})
        reg.register_source("mac", lambda: {"tx": 3})
        reg.register_source("", lambda: {"bare": 9})
        snap = reg.snapshot()
        assert snap["mac/tx"] == 5
        assert snap["mac/rx"] == 1
        assert snap["bare"] == 9

    def test_source_overlapping_owned_metric_sums(self):
        reg = CounterRegistry()
        reg.counter("mac/tx").inc(10)
        reg.register_source("mac", lambda: {"tx": 5})
        assert reg.snapshot()["mac/tx"] == 15

    def test_merge_snapshot_accumulates(self):
        reg = CounterRegistry()
        reg.merge_snapshot({"a": 2, "b": 1})
        reg.merge_snapshot({"a": 3, "neg": -5, "zero": 0})
        snap = reg.snapshot()
        assert snap["a"] == 5
        assert snap["b"] == 1
        assert "neg" not in snap
        assert "zero" not in snap

    def test_merge_into_histogram_name_raises(self):
        # A snapshot folds into counters only, as counter() would.
        reg = CounterRegistry()
        reg.histogram("lat").observe(1.0)
        with pytest.raises(TypeError):
            reg.merge_snapshot({"lat": 4.0})

    def test_clear_and_len(self):
        reg = CounterRegistry()
        reg.counter("a")
        reg.register_source("p", dict)
        assert len(reg) == 2
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
