"""Graceful CO-MAP degradation under location-service faults.

The paper's protocol consumes location input; the robustness contract is
that when that input fails, CO-MAP *degrades to plain DCF* instead of
collapsing — stale positions must never validate concurrency — and
re-enables its concurrency gains once reports resume.

The headline scenario pins the acceptance criterion: under a 100%
location-report outage, CO-MAP per-flow goodput stays within 5% of the
plain-DCF baseline (it must not collapse below it), and after the
outage heals the protocol re-enters concurrent operation.
"""

import dataclasses

import pytest

from repro.core.co_occurrence import CoOccurrenceMap
from repro.core.neighbor_table import NeighborTable
from repro.experiments.params import testbed_params
from repro.experiments.topologies import exposed_terminal_topology
from repro.faults import (
    AckLossBurst,
    AnnouncementLoss,
    CoMapCorruption,
    CoMapExpiry,
    FaultPlan,
    FrozenLocation,
    LocationDrift,
    LocationOutage,
)
from repro.util.geometry import Point

#: Scenario constants: C2 in the exposed-terminal gain region, a
#: location TTL comfortably above the keep-alive interval (freshness
#: must outlive the gap between ticks, or healthy nodes oscillate
#: in and out of fallback).
C2_X = 30.0
SEED = 3
DURATION_S = 0.3
TTL_NS = 6_000_000
INTERVAL_NS = 2_000_000
ALL_NODES = ("AP1", "AP2", "C1", "C2")


def _params(ttl_ns=TTL_NS):
    params = testbed_params()
    return params.with_overrides(
        comap=dataclasses.replace(params.comap, location_ttl_ns=ttl_ns)
    )


def _run(mac_kind, plan=None, params=None):
    built = exposed_terminal_topology(
        mac_kind, c2_x=C2_X, seed=SEED, params=params or testbed_params()
    )
    net = built.network
    injector = net.install_faults(plan) if plan is not None else None
    results = net.run(DURATION_S)
    return net, results, injector


def _outage_plan(duration_ns):
    return FaultPlan(
        events=tuple(
            LocationOutage(node=name, start_ns=0, duration_ns=duration_ns)
            for name in ALL_NODES
        ),
        report_interval_ns=INTERVAL_NS,
    )


class TestOutageDegradation:
    """The acceptance scenario: 100% outage ≈ DCF, heal → concurrency."""

    @pytest.fixture(scope="class")
    def runs(self):
        _, dcf, _ = _run("dcf")
        outage_net, outage, _ = _run(
            "comap", _outage_plan(2 * int(DURATION_S * 1e9)), _params()
        )
        heal_net, heal, _ = _run(
            "comap", _outage_plan(int(DURATION_S * 1e9 / 2)), _params()
        )
        return dcf, outage_net, outage, heal_net, heal

    def test_no_collapse_below_dcf(self, runs):
        dcf, _, outage, _, _ = runs
        for flow, dcf_mbps in dcf.per_flow_mbps().items():
            outage_mbps = outage.per_flow_mbps()[flow]
            assert outage_mbps >= 0.95 * dcf_mbps, (
                f"flow {flow}: outage CO-MAP {outage_mbps:.2f} Mbps collapsed "
                f"below 95% of DCF {dcf_mbps:.2f} Mbps"
            )

    def test_outage_forces_fallback(self, runs):
        _, outage_net, _, _, _ = runs
        counters = outage_net.counters()
        assert counters["comap/fallback_entered"] >= 1
        assert counters["comap/fallback_exited"] == 0  # never healed
        assert counters["comap/fallback_tx_frames"] > 0
        assert counters["faults/reports_suppressed"] > 0

    def test_heal_recovers_concurrency(self, runs):
        dcf, outage_net, outage, heal_net, heal = runs
        healed = heal_net.counters()
        degraded = outage_net.counters()
        # Fallback is an episode, not a one-way door.
        assert healed["comap/fallback_exited"] >= 1
        # Concurrency restarts after the heal...
        assert (
            healed["comap/concurrent_transmissions"]
            >= 5 * max(1, degraded["comap/concurrent_transmissions"])
        )
        # ...fewer frames go out in degraded plain-DCF mode...
        assert (
            healed["comap/fallback_tx_frames"]
            < degraded["comap/fallback_tx_frames"]
        )
        # ...and the run beats both the never-healed run and plain DCF.
        assert heal.aggregate_goodput_bps > outage.aggregate_goodput_bps
        assert heal.aggregate_goodput_bps > dcf.aggregate_goodput_bps


class TestStalenessMachinery:
    """Unit-level: location freshness, stale denials, map damage."""

    def test_co_map_corrupt_flips_verdicts(self):
        co_map = CoOccurrenceMap(owner_id=9)
        co_map.record((1, 2), 3, True)
        co_map.record((4, 5), 6, False)
        flipped = co_map.corrupt(rng=None, flip_prob=1.0)  # certainty: no draws
        assert flipped == 2
        assert co_map.query((1, 2), 3) is False
        assert co_map.query((4, 5), 6) is True
        assert co_map.entry_count == 2

    def test_neighbor_table_freshness(self):
        table = NeighborTable()
        table.update(2, Point(0.0, 0.0), now=100)
        assert table.is_fresh(2, now=150, ttl_ns=100)
        assert not table.is_fresh(2, now=300, ttl_ns=100)
        assert table.is_fresh(2, now=10**12, ttl_ns=None)  # TTL off
        assert not table.is_fresh(99, now=0, ttl_ns=None)

    def test_stale_neighbor_denies_concurrency(self):
        built = exposed_terminal_topology(
            "comap", c2_x=C2_X, seed=SEED, params=_params()
        )
        net = built.network
        c1 = net.node("C1")
        agent = c1.agent
        ap1 = net.node("AP1").node_id
        ap2 = net.node("AP2").node_id
        c2 = net.node("C2").node_id
        fresh_now = 0
        assert agent.concurrency_allowed(c2, ap2, ap1, now=fresh_now) in (
            True,
            False,
        )
        before = agent.stale_denials
        cached_before = agent.co_map.query((c2, ap2), ap1)
        stale_now = 10 * TTL_NS
        assert agent.concurrency_allowed(c2, ap2, ap1, now=stale_now) is False
        assert agent.stale_denials == before + 1
        # The conservative denial is not written into the co-occurrence
        # map: once fresh reports resume, the cached verdict (from the
        # fresh-validation above) is still available unchanged.
        assert agent.co_map.query((c2, ap2), ap1) == cached_before


class TestScheduledMapDamage:
    def _flows_survive(self, plan):
        net, results, injector = _run("comap", plan, _params())
        for flow, mbps in results.per_flow_mbps().items():
            assert mbps > 0, f"flow {flow} starved under {plan}"
        return net, injector

    def test_co_map_expiry_event(self):
        plan = FaultPlan(
            events=(CoMapExpiry(node="C2", at_ns=50_000_000),),
        )
        net, injector = self._flows_survive(plan)
        assert injector.counters["comap_entries_expired"] > 0
        assert net.counters()["faults/comap_entries_expired"] > 0

    def test_co_map_corruption_event(self):
        plan = FaultPlan(
            events=(
                CoMapCorruption(node="C2", at_ns=50_000_000, flip_prob=1.0),
            ),
        )
        net, injector = self._flows_survive(plan)
        assert injector.counters["comap_entries_corrupted"] > 0

    def test_announcement_loss_suppresses_opportunities(self):
        window = int(DURATION_S * 1e9)
        plan = FaultPlan(
            events=tuple(
                AnnouncementLoss(node=name, start_ns=0, duration_ns=window)
                for name in ALL_NODES
            ),
        )
        net, injector = self._flows_survive(plan)
        assert injector.counters["announcements_dropped"] > 0
        # With every announcement lost, no exposed-terminal concurrency
        # can start mid-air.
        assert net.counters()["comap/concurrent_transmissions"] == 0


class TestDegradedReports:
    def test_frozen_location_keeps_freshness(self):
        window = int(DURATION_S * 1e9)
        plan = FaultPlan(
            events=tuple(
                FrozenLocation(node=name, start_ns=0, duration_ns=window)
                for name in ALL_NODES
            ),
            report_interval_ns=INTERVAL_NS,
        )
        net, results, injector = _run("comap", plan, _params())
        assert injector.counters["reports_frozen"] > 0
        # Frozen reports maintain freshness: no fallback happens.
        assert net.counters()["comap/fallback_entered"] == 0

    def test_drift_publishes_biased_positions(self):
        # The window outlives the run, so the last keep-alive is drifted.
        window = 2 * int(DURATION_S * 1e9)
        plan = FaultPlan(
            events=(
                LocationDrift(
                    node="C2",
                    start_ns=0,
                    duration_ns=window,
                    rate_mps=50.0,
                    heading_deg=90.0,
                ),
            ),
            report_interval_ns=INTERVAL_NS,
        )
        net, results, injector = _run("comap", plan, _params())
        assert injector.counters["drift_applied"] > 0
        c2 = net.node("C2")
        published = net.node("AP2").agent.neighbor_table.position_of(c2.node_id)
        # 50 m/s for 0.3 s along +y: the published position drifted ~15 m
        # away from the true (static) position.
        assert published.y - c2.position.y > 5.0
        # A drifted position is a publication, not the node's report.
        assert c2.agent.reported_position == c2.position

    def test_drift_ends_with_its_window(self):
        built = exposed_terminal_topology(
            "comap", c2_x=20.0, seed=1, params=testbed_params()
        )
        net = built.network
        net.install_faults(
            FaultPlan(
                events=(
                    LocationDrift(
                        "C1", start_ns=10_000_000, duration_ns=20_000_000,
                        rate_mps=100.0, heading_deg=0.0,
                    ),
                ),
                report_interval_ns=2_000_000,
            )
        )
        c1 = net.node("C1")
        table = net.node("AP1").agent.neighbor_table
        net.run(0.025)
        assert table.position_of(c1.node_id).x > c1.position.x + 1.0
        # The window closes at 30 ms; that instant's keep-alive
        # republishes C1's report (its true spot: no error model), and
        # later ones keep it there.
        net.run(0.006)
        assert table.position_of(c1.node_id) == c1.position
        net.run(0.069)
        assert table.position_of(c1.node_id) == c1.position
        assert c1.agent.reported_position == c1.position


class TestOnePlanPerNetwork:
    def test_rejected_second_plan_leaves_the_first_in_force(self):
        def acks_dropped(second_plan):
            net = exposed_terminal_topology(
                "comap", c2_x=20.0, seed=1, params=testbed_params()
            ).network
            injector = net.install_faults(
                FaultPlan(events=(AckLossBurst("C2", 0, 50_000_000),))
            )
            if second_plan is not None:
                with pytest.raises(RuntimeError, match="already installed"):
                    net.install_faults(second_plan)
            net.run(0.05)
            return injector.counters["acks_dropped"]

        alone = acks_dropped(None)
        assert alone > 0
        second = FaultPlan(events=(AnnouncementLoss("C2", 0, 1_000),))
        assert acks_dropped(second) == alone
