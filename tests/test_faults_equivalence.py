"""Faults-off bit-equivalence: the injection layer must cost nothing.

The robustness machinery (TTL knobs, staleness checks, fault hooks,
degradation edges) rides the hot path of every frame and every position
report.  The contract is *zero-cost when disabled*: a network with no
injector — or with an injector installed from an **empty** plan — must
produce bit-identical per-node physics counters and per-flow goodput to
the pre-faults code on the paper's golden topologies (the same style of
pin as ``tests/test_channel_culling.py``).
"""

import dataclasses

import pytest

from repro.experiments.params import ns2_params, testbed_params
from repro.experiments.topologies import (
    exposed_terminal_topology,
    office_floor_topology,
)
from repro.faults import (
    AckLossBurst,
    AnnouncementLoss,
    BeaconLoss,
    CoMapCorruption,
    CoMapExpiry,
    FaultPlan,
    FrozenLocation,
    LocationDrift,
    LocationOutage,
    NodeChurn,
)
from repro.util.rng import _canonical

from tests.goldens import _sparse_floor, node_counters


def _run_pair(build, duration_s):
    """Run one build bare and one with an empty fault plan installed."""
    bare = build()
    results_bare = bare.network.run(duration_s)
    faulted = build()
    injector = faulted.network.install_faults(FaultPlan())
    results_faulted = faulted.network.run(duration_s)
    return bare.network, results_bare, faulted.network, results_faulted, injector


class TestEmptyPlanEquivalence:
    def _compare(self, build, duration_s):
        bare, res_bare, faulted, res_faulted, injector = _run_pair(
            build, duration_s
        )
        assert node_counters(bare) == node_counters(faulted)
        assert res_bare.per_flow_mbps() == res_faulted.per_flow_mbps()
        # Empty plan: the faults/ namespace is present and all-zero.
        snapshot = faulted.counters()
        fault_keys = {k: v for k, v in snapshot.items() if k.startswith("faults/")}
        assert fault_keys, "empty plan still registers the faults/ namespace"
        assert not any(fault_keys.values())
        assert not any(injector.counters.values())
        # ...and bare networks don't carry it at all.
        assert not any(k.startswith("faults/") for k in bare.counters())
        return bare, faulted

    def test_fig8_exposed_terminal(self):
        def build():
            return exposed_terminal_topology(
                "comap", c2_x=20.0, seed=3, params=testbed_params()
            )

        bare, faulted = self._compare(build, 0.25)
        # Same physics means the same number of engine events too: an
        # empty plan schedules no ticker and no point events.
        assert bare.sim.events_fired == faulted.sim.events_fired

    def test_fig10_office_floor(self):
        def build():
            return office_floor_topology(
                "comap", topology_seed=1, seed=0, params=ns2_params()
            )

        bare, faulted = self._compare(build, 0.2)
        assert bare.sim.events_fired == faulted.sim.events_fired

    def test_sparse_floor(self):
        bare, faulted = self._compare(lambda: _sparse_floor(), 0.2)
        assert bare.sim.events_fired == faulted.sim.events_fired


class TestInstallValidation:
    def test_requires_finalized_network(self):
        from repro.net.network import Network

        net = Network(testbed_params(), mac_kind="comap", seed=0)
        with pytest.raises(RuntimeError, match="finalize"):
            net.install_faults(FaultPlan())

    def test_rejects_unknown_node(self):
        from repro.faults import LocationOutage

        built = exposed_terminal_topology(
            "comap", c2_x=20.0, seed=3, params=testbed_params()
        )
        plan = FaultPlan(
            events=(
                LocationOutage(node="nope", start_ns=0, duration_ns=1_000_000),
            )
        )
        with pytest.raises(ValueError, match="unknown node"):
            built.network.install_faults(plan)

    def test_double_install_rejected(self):
        built = exposed_terminal_topology(
            "comap", c2_x=20.0, seed=3, params=testbed_params()
        )
        injector = built.network.install_faults(FaultPlan())
        with pytest.raises(RuntimeError, match="already installed"):
            built.network.install_faults(FaultPlan())
        assert built.network.faults is injector


class TestSpecValidation:
    def test_window_validation(self):
        from repro.faults import LocationOutage

        with pytest.raises(ValueError, match="duration_ns"):
            LocationOutage(node="A", start_ns=0, duration_ns=0)
        with pytest.raises(ValueError, match="start_ns"):
            LocationOutage(node="A", start_ns=-1, duration_ns=10)

    def test_probability_validation(self):
        from repro.faults import AckLossBurst, BeaconLoss

        with pytest.raises(ValueError, match="drop_prob"):
            AckLossBurst(node="A", start_ns=0, duration_ns=10, drop_prob=1.5)
        with pytest.raises(ValueError, match="drop_prob"):
            BeaconLoss(node="A", start_ns=0, duration_ns=10, drop_prob=-0.1)

    def test_churn_ordering(self):
        from repro.faults import NodeChurn

        with pytest.raises(ValueError, match="rejoin_ns"):
            NodeChurn(node="A", leave_ns=100, rejoin_ns=100)

    def test_plan_knows_its_location_faults(self):
        from repro.faults import AckLossBurst, FrozenLocation

        assert not FaultPlan().has_location_faults
        assert not FaultPlan(
            events=(AckLossBurst(node="A", start_ns=0, duration_ns=10),)
        ).has_location_faults
        plan = FaultPlan(
            events=(FrozenLocation(node="B", start_ns=0, duration_ns=10),)
        )
        assert plan.has_location_faults
        assert plan.node_names == ("B",)
        assert plan.for_node("B") == plan.events
        assert plan.for_node("A") == ()


REQUIRED = dataclasses.MISSING
WINDOW = (("node", REQUIRED), ("start_ns", REQUIRED), ("duration_ns", REQUIRED))


class TestSpecLayout:
    """A plan's canonical encoding keys every stored sweep result, so the
    specs' fields, their order and defaults, and their encodings are
    pinned."""

    FIELDS = {
        LocationOutage: WINDOW,
        FrozenLocation: WINDOW,
        BeaconLoss: WINDOW + (("drop_prob", 0.5),),
        LocationDrift: WINDOW + (("rate_mps", 1.0), ("heading_deg", 0.0)),
        AckLossBurst: WINDOW + (("drop_prob", 1.0),),
        AnnouncementLoss: WINDOW + (("drop_prob", 1.0),),
        CoMapExpiry: (("node", REQUIRED), ("at_ns", REQUIRED)),
        CoMapCorruption: (
            ("node", REQUIRED), ("at_ns", REQUIRED), ("flip_prob", 1.0),
        ),
        NodeChurn: (
            ("node", REQUIRED), ("leave_ns", REQUIRED), ("rejoin_ns", REQUIRED),
        ),
    }

    ENCODINGS = (
        (LocationOutage("C1", 1, 2),
         "dc:LocationOutage:d:{s:11:duration_ns=i:2,s:4:node=s:2:C1,"
         "s:8:start_ns=i:1}"),
        (FrozenLocation("C2", 3, 4),
         "dc:FrozenLocation:d:{s:11:duration_ns=i:4,s:4:node=s:2:C2,"
         "s:8:start_ns=i:3}"),
        (BeaconLoss("AP1", 5, 6),
         "dc:BeaconLoss:d:{s:9:drop_prob=f:0.5,s:11:duration_ns=i:6,"
         "s:4:node=s:3:AP1,s:8:start_ns=i:5}"),
        (LocationDrift("C2", 7, 8),
         "dc:LocationDrift:d:{s:11:duration_ns=i:8,s:11:heading_deg=f:0.0,"
         "s:4:node=s:2:C2,s:8:rate_mps=f:1.0,s:8:start_ns=i:7}"),
        (AckLossBurst("C1", 9, 10),
         "dc:AckLossBurst:d:{s:9:drop_prob=f:1.0,s:11:duration_ns=i:10,"
         "s:4:node=s:2:C1,s:8:start_ns=i:9}"),
        (AnnouncementLoss("C2", 11, 12),
         "dc:AnnouncementLoss:d:{s:9:drop_prob=f:1.0,s:11:duration_ns=i:12,"
         "s:4:node=s:2:C2,s:8:start_ns=i:11}"),
        (CoMapExpiry("C1", 13), "dc:CoMapExpiry:d:{s:5:at_ns=i:13,s:4:node=s:2:C1}"),
        (CoMapCorruption("C2", 14),
         "dc:CoMapCorruption:d:{s:5:at_ns=i:14,s:9:flip_prob=f:1.0,"
         "s:4:node=s:2:C2}"),
        (NodeChurn("AP2", 15, 16),
         "dc:NodeChurn:d:{s:8:leave_ns=i:15,s:4:node=s:3:AP2,s:9:rejoin_ns=i:16}"),
    )

    @pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
    def test_fields_order_and_defaults(self, cls):
        fields = tuple((f.name, f.default) for f in dataclasses.fields(cls))
        assert fields == self.FIELDS[cls]

    def test_canonical_encodings(self):
        for spec, encoding in self.ENCODINGS:
            assert _canonical(spec).decode() == encoding
        plan = FaultPlan(events=tuple(spec for spec, _ in self.ENCODINGS))
        assert _canonical(plan).decode() == (
            "dc:FaultPlan:d:{s:6:events=t:["
            + ",".join(encoding for _, encoding in self.ENCODINGS)
            + "],s:18:report_interval_ns=i:20000000}"
        )
