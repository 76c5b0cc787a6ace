"""Faults-off bit-equivalence: the injection layer must cost nothing.

The robustness machinery (TTL knobs, staleness checks, fault hooks,
degradation edges) rides the hot path of every frame and every position
report.  The contract is *zero-cost when disabled*: a network with no
injector — or with an injector installed from an **empty** plan — must
produce bit-identical per-node physics counters and per-flow goodput to
the pre-faults code on the paper's golden topologies (the same style of
pin as ``tests/test_channel_culling.py``).
"""

import pytest

from repro.experiments.params import ns2_params, testbed_params
from repro.experiments.topologies import (
    exposed_terminal_topology,
    office_floor_topology,
)
from repro.faults import FaultPlan

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
            injector.install()
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
