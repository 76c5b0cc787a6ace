"""Settings are fixed once built; what CO-MAP adapts at run time is MAC state.

A network builds one MAC config for all its nodes, so the contention
window CO-MAP's hidden-terminal adaptation pins lives on each MAC
(:attr:`DcfMac.constant_cw`), and a location fallback masks that advice
instead of clearing it.
"""

import dataclasses

import pytest

from repro.core.config import CoMapConfig
from repro.experiments.params import ht_testbed_params, testbed_params
from repro.experiments.topologies import fig9_configurations, ht_adaptation_topology
from repro.faults import FaultPlan, LocationOutage
from repro.mac.comap import CoMapMacConfig
from repro.mac.dcf import MacConfig
from repro.mac.exposed import ExposedMacConfig

MS = 1_000_000

SETTINGS = (
    MacConfig(), ExposedMacConfig(), CoMapMacConfig(), CoMapConfig(), testbed_params(),
)


@pytest.mark.parametrize(
    "settings, name",
    [
        pytest.param(obj, f.name, id=f"{type(obj).__name__}.{f.name}")
        for obj in SETTINGS
        for f in dataclasses.fields(obj)
    ],
)
def test_settings_are_frozen(settings, name):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(settings, name, getattr(settings, name))


def _fig9_network(params=None):
    """Fig. 9's first configuration: adaptation pins C1's window at 31."""
    return ht_adaptation_topology(
        "comap", slots=fig9_configurations()[0], seed=4, params=params
    ).network


class TestOneMacConfig:
    def test_nodes_share_the_network_config(self):
        net = _fig9_network()
        assert all(node.mac.config is net.mac_config for node in net.nodes.values())

    def test_pinned_window_stays_on_its_mac(self):
        net = _fig9_network()
        windows = {node.name: node.mac.constant_cw for node in net.nodes.values()}
        assert windows["C1"] == 31
        # Neither the shared config nor the MACs whose advice pins no
        # window (no hidden terminal) took C1's window.
        assert net.mac_config.constant_cw is None
        assert windows["AP1"] is None
        assert windows["N1-hidden"] is None


def test_advice_outlives_a_fallback():
    # C1's location service is down from 50 to 150 ms; with a 6 ms TTL
    # it falls back to plain DCF and recovers at the first keep-alive
    # after the outage.  Nothing moves, so adaptation never re-runs: the
    # advice from finalize is masked, then back in force.
    base = ht_testbed_params()
    params = base.with_overrides(
        comap=dataclasses.replace(base.comap, location_ttl_ns=6 * MS)
    )
    net = _fig9_network(params)
    net.install_faults(FaultPlan(
        events=(LocationOutage("C1", 50 * MS, 100 * MS),),
        report_interval_ns=2 * MS,
    ))
    c1 = net.node("C1").mac
    seen = {}
    for until_ms in (40, 100, 200):
        net.run((until_ms * MS - net.sim.now) / 1e9)
        seen[until_ms] = (
            c1.constant_cw, c1.preferred_payload(), c1.comap_stats.adaptation_refreshes
        )
    assert seen == {40: (31, 900, 1), 100: (None, None, 1), 200: (31, 900, 1)}


def test_fallback_starts_when_the_ttl_expires():
    # The scenario above: C1's row was last refreshed at 48 ms, so it is
    # stale from 54.000001 ms on.  The fallback starts then, before
    # anything reads C1's MAC, and no backoff C1 draws on a stale row
    # comes from the advised window.
    base = ht_testbed_params()
    params = base.with_overrides(
        comap=dataclasses.replace(base.comap, location_ttl_ns=6 * MS)
    )
    net = _fig9_network(params)
    net.install_faults(FaultPlan(
        events=(LocationOutage("C1", 50 * MS, 100 * MS),),
        report_interval_ns=2 * MS,
    ))
    c1 = net.node("C1").mac
    draws = []
    draw = c1._draw_backoff

    def recording_draw():
        draws.append((c1.constant_cw, c1.agent.location_stale(net.sim.now)))
        return draw()

    c1._draw_backoff = recording_draw
    net.sim.run(until=54 * MS + 1)
    assert c1.agent.neighbor_table.get(c1.node_id).updated_at == 48 * MS
    assert c1.comap_stats.fallback_entered == 1
    assert c1.constant_cw is None
    net.run(0.1)
    assert any(stale for _, stale in draws)
    assert (31, True) not in draws
