"""Golden pins for the MAC paths the Fig. 8 / Fig. 10 / DCF fixtures miss.

``cmap_et`` runs CMAP's probe-then-exploit episodes, ``csr_floor`` runs
C-SR's backhaul-elected, power-capped joins, and ``rival_et_cca`` runs
CO-MAP with the enhanced scheduler off (the CCA-override ablation).
Each default run must match its committed fixture field for field.
"""

import pytest

from tests.goldens import SCENARIOS, assert_baseline_matches, run_scenario

#: scenario -> counters that must be non-zero, so a fixture regenerated
#: after some future change still exercises the path it exists to pin.
EXERCISED = {
    "cmap_et": ("cmap/probes", "cmap/concurrent_transmissions"),
    "csr_floor": ("csr/concurrent_granted", "csr/power_capped_tx"),
    "rival_et_cca": ("comap/concurrent_transmissions",),
}


@pytest.mark.parametrize("name", sorted(EXERCISED))
def test_default_run_matches_golden(name):
    assert_baseline_matches(name)


@pytest.mark.parametrize("name", sorted(EXERCISED))
def test_scenario_exercises_its_mac_path(name):
    network, _snapshot = run_scenario(name)
    counters = network.counters()
    for key in EXERCISED[name]:
        assert counters[key] > 0, key


def test_every_expiry_finds_its_own_episode_current():
    # An episode replaced while still open (an announced one opening over
    # a persistent-exposure one) takes its expiry timer with it.
    build, duration_s = SCENARIOS["rival_et_cca"]
    network = build().network
    current = []
    for node in network.nodes.values():
        mac = node.mac

        def logged_expiry(opportunity, mac=mac, expire=mac._expire_opportunity):
            current.append(mac._opportunity is opportunity)
            expire(opportunity)

        mac._expire_opportunity = logged_expiry
    network.run(duration_s)
    assert current
    assert current.count(False) == 0
