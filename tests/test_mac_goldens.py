"""Golden pins for the MAC paths the Fig. 8 / Fig. 10 / DCF fixtures miss.

``cmap_et`` runs CMAP's probe-then-exploit episodes, ``csr_floor`` runs
C-SR's backhaul-elected, power-capped joins, and ``rival_et_cca`` runs
CO-MAP with the enhanced scheduler off (the CCA-override ablation).
Each default run must match its committed fixture field for field.
"""

import pytest

from tests.goldens import assert_baseline_matches, run_scenario

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
