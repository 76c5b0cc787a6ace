"""Ablation — announcement implementation (Section V, "Implementation of
header").

The paper describes two ways to let neighbors discover an ongoing
transmission: an extra FCS after the sequence-number field (4 bytes,
needs PHY support — their NS-2 build) or a separate small header packet
(their testbed build).  This bench compares them, plus no announcements
at all, on the exposed-terminal scenario at the NS-2-style fixed 6 Mbps
and under Minstrel rate adaptation.
"""

import dataclasses

from repro.experiments.params import testbed_params
from repro.experiments.topologies import exposed_terminal_topology

from benchmarks._harness import banner, full_scale, paper_vs_measured, run_once, sweep, table

#: mode -> (CoMapConfig overrides, CoMapMacConfig overrides).  The
#: announcement method is a protocol setting; whether to announce at all
#: is the MAC's.
MODES = (
    ("embedded", {"announce_mode": "embedded"}, {}),
    ("separate", {"announce_mode": "separate"}, {}),
    ("none", {}, {"announce_headers": False, "persistent_exposure": False}),
)
SEEDS = (1, 2, 3)


def _aggregate(params, comap_overrides, mac_overrides, seed, duration):
    params = params.with_overrides(
        comap=dataclasses.replace(params.comap, **comap_overrides)
    )
    scenario = exposed_terminal_topology(
        "comap", c2_x=30.0, seed=seed, params=params, mac_overrides=mac_overrides
    )
    results = scenario.network.run(duration)
    c2, ap2 = scenario.extra["c2"], scenario.extra["ap2"]
    return (results.goodput_mbps(*scenario.tagged_flow)
            + results.goodput_mbps(c2.node_id, ap2.node_id))


def regenerate():
    duration = 2.0 if full_scale() else 1.0
    rate_params = (
        ("6 Mbps fixed", testbed_params().with_overrides(data_rate_bps=6_000_000)),
        ("Minstrel", testbed_params()),
    )
    cells = [
        (label, rate_label)
        for label, _, _ in MODES
        for rate_label, _ in rate_params
    ]
    grid = [
        dict(params=params, comap_overrides=comap, mac_overrides=mac,
             seed=seed, duration=duration)
        for _, comap, mac in MODES
        for _, params in rate_params
        for seed in SEEDS
    ]
    results = iter(sweep(_aggregate, grid, label="ablation_announce"))
    return {
        cell: sum(next(results) for _ in SEEDS) / len(SEEDS) for cell in cells
    }


def test_ablation_announce_mode(benchmark):
    out = run_once(benchmark, regenerate)
    banner("Ablation — announcement implementation on the ET scenario")
    table(
        ["mode", "6 Mbps fixed (Mbps)", "Minstrel (Mbps)"],
        [
            (label,
             out[(label, "6 Mbps fixed")],
             out[(label, "Minstrel")])
            for label, _, _ in MODES
        ],
    )
    paper_vs_measured(
        "method 1 adds only 4 bytes but needs PHY support; method 2 works "
        "on commodity hardware",
        "embedded wins at a fixed low rate (earlier + cheaper detection); "
        "separate headers at the base rate stay decodable when data rates "
        "climb under Minstrel",
    )
    # Both announcement variants must beat no-announcements at fixed rate.
    assert out[("embedded", "6 Mbps fixed")] > out[("none", "6 Mbps fixed")]
    assert out[("separate", "6 Mbps fixed")] > out[("none", "6 Mbps fixed")]
    # Embedded is at least competitive at the fixed rate.
    assert out[("embedded", "6 Mbps fixed")] >= out[("separate", "6 Mbps fixed")] * 0.95
