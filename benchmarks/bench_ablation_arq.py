"""Ablation — selective-repeat ARQ under exposed concurrency.

DESIGN.md question: how much goodput is lost to ACK corruption (and the
retransmissions it triggers) in concurrent mode?  Compares the full
CO-MAP against ``sr_window=1`` (stop-and-wait) on the exposed-terminal
scenario, and counts how often the piggybacked sequence lists rescued a
frame whose own ACK was lost.
"""

import dataclasses

from repro.experiments.params import testbed_params
from repro.experiments.topologies import exposed_terminal_topology

from benchmarks._harness import banner, full_scale, paper_vs_measured, run_once, sweep, table

SEEDS = (1, 2, 3)
#: variant -> CoMapConfig overrides (the protocol config owns the window).
VARIANTS = (("sr-arq", {}), ("stop-and-wait", {"sr_window": 1}))


def _arq_outcome(comap_overrides, seed, duration):
    params = testbed_params()
    params = params.with_overrides(
        comap=dataclasses.replace(params.comap, **comap_overrides)
    )
    scenario = exposed_terminal_topology("comap", c2_x=30.0, seed=seed, params=params)
    results = scenario.network.run(duration)
    c2, ap2 = scenario.extra["c2"], scenario.extra["ap2"]
    goodput = (results.goodput_mbps(*scenario.tagged_flow)
               + results.goodput_mbps(c2.node_id, ap2.node_id))
    counters = scenario.network.counters()
    # The selective-repeat windows count their own advances and confirms.
    return goodput, {name: counters.get(f"arq/{name}", 0)
                     for name in ("late_confirms", "advances")}


def regenerate():
    duration = 2.0 if full_scale() else 1.0
    grid = [
        dict(comap_overrides=overrides, seed=seed, duration=duration)
        for _, overrides in VARIANTS
        for seed in SEEDS
    ]
    results = iter(sweep(_arq_outcome, grid, label="ablation_arq"))
    outcomes = {}
    for label, _ in VARIANTS:
        total, counters = 0.0, {}
        for _ in SEEDS:
            goodput, counters = next(results)
            total += goodput
        outcomes[label] = (total / len(SEEDS), counters)
    return outcomes


def test_ablation_selective_repeat(benchmark):
    outcomes = run_once(benchmark, regenerate)
    banner("Ablation — selective-repeat ARQ in the exposed-terminal scenario")
    table(
        ["variant", "aggregate (Mbps)", "late confirms", "deferrals"],
        [
            (label, goodput, counters["late_confirms"], counters["advances"])
            for label, (goodput, counters) in outcomes.items()
        ],
    )
    sr, _ = outcomes["sr-arq"]
    saw, _ = outcomes["stop-and-wait"]
    paper_vs_measured(
        "selective repeat avoids unnecessary retransmissions when ACKs are "
        "corrupted by exposed transmissions",
        f"SR-ARQ {sr:.2f} Mbps vs stop-and-wait {saw:.2f} Mbps "
        f"({(sr / saw - 1) * 100:+.1f}%)",
    )
    # SR must never be substantially worse than stop-and-wait.
    assert sr > saw * 0.9
