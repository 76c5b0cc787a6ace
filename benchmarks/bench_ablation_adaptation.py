"""Ablation — which HT-mitigation knob matters, and which attacker model.

DESIGN.md questions:

* packet-size adaptation vs CW pinning: what does each contribute in the
  Fig. 9 hidden-terminal configurations?
* homogeneous attackers (the paper's eq. 9 reading: HTs slow down with
  you) vs non-adaptive attackers (they keep hammering): which table is
  right against saturated legacy interferers?
"""

import dataclasses

import numpy as np

from repro.experiments.parallel import derive_seed
from repro.experiments.params import ht_testbed_params
from repro.experiments.runner import run_ht_cdf

from benchmarks._harness import banner, full_scale, paper_vs_measured, run_once, table


def regenerate():
    duration = 2.0 if full_scale() else 1.0
    variants = {}
    # Full CO-MAP (decoupled attacker model, default config).
    variants["full"] = run_ht_cdf(duration_s=duration, seed=4)["comap"]
    # Homogeneous attacker assumption (the paper's literal eq. 9).
    base = ht_testbed_params()
    params = base.with_overrides(
        comap=dataclasses.replace(base.comap, attacker_window=None)
    )
    variants["homogeneous-table"] = run_ht_cdf(
        mac_kinds=("comap",), duration_s=duration, seed=4, params=params
    )["comap"]
    # No adaptation at all (concurrency machinery only).
    variants["no-adaptation"] = _run_without_adaptation(duration)
    variants["dcf"] = run_ht_cdf(mac_kinds=("dcf",), duration_s=duration, seed=4)["dcf"]
    return variants


def _run_without_adaptation(duration):
    """CO-MAP with adaptation off, on the seeds of run_ht_cdf's arms."""
    from repro.experiments.topologies import fig9_configurations, ht_adaptation_topology

    samples = []
    for index, slots in enumerate(fig9_configurations()):
        scenario = ht_adaptation_topology(
            "comap", slots=slots, seed=derive_seed(4, "ht_cdf", index),
            mac_overrides={"enable_adaptation": False},
        )
        samples.append(scenario.run_goodput_mbps(duration))
    return samples


def test_ablation_adaptation(benchmark):
    variants = run_once(benchmark, regenerate)
    banner("Ablation — HT adaptation variants over the Fig. 9 configurations")
    table(
        ["variant", "mean goodput (Mbps)"],
        [(label, float(np.mean(values))) for label, values in sorted(variants.items())],
    )
    full = np.mean(variants["full"])
    dcf = np.mean(variants["dcf"])
    none = np.mean(variants["no-adaptation"])
    homogeneous = np.mean(variants["homogeneous-table"])
    paper_vs_measured(
        "selecting frame settings from the model mitigates HT collisions",
        f"full {full:.2f} vs no-adaptation {none:.2f} vs DCF {dcf:.2f} "
        f"(homogeneous attacker table: {homogeneous:.2f})",
    )
    # Adaptation must contribute beyond the rest of CO-MAP...
    assert full > none
    # ... and the decoupled attacker model must beat the homogeneous one
    # against non-adaptive saturated interferers.
    assert full > homogeneous
