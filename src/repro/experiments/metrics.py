"""Result extraction helpers shared by runners, examples and benches."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.net.network import RunResults


def flow_goodputs_mbps(
    results: RunResults, flows: List[Tuple[int, int]]
) -> Dict[Tuple[int, int], float]:
    """Goodput of the listed flows (zero for flows that delivered nothing)."""
    return {flow: results.goodput_mbps(*flow) for flow in flows}


def average_link_goodput_mbps(results: RunResults, flows: List[Tuple[int, int]]) -> float:
    """Mean goodput over a flow list — Fig. 10's per-link average."""
    if not flows:
        raise ValueError("flow list cannot be empty")
    values = flow_goodputs_mbps(results, flows)
    return sum(values.values()) / len(values)
