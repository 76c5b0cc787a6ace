"""Experiment runners: sweep + aggregate logic for every figure.

Each ``run_*`` function regenerates the data series behind one figure of
the paper's evaluation and returns plain Python structures (lists of
rows) that the benches print and assert on.  Durations and repetition
counts are parameters so tests can run scaled-down versions quickly.

Execution model
---------------

Every runner decomposes its sweep into independent
:class:`~repro.experiments.parallel.SweepTask` records — one per
simulation — and executes them through
:func:`~repro.experiments.parallel.run_tasks`.  Task seeds come from
:func:`~repro.experiments.parallel.derive_seed` over the task's grid
coordinates, so results are a pure function of the task grid: serial
(``jobs=1``, the default), multi-process (``jobs=N`` or ``REPRO_JOBS=N``)
and cache-replayed runs are bit-identical
(``tests/test_parallel_equivalence.py`` enforces this).

Two seeding conventions, chosen per runner and kept deliberately:

* Sweeps over an x-axis grid derive one seed per ``(x, mac, rep)`` cell.
* Paired comparisons (office floor variants, the multi-ET/rival-ET
  ablations) share one channel seed across the compared variants on each
  topology, mirroring the paper's paired measurement and keeping the
  comparisons low-variance.

Observability: because every runner goes through ``run_tasks``, each
sweep writes a schema-validated run manifest next to its results when a
manifest sink is active (``REPRO_MANIFEST_DIR`` or
:func:`repro.obs.manifest.manifest_sink`).  See
``docs/observability.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analytical.bianchi import BianchiSlotModel
from repro.analytical.ht_model import HtGoodputModel
from repro.experiments.metrics import average_link_goodput_mbps
from repro.experiments.parallel import ResultCache, SweepTask, derive_seed, run_tasks
from repro.experiments.params import ScenarioParams, ht_params, ns2_params
from repro.experiments.topologies import (
    enterprise_floor_topology,
    exposed_terminal_topology,
    fig9_configurations,
    hidden_terminal_topology,
    ht_adaptation_topology,
    model_validation_topology,
    multi_et_topology,
    office_floor_topology,
    rival_et_topology,
)
from repro.net.localization import PositionErrorModel, UniformDiskError


@dataclass(frozen=True)
class SweepPoint:
    """One point of a 1-D sweep: x value and goodput per MAC variant."""

    x: float
    goodput_mbps: Dict[str, float]


# ----------------------------------------------------------------------
# Task bodies — module-level so tasks pickle by reference into workers.
# Each must be a pure function of its keyword arguments.
# ----------------------------------------------------------------------
def _exposed_goodput(
    mac_kind: str,
    c2_x: float,
    seed: int,
    duration_s: float,
    params: Optional[ScenarioParams],
    error_model: Optional[PositionErrorModel],
) -> float:
    scenario = exposed_terminal_topology(
        mac_kind, c2_x=c2_x, seed=seed, params=params, error_model=error_model
    )
    return scenario.run_goodput_mbps(duration_s)


def _hidden_goodput(
    mac_kind: str,
    payload_bytes: int,
    n_ht: int,
    seed: int,
    duration_s: float,
    params: Optional[ScenarioParams],
) -> float:
    scenario = hidden_terminal_topology(
        mac_kind, payload_bytes=payload_bytes, n_ht=n_ht, seed=seed, params=params
    )
    return scenario.run_goodput_mbps(duration_s)


def _model_validation_goodput(
    window: int,
    payload_bytes: int,
    hidden: int,
    contenders: int,
    seed: int,
    duration_s: float,
) -> float:
    scenario = model_validation_topology(
        window=window,
        payload_bytes=payload_bytes,
        hidden=hidden,
        contenders=contenders,
        seed=seed,
    )
    return scenario.run_goodput_mbps(duration_s)


def _ht_adaptation_goodput(
    mac_kind: str,
    slots: Tuple[int, ...],
    seed: int,
    duration_s: float,
    params: Optional[ScenarioParams],
) -> float:
    scenario = ht_adaptation_topology(
        mac_kind, slots=tuple(slots), seed=seed, params=params
    )
    return scenario.run_goodput_mbps(duration_s)


def _office_floor_goodput(
    mac_kind: str,
    topology_seed: int,
    seed: int,
    duration_s: float,
    params: Optional[ScenarioParams],
    error_model: Optional[PositionErrorModel],
) -> float:
    scenario = office_floor_topology(
        mac_kind,
        topology_seed=topology_seed,
        seed=seed,
        params=params,
        error_model=error_model,
    )
    results = scenario.network.run(duration_s)
    return average_link_goodput_mbps(results, scenario.extra["flows"])


def _multi_et_goodput(
    mac_kind: str,
    seed: int,
    duration_s: float,
    params: Optional[ScenarioParams],
    enhanced_scheduler: bool,
) -> float:
    scenario = multi_et_topology(
        mac_kind, seed=seed, params=params, enhanced_scheduler=enhanced_scheduler
    )
    results = scenario.network.run(duration_s)
    return results.aggregate_goodput_bps / 1e6


def _rival_et_goodput(
    mac_kind: str,
    seed: int,
    duration_s: float,
    params: Optional[ScenarioParams],
    enhanced_scheduler: bool,
) -> float:
    scenario = rival_et_topology(
        mac_kind, seed=seed, params=params, enhanced_scheduler=enhanced_scheduler
    )
    results = scenario.network.run(duration_s)
    e1, e2 = scenario.extra["e1"], scenario.extra["e2"]
    ap1 = scenario.extra["ap1"]
    return results.goodput_mbps(e1.node_id, ap1.node_id) + results.goodput_mbps(
        e2.node_id, ap1.node_id
    )


def _csr_floor_cell(
    mac_kind: str,
    n_aps: int,
    clients_per_ap: int,
    backhaul_latency_ns: Optional[int],
    error_radius_m: float,
    topology_seed: int,
    seed: int,
    duration_s: float,
) -> Dict[str, float]:
    """One enterprise-floor simulation: goodput + latency percentiles.

    Returns plain scalars only — p99 comes from the bucketed latency
    histogram each flow's destination MAC keeps
    (:attr:`repro.mac.dcf.DcfMac.latency`; bucket counts never leave
    the process).
    """
    params = ns2_params()
    if mac_kind == "csr" and backhaul_latency_ns is not None:
        params = params.with_overrides(csr_backhaul_latency_ns=int(backhaul_latency_ns))
    error_model = UniformDiskError(error_radius_m) if error_radius_m > 0 else None
    scenario = enterprise_floor_topology(
        mac_kind,
        topology_seed=topology_seed,
        seed=seed,
        params=params,
        error_model=error_model,
        n_aps=n_aps,
        clients_per_ap=clients_per_ap,
    )
    net = scenario.network
    results = net.run(duration_s)
    p99s: List[float] = []
    for src, dst in scenario.extra["flows"]:
        hist = net.nodes[dst].mac.latency.get((src, dst))
        if hist is not None and hist.count:
            p99s.append(hist.quantile(0.99))
    counters = net.counters()
    cell: Dict[str, float] = {
        "goodput_mbps": results.aggregate_goodput_bps / 1e6,
        # Worst per-flow p99 (ms): the flow the coordination hurt most.
        "p99_ms_worst": max(p99s) / 1e6 if p99s else float("inf"),
        "p99_ms_mean": sum(p99s) / len(p99s) / 1e6 if p99s else float("inf"),
        "flows_with_deliveries": float(len(p99s)),
    }
    for key in (
        "csr/txop_announced",
        "csr/coordination_rounds",
        "csr/concurrent_granted",
        "csr/concurrent_denied",
        "csr/power_capped_tx",
        "csr/backhaul_messages",
    ):
        if key in counters:
            cell[key] = float(counters[key])
    return cell


# ----------------------------------------------------------------------
# Runners
# ----------------------------------------------------------------------
def run_exposed_sweep(
    positions_m: Sequence[float],
    mac_kinds: Sequence[str] = ("dcf", "comap"),
    duration_s: float = 2.0,
    repeats: int = 3,
    seed: int = 0,
    params: Optional[ScenarioParams] = None,
    error_model: Optional[PositionErrorModel] = None,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> List[SweepPoint]:
    """Figs. 1 and 8: tagged-link goodput vs. C2's position."""
    tasks = [
        SweepTask(
            fn=_exposed_goodput,
            kwargs=dict(
                mac_kind=mac_kind,
                c2_x=float(x),
                seed=derive_seed(seed, "exposed", xi, mac_kind, rep),
                duration_s=duration_s,
                params=params,
                error_model=error_model,
            ),
            key=("exposed", float(x), mac_kind, rep),
        )
        for xi, x in enumerate(positions_m)
        for mac_kind in mac_kinds
        for rep in range(repeats)
    ]
    results = iter(run_tasks(tasks, jobs=jobs, cache=cache, label="exposed_sweep"))
    points: List[SweepPoint] = []
    for x in positions_m:
        row: Dict[str, float] = {}
        for mac_kind in mac_kinds:
            row[mac_kind] = sum(next(results) for _ in range(repeats)) / repeats
        points.append(SweepPoint(x=float(x), goodput_mbps=row))
    return points


def run_payload_sweep(
    payloads: Sequence[int],
    hidden_counts: Sequence[int] = (0, 1),
    duration_s: float = 2.0,
    repeats: int = 3,
    seed: int = 0,
    mac_kind: str = "dcf",
    params: Optional[ScenarioParams] = None,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> Dict[int, List[SweepPoint]]:
    """Fig. 2: goodput vs. payload size for each hidden-terminal count."""
    tasks = [
        SweepTask(
            fn=_hidden_goodput,
            kwargs=dict(
                mac_kind=mac_kind,
                payload_bytes=int(payload),
                n_ht=n_ht,
                seed=derive_seed(seed, "payload", n_ht, pi, mac_kind, rep),
                duration_s=duration_s,
                params=params,
            ),
            key=("payload", n_ht, int(payload), mac_kind, rep),
        )
        for n_ht in hidden_counts
        for pi, payload in enumerate(payloads)
        for rep in range(repeats)
    ]
    results = iter(run_tasks(tasks, jobs=jobs, cache=cache, label="payload_sweep"))
    curves: Dict[int, List[SweepPoint]] = {}
    for n_ht in hidden_counts:
        series: List[SweepPoint] = []
        for payload in payloads:
            mean = sum(next(results) for _ in range(repeats)) / repeats
            series.append(SweepPoint(x=float(payload), goodput_mbps={mac_kind: mean}))
        curves[n_ht] = series
    return curves


@dataclass(frozen=True)
class ModelValidationPoint:
    """One Fig. 7 point: analytical prediction vs. simulated measurement."""

    window: int
    hidden: int
    payload_bytes: int
    model_mbps: float
    sim_mbps: float


def run_model_validation(
    windows: Sequence[int] = (63, 255, 1023),
    hidden_counts: Sequence[int] = (0, 3, 5),
    payloads: Sequence[int] = (200, 600, 1000, 1400, 1800),
    contenders: int = 5,
    duration_s: float = 2.0,
    seed: int = 0,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> List[ModelValidationPoint]:
    """Fig. 7: the HT goodput model against the discrete-event simulator.

    The analytical predictions are closed-form and stay in the parent;
    only the simulations fan out.  Every grid point keeps the caller's
    ``seed`` verbatim (the historical behaviour — the grid coordinates
    already distinguish the scenarios).
    """
    params = ht_params()
    data_rate = params.rates.by_bps(params.data_rate_bps)
    model = HtGoodputModel(
        BianchiSlotModel(params.timing, data_rate, params.rates.base)
    )
    grid = [
        (hidden, window, payload)
        for hidden in hidden_counts
        for window in windows
        for payload in payloads
    ]
    tasks = [
        SweepTask(
            fn=_model_validation_goodput,
            kwargs=dict(
                window=window,
                payload_bytes=int(payload),
                hidden=hidden,
                contenders=contenders,
                seed=seed,
                duration_s=duration_s,
            ),
            key=("model_validation", window, hidden, int(payload)),
        )
        for hidden, window, payload in grid
    ]
    measured = run_tasks(tasks, jobs=jobs, cache=cache, label="model_validation")
    return [
        ModelValidationPoint(
            window=window,
            hidden=hidden,
            payload_bytes=payload,
            model_mbps=model.goodput_bps(window, contenders, hidden, payload) / 1e6,
            sim_mbps=sim_mbps,
        )
        for (hidden, window, payload), sim_mbps in zip(grid, measured)
    ]


def run_ht_cdf(
    mac_kinds: Sequence[str] = ("dcf", "comap"),
    duration_s: float = 2.0,
    seed: int = 0,
    params: Optional[ScenarioParams] = None,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> Dict[str, List[float]]:
    """Fig. 9: tagged-link goodput across the 10 HT topology configurations.

    The compared MAC variants share each configuration's seed (paired
    comparison, as in the testbed where both protocols ran on the same
    physical layout).
    """
    configurations = fig9_configurations()
    tasks = [
        SweepTask(
            fn=_ht_adaptation_goodput,
            kwargs=dict(
                mac_kind=mac_kind,
                slots=slots,
                seed=derive_seed(seed, "ht_cdf", index),
                duration_s=duration_s,
                params=params,
            ),
            key=("ht_cdf", index, mac_kind),
        )
        for index, slots in enumerate(configurations)
        for mac_kind in mac_kinds
    ]
    results = iter(run_tasks(tasks, jobs=jobs, cache=cache, label="ht_cdf"))
    samples: Dict[str, List[float]] = {kind: [] for kind in mac_kinds}
    for _index in range(len(configurations)):
        for mac_kind in mac_kinds:
            samples[mac_kind].append(next(results))
    return samples


def run_office_floor(
    variants: Sequence[Tuple[str, str, Optional[PositionErrorModel]]],
    n_topologies: int = 30,
    duration_s: float = 2.0,
    seed: int = 0,
    params: Optional[ScenarioParams] = None,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> Dict[str, List[float]]:
    """Fig. 10: per-topology average link goodput for each protocol variant.

    ``variants`` is a list of (label, mac_kind, error_model) triples, e.g.
    ``[("Basic DCF", "dcf", None), ("CO-MAP (0)", "comap", None),
    ("CO-MAP (10)", "comap", UniformDiskError(10.0))]``.  All variants
    share each topology's channel seed (paired comparison across the CDF).
    """
    tasks = [
        SweepTask(
            fn=_office_floor_goodput,
            kwargs=dict(
                mac_kind=mac_kind,
                topology_seed=1000 + topo,
                seed=derive_seed(seed, "office_floor", topo),
                duration_s=duration_s,
                params=params,
                error_model=error_model,
            ),
            key=("office_floor", topo, label),
        )
        for topo in range(n_topologies)
        for label, mac_kind, error_model in variants
    ]
    results = iter(run_tasks(tasks, jobs=jobs, cache=cache, label="office_floor"))
    samples: Dict[str, List[float]] = {label: [] for label, _, _ in variants}
    for _topo in range(n_topologies):
        for label, _, _ in variants:
            samples[label].append(next(results))
    return samples


def run_multi_et(
    duration_s: float = 2.0,
    seed: int = 0,
    params: Optional[ScenarioParams] = None,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> Dict[str, float]:
    """Fig. 6: aggregate goodput of three mutually-exposed links.

    Compares basic DCF, CO-MAP with the enhanced scheduler, and CO-MAP
    with the scheduler disabled (the CCA-override ablation).  The three
    variants share ``seed`` — a paired ablation on one topology.
    """
    configs = [
        ("dcf", "dcf", True),
        ("comap", "comap", True),
        ("comap-no-scheduler", "comap", False),
    ]
    tasks = [
        SweepTask(
            fn=_multi_et_goodput,
            kwargs=dict(
                mac_kind=mac_kind,
                seed=seed,
                duration_s=duration_s,
                params=params,
                enhanced_scheduler=scheduler,
            ),
            key=("multi_et", label),
        )
        for label, mac_kind, scheduler in configs
    ]
    results = run_tasks(tasks, jobs=jobs, cache=cache, label="multi_et")
    return {label: value for (label, _, _), value in zip(configs, results)}


def run_rival_et(
    duration_s: float = 1.0,
    seeds: Sequence[int] = (1, 2, 3),
    params: Optional[ScenarioParams] = None,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> Dict[str, float]:
    """Enhanced-scheduler ablation: two rival ETs sharing one receiver.

    Returns the mean aggregate goodput (Mbit/s) of the two exposed links
    under basic DCF, CO-MAP with the enhanced scheduler, and CO-MAP with
    the scheduler disabled (rival ETs collide at the shared AP).  The
    caller supplies explicit seeds; each is shared across the three
    variants (paired ablation).
    """
    configs = [
        ("dcf", "dcf", True),
        ("comap", "comap", True),
        ("comap-no-scheduler", "comap", False),
    ]
    tasks = [
        SweepTask(
            fn=_rival_et_goodput,
            kwargs=dict(
                mac_kind=mac_kind,
                seed=seed,
                duration_s=duration_s,
                params=params,
                enhanced_scheduler=scheduler,
            ),
            key=("rival_et", label, seed),
        )
        for label, mac_kind, scheduler in configs
        for seed in seeds
    ]
    results = iter(run_tasks(tasks, jobs=jobs, cache=cache, label="rival_et"))
    return {
        label: sum(next(results) for _ in seeds) / len(seeds)
        for label, _, _ in configs
    }


def run_csr_floor(
    mac_kinds: Sequence[str] = ("dcf", "comap", "csr"),
    ap_counts: Sequence[int] = (2, 4),
    backhaul_latencies_ns: Sequence[Optional[int]] = (200_000,),
    error_radii_m: Sequence[float] = (0.0,),
    clients_per_ap: int = 2,
    n_topologies: int = 3,
    duration_s: float = 0.25,
    seed: int = 0,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> List[Dict[str, object]]:
    """The C-SR enterprise-floor study: DCF vs CO-MAP vs C-SR.

    Sweeps AP count, backhaul latency, and localization-error radius
    over ``n_topologies`` client placements.  The compared MAC kinds
    share each cell's channel seed (paired comparison); the backhaul
    latency only reaches the "csr" variant — the other kinds have no
    coordination plane, so their cells are latency-independent and the
    sweep reuses one seed per (ap_count, radius, topology) coordinate.

    Returns one flat row dict per simulation: the sweep coordinates plus
    the :func:`_csr_floor_cell` metrics (aggregate goodput, per-flow p99
    latency, coordination counters).
    """
    grid = [
        (n_aps, latency, ri, radius, topo)
        for n_aps in ap_counts
        for latency in backhaul_latencies_ns
        for ri, radius in enumerate(error_radii_m)
        for topo in range(n_topologies)
    ]
    tasks = [
        SweepTask(
            fn=_csr_floor_cell,
            kwargs=dict(
                mac_kind=mac_kind,
                n_aps=int(n_aps),
                clients_per_ap=clients_per_ap,
                backhaul_latency_ns=latency,
                error_radius_m=float(radius),
                topology_seed=2000 + topo,
                seed=derive_seed(seed, "csr_floor", n_aps, ri, topo),
                duration_s=duration_s,
            ),
            key=("csr_floor", int(n_aps), latency, float(radius), topo, mac_kind),
        )
        for n_aps, latency, ri, radius, topo in grid
        for mac_kind in mac_kinds
    ]
    results = iter(run_tasks(tasks, jobs=jobs, cache=cache, label="csr_floor"))
    rows: List[Dict[str, object]] = []
    for n_aps, latency, _ri, radius, topo in grid:
        for mac_kind in mac_kinds:
            cell = next(results)
            row: Dict[str, object] = {
                "mac": mac_kind,
                "ap_count": int(n_aps),
                "backhaul_latency_ns": latency,
                "error_radius_m": float(radius),
                "topology": topo,
            }
            row.update(cell)
            rows.append(row)
    return rows
