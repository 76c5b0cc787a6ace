"""The benchmark's three workloads, built only from the simulator's public API.

Every workload is one closed, single-process job: ``setup(seed, smoke)``
prepares it untimed-by-the-window, ``window(state)`` is the timed part
and returns the plain-Python outputs the correctness digest covers.  All
inputs derive from ``seed``.  ``smoke`` shrinks the simulated durations
so every code path runs in well under a second.

Why these three (names are fixed, later changes cite them):

``dense_cell``
    One saturated DCF BSS, AP + 20 clients within a few metres.  Every
    radio hears every frame, so reception, per-frame shadowing draws and
    DCF dominate and candidate culling removes nothing.
``city_floor``
    A row of 200 five-node cells 3 km apart (1000 nodes), 8 saturated
    cells and 8 looping mobile clients.  Per-frame candidate sweeping over
    idle radios dominates, and mobility writes the channel caches.
``paper_sweep``
    A trimmed slice of ``report --quick`` through the public runners and
    therefore ``run_tasks``: Fig. 8 exposed-terminal positions, the
    Fig. 10 office floor, and the 4-AP C-SR floor.  The only workload
    that enters CO-MAP, C-SR, ``core/``, the backhaul and the sweep
    executor.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.experiments.params import ns2_params
from repro.experiments.runner import run_csr_floor, run_exposed_sweep, run_office_floor
from repro.experiments.topologies import (
    enterprise_floor_topology,
    exposed_terminal_topology,
    office_floor_topology,
)
from repro.net.localization import UniformDiskError
from repro.net.mobility import LinearMobility
from repro.net.network import Network


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    why: str
    setup: Callable[[int, bool], Any]
    window: Callable[[Any], List[Any]]


# ----------------------------------------------------------------------
# dense_cell
# ----------------------------------------------------------------------
DENSE_CLIENTS = 20
#: (warm-up, timed window) simulated seconds.
DENSE_S = (0.05, 0.8)
DENSE_SMOKE_S = (0.005, 0.01)


def _dense_cell_setup(seed: int, smoke: bool):
    warmup_s, window_s = DENSE_SMOKE_S if smoke else DENSE_S
    placement = random.Random(seed)
    net = Network(ns2_params(), mac_kind="dcf", seed=seed)
    ap = net.add_ap("AP", 0.0, 0.0)
    clients = []
    for i in range(DENSE_CLIENTS):
        radius = placement.uniform(1.0, 5.0)
        angle = placement.uniform(0.0, 2.0 * math.pi)
        clients.append(
            net.add_client(
                f"C{i}", radius * math.cos(angle), radius * math.sin(angle), ap=ap
            )
        )
    net.finalize()
    for client in clients:
        net.add_saturated(client, ap, payload_bytes=1000)
    net.run(warmup_s)
    return net, window_s


def _run_network_window(state) -> List[Any]:
    net, window_s = state
    net.run(window_s)
    return []


# ----------------------------------------------------------------------
# city_floor (the bench_scale_city floor at 1000 nodes)
# ----------------------------------------------------------------------
CITY_NODES = 1000
CITY_CLIENTS_PER_CELL = 4
CITY_ACTIVE_CELLS = 8
CITY_MOBILE_CLIENTS = 8
CITY_SPACING_M = 3_000.0
#: (warm-up, timed window) simulated seconds.
CITY_S = (0.02, 0.06)
CITY_SMOKE_S = (0.002, 0.004)


def _city_floor_setup(seed: int, smoke: bool):
    warmup_s, window_s = CITY_SMOKE_S if smoke else CITY_S
    cells = CITY_NODES // (CITY_CLIENTS_PER_CELL + 1)
    net = Network(ns2_params(), mac_kind="dcf", seed=seed)
    clients = []
    for i in range(cells):
        cx = i * CITY_SPACING_M
        ap = net.add_ap(f"AP{i}", cx, 0.0)
        clients.append([
            net.add_client(f"C{i}-{j}", cx + 8.0 + 2.0 * j, 5.0, ap=ap)
            for j in range(CITY_CLIENTS_PER_CELL)
        ])
    net.finalize()
    for row in clients[:CITY_ACTIVE_CELLS]:
        for node in row:
            net.add_saturated(node, node.associated_ap, payload_bytes=1000)
    for i in range(CITY_MOBILE_CLIENTS):
        # Client 0 of each active cell shuttles past its AP for the whole
        # run, so its radio keeps invalidating the channel's pair caches.
        cx = i * CITY_SPACING_M
        LinearMobility(
            net, clients[i][0],
            waypoints=[(cx + 6.0, 5.0), (cx + 10.0, 5.0)],
            speed_mps=30.0, tick_s=0.02, loop=True,
        )
    net.run(warmup_s)
    return net, window_s


# ----------------------------------------------------------------------
# paper_sweep
# ----------------------------------------------------------------------
#: Fig. 8 positions inside the exposed-terminal region.
SWEEP_POSITIONS_M = (26.0, 34.0)
SWEEP_VARIANTS = (
    ("dcf", "dcf", None),
    ("comap0", "comap", None),
    ("comap10", "comap", UniformDiskError(10.0)),
)
SWEEP_CSR_LATENCY_NS = 200_000
#: (warm-up of the setup networks, duration of each sweep task).
SWEEP_S = (0.02, 0.15)
SWEEP_SMOKE_S = (0.002, 0.01)


def _paper_sweep_setup(seed: int, smoke: bool):
    """Build and warm one network of each scenario kind the sweep runs.

    The runners in the window build their own networks inside their task
    bodies, as a user's sweep does; set-up time here is what one such
    build (topology, ``finalize()`` with the CO-MAP location exchange,
    lazy substream seeding) costs per scenario kind.
    """
    warmup_s, task_s = SWEEP_SMOKE_S if smoke else SWEEP_S
    csr_params = ns2_params().with_overrides(
        csr_backhaul_latency_ns=SWEEP_CSR_LATENCY_NS
    )
    scenarios = [
        exposed_terminal_topology("comap", c2_x=SWEEP_POSITIONS_M[0], seed=seed),
        office_floor_topology(
            "comap", topology_seed=1000, seed=seed,
            error_model=UniformDiskError(10.0),
        ),
        enterprise_floor_topology(
            "csr", topology_seed=2000, seed=seed, params=csr_params
        ),
    ]
    for scenario in scenarios:
        scenario.network.run(warmup_s)
    return seed, task_s


def _paper_sweep_window(state) -> List[Any]:
    seed, task_s = state
    exposed = run_exposed_sweep(
        SWEEP_POSITIONS_M, duration_s=task_s, repeats=1, seed=seed, jobs=1
    )
    floor = run_office_floor(
        SWEEP_VARIANTS, n_topologies=1, duration_s=task_s, seed=seed, jobs=1
    )
    csr = run_csr_floor(
        ap_counts=(4,), backhaul_latencies_ns=(SWEEP_CSR_LATENCY_NS,),
        n_topologies=1, duration_s=task_s, seed=seed, jobs=1,
    )
    return [
        [[point.x, sorted(point.goodput_mbps.items())] for point in exposed],
        sorted(floor.items()),
        [sorted(row.items()) for row in csr],
    ]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "dense_cell",
            "21-node saturated DCF cell: reception, shadowing draws and DCF "
            "dominate; nothing is culled",
            _dense_cell_setup,
            _run_network_window,
        ),
        Workload(
            "city_floor",
            "1000-node floor of 3 km-spaced cells with mobile clients: "
            "candidate sweeping over idle radios dominates",
            _city_floor_setup,
            _run_network_window,
        ),
        Workload(
            "paper_sweep",
            "Fig. 8, Fig. 10 and C-SR floor runners through run_tasks: the "
            "only workload in CO-MAP, C-SR, core and the sweep executor",
            _paper_sweep_setup,
            _paper_sweep_window,
        ),
    )
}
