"""Golden per-node-counter fixtures shared by the equivalence suites.

One canonical run per pinned scenario — Fig. 8 exposed terminal, Fig. 10
office floor, and the sparse two-cell floor — captured with the default
culling margin and committed as structured JSON under ``tests/golden/``.
The equivalence suites (``test_hotpath_equivalence``,
``test_channel_culling``, ``test_spatial_equivalence``) each run only
*their* variant and diff it against the fixture, instead of every suite
re-simulating its own baseline inline: equivalence is transitive
through the golden, and a regression in the default run itself is
caught exactly once, by :func:`assert_baseline_matches`.

The ``cmap_et``, ``csr_floor`` and ``rival_et_cca`` scenarios pin the
MAC paths the first three miss: CMAP's loss-learned conflict map, C-SR's
coordinated power-capped joins, and CO-MAP's CCA-override ablation
(``enhanced_scheduler=False``).

Fixtures written before the vector backend was removed also carry
``vector_batches`` / ``vector_links`` keys; :func:`diff` ignores them.

Each fixture also pins ``network_counters``, the scenario's whole
``Network.counters()`` snapshot (integers only).  Only the default-margin
run is held to it (:func:`assert_baseline_matches`, via
:func:`counter_diff`): the variant suites' :func:`diff` ignores it,
because culling off changes ``channel/culled_links``, the
``channel/spatial_*`` counts and ``sim/events_fired`` by design.

Fixtures store counters as structured JSON (lists of ints, flow keys as
``"src->dst"`` strings, floats via ``repr`` round-trip — bit-exact),
never as formatted strings, so diffs are per-field and readable.

Check the committed fixtures without writing anything with::

    PYTHONPATH=src python -m tests.regen_golden --check [scenario ...]

Regenerate after an *intended* behavior change with::

    PYTHONPATH=src python -m tests.regen_golden [scenario ...]

and review the diff like any other code change.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.experiments.params import ns2_params, testbed_params
from repro.experiments.topologies import (
    enterprise_floor_topology,
    exposed_terminal_topology,
    office_floor_topology,
    rival_et_topology,
)
from repro.net.network import Network
from repro.sim.engine import Simulator

#: Fixture schema version; bump on structural (not numerical) changes.
SCHEMA = 1

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _fig8(cull=None):
    """Paper Fig. 8: CO-MAP exposed-terminal pair on the testbed profile."""
    return exposed_terminal_topology(
        "comap", c2_x=20.0, seed=3,
        params=testbed_params().with_overrides(cull_margin_db=cull),
    )


def _fig10(cull=None):
    """Paper Fig. 10: CO-MAP office floor on the NS-2 profile."""
    return office_floor_topology(
        "comap", topology_seed=1, seed=0,
        params=ns2_params().with_overrides(cull_margin_db=cull),
    )


def _sparse_floor(cull=None):
    """Two saturated DCF cells 4 km apart (mini engine-bench floor)."""
    params = ns2_params().with_overrides(cull_margin_db=cull)
    net = Network(params, mac_kind="dcf", seed=5)
    flows = []
    for i, cx in enumerate((0.0, 4_000.0)):
        ap = net.add_ap(f"AP{i}", cx, 0.0)
        for j in range(2):
            c = net.add_client(f"C{i}-{j}", cx + 10.0 + j, 5.0, ap=ap)
            flows.append((c, ap))
    net.finalize()
    for c, ap in flows:
        net.add_saturated(c, ap)

    class _Built:  # match BuiltScenario's .network shape
        network = net

    return _Built()


def _cmap_et(cull=None):
    """CMAP exposed-terminal pair in the safe geometry, fixed 12 Mbit/s."""
    return exposed_terminal_topology(
        "cmap", c2_x=30.0, seed=1,
        params=testbed_params().with_overrides(
            data_rate_bps=12_000_000, cull_margin_db=cull,
        ),
    )


def _csr_floor(cull=None):
    """C-SR 4-AP enterprise floor with the backhaul wired (power-capped joins)."""
    return enterprise_floor_topology(
        "csr", topology_seed=2000, seed=1,
        params=ns2_params().with_overrides(
            csr_backhaul_latency_ns=200_000, cull_margin_db=cull,
        ),
    )


def _rival_et_cca(cull=None):
    """Rival exposed terminals under the CCA-override ablation (no RSSI monitor)."""
    return rival_et_topology(
        "comap", seed=4, enhanced_scheduler=False,
        params=testbed_params().with_overrides(
            data_rate_bps=6_000_000, cull_margin_db=cull,
        ),
    )


#: name -> (builder, simulated duration in seconds).  Builders return an
#: object with a ``.network`` attribute (BuiltScenario shape).
SCENARIOS: Dict[str, Tuple[Callable[[], Any], float]] = {
    "fig8": (_fig8, 0.25),
    "fig10": (_fig10, 0.2),
    "sparse_floor": (_sparse_floor, 0.2),
    "cmap_et": (_cmap_et, 0.25),
    "csr_floor": (_csr_floor, 0.2),
    "rival_et_cca": (_rival_et_cca, 0.25),
}


# ----------------------------------------------------------------------
# Capture / snapshot
# ----------------------------------------------------------------------
def node_counters(net) -> Dict[str, Tuple[int, int, int, int]]:
    """Per-node ``(transmitted, received, corrupted, missed)`` tuples."""
    out = {}
    for node in net.nodes.values():
        radio = node.radio
        out[node.name] = (
            radio.frames_transmitted,
            radio.frames_received,
            radio.frames_corrupted,
            radio.frames_missed,
        )
    return out


def snapshot(net, results) -> Dict[str, Any]:
    """The comparable observables of one finished run.

    ``events_fired`` and ``links_culled`` are metadata for variant
    assertions (event economy, cull totals), not part of the equivalence
    diff — see :func:`diff`; ``network_counters`` is compared by
    :func:`counter_diff` for the default-margin run only.
    """
    channels = net.channels.values()
    return {
        "node_counters": {
            name: list(tup) for name, tup in node_counters(net).items()
        },
        "per_flow_mbps": {
            f"{src}->{dst}": mbps
            for (src, dst), mbps in sorted(results.per_flow_mbps().items())
        },
        "events_fired": net.sim.events_fired,
        "links_culled": sum(ch.links_culled for ch in channels),
        "network_counters": net.counters(),
    }


@contextmanager
def integer_times_only() -> Iterator[None]:
    """Make ``schedule`` and ``schedule_at`` reject a non-``int`` time.

    The engine keys its heap on the delays and times it is given without
    converting them, so a float would fire at a drifted instant instead
    of failing.  Every golden build and run goes through this check.
    """
    schedule, schedule_at = Simulator.schedule, Simulator.schedule_at

    def checked_schedule(self, delay, callback, *args):
        if type(delay) is not int:
            raise TypeError(f"schedule({delay!r}, {callback!r}): delay is not an int")
        return schedule(self, delay, callback, *args)

    def checked_schedule_at(self, time, callback, *args):
        if type(time) is not int:
            raise TypeError(f"schedule_at({time!r}, {callback!r}): time is not an int")
        return schedule_at(self, time, callback, *args)

    Simulator.schedule = checked_schedule
    Simulator.schedule_at = checked_schedule_at
    try:
        yield
    finally:
        Simulator.schedule = schedule
        Simulator.schedule_at = schedule_at


def run_scenario(name: str, cull=None) -> Tuple[Any, Dict[str, Any]]:
    """Build and run ``name``; ``cull`` overrides the culling margin.

    Returns ``(network, snapshot)``.  Variant suites pick their margin
    (e.g. ``"off"``) or patch the channel around this call and diff the
    snapshot against the golden.  Every run also checks two engine
    invariants: each scheduled delay and time is an ``int``, and the
    O(1) ``pending_events`` count equals the live entries left in the
    heap.
    """
    build, duration_s = SCENARIOS[name]
    with integer_times_only():
        built = build(cull)
        results = built.network.run(duration_s)
    sim = built.network.sim
    live = sum(1 for entry in sim._queue if entry[2] is not None)
    assert sim.pending_events == live, (
        f"{name}: pending_events={sim.pending_events} but {live} live "
        f"entries are left in the heap"
    )
    return built.network, snapshot(built.network, results)


def capture(name: str) -> Dict[str, Any]:
    """One canonical default-margin run of ``name``, fixture-shaped."""
    _, snap = run_scenario(name)
    snap["schema"] = SCHEMA
    snap["scenario"] = name
    snap["duration_s"] = SCENARIOS[name][1]
    return snap


# ----------------------------------------------------------------------
# Load / save / diff
# ----------------------------------------------------------------------
def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def load(name: str) -> Dict[str, Any]:
    with open(golden_path(name)) as handle:
        data = json.load(handle)
    if data.get("schema") != SCHEMA:
        raise ValueError(
            f"golden fixture {name!r} has schema {data.get('schema')}, "
            f"expected {SCHEMA}; regenerate with python -m tests.regen_golden"
        )
    return data


def save(name: str, data: Dict[str, Any]) -> str:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    path = golden_path(name)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def diff(golden: Dict[str, Any], actual: Dict[str, Any]) -> List[str]:
    """Structured field-level differences (empty when equivalent).

    Compares per-node counters field by field and per-flow goodput
    exactly (floats survive the JSON round trip bit for bit).
    ``events_fired`` is deliberately *not* compared — culling changes
    event bookkeeping without changing physics; suites that care about
    event economy compare it against the fixture's value explicitly.
    """
    problems: List[str] = []
    g_nodes = golden["node_counters"]
    a_nodes = {k: list(v) for k, v in actual["node_counters"].items()}
    for missing in sorted(set(g_nodes) - set(a_nodes)):
        problems.append(f"node {missing}: missing from actual run")
    for extra in sorted(set(a_nodes) - set(g_nodes)):
        problems.append(f"node {extra}: not in golden fixture")
    fields = ("frames_transmitted", "frames_received",
              "frames_corrupted", "frames_missed")
    for node in sorted(set(g_nodes) & set(a_nodes)):
        for field, g_val, a_val in zip(fields, g_nodes[node], a_nodes[node]):
            if g_val != a_val:
                problems.append(
                    f"node {node}: {field} golden={g_val} actual={a_val}"
                )
    g_flows = golden["per_flow_mbps"]
    a_flows = actual["per_flow_mbps"]
    for missing in sorted(set(g_flows) - set(a_flows)):
        problems.append(f"flow {missing}: missing from actual run")
    for extra in sorted(set(a_flows) - set(g_flows)):
        problems.append(f"flow {extra}: not in golden fixture")
    for flow in sorted(set(g_flows) & set(a_flows)):
        if g_flows[flow] != a_flows[flow]:
            problems.append(
                f"flow {flow}: goodput golden={g_flows[flow]!r} "
                f"actual={a_flows[flow]!r}"
            )
    return problems


def counter_diff(golden: Dict[str, Any], actual: Dict[str, Any]) -> List[str]:
    """Per-key differences of the ``network_counters`` snapshots."""
    g_counters = golden["network_counters"]
    a_counters = actual["network_counters"]
    return [
        f"counter {key}: golden={g_counters.get(key)} "
        f"actual={a_counters.get(key)}"
        for key in sorted(set(g_counters) | set(a_counters))
        if g_counters.get(key) != a_counters.get(key)
    ]


def check(name: str) -> List[str]:
    """Every difference of a fresh default-margin run from the fixture."""
    golden, actual = load(name), capture(name)
    return diff(golden, actual) + counter_diff(golden, actual)


# ----------------------------------------------------------------------
# Baseline pinning (run at most once per process per scenario)
# ----------------------------------------------------------------------
_BASELINE_PROBLEMS: Dict[str, List[str]] = {}


def assert_baseline_matches(name: str) -> Dict[str, Any]:
    """Pin the default run to the committed fixture.

    Runs the scenario at the default margin at most once per process
    (variant suites all anchor on the same baseline run) and fails with
    a structured field diff when the default run itself drifted from
    the golden, its network counter snapshot included.  Returns the
    loaded fixture.
    """
    golden = load(name)
    if name not in _BASELINE_PROBLEMS:
        _BASELINE_PROBLEMS[name] = check(name)
    problems = _BASELINE_PROBLEMS[name]
    assert not problems, (
        f"default run of {name!r} diverged from tests/golden/"
        f"{name}.json — if intended, regenerate via "
        f"python -m tests.regen_golden:\n  " + "\n  ".join(problems)
    )
    return golden
