"""End-to-end smoke checks of the sweep executor, its store and C-SR.

Run from the root of a checkout::

    PYTHONPATH=src python tools/sweep_smoke.py fault --out fault-artifacts --jobs 2
    PYTHONPATH=src python tools/sweep_smoke.py resume --out resume-artifacts
    PYTHONPATH=src python tools/sweep_smoke.py csr --out csr-artifacts --jobs 2

Each check runs a small sweep, leaves its run manifest and other
artifacts in ``--out``, and exits 0, or 1 after printing every violated
condition:

* ``fault`` — a location-report outage plus an ACK-loss burst on the
  exposed-terminal topology, with a location TTL and keep-alives, 4 seeds
  on a worker pool.  The ``faults/`` counters fired, the outaged node
  fell back to plain DCF and recovered (``comap/fallback_entered`` and
  ``comap/fallback_exited`` positive in the manifest).
* ``resume`` — a small Fig-8 grid, swept twice onto a result store that
  the sweep does not finish.  First a child process sweeps it on 2
  workers and is SIGKILLed right after its second entry lands; none of
  its pool workers may outlive it.  Then a serial sweep fails on a
  cell's own error right after its third entry lands.  Re-running the
  grid serially on either store must hit exactly those entries, run the
  rest, and write a manifest equal to an uninterrupted serial run's on
  tasks, params, seeds and counters (per-node radio counters included).
* ``csr`` — the 4-AP enterprise floor, DCF vs CO-MAP vs C-SR.  Every
  flow delivers, C-SR goodput is at least DCF's on every topology, the
  C-SR cells coordinated (TXOP announcements over the backhaul), and
  the sweep wrote its manifest.

Every sweep runs under ``run_tasks``'s one failure rule: a task's error
ends the check with that error's traceback (exit 1).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import List, Optional

from repro.experiments.parallel import ResultCache, SweepTask, run_tasks
from repro.experiments.runner import run_csr_floor
from repro.obs import manifest as obs_manifest
from repro.obs.counters import global_registry

# The grids and the crash harness are the test suite's own.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tests.sweep_grids import (  # noqa: E402
    _comparable,
    fig8_grid,
    sigkill_sweep,
    survivors,
)

#: ``fault``: the faulted nodes and schedule.  The clients are the data
#: transmitters in this topology, so the ACK burst targets a client
#: (ACKs flow AP -> client).  The TTL and keep-alive interval are the
#: degradation tests' pair: healthy nodes stay fresh, and the outage
#: (which heals inside the run) starts and ends a fallback.
OUTAGE_NODE = "C1"
ACK_NODE = "C2"
FAULT_START_NS = 10_000_000
FAULT_DURATION_NS = 60_000_000
LOCATION_TTL_NS = 6_000_000
REPORT_INTERVAL_NS = 2_000_000
#: Network counters ``fault_cell`` folds into the global registry.
FALLBACK_COUNTERS = ("comap/fallback_entered", "comap/fallback_exited")

#: ``resume``: the grid, the killed sweep's worker count, and how many
#: of its 6 entries land before the SIGKILL, and before a cell fails.
RESUME_GRID = dict(
    positions_m=(5.0, 20.0, 35.0), mac_kinds=("dcf", "comap"), repeats=1, seed=0
)
RESUME_JOBS = 2
RESUME_KILL_AFTER = 2
RESUME_FAIL_AFTER = 3

#: ``csr``: the floor grid (2 clients per AP, the runner's default).
CSR_AP_COUNT = 4
CSR_TOPOLOGIES = 2
CSR_MAC_KINDS = ("dcf", "comap", "csr")
CSR_BACKHAUL_LATENCY_NS = 200_000


def fault_cell(seed: int = 0, duration_s: float = 0.1) -> dict:
    """One fault-injected exposed-terminal run (module-level: pickles).

    Returns per-flow goodput plus the injector's counters, and merges
    the fault counters and the network's fallback edges into the
    process-global registry so they survive the trip back from a pool
    worker into the sweep manifest.
    """
    import dataclasses

    from repro.experiments.params import testbed_params
    from repro.experiments.topologies import exposed_terminal_topology
    from repro.faults import AckLossBurst, FaultPlan, LocationOutage

    params = testbed_params()
    params = params.with_overrides(
        comap=dataclasses.replace(params.comap, location_ttl_ns=LOCATION_TTL_NS)
    )
    net = exposed_terminal_topology(
        "comap", c2_x=20.0, seed=seed, params=params
    ).network
    window = dict(start_ns=FAULT_START_NS, duration_ns=FAULT_DURATION_NS)
    injector = net.install_faults(
        FaultPlan(
            events=(
                LocationOutage(node=OUTAGE_NODE, **window),
                AckLossBurst(node=ACK_NODE, **window),
            ),
            report_interval_ns=REPORT_INTERVAL_NS,
        )
    )
    results = net.run(duration_s)
    registry = global_registry()
    fired = {f"faults/{name}": value for name, value in injector.counters.items()}
    network = net.counters()
    fired.update((name, network.get(name, 0)) for name in FALLBACK_COUNTERS)
    for name, value in sorted(fired.items()):
        if value:
            registry.counter(name).inc(value)
    return {
        "per_flow_mbps": {
            f"{src}->{dst}": mbps
            for (src, dst), mbps in sorted(results.per_flow_mbps().items())
        },
        "fault_counters": injector.counters,
    }


def _manifest(
    directory: str, problems: List[str]
) -> Optional[obs_manifest.RunManifest]:
    """The schema-validated run manifest a check left in ``directory``."""
    paths = sorted(glob.glob(os.path.join(directory, "*.manifest.json")))
    if not paths:
        problems.append(f"no manifest written to {directory}")
        return None
    try:
        return obs_manifest.load_manifest(paths[-1])
    except obs_manifest.ManifestError as exc:
        problems.append(str(exc))
        return None


def check_fault(args: argparse.Namespace, problems: List[str]) -> str:
    tasks = [
        SweepTask(
            fn=fault_cell,
            kwargs={"seed": seed, "duration_s": args.duration_s},
            key=("fault_smoke", seed),
        )
        for seed in range(4)
    ]
    with obs_manifest.manifest_sink(args.out):
        results = run_tasks(tasks, jobs=args.jobs, label="fault_smoke")
    print(f"sample result: {json.dumps(results[0])}")
    manifest = _manifest(args.out, problems)
    if manifest is not None:
        fired = {
            key: value
            for key, value in manifest.counters.items()
            if key.startswith("faults/")
        }
        if any(fired.values()):
            print(f"injected faults recorded in manifest: {fired}")
        else:
            problems.append(f"no faults/ counter fired: {fired}")
        fallback = {
            name: manifest.counters.get(name, 0) for name in FALLBACK_COUNTERS
        }
        if all(value > 0 for value in fallback.values()):
            print(f"location fallbacks recorded in manifest: {fallback}")
        else:
            problems.append(f"a fallback edge never fired: {fallback}")
    return f"{len(results)} tasks"


class _FailingStore(ResultCache):
    """A store that creates ``marker`` once ``entries`` entries landed,
    so the sweep's next ``fig8_cell`` fails."""

    def __init__(self, root: str, entries: int, marker: str) -> None:
        super().__init__(root)
        self.entries, self.marker = entries, marker

    def put(self, *args) -> None:
        super().put(*args)
        self.entries -= 1
        if self.entries == 0:
            open(self.marker, "w").close()


def _check_rerun(
    phase: str,
    directory: str,
    baseline: Optional[obs_manifest.RunManifest],
    hits: int,
    problems: List[str],
) -> None:
    """The re-run's manifest in ``directory`` hit ``hits`` entries, missed
    the rest and equals ``baseline`` where two runs of one grid agree."""
    rerun = _manifest(directory, problems)
    if baseline is None or rerun is None:
        return
    misses = len(baseline.tasks) - hits
    if (rerun.cache_hits, rerun.cache_misses) != (hits, misses):
        problems.append(
            f"{phase}: re-run hit {rerun.cache_hits} and missed "
            f"{rerun.cache_misses}, expected {hits} and {misses}"
        )
    expected, got = _comparable(baseline), _comparable(rerun)
    problems.extend(
        f"{phase}: re-run manifest field {name!r} differs from the "
        f"uninterrupted baseline"
        for name in expected
        if expected[name] != got[name]
    )
    if not any(key.startswith("node/") for key in rerun.counters):
        problems.append(f"{phase}: re-run manifest carries no per-node counters")


def check_resume(args: argparse.Namespace, problems: List[str]) -> str:
    marker = os.path.join(args.out, "fail.marker")
    if os.path.exists(marker):
        os.unlink(marker)  # a re-used --out starts healthy
    grid = dict(RESUME_GRID, duration_s=args.duration_s, fail_if=marker)
    tasks = fig8_grid(**grid)
    print(f"[1/5] serial baseline: {len(tasks)} tasks")
    baseline_dir = os.path.join(args.out, "baseline")
    with obs_manifest.manifest_sink(baseline_dir):
        run_tasks(tasks, jobs=1, label="resume_smoke")
    baseline = _manifest(baseline_dir, problems)

    killed_store = os.path.join(args.out, "store")
    ResultCache(killed_store).clear(orphan_age_s=0.0)  # a re-used --out starts cold
    try:
        workers = sigkill_sweep(
            killed_store, RESUME_KILL_AFTER, RESUME_JOBS, "resume_smoke", grid
        )
    except RuntimeError as exc:
        problems.append(str(exc))
        return ""
    print(
        f"[2/5] {RESUME_JOBS}-worker sweep SIGKILLed after "
        f"{RESUME_KILL_AFTER}/{len(tasks)} entries; workers {workers}"
    )
    left = survivors(workers)
    if left:
        problems.append(f"pool workers {left} outlived the killed sweep")
    with obs_manifest.manifest_sink(args.out):
        run_tasks(
            tasks, jobs=1, cache=ResultCache(killed_store), label="resume_smoke"
        )
    print(f"[3/5] re-ran the grid on the killed sweep's store -> {args.out}")
    _check_rerun("after the SIGKILL", args.out, baseline, RESUME_KILL_AFTER, problems)

    failed_store = os.path.join(args.out, "failed-store")
    ResultCache(failed_store).clear(orphan_age_s=0.0)
    try:
        run_tasks(
            tasks, jobs=1, label="resume_smoke",
            cache=_FailingStore(failed_store, RESUME_FAIL_AFTER, marker),
        )
    except RuntimeError as exc:
        print(f"[4/5] serial sweep failed after {RESUME_FAIL_AFTER} entries: {exc}")
    else:
        problems.append("the sweep with a failing cell did not fail")
    if os.path.exists(marker):
        os.unlink(marker)
    rerun_dir = os.path.join(args.out, "after-failure")
    with obs_manifest.manifest_sink(rerun_dir):
        run_tasks(
            tasks, jobs=1, cache=ResultCache(failed_store), label="resume_smoke"
        )
    print(f"[5/5] re-ran the grid on the failed sweep's store -> {rerun_dir}")
    _check_rerun("after the failure", rerun_dir, baseline, RESUME_FAIL_AFTER, problems)
    return (
        f"re-runs after a SIGKILL and a task failure hit {RESUME_KILL_AFTER} "
        f"and {RESUME_FAIL_AFTER} of {len(tasks)} entries, bit-identical to "
        f"the baseline"
    )


def check_csr(args: argparse.Namespace, problems: List[str]) -> str:
    with obs_manifest.manifest_sink(args.out):
        rows = run_csr_floor(
            mac_kinds=CSR_MAC_KINDS,
            ap_counts=(CSR_AP_COUNT,),
            backhaul_latencies_ns=(CSR_BACKHAUL_LATENCY_NS,),
            error_radii_m=(0.0,),
            n_topologies=CSR_TOPOLOGIES,
            duration_s=args.duration_s,
            seed=args.seed,
            jobs=args.jobs,
        )
    with open(os.path.join(args.out, "csr_smoke.rows.json"), "wb") as handle:
        handle.write(obs_manifest.json_bytes(rows))

    expected_flows = float(CSR_AP_COUNT * 2)
    by_topology: dict = {}
    for row in rows:
        by_topology.setdefault(row["topology"], {})[row["mac"]] = row
        if row["flows_with_deliveries"] < expected_flows:
            problems.append(
                f"{row['mac']} topology {row['topology']}: only "
                f"{row['flows_with_deliveries']:.0f}/{expected_flows:.0f} "
                f"flows delivered"
            )
    for topo, cells in sorted(by_topology.items()):
        missing = [kind for kind in CSR_MAC_KINDS if kind not in cells]
        if missing:
            problems.append(f"topology {topo}: missing cells for {missing}")
            continue
        dcf, csr = cells["dcf"], cells["csr"]
        print(
            f"topology {topo}: dcf={dcf['goodput_mbps']:.2f} Mbps "
            f"comap={cells['comap']['goodput_mbps']:.2f} Mbps "
            f"csr={csr['goodput_mbps']:.2f} Mbps "
            f"(p99 worst: dcf={dcf['p99_ms_worst']:.1f} ms, "
            f"csr={csr['p99_ms_worst']:.1f} ms)"
        )
        if csr["goodput_mbps"] < dcf["goodput_mbps"]:
            problems.append(
                f"topology {topo}: C-SR goodput {csr['goodput_mbps']:.2f} "
                f"Mbps below DCF {dcf['goodput_mbps']:.2f} Mbps"
            )
        if not csr.get("csr/txop_announced"):
            problems.append(f"topology {topo}: C-SR never announced a TXOP")
        if not csr.get("csr/backhaul_messages"):
            problems.append(
                f"topology {topo}: no backhaul messages — coordination "
                f"plane never engaged"
            )
    _manifest(args.out, problems)
    return f"{len(rows)} cells"


CHECKS = {"fault": check_fault, "resume": check_resume, "csr": check_csr}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end smoke checks of the sweep machinery."
    )
    sub = parser.add_subparsers(dest="check", required=True)
    for name, duration_s in (("fault", 0.1), ("resume", 0.04), ("csr", 0.2)):
        check = sub.add_parser(name, help=f"the {name} smoke check")
        check.add_argument("--out", default=f"{name}-artifacts",
                           help="artifact output directory")
        check.add_argument("--duration-s", type=float, default=duration_s,
                           help="simulated seconds per task")
        if name != "resume":
            check.add_argument("--jobs", type=int, default=2,
                               help="pool worker count")
        if name == "csr":
            check.add_argument("--seed", type=int, default=0,
                               help="sweep master seed")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    problems: List[str] = []
    summary = CHECKS[args.check](args, problems)
    for problem in problems:
        print(f"{args.check.upper()}-SMOKE FAILURE: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"{args.check} smoke passed: {summary}, artifacts in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
