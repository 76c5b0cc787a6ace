"""End-to-end smoke checks of the sweep executor, the sweep queue and C-SR.

Run from the root of a checkout::

    PYTHONPATH=src python tools/sweep_smoke.py fault --out fault-artifacts --jobs 2
    PYTHONPATH=src python tools/sweep_smoke.py queue --out queue-artifacts
    PYTHONPATH=src python tools/sweep_smoke.py csr --out csr-artifacts --jobs 2

Each check runs a small sweep, leaves its run manifest and other
artifacts in ``--out``, and exits 0, or 1 after printing every violated
condition:

* ``fault`` — a location-report outage plus an ACK-loss burst on the
  exposed-terminal topology, 4 seeds on a worker pool with
  ``on_error="record"``.  Every task completes, the manifest's
  ``failures`` list exists and is empty, the ``faults/`` counters fired,
  and the sweep's trace is exported as JSONL.
* ``queue`` — a small Fig-8 grid sharded one task per shard.  One worker
  process SIGKILLs itself after finishing its second shard's work but
  before recording it (lease held, nothing on disk), a second drains
  part of the rest, and ``resume`` finishes the queue.  The merged
  manifest must equal an uninterrupted serial run's on tasks, params,
  seeds, counters (per-node radio counters included) and failures.
* ``csr`` — the 4-AP enterprise floor, DCF vs CO-MAP vs C-SR.  Every
  flow delivers, C-SR goodput is at least DCF's on every topology, the
  C-SR cells coordinated (TXOP announcements over the backhaul), and
  the manifest records no task failures.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import signal
import subprocess
import sys
from typing import List, Optional

from repro.experiments.parallel import SweepTask, run_tasks
from repro.experiments.queue import (
    LEASES_DIR,
    _comparable,
    _worker_argv,
    _worker_env,
    fig8_grid,
    resume,
    shard_done,
    shard_tasks,
)
from repro.experiments.runner import run_csr_floor
from repro.obs import manifest as obs_manifest
from repro.obs.counters import global_registry
from repro.obs.trace_io import dump_jsonl
from repro.sim.trace import global_recorder

#: ``fault``: the faulted nodes and schedule.  The clients are the data
#: transmitters in this topology, so the ACK burst targets a client
#: (ACKs flow AP -> client).
OUTAGE_NODE = "C1"
ACK_NODE = "C2"
FAULT_START_NS = 10_000_000
FAULT_DURATION_NS = 60_000_000

#: ``csr``: the floor grid (2 clients per AP, the runner's default).
CSR_AP_COUNT = 4
CSR_TOPOLOGIES = 2
CSR_MAC_KINDS = ("dcf", "comap", "csr")
CSR_BACKHAUL_LATENCY_NS = 200_000


def fault_cell(seed: int = 0, duration_s: float = 0.1) -> dict:
    """One fault-injected exposed-terminal run (module-level: pickles).

    Returns per-flow goodput plus the injector's counters, and merges
    the fault counters into the process-global registry so they survive
    the trip back from a pool worker into the sweep manifest.
    """
    from repro.experiments.params import testbed_params
    from repro.experiments.topologies import exposed_terminal_topology
    from repro.faults import AckLossBurst, FaultPlan, LocationOutage

    net = exposed_terminal_topology(
        "comap", c2_x=20.0, seed=seed, params=testbed_params()
    ).network
    window = dict(start_ns=FAULT_START_NS, duration_ns=FAULT_DURATION_NS)
    injector = net.install_faults(
        FaultPlan(
            events=(
                LocationOutage(node=OUTAGE_NODE, **window),
                AckLossBurst(node=ACK_NODE, **window),
            )
        )
    )
    results = net.run(duration_s)
    registry = global_registry()
    for name, value in sorted(injector.counters.items()):
        if value:
            registry.counter(f"faults/{name}").inc(value)
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
    recorder = global_recorder()
    recorder.enable("sweep")
    tasks = [
        SweepTask(
            fn=fault_cell,
            kwargs={"seed": seed, "duration_s": args.duration_s},
            key=("fault_smoke", seed),
        )
        for seed in range(4)
    ]
    with obs_manifest.manifest_sink(args.out):
        results = run_tasks(
            tasks, jobs=args.jobs, label="fault_smoke", on_error="record"
        )
    dump_jsonl(
        recorder.events(),
        os.path.join(args.out, "fault_smoke.trace.jsonl"),
        meta={"label": "fault_smoke"},
    )
    aborted = sum(result is None for result in results)
    if aborted:
        problems.append(f"task aborts: {aborted}")
    else:
        print(f"sample result: {json.dumps(results[0])}")
    manifest = _manifest(args.out, problems)
    if manifest is not None:
        if manifest.failures is None:
            problems.append("manifest lacks the failures field")
        elif manifest.failures:
            problems.append(
                f"manifest records {len(manifest.failures)} task failures"
            )
        fired = {
            key: value
            for key, value in manifest.counters.items()
            if key.startswith("faults/")
        }
        if any(fired.values()):
            print(f"injected faults recorded in manifest: {fired}")
        else:
            problems.append(f"no faults/ counter fired: {fired}")
    return f"{len(results)} tasks"


def check_queue(args: argparse.Namespace, problems: List[str]) -> str:
    tasks = fig8_grid(
        positions_m=(5.0, 20.0, 35.0), mac_kinds=("dcf", "comap"),
        repeats=1, seed=0, duration_s=args.duration_s,
    )
    print(f"[1/5] serial baseline: {len(tasks)} tasks")
    baseline_dir = os.path.join(args.out, "baseline")
    with obs_manifest.manifest_sink(baseline_dir):
        run_tasks(tasks, jobs=1, label="queue_smoke", on_error="record")

    queue_dir = os.path.join(args.out, "queue")
    spec = shard_tasks(tasks, queue_dir, chunk=1, label="queue_smoke")
    print(f"[2/5] sharded into {len(spec.shards)} shards at {queue_dir}")

    def worker(*extra: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            _worker_argv(queue_dir, *extra), env=_worker_env(),
            capture_output=True, text=True, timeout=300,
        )

    victim = worker(
        "--kill-after-shards", "1", "--lease-ttl-s", str(args.lease_ttl_s)
    )
    if victim.returncode != -signal.SIGKILL:
        problems.append(
            f"victim worker exited {victim.returncode}, expected SIGKILL\n"
            f"{victim.stderr}"
        )
        return ""
    held = sorted(
        name for name in os.listdir(os.path.join(queue_dir, LEASES_DIR))
        if name.endswith(".lease")
    )
    print(f"[3/5] victim worker SIGKILLed mid-shard; leases held: {held}")
    survivor = worker("--max-shards", "2")
    if survivor.returncode != 0:
        problems.append(
            f"survivor worker exited {survivor.returncode}\n{survivor.stderr}"
        )
        return ""
    done = sum(shard_done(spec, shard) for shard in spec.shards)
    print(f"[4/5] survivor drained 2 shards ({done}/{len(spec.shards)} done)")
    if done >= len(spec.shards):
        problems.append("nothing left for resume to do")
        return ""

    merged_path = resume(queue_dir, out_dir=args.out, lease_ttl_s=args.lease_ttl_s)
    print(f"[5/5] resumed + merged -> {merged_path}")
    baseline = _manifest(baseline_dir, problems)
    merged = _manifest(args.out, problems)
    if baseline is None or merged is None:
        return ""
    if merged.shards is None or merged.shards["count"] != len(spec.shards):
        problems.append(f"merged manifest shards block wrong: {merged.shards}")
    expected, got = _comparable(baseline), _comparable(merged)
    problems.extend(
        f"merged manifest field {name!r} differs from the uninterrupted baseline"
        for name in expected
        if expected[name] != got[name]
    )
    per_node = [key for key in merged.counters if key.startswith("node/")]
    if not per_node:
        problems.append("merged manifest carries no per-node counters")
    return (
        f"{len(spec.shards)} shards, {len(per_node)} per-node counters "
        f"bit-identical to baseline"
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
    manifest = _manifest(args.out, problems)
    if manifest is not None and manifest.failures:
        problems.append(f"manifest records {len(manifest.failures)} task failures")
    return f"{len(rows)} cells"


CHECKS = {"fault": check_fault, "queue": check_queue, "csr": check_csr}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end smoke checks of the sweep machinery."
    )
    sub = parser.add_subparsers(dest="check", required=True)
    for name, duration_s in (("fault", 0.1), ("queue", 0.04), ("csr", 0.2)):
        check = sub.add_parser(name, help=f"the {name} smoke check")
        check.add_argument("--out", default=f"{name}-artifacts",
                           help="artifact output directory")
        check.add_argument("--duration-s", type=float, default=duration_s,
                           help="simulated seconds per task")
        if name == "queue":
            check.add_argument("--lease-ttl-s", type=float, default=1.0,
                               help="lease TTL of the queue workers")
        else:
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
