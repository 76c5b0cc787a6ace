"""Task grids and a crash harness shared by the sweep tests and
``tools/sweep_smoke.py``.

The grid cells are module-level and pure functions of their kwargs, so
they pickle into pool workers and reproduce bit-identically anywhere.
:func:`sigkill_sweep` runs a grid in a child process on a store and
SIGKILLs it right after a chosen number of store entries have landed —
the crash that re-running the sweep on the same store must resume.
"""

import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.parallel import SweepTask, derive_seed
from repro.obs import manifest as obs_manifest
from repro.obs.counters import global_registry

#: The checkout root: ``src/`` and ``tests/`` of the code under test.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fig8_cell(
    mac_kind: str,
    c2_x: float,
    seed: int,
    duration_s: float,
    fail_if: Optional[str] = None,
) -> Dict[str, Any]:
    """One Fig-8 (exposed-terminal) cell with per-node counter export.

    Module-level and a pure function of its kwargs, so it pickles into
    pool workers and reproduces bit-identically anywhere.  Per-node radio
    counters and the network's integer counters are merged into the
    process-global registry — integers only, so summing per-task deltas
    is exact — and also returned in the result row.  While the file
    ``fail_if`` names exists, the cell raises instead: a failure its
    environment causes and fixes, with the task record unchanged.
    """
    if fail_if is not None and os.path.exists(fail_if):
        raise RuntimeError(f"fig8_cell c2_x={c2_x} {mac_kind}: {fail_if} exists")
    from repro.experiments.params import testbed_params
    from repro.experiments.topologies import exposed_terminal_topology

    built = exposed_terminal_topology(
        mac_kind, c2_x=c2_x, seed=seed, params=testbed_params()
    )
    net = built.network
    results = net.run(duration_s)
    registry = global_registry()
    per_node: Dict[str, List[int]] = {}
    for node in net.nodes.values():
        radio = node.radio
        counts = [
            int(radio.frames_transmitted),
            int(radio.frames_received),
            int(radio.frames_corrupted),
            int(radio.frames_missed),
        ]
        per_node[node.name] = counts
        for field_name, value in zip(
            ("transmitted", "received", "corrupted", "missed"), counts
        ):
            if value:
                registry.counter(f"node/{node.name}/frames_{field_name}").inc(value)
    for name, value in sorted(net.counters().items()):
        # Only positive integer-valued counters are exported: float
        # aggregates would make the merged sum depend on addition order,
        # and a zero would add a key that no event ever incremented.
        if value > 0 and float(value) == int(value):
            registry.counter(f"net/{name}").inc(int(value))
    return {
        "per_flow_mbps": {
            f"{src}->{dst}": mbps
            for (src, dst), mbps in sorted(results.per_flow_mbps().items())
        },
        "per_node": per_node,
    }


def fig8_grid(
    positions_m: Sequence[float],
    mac_kinds: Sequence[str] = ("dcf", "comap"),
    repeats: int = 1,
    seed: int = 0,
    duration_s: float = 0.05,
    fail_if: Optional[str] = None,
) -> List[SweepTask]:
    """The Fig-8 task grid, with the runner's exact seed derivation;
    ``fail_if`` (see :func:`fig8_cell`) goes to every cell when given."""
    extra = {} if fail_if is None else {"fail_if": fail_if}
    return [
        SweepTask(
            fn=fig8_cell,
            kwargs=dict(
                mac_kind=mac_kind,
                c2_x=float(x),
                seed=derive_seed(seed, "exposed", xi, mac_kind, rep),
                duration_s=duration_s,
                **extra,
            ),
            key=("exposed", float(x), mac_kind, rep),
        )
        for xi, x in enumerate(positions_m)
        for mac_kind in mac_kinds
        for rep in range(repeats)
    ]


def demo_cell(x: float, seed: int) -> Dict[str, Any]:
    """Cheap deterministic cell for fast tests."""
    global_registry().counter("demo/cells").inc()
    return {"x": x, "seed": seed, "y": x * x + seed}


def demo_grid(n: int = 8, seed: int = 0) -> List[SweepTask]:
    return [
        SweepTask(
            fn=demo_cell,
            kwargs={"x": float(i), "seed": derive_seed(seed, "demo", i)},
            key=("demo", i),
        )
        for i in range(n)
    ]


def _comparable(manifest: obs_manifest.RunManifest) -> Dict[str, Any]:
    """The deterministic fields two runs of one grid must agree on."""
    return {
        "label": manifest.label,
        "tasks": manifest.tasks,
        "params": manifest.params,
        "seeds": manifest.seeds,
        "counters": manifest.counters,
    }


# ----------------------------------------------------------------------
# Crash harness
# ----------------------------------------------------------------------
#: The child's sweep: ``ResultCache.put`` is wrapped so that, right
#: after the ``entries``-th entry is published, the child writes the PIDs
#: of its pool workers to ``pid_file`` and SIGKILLs itself.
_KILLED_SWEEP = """
import json, multiprocessing, os, signal
from repro.experiments import parallel
from tests.sweep_grids import fig8_grid

published = []
real_put = parallel.ResultCache.put

def put(self, *args):
    real_put(self, *args)
    published.append(args[0])
    if len(published) == {entries}:
        with open({pid_file!r}, "w") as handle:
            json.dump([p.pid for p in multiprocessing.active_children()], handle)
        os.kill(os.getpid(), signal.SIGKILL)

parallel.ResultCache.put = put
parallel.run_tasks(
    fig8_grid(**{grid!r}), jobs={jobs}, cache=parallel.ResultCache({store!r}),
    label={label!r},
)
raise SystemExit("unreachable: the sweep should have been killed")
"""


def child_env() -> Dict[str, str]:
    """The environment of a child Python that imports this checkout."""
    paths = [os.path.join(ROOT, "src"), ROOT, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def sigkill_sweep(
    store: str, entries: int, jobs: int, label: str, grid: Dict[str, Any]
) -> List[int]:
    """Run ``fig8_grid(**grid)`` on ``store`` in a child process and
    SIGKILL it right after ``entries`` store entries were published.

    Returns the PIDs the child's pool workers had at that instant.
    Raises ``RuntimeError`` unless the child died of that SIGKILL.
    """
    pid_file, log_file = f"{store}.workers.json", f"{store}.log"
    # Output goes to a file, not a pipe: a pool worker outliving the
    # child would hold a pipe open and hang the wait for its end.
    with open(log_file, "w", encoding="utf-8") as log:
        proc = subprocess.run(
            [sys.executable, "-c", _KILLED_SWEEP.format(
                entries=entries, pid_file=pid_file, grid=grid, jobs=jobs,
                store=store, label=label,
            )],
            env=child_env(), cwd=ROOT, stdout=log, stderr=log, timeout=300,
        )
    if proc.returncode != -signal.SIGKILL:
        with open(log_file, encoding="utf-8") as log:
            raise RuntimeError(
                f"sweep child exited {proc.returncode}, expected SIGKILL\n"
                f"{log.read()}"
            )
    with open(pid_file, encoding="utf-8") as handle:
        return json.load(handle)


def running(pid: int) -> bool:
    """True while ``pid`` runs; a zombie awaiting its reaper is gone."""
    if not os.path.isdir("/proc"):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def survivors(pids: Sequence[int], within_s: float = 10.0) -> List[int]:
    """Those of ``pids`` still running after up to ``within_s`` seconds."""
    deadline = time.monotonic() + within_s
    alive = [pid for pid in pids if running(pid)]
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [pid for pid in alive if running(pid)]
    return alive
