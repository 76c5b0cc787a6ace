"""Parallel sweep execution with deterministic seed streams.

Every ``run_*`` function in :mod:`repro.experiments.runner` decomposes its
sweep into independent :class:`SweepTask` records and hands them to
:func:`run_tasks`.  Three properties make the decomposition safe:

* **Deterministic seed streams.**  Each task's RNG seed comes from
  :func:`derive_seed`, a ``spawn_key``-style derivation that hashes
  ``(base_seed, *task_key)`` through SHA-256.  Seeds therefore depend only
  on the task's *identity* (its grid coordinates), never on execution
  order, worker count, or platform ``hash()`` randomization — so a sweep
  is bit-identical whether it runs serially, on 4 workers, or resumes
  from a warm cache.
* **Process isolation.**  Tasks run under
  :class:`concurrent.futures.ProcessPoolExecutor` (``REPRO_JOBS`` env
  knob, explicit ``jobs=`` argument wins).  The simulator is
  bit-reproducible *per process*; separate processes per task mean no
  shared mutable state can leak between sweep points.  ``jobs=1`` — the
  default — bypasses the pool entirely, and a pool whose workers cannot
  start hands its unfinished tasks to the same serial path.
* **Content-keyed storage.**  An optional on-disk :class:`ResultCache`
  stores each finished task — its result and the counter delta it
  added — under a stable SHA-256 fingerprint of the task's callable and
  its full keyword set (scenario parameters, topology arguments, seed,
  duration).  Changing *any* field of
  :class:`~repro.experiments.params.ScenarioParams` changes the
  fingerprint, so stale hits are impossible; corrupted cache files are
  treated as misses.  Entries land as each task finishes, so re-running
  a failed or killed sweep on the same store resumes it.

One failure rule: a task's own exception propagates out of
:func:`run_tasks` as raised, serial or pooled.  A task is a pure function
of its record, so it would fail the same way again; nothing retries it,
and the store is how the sweep resumes once the cause is fixed.

Per-task progress and wall-clock timings are recorded into the process
global :func:`repro.sim.trace.global_recorder` under the ``sweep``
category (enable with ``REPRO_TRACE=1`` or
``global_recorder().enable("sweep")``).

Observability (:mod:`repro.obs`)
--------------------------------

Pool workers are separate processes with their *own* module-global
recorder and counter registry, so anything recorded there would
silently vanish when the worker exits.  :func:`capture_deltas` snapshots
both around each pool task; the deltas travel back with the result and
the parent merges them into its own
:func:`~repro.sim.trace.global_recorder` /
:func:`~repro.obs.counters.global_registry`, making a 2-worker run's
trace indistinguishable from a serial one (same events, worker PIDs in
the ``task_run`` records).  A store hit replays the task's stored
counter delta the same way, so a warm or resumed sweep counts what a
cold one does.  When a manifest sink is active (``REPRO_MANIFEST_DIR``
or :func:`repro.obs.manifest.manifest_sink`), every :func:`run_tasks`
call also writes a schema-validated ``<label>.manifest.json`` (built by
:func:`sweep_manifest`) recording the task grid, seeds, git SHA, wall
time, and what the sweep itself added to both globals — the baseline
:func:`capture_deltas` takes around a task, taken around the whole
sweep, so nothing the process counted before the sweep leaks into its
manifest.  All of it costs nothing measurable when disabled: a few
dict copies of the (small) global registry and perf-counter reads per
task, no per-frame work.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs import manifest as obs_manifest
from repro.obs.counters import diff_snapshot, global_registry
from repro.obs.profile import maybe_profiler
from repro.sim.trace import TraceEvent, configure_from_env, global_recorder
from repro.util.rng import _canonical, derive_seed

#: Environment knob: worker-process count for sweep execution.
JOBS_ENV = "REPRO_JOBS"
#: Environment knob: enable the on-disk result cache ("1" to enable).
CACHE_ENV = "REPRO_CACHE"
#: Environment knob: override the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Bump when the cache payload format (not the keyed content) changes.
#: Version 2 entries carry the task's counter delta next to its result;
#: a version-1 entry misses rather than replay a hit without counters.
CACHE_VERSION = 2

# ``derive_seed`` (and its canonical encoding) lives in
# :mod:`repro.util.rng` so the PHY layer can key per-link shadowing
# substreams with the same machinery; it is re-exported here because
# every runner, bench, and test imports it from this module.


# ----------------------------------------------------------------------
# Tasks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepTask:
    """One independent unit of a sweep.

    ``fn`` must be a module-level callable (so it pickles by reference)
    and must depend only on ``kwargs`` — no closures, no globals — so the
    result is a pure function of the task record.  On a pool the task
    and its result must pickle; one that does not raises there.  ``key`` is the task's
    human-readable grid identity, used for tracing and regrouping.
    """

    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)
    key: Tuple = ()

    def fingerprint(self) -> str:
        """Stable content hash: callable identity + full keyword set."""
        blob = _canonical((f"v{CACHE_VERSION}", self.fn, self.kwargs))
        return hashlib.sha256(blob).hexdigest()

    def execute(self) -> Any:
        return self.fn(**self.kwargs)


def _execute_indexed(task: SweepTask) -> Tuple[Any, float]:
    """Run one task, returning (result, elapsed_s).

    Records a ``sweep/task_run`` event *in the executing process* (the
    parent when serial, the worker when pooled) — the per-task half of
    the profiling hooks.
    """
    trace = configure_from_env()
    started = time.perf_counter()
    result = task.execute()
    elapsed = time.perf_counter() - started
    trace.record(
        "sweep", "task_run", key=task.key, pid=os.getpid(), elapsed_s=elapsed
    )
    return result, elapsed


def _baseline() -> Callable[[], Tuple[Dict[str, Any], List[TraceEvent]]]:
    """Mark the process globals; the returned call reports what they
    gained since: the positive counter changes (what ``merge_snapshot``
    elsewhere needs) and the new trace events.

    A baseline fences off what came before it: events inherited over
    ``fork``, earlier tasks on a reused worker, earlier sweeps.
    """
    recorder = global_recorder()
    registry = global_registry()
    events_base = len(recorder)
    counters_base = registry.snapshot()

    def added() -> Tuple[Dict[str, Any], List[TraceEvent]]:
        fresh = recorder.events()[events_base:]
        return diff_snapshot(counters_base, registry.snapshot()), fresh

    return added


def capture_deltas(
    fn: Callable[..., Any], *args: Any
) -> Tuple[Any, Dict[str, Any], List[TraceEvent]]:
    """Run ``fn(*args)``; return its value, counter delta and new events:
    what the call added to the process globals (see :func:`_baseline`)."""
    added = _baseline()
    value = fn(*args)
    return (value, *added())


def _execute_shipping(
    task: SweepTask,
) -> Tuple[Any, float, List[TraceEvent], Dict[str, Any]]:
    """Pool entry point: run one task and ship its observability deltas.

    What the task records in the worker's globals would die with the
    worker, so the deltas travel home with the result.
    """
    (result, elapsed), counters, events = capture_deltas(_execute_indexed, task)
    return result, elapsed, events, counters


def _exit_with_parent() -> None:
    """Pool initializer: end this worker once its parent process is gone.

    A SIGKILLed sweep cannot shut its pool down, and its workers would
    live on as orphans holding open every pipe the dead sweep held.  The
    parent PID is read here, inside the worker: under ``fork`` it is the
    sweep, under ``forkserver`` the fork server, which exits with the
    sweep — so the value changes once the sweep dies, either way.  A
    daemon thread checks it twice a second.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------
class ResultCache:
    """Content-addressed on-disk store of finished sweep tasks.

    One JSON document per task, named by the task fingerprint, holding
    the task's result and the counter delta its execution added to the
    process-global registry (``version``, ``key``, ``result``,
    ``counters``).  :func:`run_tasks` writes each entry as its task
    finishes and replays the delta on a hit, so re-running a crashed
    sweep on the same store resumes it: finished tasks hit, failed and
    missing ones run.  Results must be JSON-round-trippable (the runners
    return floats and lists of floats; JSON round-trips floats exactly).
    Any unreadable, corrupt, or wrong-version file is a miss — a broken
    cache can cost recompute time but can never crash or corrupt a sweep.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root or default_cache_dir()

    def path_for(self, digest: str) -> str:
        return os.path.join(self.root, f"{digest}.json")

    def get(self, digest: str) -> Tuple[bool, Any, Dict[str, Any]]:
        """Return ``(hit, result, counters)``; every failure mode is a miss."""
        try:
            with open(self.path_for(digest), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if (
                not isinstance(payload, dict)
                or payload.get("version") != CACHE_VERSION
                or payload.get("key") != digest
                or "result" not in payload
                or not isinstance(payload.get("counters"), dict)
                or not all(
                    isinstance(value, (int, float))
                    for value in payload["counters"].values()
                )
            ):
                raise ValueError("malformed cache payload")
        except (OSError, ValueError):
            return False, None, {}
        return True, payload["result"], payload["counters"]

    def put(self, digest: str, value: Any, counters: Dict[str, Any]) -> None:
        """Store a result and its counter delta atomically; swallow
        storage failures.

        A process killed mid-write leaves at worst an orphaned ``.tmp``
        (reaped by :meth:`clear`), never a truncated ``.json`` that a
        later run could read as a corrupt entry.
        """
        try:
            payload = json.dumps(
                {
                    "version": CACHE_VERSION,
                    "key": digest,
                    "result": value,
                    "counters": counters,
                }
            )
        except (TypeError, ValueError):
            return  # non-JSON result: simply don't memoize it
        try:
            obs_manifest.atomic_write_bytes(
                self.path_for(digest), payload.encode("utf-8")
            )
        except OSError:
            return  # read-only/full disk: caching is best-effort

    #: ``clear()`` only reaps ``.tmp`` files at least this old (seconds).
    #: A fresh ``.tmp`` belongs to a *live* concurrent writer mid-
    #: :meth:`put` — sweeps in several processes may share one store —
    #: and deleting it would make the writer's ``os.replace`` fail,
    #: silently losing that entry.  A dead writer's orphan just waits
    #: out the guard before the next ``clear()`` removes it.
    ORPHAN_AGE_S = 60.0

    def clear(self, orphan_age_s: Optional[float] = None) -> int:
        """Delete all cache entries; returns the number removed.

        Also reaps ``.tmp`` orphans left by writers that died mid-put
        (those never count toward the removed total — they were never
        entries) — but only orphans older than ``orphan_age_s``
        (default :data:`ORPHAN_AGE_S`), so a concurrent worker that is
        *currently* between ``mkstemp`` and ``os.replace`` on a shared
        cache directory never has its temp file yanked away mid-write.
        """
        if orphan_age_s is None:
            orphan_age_s = self.ORPHAN_AGE_S
        removed = 0
        now = time.time()
        try:
            names = os.listdir(self.root)
        except OSError:
            return 0
        for name in names:
            path = os.path.join(self.root, name)
            if name.endswith(".json"):
                try:
                    os.unlink(path)
                    removed += 1
                except OSError:
                    pass
            elif name.endswith(".tmp"):
                try:
                    if now - os.path.getmtime(path) >= orphan_age_s:
                        os.unlink(path)
                except OSError:
                    pass
        return removed


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro/sweeps``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro", "sweeps")


def _env_cache() -> Optional[ResultCache]:
    if os.environ.get(CACHE_ENV, "0") == "1":
        return ResultCache()
    return None


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument, else ``$REPRO_JOBS``, else 1
    (also when the variable is empty or malformed)."""
    if jobs is None:
        try:
            jobs = int(os.environ.get(JOBS_ENV) or 1)
        except ValueError:
            jobs = 1
    return max(1, int(jobs))


def run_tasks(
    tasks: Sequence[SweepTask],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    label: str = "sweep",
) -> List[Any]:
    """Execute ``tasks`` and return their results in task order.

    Results are a pure function of each task record, so the output is
    bit-identical for every ``jobs`` value.  ``cache=None`` consults
    ``$REPRO_CACHE`` (off by default); a provided :class:`ResultCache`
    is always used.  Each task is stored as soon as it finishes, and a
    hit replays the counter delta the task added.

    One failure rule: a task's own exception propagates as raised, on
    the serial path and the pool alike, and ends the sweep without a
    manifest.  A task would fail the same way again, so nothing retries
    it; the tasks that finished before it are in the store already, so
    calling ``run_tasks`` again on the same store — once the cause is
    fixed, or after the sweep was killed — resumes the sweep and writes
    the manifest an uninterrupted run would.
    """
    tasks = list(tasks)
    # Parent and workers alike configure the global recorder, so the
    # ``REPRO_TRACE`` opt-in follows the environment into pool processes.
    trace = configure_from_env()
    if cache is None:
        cache = _env_cache()
    jobs = resolve_jobs(jobs)
    profiler = maybe_profiler()
    if profiler is not None:
        profiler.start()
    # The manifest counts what lands after this mark: cache hits replay
    # their stored deltas and pool results merge their shipped ones
    # inside the window, as serial tasks count into it directly.
    added = _baseline()
    sweep_started = time.perf_counter()
    trace.record(
        "sweep", "start", label=label, tasks=len(tasks), jobs=jobs,
        cached=cache is not None,
    )

    results: List[Any] = [None] * len(tasks)
    pending: List[int] = []
    for index, task in enumerate(tasks):
        if cache is not None:
            hit, value, counters = cache.get(task.fingerprint())
            if hit:
                results[index] = value
                global_registry().merge_snapshot(counters)
                trace.record("sweep", "cache_hit", label=label, key=task.key)
                continue
        pending.append(index)
    scan_elapsed = time.perf_counter() - sweep_started
    trace.record(
        "sweep", "phase", label=label, phase="cache_scan",
        elapsed_s=scan_elapsed, pending=len(pending),
    )

    exec_started = time.perf_counter()
    completed = _run_pending(tasks, pending, jobs, label, trace, cache)
    exec_elapsed = time.perf_counter() - exec_started
    trace.record(
        "sweep", "phase", label=label, phase="execute",
        elapsed_s=exec_elapsed, tasks=len(pending),
    )
    for index, (value, elapsed) in completed.items():
        results[index] = value
        trace.record(
            "sweep", "task_done", label=label, key=tasks[index].key,
            elapsed_s=elapsed,
        )
    wall_s = time.perf_counter() - sweep_started
    trace.record("sweep", "done", label=label, tasks=len(tasks), elapsed_s=wall_s)
    profile_block = None
    if profiler is not None:
        profiler.stop()
        # The phase boundaries mirror the sweep/phase trace events above.
        profiler.add_phase("cache_scan", scan_elapsed)
        profiler.add_phase("execute", exec_elapsed)
        profile_block = profiler.as_block()
    manifest_dir = obs_manifest.active_manifest_dir()
    if manifest_dir:
        counters, events = added()
        manifest = sweep_manifest(
            label, tasks, jobs, wall_s,
            counters=counters,
            trace_counts=trace.counts(events),
            # This sweep's own counts: one store may serve many sweeps.
            cache_hits=len(tasks) - len(pending) if cache is not None else 0,
            cache_misses=len(pending) if cache is not None else 0,
            profile=profile_block,
        )
        try:
            obs_manifest.write_manifest(manifest, manifest_dir)
        except OSError:
            pass  # read-only/full disk: manifests are best-effort
    return results


def split_common_params(
    tasks: Sequence[SweepTask],
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Common-kwargs intersection plus per-task overrides (JSON-safe).

    A sweep manifest's ``params`` field used to record
    ``tasks[0].kwargs`` wholesale, silently misreporting heterogeneous
    grids (every task after the first could disagree with it).  Instead:
    ``params`` is the intersection of keyword arguments shared — equal
    after :func:`~repro.obs.manifest.jsonable` rendering — by *every*
    task, and each task row carries only its deviations from that
    intersection.  For a homogeneous grid the intersection equals the
    old field and every override is empty.
    """
    rendered = [
        {str(k): obs_manifest.jsonable(v) for k, v in task.kwargs.items()}
        for task in tasks
    ]
    if not rendered:
        return {}, []
    common = {
        key: value
        for key, value in rendered[0].items()
        if all(key in row and row[key] == value for row in rendered[1:])
    }
    overrides = [
        {key: value for key, value in row.items() if key not in common}
        for row in rendered
    ]
    return common, overrides


def sweep_manifest(
    label: str,
    tasks: Sequence[SweepTask],
    jobs: int,
    wall_s: float,
    counters: Dict[str, Any],
    trace_counts: Dict[str, int],
    **optional: Any,
) -> obs_manifest.RunManifest:
    """The run manifest of one task grid.

    Task rows carry each task's key, seed and content fingerprint, plus
    its deviations from the common ``params``.  ``optional`` carries the
    optional blocks of :func:`~repro.obs.manifest.build_manifest` (cache
    counts, ``profile``).
    """
    params, overrides = split_common_params(tasks)
    rows = []
    for task, override in zip(tasks, overrides):
        try:
            fingerprint = task.fingerprint()
        except TypeError:
            fingerprint = "unfingerprintable"
        row: Dict[str, Any] = {
            "key": obs_manifest.jsonable(task.key),
            "seed": task.kwargs.get("seed"),
            "fingerprint": fingerprint,
        }
        if override:
            row["overrides"] = override
        rows.append(row)
    seeds = sorted(
        {
            int(task.kwargs["seed"])
            for task in tasks
            if isinstance(task.kwargs.get("seed"), int)
        }
    )
    return obs_manifest.build_manifest(
        label=label,
        tasks=rows,
        jobs=jobs,
        wall_s=wall_s,
        params=params,
        seeds=seeds,
        counters=counters,
        trace_counts=trace_counts,
        **optional,
    )


#: Finished task as the execution paths yield it: index, result,
#: elapsed seconds and the counter delta it added.
_Finished = Tuple[int, Any, float, Dict[str, Any]]


def _run_pending(
    tasks: Sequence[SweepTask],
    pending: List[int],
    jobs: int,
    label: str,
    trace,
    store: Optional[ResultCache] = None,
) -> Dict[int, Tuple[Any, float]]:
    """Run the not-yet-stored tasks, on a pool when ``jobs > 1``.

    Each finished task goes into ``store`` at once — written by this
    process only — so a sweep that fails or is killed later keeps it.
    A pool whose worker processes cannot start is the pool's failure,
    not a task's: the serial path runs only the tasks the pool did not
    finish, since a finished task's shipped deltas are merged already
    and running it again would count them twice.
    """
    completed: Dict[int, Tuple[Any, float]] = {}

    def keep(finished: Iterator[_Finished]) -> None:
        for index, value, elapsed, counters in finished:
            completed[index] = value, elapsed
            if store is not None:
                store.put(tasks[index].fingerprint(), value, counters)

    if jobs > 1 and len(pending) > 1:
        try:
            keep(_run_parallel(tasks, pending, jobs))
            return completed
        except _PoolUnavailable as exc:
            trace.record("sweep", "serial_fallback", label=label, reason=str(exc))
    keep(_run_serial(tasks, [i for i in pending if i not in completed]))
    return completed


def _run_serial(
    tasks: Sequence[SweepTask], pending: List[int]
) -> Iterator[_Finished]:
    """In-process execution.

    A task here counts straight into this process's globals, so its
    deltas are only measured, the counters for the store: merging them
    would count twice.
    """
    for index in pending:
        (value, elapsed), counters, _ = capture_deltas(
            _execute_indexed, tasks[index]
        )
        yield index, value, elapsed, counters


class _PoolUnavailable(Exception):
    """Worker processes could not start: the pool's failure, not a task's."""


#: Worker deaths one pooled sweep survives; the next one raises.
_BREAKS_SURVIVED = 2


def _run_parallel(
    tasks: Sequence[SweepTask], pending: List[int], jobs: int
) -> Iterator[_Finished]:
    """Pooled execution that survives dying workers.

    Tasks are submitted individually (not chunked ``map``) and yielded
    as they finish, with the deltas they shipped merged into this
    process's globals (they would die with the worker).  A task's own
    exception — an unpicklable task or result included — propagates
    from ``future.result()`` as raised.  A :class:`BrokenProcessPool` —
    a worker died, under its own task or a sibling's, or the dying pool
    refused a submission — respawns the pool and re-runs every
    unfinished task, uncharged: it did nothing wrong.  The break after
    :data:`_BREAKS_SURVIVED` raises, so a task that kills every worker
    it runs on ends the sweep like any task error.  Workers exit once this
    process dies (:func:`_exit_with_parent`).
    """
    unfinished = dict.fromkeys(pending)
    breaks = 0
    while True:
        pool, futures, broken = None, {}, None
        try:
            try:
                pool = ProcessPoolExecutor(
                    max_workers=min(jobs, len(unfinished)),
                    initializer=_exit_with_parent,
                )
                for index in unfinished:
                    futures[pool.submit(_execute_shipping, tasks[index])] = index
            except BrokenProcessPool as exc:
                broken = exc
            except OSError as exc:
                # ``submit`` runs no task code, so this OSError is the
                # pool's own: creating its semaphores or forking failed.
                raise _PoolUnavailable(f"process pool unavailable: {exc}") from exc
            for future in as_completed(futures):
                try:
                    value, elapsed, events, counters = future.result()
                except BrokenProcessPool as exc:
                    broken = exc
                    continue
                if events:
                    global_recorder().merge(events)
                if counters:
                    global_registry().merge_snapshot(counters)
                index = futures[future]
                del unfinished[index]
                yield index, value, elapsed, counters
        finally:
            if pool is not None:
                # After a task's error no queued task starts.  (Not
                # ``shutdown(cancel_futures=True)``: with a task still
                # failing to pickle it can hang interpreter exit.)
                for future in futures:
                    future.cancel()
                pool.shutdown(wait=False)
        if broken is None:
            return
        breaks += 1
        if breaks > _BREAKS_SURVIVED:
            raise broken
