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
  default — bypasses the pool entirely, and any pickling failure degrades
  gracefully to the same serial path.
* **Content-keyed storage.**  An optional on-disk :class:`ResultCache`
  stores each finished task — its result and the counter delta it
  added — under a stable SHA-256 fingerprint of the task's callable and
  its full keyword set (scenario parameters, topology arguments, seed,
  duration).  Changing *any* field of
  :class:`~repro.experiments.params.ScenarioParams` changes the
  fingerprint, so stale hits are impossible; corrupted cache files are
  treated as misses.  Entries land as each task finishes, so re-running
  a crashed sweep on the same store resumes it.

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

import contextlib
import hashlib
import json
import os
import pickle
import signal
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
#: Environment knob: per-task wall-clock limit in seconds (float).
TIMEOUT_ENV = "REPRO_TASK_TIMEOUT_S"
#: Environment knob: bounded re-attempts for failed/timed-out tasks.
RETRIES_ENV = "REPRO_TASK_RETRIES"

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
    result is a pure function of the task record.  ``key`` is the task's
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


class TaskTimeout(Exception):
    """A sweep task exceeded its per-task wall-clock limit.

    Raised *inside* the executing process (worker or parent) by the
    :func:`_alarm` guard, so it pickles back through the pool like any
    task exception and carries the task key for diagnostics.
    """


@contextlib.contextmanager
def _alarm(timeout_s: Optional[float]):
    """Bound a block's wall-clock time via ``SIGALRM``.

    A no-op when no limit is set, when ``SIGALRM`` is unavailable
    (Windows), or off the main thread (signal handlers can only be
    installed there) — in those cases tasks simply run unbounded, the
    pre-hardening behavior.  ``setitimer`` gives sub-second resolution
    and the handler/timer are always restored, so nesting with user
    code that uses alarms stays safe.
    """
    if (
        not timeout_s
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _fire(signum, frame):
        raise TaskTimeout(f"task exceeded {timeout_s:g}s wall-clock limit")

    previous = signal.signal(signal.SIGALRM, _fire)
    signal.setitimer(signal.ITIMER_REAL, float(timeout_s))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _execute_indexed(
    task: SweepTask, timeout_s: Optional[float] = None
) -> Tuple[Any, float]:
    """Run one task, returning (result, elapsed_s).

    Records a ``sweep/task_run`` event *in the executing process* (the
    parent when serial, the worker when pooled) — the per-task half of
    the profiling hooks.
    """
    trace = configure_from_env()
    started = time.perf_counter()
    with _alarm(timeout_s):
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


class _ResultWontPickle(pickle.PicklingError):
    """A pool task's result cannot travel home: the transport's failure.

    Its own class, so that a task which itself raises ``PicklingError``
    is judged as that task's outcome — under ``on_error="raise"`` too —
    instead of re-running on the serial fallback.
    """


def _execute_shipping(
    task: SweepTask, timeout_s: Optional[float] = None
) -> Tuple[Any, float, List[TraceEvent], Dict[str, Any]]:
    """Pool entry point: run one task and ship its observability deltas.

    What the task records in the worker's globals would die with the
    worker, so the deltas travel home with the result.  A result that
    cannot travel raises :class:`_ResultWontPickle` here — a transport
    failure, which sends the task to the serial path under every failure
    policy.
    """
    (result, elapsed), counters, events = capture_deltas(
        _execute_indexed, task, timeout_s
    )
    try:
        pickle.dumps(result)
    except Exception as exc:
        raise _ResultWontPickle(f"task result does not pickle: {exc}") from exc
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
# Failure policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FailurePolicy:
    """How a sweep treats tasks that raise, hang, or kill their worker.

    The default (no timeout, no retries, ``on_error="raise"``) is the
    pre-hardening behavior: the first failure propagates.  With
    ``on_error="record"`` a sweep becomes crash-tolerant: failed tasks
    yield ``None`` results and structured :class:`TaskFailure` records
    in the trace and run manifest, while every other task completes.
    """

    timeout_s: Optional[float] = None
    retries: int = 0
    on_error: str = "raise"


def _env_number(name: str, parse: Callable[[str], Any], default: Any) -> Any:
    """``parse($name)``, or ``default`` when it is unset, empty or malformed."""
    raw = os.environ.get(name, "")
    try:
        return parse(raw) if raw else default
    except ValueError:
        return default


def resolve_policy(
    timeout_s: Optional[float] = None,
    retries: Optional[int] = None,
    on_error: str = "raise",
) -> FailurePolicy:
    """Explicit arguments win; the ``REPRO_TASK_*`` env knobs back-fill.

    ``on_error`` has no environment knob: a ``"record"`` sweep returns
    ``None`` for each failed task, which only a caller written for it
    can handle, so the runners, ``report`` and the benches always run
    in raise mode.
    """
    if timeout_s is None:
        timeout_s = _env_number(TIMEOUT_ENV, float, None)
    if retries is None:
        retries = _env_number(RETRIES_ENV, int, 0)
    if on_error not in ("raise", "record"):
        raise ValueError(f"on_error must be 'raise' or 'record', got {on_error!r}")
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError(f"timeout_s must be positive, got {timeout_s}")
    return FailurePolicy(
        timeout_s=timeout_s, retries=max(0, int(retries)), on_error=on_error
    )


@dataclass(frozen=True)
class TaskFailure:
    """One task that failed after exhausting its retry budget."""

    index: int
    key: Tuple
    #: "exception" (the task raised), "timeout" (wall-clock limit), or
    #: "broken_pool" (the task repeatedly killed its worker process).
    kind: str
    error: str
    attempts: int

    def as_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "key": obs_manifest.jsonable(self.key),
            "kind": self.kind,
            "error": self.error,
            "attempts": self.attempts,
        }


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument, else ``$REPRO_JOBS``, else 1."""
    if jobs is None:
        jobs = _env_number(JOBS_ENV, int, 1)
    return max(1, int(jobs))


def run_tasks(
    tasks: Sequence[SweepTask],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    label: str = "sweep",
    timeout_s: Optional[float] = None,
    retries: Optional[int] = None,
    on_error: str = "raise",
) -> List[Any]:
    """Execute ``tasks`` and return their results in task order.

    Results are a pure function of each task record, so the output is
    bit-identical for every ``jobs`` value — including across retries: a
    re-attempted task re-derives the *same* seed from the same record,
    so a retry that succeeds is indistinguishable from a first-try
    success.  ``cache=None`` consults ``$REPRO_CACHE`` (off by default);
    a provided :class:`ResultCache` is always used.  Each finished task
    is stored as soon as it succeeds, and a hit replays the counter
    delta the task added, so calling ``run_tasks`` again on the store of
    a killed sweep resumes it and writes the manifest an uninterrupted
    run would.

    ``timeout_s``/``retries``/``on_error`` build a
    :class:`FailurePolicy` (env knobs ``REPRO_TASK_TIMEOUT_S`` and
    ``REPRO_TASK_RETRIES`` back-fill unset arguments).  With
    ``on_error="record"``, failed tasks return ``None`` in the result
    list and are recorded as ``sweep/task_failed`` trace events plus
    ``failures`` entries in the run manifest; a worker process dying
    (``BrokenProcessPool``) respawns the pool and resumes the unfinished
    tasks rather than aborting the sweep.  Failed tasks are never cached.
    """
    tasks = list(tasks)
    # Parent and workers alike configure the global recorder, so the
    # ``REPRO_TRACE`` opt-in follows the environment into pool processes.
    trace = configure_from_env()
    if cache is None:
        cache = _env_cache()
    jobs = resolve_jobs(jobs)
    policy = resolve_policy(timeout_s, retries, on_error)
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
    completed, failures = _run_pending(
        tasks, pending, jobs, label, trace, policy, cache
    )
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
    for failure in failures:
        trace.record(
            "sweep", "task_failed", label=label, key=failure.key,
            kind=failure.kind, attempts=failure.attempts, error=failure.error,
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
            failures=[failure.as_dict() for failure in failures]
            if policy.on_error == "record"
            else None,
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
    counts, ``profile``, ``failures``).
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


def _run_pending(
    tasks: Sequence[SweepTask],
    pending: List[int],
    jobs: int,
    label: str,
    trace,
    policy: FailurePolicy,
    store: Optional[ResultCache] = None,
) -> Tuple[Dict[int, Tuple[Any, float]], List[TaskFailure]]:
    """Run the not-yet-cached tasks, parallel when possible.

    Every pending task is probed for picklability individually:
    unpicklable tasks run on the serial path while the rest still go
    through the pool.  If the pool itself fails — a result that will
    not pickle, worker processes that cannot start — the serial
    fallback resumes only the indices the pool did not finish: tasks
    already completed have had their shipped counter deltas and trace
    events merged into the parent registry, and re-running them would
    double-merge both.  A task's own exception, whatever its type, is
    never a pool failure: the failure policy settles it.
    """
    completed: Dict[int, Tuple[Any, float]] = {}
    failures: Dict[int, TaskFailure] = {}
    serial_indices = list(pending)
    if jobs > 1 and len(pending) > 1:
        pooled = [index for index in pending if _picklable(tasks[index])]
        if len(pooled) > 1:
            serial_indices = sorted(set(pending) - set(pooled))
            try:
                _run_parallel(
                    tasks, pooled, jobs, policy, completed, failures, store
                )
            except (_ResultWontPickle, _PoolUnavailable) as exc:
                # The sweep must finish either way — but resume only the
                # unfinished indices, never the already-merged ones.
                trace.record(
                    "sweep", "serial_fallback", label=label,
                    reason=f"{type(exc).__name__}: {exc}",
                )
                finished = set(completed) | set(failures)
                serial_indices = [i for i in pending if i not in finished]
    return _run_serial(tasks, serial_indices, policy, completed, failures, store)


def _picklable(task: SweepTask) -> bool:
    try:
        pickle.dumps(task)
        return True
    except Exception:
        return False


class _PoolUnavailable(Exception):
    """Worker processes could not start: the pool's failure, not a task's."""


#: Attempt outcome of a task that was in flight, or not yet submitted,
#: when a worker died: it did nothing wrong and is re-run uncharged.
_VICTIM = object()


def _attempt_loop(
    tasks: Sequence[SweepTask],
    pending: List[int],
    policy: FailurePolicy,
    completed: Optional[Dict[int, Tuple[Any, float]]],
    failures: Optional[Dict[int, TaskFailure]],
    run_attempt: Callable[[List[int]], Iterator[Tuple[int, Any]]],
    store: Optional[ResultCache] = None,
) -> Tuple[Dict[int, Tuple[Any, float]], List[TaskFailure]]:
    """Drive ``pending`` to an outcome: the one place attempts are judged.

    ``run_attempt(indices)`` runs one attempt of each index and yields
    ``(index, outcome)`` as they finish: ``(value, elapsed_s, counters)``
    with ``counters`` the counter delta the attempt added, the task's
    exception, or :data:`_VICTIM`.  A success goes into ``store`` at
    once — written by this process only — so a sweep killed later still
    keeps it.  A failed attempt is charged to its task.  Budget left →
    re-attempt the *identical* task record (same derived seed, so a
    successful retry is bit-identical to a first-try success).  Budget
    spent → ``on_error="raise"`` propagates the task's own exception,
    ``"record"`` files a :class:`TaskFailure`; a failure is never
    stored.  ``completed``/``failures`` may be passed in and are mutated
    in place, so a caller still sees all progress made before an
    exception.
    """
    completed = {} if completed is None else completed
    failures = {} if failures is None else failures
    attempts = dict.fromkeys(pending, 0)
    remaining = list(pending)
    while remaining:
        batch, remaining = sorted(remaining), []
        for index, outcome in run_attempt(batch):
            if outcome is _VICTIM:
                remaining.append(index)
            elif not isinstance(outcome, BaseException):
                value, elapsed, counters = outcome
                completed[index] = value, elapsed
                if store is not None:
                    store.put(tasks[index].fingerprint(), value, counters)
            else:
                attempts[index] += 1
                if attempts[index] <= policy.retries:
                    remaining.append(index)
                elif policy.on_error == "raise":
                    raise outcome
                else:
                    kind = "exception"
                    if isinstance(outcome, TaskTimeout):
                        kind = "timeout"
                    elif isinstance(outcome, BrokenProcessPool):
                        kind = "broken_pool"
                    failures[index] = TaskFailure(
                        index=index,
                        key=tasks[index].key,
                        kind=kind,
                        error=f"{type(outcome).__name__}: {outcome}",
                        attempts=attempts[index],
                    )
    return completed, [failures[index] for index in sorted(failures)]


def _run_serial(
    tasks: Sequence[SweepTask],
    pending: List[int],
    policy: FailurePolicy,
    completed: Optional[Dict[int, Tuple[Any, float]]] = None,
    failures: Optional[Dict[int, TaskFailure]] = None,
    store: Optional[ResultCache] = None,
) -> Tuple[Dict[int, Tuple[Any, float]], List[TaskFailure]]:
    """In-process execution under the same attempt loop as the pool.

    A task here counts straight into this process's globals, so its
    deltas are only measured, the counters for the store: merging them
    would count twice.
    """

    def run_attempt(indices: List[int]) -> Iterator[Tuple[int, Any]]:
        for index in indices:
            try:
                (value, elapsed), counters, _ = capture_deltas(
                    _execute_indexed, tasks[index], policy.timeout_s
                )
            except Exception as exc:
                yield index, exc
            else:
                yield index, (value, elapsed, counters)

    return _attempt_loop(
        tasks, pending, policy, completed, failures, run_attempt, store
    )


def _shipped_outcome(future) -> Any:
    """A pool attempt's outcome; on success its shipped deltas are merged
    into this process's globals, or they would die with the worker."""
    try:
        value, elapsed, events, counter_delta = future.result()
    except _ResultWontPickle:
        raise  # transport, not the task: the serial fallback takes over
    except Exception as exc:
        return exc
    if events:
        global_recorder().merge(events)
    if counter_delta:
        global_registry().merge_snapshot(counter_delta)
    return value, elapsed, counter_delta


def _run_parallel(
    tasks: Sequence[SweepTask],
    pending: List[int],
    jobs: int,
    policy: FailurePolicy,
    completed: Optional[Dict[int, Tuple[Any, float]]] = None,
    failures: Optional[Dict[int, TaskFailure]] = None,
    store: Optional[ResultCache] = None,
) -> Tuple[Dict[int, Tuple[Any, float]], List[TaskFailure]]:
    """Pooled execution that survives raising, hanging, and dying tasks.

    Tasks are submitted individually (not chunked ``map``) so one bad
    task fails alone.  A :class:`BrokenProcessPool` — a worker died,
    under its own task or a sibling's — respawns the pool and re-runs
    every unfinished task of the batch uncharged, including those the
    dying pool refused at submission.  After more than two breaks each
    task runs in a throwaway single-worker pool, where a break is
    attributable to the task it ran and *is* charged (kind
    ``"broken_pool"``), bounding the number of respawns.  Workers of
    either kind exit once this process dies (:func:`_exit_with_parent`).

    :class:`_ResultWontPickle` and :class:`_PoolUnavailable` propagate
    so :func:`_run_pending` can fall back to the serial path, which must
    not re-run what the pool finished into ``completed``/``failures``.
    """
    shared: List[ProcessPoolExecutor] = []  # the live multi-worker pool
    breaks = 0

    def start_pool(workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers, initializer=_exit_with_parent
        )

    def submit(pool: ProcessPoolExecutor, index: int):
        return pool.submit(_execute_shipping, tasks[index], policy.timeout_s)

    def batch(indices: List[int]) -> Iterator[Tuple[int, Any]]:
        nonlocal breaks
        if not shared:
            shared.append(start_pool(min(jobs, len(pending))))
        futures, unsent = {}, []
        for position, index in enumerate(indices):
            try:
                futures[submit(shared[0], index)] = index
            except BrokenProcessPool:
                unsent = indices[position:]
                break
        broken = bool(unsent)
        for future in as_completed(futures):
            outcome = _shipped_outcome(future)
            if isinstance(outcome, BrokenProcessPool):
                outcome, broken = _VICTIM, True
            yield futures[future], outcome
        for index in unsent:
            yield index, _VICTIM
        if broken:
            breaks += 1
            shared.pop().shutdown(wait=False)

    def isolated(indices: List[int]) -> Iterator[Tuple[int, Any]]:
        for index in indices:
            with start_pool(1) as solo:
                outcome = _shipped_outcome(submit(solo, index))
            yield index, outcome

    def run_attempt(indices: List[int]) -> Iterator[Tuple[int, Any]]:
        try:
            yield from isolated(indices) if breaks > 2 else batch(indices)
        except OSError as exc:
            # Task errors arrive as outcomes, so this OSError is the
            # pool's own: forking or creating its semaphores failed.
            raise _PoolUnavailable(f"process pool unavailable: {exc}") from exc

    try:
        return _attempt_loop(
            tasks, pending, policy, completed, failures, run_attempt, store
        )
    finally:
        for pool in shared:
            pool.shutdown(wait=False)
