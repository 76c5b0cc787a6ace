"""Sharded, resumable sweep service (``python -m repro.experiments.queue``).

:func:`repro.experiments.parallel.run_tasks` scales a sweep across the
cores of *one* process tree.  The studies the ROADMAP wants next —
multi-AP spatial-reuse floors, city-scale mobility, localization-error
sensitivity — are grids of thousands to millions of
:class:`~repro.experiments.parallel.SweepTask` records, which need many
*independent* worker processes (possibly on many machines sharing one
filesystem) draining one queue, surviving crashes, and resuming without
recomputing finished work.  This module is that work-queue layer, built
entirely on the determinism guarantees the executor already provides:
results are a pure function of each task record (``derive_seed``
streams), so any scheduling of the same grid produces bit-identical
results, and a resumed run is indistinguishable from an uninterrupted
one.

Queue layout (everything under one queue directory)::

    <queue>/queue.json                       grid + shard index (written last)
    <queue>/shards/shard-00000-<digest>.pkl  chunk of pickled SweepTasks
    <queue>/leases/shard-00000.lease         live claim (JSON: worker, ttl)
    <queue>/fragments/shard-00000-<digest>.json   completed shard (atomic)
    <queue>/<label>.manifest.json            merged manifest (after merge)

* **Sharding** (:func:`shard_tasks`): the grid is chunked into shard
  files addressed by the SHA-256 over their tasks' content fingerprints,
  so a shard file's name commits to exactly which work it contains.
  ``queue.json`` is written only after every shard file is on disk: its
  existence implies a complete queue.
* **Leases** (:func:`try_claim_shard`): claiming is an atomic
  create-with-content (payload written to a temp file, hard-linked into
  place) — exactly one worker wins, and the lease carries its owner's
  nonce and TTL from the instant it exists.  An expired lease (crashed
  worker) is reclaimed by atomically *renaming* it aside first, so of N
  workers that simultaneously observe the same expired lease, exactly
  one performs the takeover.  Workers re-assert their lease between
  tasks (heartbeat) and re-verify ownership immediately before the
  fragment write, so the TTL only needs to exceed one task's wall time,
  not a whole shard's, and a reclaimed worker never records a shard it
  lost.
* **Fragments**: a completed shard is recorded as one atomically written
  (temp + fsync + ``os.replace``) manifest fragment carrying the shard's
  task rows, JSON results, and the *deltas* it added to the worker's
  counter registry and trace recorder.  Fragment existence is the only
  "shard done" signal — a worker SIGKILLed at any instant leaves either
  a complete fragment or none, never a partial one.
* **Merge** (:func:`merge`): folds all fragments plus the shard files'
  task records into one schema-valid run manifest whose deterministic
  fields (task rows, params, seeds, counters, failures) are bit-identical
  to the manifest an uninterrupted serial :func:`run_tasks` of the same
  grid would write.
* **Resume** (:func:`resume`): re-runs only missing or failed shards —
  bit-identically, because shard task records embed their derived seeds —
  then merges.  ``resume`` accepts the queue directory, its
  ``queue.json``, or a merged manifest written next to it.

Task execution, delta capture and manifest building are the
executor's (:mod:`repro.experiments.parallel`); this module adds only
sharding, leases, fragments, merge and resume.  CLI verbs: ``shard`` /
``work`` / ``merge`` / ``resume``; the CI crash/resume end-to-end is
``tools/sweep_smoke.py queue``.  See ``docs/robustness.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import signal
import sys
import time
import uuid
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.parallel import (
    FailurePolicy,
    ON_ERROR_ENV,
    SweepTask,
    TaskFailure,
    _env_number,
    _run_serial,
    capture_deltas,
    derive_seed,
    manifest_task_rows,
    resolve_policy,
    sweep_manifest,
)
from repro.obs import manifest as obs_manifest
from repro.obs.counters import global_registry
from repro.sim.trace import event_counts

#: Environment knob: default lease TTL in seconds for queue workers.
LEASE_TTL_ENV = "REPRO_QUEUE_LEASE_TTL_S"
#: Default lease TTL: must exceed one *task's* wall time (leases are
#: re-asserted between tasks), not a whole shard's.
DEFAULT_LEASE_TTL_S = 300.0

#: Schema identifier/version of ``queue.json``.
QUEUE_SCHEMA = "repro.queue"
QUEUE_SCHEMA_VERSION = 1

QUEUE_FILE = "queue.json"
SHARDS_DIR = "shards"
LEASES_DIR = "leases"
FRAGMENTS_DIR = "fragments"


class QueueError(RuntimeError):
    """A sweep-queue invariant was violated (bad layout, incomplete merge)."""


# ----------------------------------------------------------------------
# Queue spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardSpec:
    """One shard's identity inside a queue."""

    index: int
    #: SHA-256 over the shard's task fingerprints: the shard *content* id.
    digest: str
    #: Global task indices (into the original grid) this shard covers.
    task_indices: Tuple[int, ...]

    @property
    def name(self) -> str:
        return f"shard-{self.index:05d}-{self.digest[:12]}"


@dataclass(frozen=True)
class QueueSpec:
    """A loaded ``queue.json``: the grid's shard index."""

    root: str
    label: str
    chunk: int
    total_tasks: int
    grid_fingerprint: str
    shards: Tuple[ShardSpec, ...]


def shard_path(spec: QueueSpec, shard: ShardSpec) -> str:
    return os.path.join(spec.root, SHARDS_DIR, f"{shard.name}.pkl")


def lease_path(spec: QueueSpec, shard: ShardSpec) -> str:
    return os.path.join(spec.root, LEASES_DIR, f"shard-{shard.index:05d}.lease")


def fragment_path(spec: QueueSpec, shard: ShardSpec) -> str:
    return os.path.join(spec.root, FRAGMENTS_DIR, f"{shard.name}.json")


def shard_tasks(
    tasks: Sequence[SweepTask],
    queue_dir: str,
    chunk: int = 16,
    label: str = "sweep",
) -> QueueSpec:
    """Shard ``tasks`` into a queue directory; returns the loaded spec.

    Tasks must pickle (they travel to worker *processes* via shard
    files, exactly as they would into a :class:`ProcessPoolExecutor`)
    and must be fingerprintable — both checked here, at shard time, so a
    bad grid fails loudly before any worker starts.  ``queue.json`` is
    written last: a readable queue spec implies every shard file exists.
    """
    tasks = list(tasks)
    if not tasks:
        raise QueueError("cannot shard an empty task grid")
    if chunk < 1:
        raise QueueError(f"chunk must be >= 1, got {chunk}")
    try:
        fingerprints = [task.fingerprint() for task in tasks]
    except TypeError as exc:
        raise QueueError(f"task grid is not fingerprintable: {exc}") from exc

    for name in (SHARDS_DIR, LEASES_DIR, FRAGMENTS_DIR):
        os.makedirs(os.path.join(queue_dir, name), exist_ok=True)

    shard_rows: List[Dict[str, Any]] = []
    for start in range(0, len(tasks), chunk):
        indices = tuple(range(start, min(start + chunk, len(tasks))))
        digest = hashlib.sha256(
            "\n".join(fingerprints[i] for i in indices).encode("ascii")
        ).hexdigest()
        shard = ShardSpec(index=len(shard_rows), digest=digest, task_indices=indices)
        payload = {
            "schema": QUEUE_SCHEMA,
            "version": QUEUE_SCHEMA_VERSION,
            "label": label,
            "shard_index": shard.index,
            "digest": digest,
            "task_indices": list(indices),
            "tasks": [tasks[i] for i in indices],
        }
        try:
            blob = pickle.dumps(payload)
        except Exception as exc:
            raise QueueError(
                f"shard {shard.index} does not pickle "
                f"(queue workers are separate processes): {exc}"
            ) from exc
        obs_manifest.atomic_write_bytes(
            os.path.join(queue_dir, SHARDS_DIR, f"{shard.name}.pkl"), blob
        )
        shard_rows.append(
            {
                "index": shard.index,
                "digest": digest,
                "task_indices": list(indices),
            }
        )

    grid_fingerprint = hashlib.sha256(
        "\n".join(fingerprints).encode("ascii")
    ).hexdigest()
    queue_doc = {
        "schema": QUEUE_SCHEMA,
        "version": QUEUE_SCHEMA_VERSION,
        "label": label,
        "chunk": int(chunk),
        "total_tasks": len(tasks),
        "grid_fingerprint": grid_fingerprint,
        "created_unix": time.time(),
        "shards": shard_rows,
    }
    obs_manifest.atomic_write_bytes(
        os.path.join(queue_dir, QUEUE_FILE),
        obs_manifest.json_bytes(queue_doc),
    )
    return load_queue(queue_dir)


def load_queue(target: str) -> QueueSpec:
    """Load and validate a queue spec.

    ``target`` may be the queue directory, its ``queue.json``, or a
    merged manifest written into the queue directory — anything that
    pins down where ``queue.json`` lives.
    """
    root = os.fspath(target)
    if os.path.isfile(root):
        root = os.path.dirname(os.path.abspath(root))
    path = os.path.join(root, QUEUE_FILE)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise QueueError(f"unreadable queue spec {path}: {exc}") from exc
    if doc.get("schema") != QUEUE_SCHEMA or doc.get("version") != QUEUE_SCHEMA_VERSION:
        raise QueueError(
            f"{path} is not a {QUEUE_SCHEMA} v{QUEUE_SCHEMA_VERSION} document"
        )
    shards = tuple(
        ShardSpec(
            index=int(row["index"]),
            digest=str(row["digest"]),
            task_indices=tuple(int(i) for i in row["task_indices"]),
        )
        for row in doc["shards"]
    )
    spec = QueueSpec(
        root=root,
        label=str(doc["label"]),
        chunk=int(doc["chunk"]),
        total_tasks=int(doc["total_tasks"]),
        grid_fingerprint=str(doc["grid_fingerprint"]),
        shards=shards,
    )
    missing = [s.index for s in shards if not os.path.exists(shard_path(spec, s))]
    if missing:
        raise QueueError(f"queue {root} is missing shard files: {missing}")
    return spec


def load_shard_tasks(spec: QueueSpec, shard: ShardSpec) -> List[SweepTask]:
    """Unpickle one shard's task records, verifying its content digest."""
    path = shard_path(spec, shard)
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except Exception as exc:
        raise QueueError(f"unreadable shard file {path}: {exc}") from exc
    if (
        not isinstance(payload, dict)
        or payload.get("schema") != QUEUE_SCHEMA
        or payload.get("digest") != shard.digest
        or payload.get("task_indices") != list(shard.task_indices)
    ):
        raise QueueError(f"shard file {path} does not match the queue spec")
    return list(payload["tasks"])


# ----------------------------------------------------------------------
# Lease protocol (lockfile-backed, expiry-reclaimable)
# ----------------------------------------------------------------------
def default_worker_id() -> str:
    return f"w-{os.getpid()}-{uuid.uuid4().hex[:8]}"


def _lease_payload(worker_id: str, ttl_s: float) -> bytes:
    doc = {
        "worker": worker_id,
        "pid": os.getpid(),
        "acquired_unix": time.time(),
        "ttl_s": float(ttl_s),
    }
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


def read_lease(path: str) -> Optional[Dict[str, Any]]:
    """The lease document at ``path``, or None if absent/unreadable.

    An unreadable lease (a writer between create and write, or a
    corrupt file) is reported with ``acquired_unix`` taken from the
    file's mtime and the default TTL, so it still *expires* rather than
    wedging its shard forever.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        if not isinstance(doc, dict) or "acquired_unix" not in doc:
            raise ValueError("malformed lease")
        return doc
    except FileNotFoundError:
        return None
    except (OSError, ValueError):
        try:
            mtime = os.path.getmtime(path)
        except OSError:
            return None
        return {"worker": "?", "acquired_unix": mtime, "ttl_s": DEFAULT_LEASE_TTL_S}


def _lease_expired(lease: Dict[str, Any], now: Optional[float] = None) -> bool:
    now = time.time() if now is None else now
    try:
        acquired = float(lease["acquired_unix"])
        ttl = float(lease.get("ttl_s", DEFAULT_LEASE_TTL_S))
    except (TypeError, ValueError):
        return True
    return now >= acquired + ttl


def _create_lease_excl(path: str, payload: bytes) -> Optional[bool]:
    """Create a fully-formed lease at ``path``; None means it exists.

    The claim must be atomic *with its content*: the old
    ``O_CREAT | O_EXCL``-then-write sequence left a window in which a
    claimant SIGKILLed between create and write leaves an *empty* lease
    — readable only through the mtime fallback (worker ``"?"``, zero
    heartbeats) and reclaimable while the slow-starting creator still
    believes it holds the shard.  The payload — worker nonce included —
    is therefore written and fsynced to a private temp file first and
    hard-linked into place: the lockfile appears fully formed or not at
    all, and ``link`` fails with EEXIST exactly as the exclusive create
    did.  Filesystems without hard links fall back to the exclusive
    create-then-write (keeping the old, narrower window rather than
    losing claiming entirely).
    """
    tmp = f"{path}.claim-{uuid.uuid4().hex[:8]}"
    try:
        with open(tmp, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
    except OSError:
        return False
    try:
        os.link(tmp, path)
        return True
    except FileExistsError:
        return None
    except OSError:
        pass  # hard links unsupported here: legacy exclusive create
    finally:
        try:
            os.unlink(tmp)
        except OSError:
            pass
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
    except FileExistsError:
        return None
    except OSError:
        return False
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        return True
    except OSError:
        return False


def try_claim_shard(
    spec: QueueSpec, shard: ShardSpec, worker_id: str, ttl_s: float
) -> bool:
    """Attempt to acquire ``shard``'s lease; never blocks.

    Fresh claim: an atomic create-with-content (see
    :func:`_create_lease_excl`) — exactly one creator wins, and the
    worker nonce is durably inside the lease before the claim is
    reported held (i.e. before any shard work can begin).  Expired
    lease: the claimant first *renames* the stale lease aside (two
    workers racing on the same expired lease issue two renames of the
    same source; the filesystem lets exactly one succeed), then retries
    the create.  Losing any step returns False — the worker simply
    moves on to the next shard.
    """
    path = lease_path(spec, shard)
    payload = _lease_payload(worker_id, ttl_s)
    for attempt in range(2):
        created = _create_lease_excl(path, payload)
        if created is not None:
            return created
        if attempt:
            return False
        lease = read_lease(path)
        if lease is None:
            continue  # released between our create and read: retry
        if not _lease_expired(lease):
            return False
        # Expired: atomically take the stale lease out of the way.
        takeover = f"{path}.reclaim-{worker_id}"
        try:
            os.rename(path, takeover)
        except OSError:
            return False  # another claimant won the takeover race
        try:
            os.unlink(takeover)
        except OSError:
            pass
        # Lease path is free: retry the create.
    return False


def refresh_shard_lease(
    spec: QueueSpec, shard: ShardSpec, worker_id: str, ttl_s: float
) -> bool:
    """Re-assert ownership (heartbeat); False means the lease was lost.

    A worker that stalls past its TTL can be legitimately reclaimed; on
    resume it must notice and abandon the shard rather than fight the
    new owner.  :func:`work` calls this between tasks *and* immediately
    before the fragment write, so a reclaimed worker never records a
    shard it no longer owns.
    """
    path = lease_path(spec, shard)
    lease = read_lease(path)
    if lease is None or lease.get("worker") != worker_id:
        return False
    try:
        obs_manifest.atomic_write_bytes(path, _lease_payload(worker_id, ttl_s))
        return True
    except OSError:
        return False


def release_shard(spec: QueueSpec, shard: ShardSpec, worker_id: str) -> None:
    """Drop the lease if (and only if) we still own it."""
    path = lease_path(spec, shard)
    lease = read_lease(path)
    if lease is not None and lease.get("worker") == worker_id:
        try:
            os.unlink(path)
        except OSError:
            pass


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
def shard_done(spec: QueueSpec, shard: ShardSpec) -> bool:
    return os.path.exists(fragment_path(spec, shard))


def _run_shard(
    spec: QueueSpec,
    shard: ShardSpec,
    worker_id: str,
    ttl_s: float,
    policy: FailurePolicy,
) -> Optional[Dict[str, Any]]:
    """Execute one claimed shard; returns its fragment (not yet written).

    Tasks run through the executor's serial path one at a time so the
    lease heartbeat fires between tasks, all inside one
    :func:`~repro.experiments.parallel.capture_deltas` — counter deltas
    are integer-valued, so the merge sum is exact.  Returns ``None`` if
    the lease was lost mid-shard.
    """
    tasks = load_shard_tasks(spec, shard)
    completed: Dict[int, Tuple[Any, float]] = {}
    failures: Dict[int, TaskFailure] = {}

    def run_heartbeating() -> bool:
        for local in range(len(tasks)):
            _run_serial(tasks, [local], policy, completed, failures)
            if not refresh_shard_lease(spec, shard, worker_id, ttl_s):
                return False
        return True

    started = time.perf_counter()
    held, counter_delta, events = capture_deltas(run_heartbeating)
    wall_s = time.perf_counter() - started
    if not held:
        return None

    rows, _ = manifest_task_rows(tasks)
    for local, row in enumerate(rows):
        row["index"] = shard.task_indices[local]
        if local in completed:
            row["result"] = obs_manifest.jsonable(completed[local][0])
            row["elapsed_s"] = completed[local][1]
        else:
            row["result"] = None
    failure_rows = [
        dict(failures[local].as_dict(), index=shard.task_indices[local])
        for local in sorted(failures)
    ]

    return obs_manifest.build_fragment(
        label=spec.label,
        shard_index=shard.index,
        shard_digest=shard.digest,
        worker=worker_id,
        wall_s=wall_s,
        tasks=rows,
        counters=counter_delta,
        trace_counts=event_counts(events),
        failures=failure_rows,
    )


def work(
    queue_dir: str,
    worker_id: Optional[str] = None,
    max_shards: Optional[int] = None,
    lease_ttl_s: Optional[float] = None,
    policy: Optional[FailurePolicy] = None,
    wait: bool = False,
    wait_timeout_s: float = 120.0,
    poll_s: float = 0.05,
    kill_after_shards: Optional[int] = None,
) -> int:
    """Drain claimable shards from a queue; returns shards completed.

    Scans shards in order, skipping done ones, claiming the rest.  With
    ``wait=False`` (default) the worker exits once a full scan finds
    nothing claimable — remaining shards are either done or leased to
    other live workers.  ``wait=True`` keeps polling (``resume`` uses
    this to outwait live leases) until everything is done or
    ``wait_timeout_s`` elapses.

    The default failure policy is ``on_error="record"`` (a service
    worker must not abort a whole queue for one bad task) unless the
    ``REPRO_ON_ERROR`` env knob or an explicit ``policy`` says
    otherwise.

    ``kill_after_shards`` is a crash-injection hook for tests and the
    CI smoke: after completing that many shards the worker claims the
    next one, runs it fully, then SIGKILLs itself *just before* the
    fragment write — the most adversarial instant (all work done,
    nothing recorded, lease still held).
    """
    spec = load_queue(queue_dir)
    worker_id = worker_id or default_worker_id()
    if lease_ttl_s is None:
        lease_ttl_s = _env_number(LEASE_TTL_ENV, float, DEFAULT_LEASE_TTL_S)
    if policy is None:
        policy = resolve_policy(
            on_error=os.environ.get(ON_ERROR_ENV) or "record"
        )

    done_count = 0
    deadline = time.time() + wait_timeout_s
    while True:
        progressed = False
        all_done = True
        for shard in spec.shards:
            if max_shards is not None and done_count >= max_shards:
                return done_count
            if shard_done(spec, shard):
                continue
            all_done = False
            if not try_claim_shard(spec, shard, worker_id, lease_ttl_s):
                continue
            try:
                if shard_done(spec, shard):  # finished while we claimed
                    continue
                fragment = _run_shard(spec, shard, worker_id, lease_ttl_s, policy)
                if fragment is None:
                    continue  # lease lost mid-shard: the new owner redoes it
                if kill_after_shards is not None and done_count >= kill_after_shards:
                    os.kill(os.getpid(), signal.SIGKILL)
                if not refresh_shard_lease(spec, shard, worker_id, lease_ttl_s):
                    # Reclaimed after our last heartbeat (e.g. we stalled
                    # past the TTL): the new owner re-runs the shard and
                    # records it; recording it ourselves would race their
                    # in-progress claim with a write they don't expect.
                    continue
                obs_manifest.write_fragment(fragment, fragment_path(spec, shard))
                done_count += 1
                progressed = True
            finally:
                release_shard(spec, shard, worker_id)
        if all_done:
            return done_count
        if not progressed:
            if not wait:
                return done_count
            if time.time() >= deadline:
                raise QueueError(
                    f"timed out after {wait_timeout_s:g}s waiting for leased "
                    f"shards in {spec.root}"
                )
            time.sleep(poll_s)


# ----------------------------------------------------------------------
# Merge + resume
# ----------------------------------------------------------------------
def _load_fragments(spec: QueueSpec) -> List[Dict[str, Any]]:
    """Every shard's fragment in shard order, or a :class:`QueueError`
    naming the shards that have none."""
    fragments: List[Dict[str, Any]] = []
    missing: List[int] = []
    for shard in spec.shards:
        path = fragment_path(spec, shard)
        if not os.path.exists(path):
            missing.append(shard.index)
            continue
        fragment = obs_manifest.load_fragment(path)
        if fragment["shard"]["digest"] != shard.digest:
            raise QueueError(
                f"fragment {path} records digest "
                f"{fragment['shard']['digest'][:12]}…, queue expects "
                f"{shard.digest[:12]}…"
            )
        fragments.append(fragment)
    if missing:
        raise QueueError(
            f"queue {spec.root} incomplete: shards {missing} have no "
            f"fragment (run `work` or `resume` first)"
        )
    return fragments


def merge(queue_dir: str, out_dir: Optional[str] = None) -> str:
    """Fold all shard fragments into one schema-valid run manifest.

    Raises :class:`QueueError` (naming the shards) if any fragment is
    missing — a partial queue merges only after ``work``/``resume``
    finish it.  The manifest is built from the shard files' task records
    by :func:`~repro.experiments.parallel.sweep_manifest`, as a single
    ``run_tasks`` manifest is, so a merged manifest is bit-identical to
    an uninterrupted run's on its deterministic fields (task rows,
    params, seeds, counters, failures).
    """
    spec = load_queue(queue_dir)
    fragments = _load_fragments(spec)
    tasks = [task for shard in spec.shards for task in load_shard_tasks(spec, shard)]

    trace_counts: Dict[str, int] = {}
    failure_rows: List[Dict[str, Any]] = []
    workers = sorted({fragment["worker"] for fragment in fragments})
    wall_s = 0.0
    for fragment in fragments:
        wall_s += float(fragment["wall_s"])
        for key, value in fragment["trace_counts"].items():
            trace_counts[key] = trace_counts.get(key, 0) + int(value)
        failure_rows.extend(fragment["failures"])
    failure_rows.sort(key=lambda record: record.get("index", 0))

    manifest = sweep_manifest(
        spec.label, tasks, max(1, len(workers)), wall_s,
        counters=obs_manifest.merge_fragment_counters(fragments),
        trace_counts=trace_counts,
        failures=failure_rows,
        shards={
            "count": len(spec.shards),
            "chunk": spec.chunk,
            "grid_fingerprint": spec.grid_fingerprint,
            "digests": [shard.digest for shard in spec.shards],
            "workers": workers,
        },
    )
    return obs_manifest.write_manifest(manifest, out_dir or spec.root)


def resume(
    target: str,
    out_dir: Optional[str] = None,
    worker_id: Optional[str] = None,
    lease_ttl_s: Optional[float] = None,
    policy: Optional[FailurePolicy] = None,
    wait_timeout_s: float = 120.0,
    retry_failed: bool = True,
) -> str:
    """Finish an interrupted queue and write the merged manifest.

    ``target`` is the queue directory, its ``queue.json``, or a merged
    manifest next to it.  Shards whose fragment is missing, unreadable,
    or (with ``retry_failed``) records task failures are re-run — on the
    same task records, hence the same derived seeds, hence bit-identical
    results.  Leases held by crashed workers are reclaimed through
    normal TTL expiry (resume *waits* for unexpired leases rather than
    stealing from a possibly-live worker).
    """
    spec = load_queue(target)
    for shard in spec.shards:
        path = fragment_path(spec, shard)
        if not os.path.exists(path):
            continue
        try:
            fragment = obs_manifest.load_fragment(path)
            stale = fragment["shard"]["digest"] != shard.digest or (
                retry_failed and fragment["failures"]
            )
        except obs_manifest.ManifestError:
            stale = True
        if stale:
            try:
                os.unlink(path)
            except OSError:
                pass
    work(
        spec.root,
        worker_id=worker_id,
        lease_ttl_s=lease_ttl_s,
        policy=policy,
        wait=True,
        wait_timeout_s=wait_timeout_s,
    )
    return merge(spec.root, out_dir)


def queue_results(target: str) -> List[Any]:
    """All task results in grid order, read back from the fragments."""
    spec = load_queue(target)
    results = {
        int(row["index"]): row.get("result")
        for fragment in _load_fragments(spec)
        for row in fragment["tasks"]
    }
    return [results[index] for index in range(spec.total_tasks)]


# ----------------------------------------------------------------------
# Built-in grids (CLI, CI smoke and tests)
# ----------------------------------------------------------------------
def fig8_cell(
    mac_kind: str, c2_x: float, seed: int, duration_s: float
) -> Dict[str, Any]:
    """One Fig-8 (exposed-terminal) cell with per-node counter export.

    Module-level and a pure function of its kwargs, so it pickles into
    shard files and reproduces bit-identically anywhere.  Per-node radio
    counters and the network's integer counters are merged into the
    process-global registry — integers only, so summing per-shard deltas
    at merge time is exact — and also returned in the result row.
    """
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
        # and disabled-feature gauges report ``-1.0`` sentinels (e.g.
        # ``channel/spatial_cell_size_m``, ``channel/cull_margin_db``)
        # that a monotone Counter must never see.
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
) -> List[SweepTask]:
    """The Fig-8 task grid, with the runner's exact seed derivation."""
    return [
        SweepTask(
            fn=fig8_cell,
            kwargs=dict(
                mac_kind=mac_kind,
                c2_x=float(x),
                seed=derive_seed(seed, "exposed", xi, mac_kind, rep),
                duration_s=duration_s,
            ),
            key=("exposed", float(x), mac_kind, rep),
        )
        for xi, x in enumerate(positions_m)
        for mac_kind in mac_kinds
        for rep in range(repeats)
    ]


def demo_cell(x: float, seed: int) -> Dict[str, Any]:
    """Cheap deterministic cell for queue demos and fast tests."""
    global_registry().counter("demo/cells").inc()
    return {"x": x, "seed": seed, "y": x * x + seed}


def slow_cell(x: float, seconds: float) -> Dict[str, Any]:
    """:func:`demo_cell` with a wall-clock stall.

    Test surface for the lease-expiry races: a worker running this task
    with a TTL shorter than ``seconds`` is guaranteed to be reclaimable
    mid-task (it cannot heartbeat from inside the stall).
    """
    time.sleep(seconds)
    return {"x": x, "seconds": seconds}


def demo_grid(n: int = 8, seed: int = 0) -> List[SweepTask]:
    return [
        SweepTask(
            fn=demo_cell,
            kwargs={"x": float(i), "seed": derive_seed(seed, "demo", i)},
            key=("demo", i),
        )
        for i in range(n)
    ]


# ----------------------------------------------------------------------
# Worker subprocesses (crash tests and the CI smoke)
# ----------------------------------------------------------------------
def _worker_argv(queue_dir: str, *extra: str) -> List[str]:
    return [
        sys.executable, "-m", "repro.experiments.queue", "work",
        "--queue", queue_dir, *extra,
    ]


def _worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    )))
    parts = [src_root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
    return env


def _comparable(manifest: obs_manifest.RunManifest) -> Dict[str, Any]:
    """The deterministic fields two runs of one grid must agree on."""
    return {
        "label": manifest.label,
        "tasks": manifest.tasks,
        "params": manifest.params,
        "seeds": manifest.seeds,
        "counters": manifest.counters,
        "failures": manifest.failures,
    }


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _add_worker_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--worker-id", default=None, help="stable worker name")
    parser.add_argument(
        "--lease-ttl-s", type=float, default=None,
        help=f"lease TTL seconds (default ${LEASE_TTL_ENV} or "
             f"{DEFAULT_LEASE_TTL_S:g}; must exceed one task's wall time)",
    )
    parser.add_argument(
        "--on-error", choices=("record", "raise"), default=None,
        help="failure policy (default: record)",
    )
    parser.add_argument("--timeout-s", type=float, default=None,
                        help="per-task wall-clock limit")
    parser.add_argument("--retries", type=int, default=None,
                        help="per-task retry budget")


def _policy_from_args(args: argparse.Namespace) -> Optional[FailurePolicy]:
    if args.on_error is None and args.timeout_s is None and args.retries is None:
        return None  # let work() apply its record-by-default resolution
    return resolve_policy(
        timeout_s=args.timeout_s,
        retries=args.retries,
        on_error=args.on_error or "record",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.queue",
        description="Sharded, resumable sweep service.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_shard = sub.add_parser("shard", help="shard a task grid into a queue")
    p_shard.add_argument("--queue", required=True, help="queue directory")
    p_shard.add_argument("--grid", choices=("fig8", "demo"), default="fig8")
    p_shard.add_argument("--chunk", type=int, default=16)
    p_shard.add_argument("--label", default=None)
    p_shard.add_argument("--positions", default="5,12.5,20,27.5,35",
                         help="fig8: comma-separated C2 x positions (m)")
    p_shard.add_argument("--macs", default="dcf,comap",
                         help="fig8: comma-separated MAC kinds")
    p_shard.add_argument("--repeats", type=int, default=1)
    p_shard.add_argument("--seed", type=int, default=0)
    p_shard.add_argument("--duration-s", type=float, default=0.05)
    p_shard.add_argument("--demo-tasks", type=int, default=8)

    p_work = sub.add_parser("work", help="drain claimable shards")
    p_work.add_argument("--queue", required=True)
    p_work.add_argument("--max-shards", type=int, default=None)
    p_work.add_argument("--wait", action="store_true",
                        help="poll until the queue fully drains")
    p_work.add_argument("--wait-timeout-s", type=float, default=120.0)
    p_work.add_argument("--kill-after-shards", type=int, default=None,
                        help=argparse.SUPPRESS)  # crash-injection test hook
    _add_worker_args(p_work)

    p_merge = sub.add_parser("merge", help="merge fragments into a manifest")
    p_merge.add_argument("--queue", required=True)
    p_merge.add_argument("--out", default=None, help="manifest output directory")

    p_resume = sub.add_parser(
        "resume", help="re-run missing/failed shards, then merge"
    )
    p_resume.add_argument("target",
                          help="queue dir, queue.json, or merged manifest")
    p_resume.add_argument("--out", default=None)
    p_resume.add_argument("--wait-timeout-s", type=float, default=120.0)
    p_resume.add_argument("--keep-failed", action="store_true",
                          help="do not re-run shards that recorded failures")
    _add_worker_args(p_resume)

    args = parser.parse_args(argv)

    if args.verb == "shard":
        if args.grid == "fig8":
            tasks = fig8_grid(
                positions_m=[float(x) for x in args.positions.split(",")],
                mac_kinds=tuple(args.macs.split(",")),
                repeats=args.repeats,
                seed=args.seed,
                duration_s=args.duration_s,
            )
            label = args.label or "fig8_queue"
        else:
            tasks = demo_grid(n=args.demo_tasks, seed=args.seed)
            label = args.label or "demo_queue"
        spec = shard_tasks(tasks, args.queue, chunk=args.chunk, label=label)
        print(
            f"sharded {spec.total_tasks} tasks into {len(spec.shards)} "
            f"shards (chunk {spec.chunk}) at {spec.root}"
        )
        return 0
    if args.verb == "work":
        done = work(
            args.queue,
            worker_id=args.worker_id,
            max_shards=args.max_shards,
            lease_ttl_s=args.lease_ttl_s,
            policy=_policy_from_args(args),
            wait=args.wait,
            wait_timeout_s=args.wait_timeout_s,
            kill_after_shards=args.kill_after_shards,
        )
        print(f"worker completed {done} shards")
        return 0
    if args.verb == "merge":
        path = merge(args.queue, out_dir=args.out)
        print(f"merged manifest: {path}")
        return 0
    if args.verb == "resume":
        path = resume(
            args.target,
            out_dir=args.out,
            worker_id=args.worker_id,
            lease_ttl_s=args.lease_ttl_s,
            policy=_policy_from_args(args),
            wait_timeout_s=args.wait_timeout_s,
            retry_failed=not args.keep_failed,
        )
        print(f"resumed and merged: {path}")
        return 0
    raise AssertionError(f"unhandled verb {args.verb!r}")


if __name__ == "__main__":
    sys.exit(main())
