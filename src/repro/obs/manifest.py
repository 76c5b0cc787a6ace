"""Run manifests: what ran, with what inputs, and what it counted.

Every sweep executed through
:func:`repro.experiments.parallel.run_tasks` writes a
``<label>.manifest.json`` next to its results whenever a manifest sink
is active (the ``REPRO_MANIFEST_DIR`` environment knob, or the
:func:`manifest_sink` context manager that
``python -m repro.experiments.report`` wraps around its run).  A
manifest records enough to reproduce and to diff runs:

* the sweep label, task grid (keys, per-task seeds, content
  fingerprints) and representative task parameters;
* the executor configuration (worker count, cache hit/miss counts);
* provenance: git SHA (when available), schema version, wall time;
* what the sweep added to the process-wide counter registry (its
  counter delta) and to the global trace recorder (the histogram of its
  events) — never what the process counted before it.

Manifests are schema-validated on load — an archived manifest that does
not validate is an error, never a silent partial read.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Union

#: Environment knob: directory that receives run manifests.
MANIFEST_DIR_ENV = "REPRO_MANIFEST_DIR"

#: Schema identifier and version written into every manifest.
MANIFEST_SCHEMA = "repro.manifest"
#: Version 2 added two *optional* fields — per-task ``overrides`` inside
#: task rows (heterogeneous grids) and a ``shards`` block, written only
#: by the since-removed sweep queue.  Required fields are unchanged, so
#: archived version-1 manifests still validate and load.  Keys this
#: class no longer has (``shards``, the grid's ``spatial`` block, the
#: ``failures`` list of the since-removed record mode) are dropped on
#: load, so archived manifests that carry them load too.
MANIFEST_SCHEMA_VERSION = 2
SUPPORTED_MANIFEST_VERSIONS = (1, 2)

_REQUIRED_FIELDS = {
    "schema": str,
    "version": int,
    "label": str,
    "created_unix": (int, float),
    "wall_s": (int, float),
    "jobs": int,
    "tasks": list,
    "params": dict,
    "seeds": list,
    "counters": dict,
    "trace_counts": dict,
}


class ManifestError(ValueError):
    """A manifest payload does not match the expected schema."""


@dataclass
class RunManifest:
    """One sweep's provenance record (see module docstring)."""

    label: str
    created_unix: float
    wall_s: float
    jobs: int
    tasks: List[Dict[str, Any]]
    params: Dict[str, Any]
    seeds: List[int]
    counters: Dict[str, Any] = field(default_factory=dict)
    trace_counts: Dict[str, int] = field(default_factory=dict)
    git_sha: Optional[str] = None
    cache_hits: int = 0
    cache_misses: int = 0
    #: Optional profiling block (phases + top-N cumulative table) written
    #: when ``REPRO_PROFILE`` is active — see :mod:`repro.obs.profile`.
    #: Not in ``_REQUIRED_FIELDS``: manifests from unprofiled runs (and
    #: archived pre-profile manifests) validate unchanged.
    profile: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        out = {"schema": MANIFEST_SCHEMA, "version": MANIFEST_SCHEMA_VERSION}
        out.update(dataclasses.asdict(self))
        return out

    @classmethod
    def from_dict(cls, obj: Dict[str, Any]) -> "RunManifest":
        validate_manifest(obj)
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in obj.items() if k in known})


def validate_manifest(obj: Any) -> None:
    """Raise :class:`ManifestError` unless ``obj`` is a valid manifest."""
    if not isinstance(obj, dict):
        raise ManifestError(f"manifest must be an object, got {type(obj).__name__}")
    if obj.get("schema") != MANIFEST_SCHEMA:
        raise ManifestError(f"not a {MANIFEST_SCHEMA} document: {obj.get('schema')!r}")
    if obj.get("version") not in SUPPORTED_MANIFEST_VERSIONS:
        raise ManifestError(
            f"manifest version {obj.get('version')!r} unsupported "
            f"(expected one of {SUPPORTED_MANIFEST_VERSIONS})"
        )
    problems = []
    for name, types in _REQUIRED_FIELDS.items():
        if name not in obj:
            problems.append(f"missing field {name!r}")
        elif not isinstance(obj[name], types):
            problems.append(
                f"field {name!r} has type {type(obj[name]).__name__}"
            )
    for index, task in enumerate(obj.get("tasks", ())):
        if not isinstance(task, dict) or "key" not in task or "fingerprint" not in task:
            problems.append(f"task #{index} lacks key/fingerprint")
            break
    if problems:
        raise ManifestError("invalid manifest: " + "; ".join(problems))


def json_bytes(obj: Any) -> bytes:
    """The on-disk form of manifests."""
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def atomic_write_bytes(path: Union[str, "os.PathLike"], payload: bytes) -> None:
    """Publish ``payload`` at ``path`` whole or not at all.

    The bytes land in a same-directory ``.tmp`` file (the directory is
    created if needed), are flushed and fsynced, and only then renamed
    over ``path`` — a process killed mid-write leaves at worst an
    orphaned ``.tmp``, never a truncated file a reader could trust.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_manifest(
    manifest: RunManifest, directory: Union[str, "os.PathLike"]
) -> str:
    """Atomically serialize ``manifest`` into ``directory``; returns the path."""
    path = os.path.join(os.fspath(directory), f"{_safe_name(manifest.label)}.manifest.json")
    payload = manifest.to_dict()
    validate_manifest(payload)  # never write a manifest we could not load
    atomic_write_bytes(path, json_bytes(payload))
    return path


def load_manifest(path: Union[str, "os.PathLike"]) -> RunManifest:
    """Read and schema-validate one manifest file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"unreadable manifest {path}: {exc}") from exc
    return RunManifest.from_dict(obj)


def _safe_name(label: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in label) or "run"


# ----------------------------------------------------------------------
# Manifest sink (where run_tasks writes)
# ----------------------------------------------------------------------
_sink_dir: Optional[str] = None


@contextmanager
def manifest_sink(directory: Optional[str]) -> Iterator[Optional[str]]:
    """Route every sweep manifest inside the block into ``directory``.

    ``None`` disables writing for the block (overriding the env knob).
    """
    global _sink_dir
    previous, _sink_dir = _sink_dir, directory
    try:
        yield directory
    finally:
        _sink_dir = previous


def active_manifest_dir() -> Optional[str]:
    """The directory manifests should go to right now, if any.

    An active :func:`manifest_sink` wins over ``$REPRO_MANIFEST_DIR``;
    with neither set, manifests are not written (zero cost).
    """
    if _sink_dir is not None:
        return _sink_dir or None
    return os.environ.get(MANIFEST_DIR_ENV) or None


# ----------------------------------------------------------------------
# Provenance helpers
# ----------------------------------------------------------------------
def current_git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """The checked-out commit, or None outside a repo / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def jsonable(value: Any) -> Any:
    """Best-effort JSON-safe rendering of arbitrary task parameters.

    Dataclasses and plain objects with instance attributes (e.g. the
    localization error models) become ``{"__type__": name, ...fields}``
    — never a ``repr`` carrying a memory address, which would make two
    runs of one grid disagree; callables become their qualified names;
    anything else unserializable falls back to ``repr`` — a manifest
    must always be writable.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        body = {
            f.name: jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        body["__type__"] = type(value).__qualname__
        return body
    if callable(value):
        module = getattr(value, "__module__", "?")
        name = getattr(value, "__qualname__", repr(value))
        return f"{module}.{name}"
    if hasattr(value, "__dict__"):
        body = {str(k): jsonable(v) for k, v in vars(value).items()}
        body["__type__"] = type(value).__qualname__
        return body
    return repr(value)


def build_manifest(
    label: str,
    tasks: List[Dict[str, Any]],
    jobs: int,
    wall_s: float,
    params: Dict[str, Any],
    seeds: List[int],
    counters: Dict[str, Any],
    trace_counts: Dict[str, int],
    cache_hits: int = 0,
    cache_misses: int = 0,
    profile: Optional[Dict[str, Any]] = None,
) -> RunManifest:
    """Assemble a :class:`RunManifest` with provenance filled in."""
    return RunManifest(
        label=label,
        created_unix=time.time(),
        wall_s=float(wall_s),
        jobs=int(jobs),
        tasks=tasks,
        params=params,
        seeds=seeds,
        counters=counters,
        trace_counts=trace_counts,
        git_sha=current_git_sha(),
        cache_hits=int(cache_hits),
        cache_misses=int(cache_misses),
        profile=profile,
    )

