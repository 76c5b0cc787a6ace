"""Structured observability: counters, manifests, profiling.

Three layers, all costing nothing measurable when unused:

* :mod:`repro.obs.counters` — typed ``Counter``/``Histogram``
  metrics and the process-wide sweep tally
  (:func:`~repro.obs.counters.global_registry`).  A network's own
  counters are read from the parts that keep them
  (:meth:`repro.net.network.Network.counters`); latency histograms are
  MAC-held and never in a snapshot.
* :mod:`repro.obs.manifest` — schema-validated run manifests (params,
  seeds, git SHA, wall time, each executed task's wall time and
  process, the sweep's counter delta) written by every
  sweep when a sink is active (``REPRO_MANIFEST_DIR`` or
  :func:`~repro.obs.manifest.manifest_sink`).
* :mod:`repro.obs.profile` — a cProfile/pstats harness
  (``REPRO_PROFILE``) whose per-phase timings and top-N cumulative
  table land in the manifest's ``profile`` block.

See ``docs/observability.md`` for the user-facing guide.
"""

from repro.obs.counters import (
    Counter,
    CounterRegistry,
    Histogram,
    diff_snapshot,
    global_registry,
)
from repro.obs.manifest import (
    MANIFEST_DIR_ENV,
    ManifestError,
    RunManifest,
    active_manifest_dir,
    build_manifest,
    load_manifest,
    manifest_sink,
    validate_manifest,
    write_manifest,
)
from repro.obs.profile import (
    PROFILE_ENV,
    Profiler,
    maybe_profiler,
    profiling_enabled,
)

__all__ = [
    "Counter",
    "CounterRegistry",
    "Histogram",
    "diff_snapshot",
    "global_registry",
    "MANIFEST_DIR_ENV",
    "ManifestError",
    "RunManifest",
    "active_manifest_dir",
    "build_manifest",
    "load_manifest",
    "manifest_sink",
    "validate_manifest",
    "write_manifest",
    "PROFILE_ENV",
    "Profiler",
    "maybe_profiler",
    "profiling_enabled",
]
