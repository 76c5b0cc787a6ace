"""Resume semantics under a real crash (SIGKILL).

The acceptance contract for the sweep store: SIGKILL a sweep right after
``k`` of its ``n`` tasks were stored (the rest are unstarted or in
flight, and nothing more reaches the disk), call ``run_tasks`` again on
the same store, and assert that the re-run hits exactly those ``k``
entries, runs the other ``n - k``, and writes a manifest whose
deterministic fields — per-node radio counters included — are
bit-identical to an uninterrupted serial run of the same grid.
"""

import os

import pytest

import repro.obs.counters as counters_mod
from repro.experiments.parallel import ResultCache, run_tasks
from repro.obs.counters import CounterRegistry
from repro.obs.manifest import load_manifest, manifest_sink, validate_manifest

from tests.sweep_grids import _comparable, fig8_grid, sigkill_sweep, survivors

pytestmark = pytest.mark.slow


@pytest.fixture
def fresh_globals(monkeypatch):
    monkeypatch.setattr(counters_mod, "_global_registry", CounterRegistry())


GRID = dict(
    positions_m=(12.5, 27.5), mac_kinds=("dcf", "comap"),
    repeats=1, seed=0, duration_s=0.02,
)
#: Entries that land before the SIGKILL, out of the grid's 4.
KILL_AFTER = 2


def _crash_and_resume(tmp_path, monkeypatch, jobs):
    """Baseline, killed sweep at ``jobs`` workers, serial re-run; returns
    the killed sweep's worker PIDs."""
    tasks = fig8_grid(**GRID)

    # Uninterrupted serial baseline of the identical grid.
    baseline_dir = str(tmp_path / "baseline")
    with manifest_sink(baseline_dir):
        baseline_results = run_tasks(tasks, jobs=1, label="crash")
    baseline = load_manifest(os.path.join(baseline_dir, "crash.manifest.json"))

    # The killed sweep left exactly its first KILL_AFTER entries, and
    # none of its pool workers outlived it.
    store = str(tmp_path / "store")
    workers = sigkill_sweep(store, KILL_AFTER, jobs, "crash", GRID)
    assert len(os.listdir(store)) == KILL_AFTER
    assert survivors(workers) == []

    # The same call on the same store, counting from zero as the
    # baseline did: the stored tasks hit and replay their deltas.
    monkeypatch.setattr(counters_mod, "_global_registry", CounterRegistry())
    resumed_dir = str(tmp_path / "resumed")
    with manifest_sink(resumed_dir):
        results = run_tasks(
            tasks, jobs=1, cache=ResultCache(store), label="crash"
        )
    resumed = load_manifest(os.path.join(resumed_dir, "crash.manifest.json"))
    validate_manifest(resumed.to_dict())
    assert (resumed.cache_hits, resumed.cache_misses) == (
        KILL_AFTER, len(tasks) - KILL_AFTER
    )
    assert _comparable(resumed) == _comparable(baseline)
    assert results == baseline_results

    # Per-node radio counters survive the crash/resume unchanged.
    per_node = {
        key: value
        for key, value in resumed.counters.items()
        if key.startswith("node/")
    }
    assert per_node
    assert per_node == {
        key: value
        for key, value in baseline.counters.items()
        if key.startswith("node/")
    }
    return workers


class TestCrashResume:
    def test_sigkilled_worker_resume_is_bit_identical(
        self, tmp_path, fresh_globals, monkeypatch
    ):
        """Killed on 2 workers: entries land in the parent as results
        arrive, and the pool dies with it."""
        workers = _crash_and_resume(tmp_path, monkeypatch, jobs=2)
        assert workers  # the survivor check above had workers to check

    def test_sigkilled_serial_sweep_resume_is_bit_identical(
        self, tmp_path, fresh_globals, monkeypatch
    ):
        assert _crash_and_resume(tmp_path, monkeypatch, jobs=1) == []
