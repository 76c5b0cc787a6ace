"""Worker observability shipping: no event or counter recorded inside a
pool worker may be lost when the worker exits, and a sweep's manifest
counts exactly what that sweep added."""

import os

import pytest

import repro.obs.counters as counters_mod
import repro.sim.trace as trace_mod
from repro.experiments.parallel import SweepTask, run_tasks
from repro.obs.counters import CounterRegistry, global_registry
from repro.obs.manifest import load_manifest, manifest_sink
from repro.sim.trace import TraceRecorder, global_recorder

from tests.sweep_grids import fig8_grid


@pytest.fixture
def fresh_globals(monkeypatch):
    """Isolate the process-wide recorder/registry for one test.

    Pool workers fork after the swap, so they inherit (empty) fresh
    instances too.
    """
    monkeypatch.setattr(trace_mod, "_global_recorder", TraceRecorder())
    monkeypatch.setattr(counters_mod, "_global_registry", CounterRegistry())


def _observed_task(x: int, seed: int = 0) -> int:
    """Module-level (picklable) task that instruments both globals."""
    global_registry().counter("test/worker_calls").inc()
    return x + seed


class TestParallelMerge:
    def make_tasks(self, n=4):
        return [
            SweepTask(fn=_observed_task, kwargs={"x": x, "seed": 100}, key=("t", x))
            for x in range(n)
        ]

    def test_worker_events_reach_parent_recorder(self, fresh_globals, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        results = run_tasks(self.make_tasks(), jobs=2, label="merge_sweep")
        assert results == [100, 101, 102, 103]
        runs = global_recorder().events(category="sweep", name="task_run")
        assert len(runs) == 4
        # The events were recorded in worker processes...
        worker_pids = {e.get("pid") for e in runs}
        assert worker_pids and os.getpid() not in worker_pids
        # ...and their task keys came home as the tuples they were.
        assert {e.get("key") for e in runs} == {("t", x) for x in range(4)}

    def test_worker_counters_reach_parent_registry(self, fresh_globals, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        run_tasks(self.make_tasks(), jobs=2, label="counter_sweep")
        assert global_registry().snapshot()["test/worker_calls"] == 4

    def test_serial_path_does_not_double_count(self, fresh_globals, monkeypatch):
        # jobs=1 records straight into the parent globals; the shipping
        # wrapper must not run there or everything would merge twice.
        monkeypatch.setenv("REPRO_TRACE", "1")
        run_tasks(self.make_tasks(), jobs=1, label="serial_sweep")
        runs = global_recorder().events(category="sweep", name="task_run")
        assert len(runs) == 4
        assert {e.get("pid") for e in runs} == {os.getpid()}
        assert global_registry().snapshot()["test/worker_calls"] == 4

    def test_parallel_and_serial_traces_agree(self, fresh_globals, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        run_tasks(self.make_tasks(), jobs=2, label="first")
        parallel_counts = global_recorder().counts()
        trace_mod._global_recorder = None  # fresh recorder, same env
        run_tasks(self.make_tasks(), jobs=1, label="second")
        serial_counts = global_recorder().counts()
        assert parallel_counts == serial_counts


class TestManifestPerSweep:
    FIELDS = ("counters", "trace_counts", "tasks", "seeds", "params")

    def _fields(self, directory):
        manifest = load_manifest(directory / "second.manifest.json")
        return {name: getattr(manifest, name) for name in self.FIELDS}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_manifest_reports_only_its_own_sweep(
        self, tmp_path, fresh_globals, monkeypatch, jobs
    ):
        """What the process counted before a sweep stays out of its
        manifest: the same sweep run alone and after another sweep and
        an unrelated counter writes the same manifest."""
        monkeypatch.setenv("REPRO_TRACE", "1")
        second = fig8_grid(positions_m=(27.5,), duration_s=0.02)
        with manifest_sink(str(tmp_path / "alone")):
            run_tasks(second, jobs=jobs, label="second")
        run_tasks(
            fig8_grid(positions_m=(12.5,), duration_s=0.02), jobs=jobs,
            label="first",
        )
        global_registry().counter("test/unrelated").inc(5)
        with manifest_sink(str(tmp_path / "after")):
            run_tasks(second, jobs=jobs, label="second")

        alone = self._fields(tmp_path / "alone")
        assert self._fields(tmp_path / "after") == alone
        assert alone["trace_counts"]["sweep/start"] == 1
        assert alone["trace_counts"]["sweep/task_run"] == len(second)
        assert any(key.startswith("node/") for key in alone["counters"])
