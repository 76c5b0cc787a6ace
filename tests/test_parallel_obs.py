"""A sweep's manifest says where its task time went, no counter recorded
inside a pool worker is lost when the worker exits, and a manifest
counts exactly what its own sweep added."""

import os

import pytest

import repro.obs.counters as counters_mod
from repro.experiments.parallel import ResultCache, SweepTask, run_tasks
from repro.obs.counters import CounterRegistry, global_registry
from repro.obs.manifest import load_manifest, manifest_sink

from tests.sweep_grids import _comparable, fig8_grid


@pytest.fixture
def fresh_globals(monkeypatch):
    """Isolate the process-wide registry for one test.

    Pool workers fork after the swap, so they inherit an (empty) fresh
    instance too.
    """
    monkeypatch.setattr(counters_mod, "_global_registry", CounterRegistry())


def _observed_task(x: int, seed: int = 0) -> int:
    """Module-level (picklable) task that counts into the registry."""
    global_registry().counter("test/worker_calls").inc()
    return x + seed


def _tasks(n=4):
    return [
        SweepTask(fn=_observed_task, kwargs={"x": x, "seed": 100}, key=("t", x))
        for x in range(n)
    ]


def _sweep(directory, jobs, cache=None, label="rows"):
    """Run the grid with a manifest sink; return its results and manifest."""
    with manifest_sink(str(directory)):
        results = run_tasks(_tasks(), jobs=jobs, cache=cache, label=label)
    return results, load_manifest(directory / f"{label}.manifest.json")


class TestTaskRows:
    def test_pooled_rows_carry_worker_time(self, tmp_path, fresh_globals):
        results, manifest = _sweep(tmp_path, jobs=2)
        assert results == [100, 101, 102, 103]
        assert [row["key"] for row in manifest.tasks] == [["t", x] for x in range(4)]
        for row in manifest.tasks:
            assert row["elapsed_s"] > 0
            assert isinstance(row["pid"], int) and row["pid"] != os.getpid()

    def test_serial_rows_name_this_process(self, tmp_path, fresh_globals):
        _, manifest = _sweep(tmp_path, jobs=1)
        assert [row["pid"] for row in manifest.tasks] == [os.getpid()] * 4
        assert all(row["elapsed_s"] > 0 for row in manifest.tasks)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_stored_rows_carry_no_time(self, tmp_path, fresh_globals, jobs):
        """A warm re-run executes nothing: its rows are the cold run's
        without ``elapsed_s`` and ``pid``, and it counts what the cold
        run did."""
        store = ResultCache(str(tmp_path / "store"))
        _, cold = _sweep(tmp_path / "cold", jobs, cache=store)
        _, warm = _sweep(tmp_path / "warm", jobs, cache=store)
        assert warm.cache_hits == 4
        assert warm.tasks == _comparable(cold)["tasks"]
        assert warm.counters == cold.counters == {"test/worker_calls": 4}


class TestParallelMerge:
    def test_worker_counters_reach_parent_registry(self, fresh_globals):
        run_tasks(_tasks(), jobs=2, label="counter_sweep")
        assert global_registry().snapshot()["test/worker_calls"] == 4

    def test_serial_path_does_not_double_count(self, fresh_globals):
        # jobs=1 counts straight into the parent registry; its measured
        # deltas must not be merged as well, or everything counts twice.
        run_tasks(_tasks(), jobs=1, label="serial_sweep")
        assert global_registry().snapshot()["test/worker_calls"] == 4

    def test_parallel_and_serial_manifests_agree(self, tmp_path, fresh_globals):
        _, pooled = _sweep(tmp_path / "pooled", jobs=2)
        _, serial = _sweep(tmp_path / "serial", jobs=1)
        assert _comparable(pooled) == _comparable(serial)


class TestManifestPerSweep:
    def _fields(self, directory):
        return _comparable(load_manifest(directory / "second.manifest.json"))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_manifest_reports_only_its_own_sweep(
        self, tmp_path, fresh_globals, jobs
    ):
        """What the process counted before a sweep stays out of its
        manifest: the same sweep run alone and after another sweep and
        an unrelated counter writes the same manifest."""
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
        assert any(key.startswith("node/") for key in alone["counters"])
