"""The durable sweep store: layout, entries, resume, shared use.

A finished task lands in its :class:`ResultCache` as one entry carrying
its result and counter delta, and calling ``run_tasks`` again on the
same store resumes the sweep.  The file keeps the name of the sweep
queue the store replaced, and each test the name of the queue test
whose behaviour it now checks.  The crash/SIGKILL scenarios live in
``test_queue_resume.py``.
"""

import json
import os
import subprocess
import sys

import pytest

import repro.experiments.parallel as parallel_mod
import repro.obs.counters as counters_mod
import repro.sim.trace as trace_mod
from repro.experiments.parallel import CACHE_VERSION, ResultCache, SweepTask, run_tasks
from repro.obs.counters import CounterRegistry, global_registry
from repro.obs.manifest import load_manifest, manifest_sink
from repro.sim.trace import TraceRecorder

from tests.sweep_grids import ROOT, _comparable, child_env, demo_grid


@pytest.fixture
def fresh_globals(monkeypatch):
    """Isolate the process-wide recorder/registry for one test."""
    monkeypatch.setattr(trace_mod, "_global_recorder", TraceRecorder())
    monkeypatch.setattr(counters_mod, "_global_registry", CounterRegistry())


def _fresh_registry(monkeypatch) -> None:
    """Start counting from zero, as a new process would."""
    monkeypatch.setattr(counters_mod, "_global_registry", CounterRegistry())


def _fail_if_marker(x: float, marker: str) -> float:
    """Fails exactly while ``marker`` exists — a repairable failure."""
    if os.path.exists(marker):
        raise RuntimeError(f"marker present for x={x}")
    global_registry().counter("flaky/runs").inc()
    return x * 10.0


def _witness_cell(path: str, x: float) -> float:
    """Appends one line per execution — an execution witness, which
    unlike its counter is not replayed by a hit."""
    with open(path, "a") as handle:
        handle.write(f"{x}\n")
    global_registry().counter("witness/runs").inc()
    return x


def _witness_grid(path: str, n: int):
    return [
        SweepTask(fn=_witness_cell, kwargs={"path": path, "x": float(i)}, key=("w", i))
        for i in range(n)
    ]


def _entries_seen(store: str, x: float) -> int:
    """How many entries ``store`` held when this task ran."""
    if not os.path.isdir(store):
        return 0
    return sum(name.endswith(".json") for name in os.listdir(store))


def _executions(path: str):
    with open(path) as handle:
        return handle.read().split()


def _entry(store, task):
    with open(os.path.join(store, f"{task.fingerprint()}.json")) as handle:
        return json.load(handle)


class TestSharding:
    def test_layout_and_spec(self, tmp_path, fresh_globals):
        """One JSON document per task, named by its fingerprint, holding
        the entry's version, key, result and counter delta."""
        tasks = demo_grid(7)
        run_tasks(tasks, cache=ResultCache(str(tmp_path)), label="lay")
        assert sorted(os.listdir(tmp_path)) == sorted(
            f"{task.fingerprint()}.json" for task in tasks
        )
        for task in tasks:
            assert _entry(str(tmp_path), task) == {
                "version": CACHE_VERSION,
                "key": task.fingerprint(),
                "result": task.execute(),
                "counters": {"demo/cells": 1},
            }

    def test_grid_fingerprint_tracks_content(
        self, tmp_path, fresh_globals, store_lookups
    ):
        """Entries are addressed by content: a grid finds its own
        entries again, a reseeded grid finds none of them."""
        cache = ResultCache(str(tmp_path))
        run_tasks(demo_grid(4, seed=0), cache=cache)
        run_tasks(demo_grid(4, seed=1), cache=cache)
        assert (store_lookups.hits, store_lookups.misses) == (0, 8)
        run_tasks(demo_grid(4, seed=0), cache=cache)
        assert (store_lookups.hits, store_lookups.misses) == (4, 8)
        assert len(os.listdir(tmp_path)) == 8

    def test_load_queue_accepts_dir_file_and_manifest(
        self, tmp_path, fresh_globals, monkeypatch
    ):
        """``cache=ResultCache(dir)`` and ``REPRO_CACHE=1
        REPRO_CACHE_DIR=dir`` name the same store."""
        store = str(tmp_path / "store")
        tasks = demo_grid(3)
        run_tasks(tasks[:2], cache=ResultCache(store))
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", store)
        with manifest_sink(str(tmp_path)):
            run_tasks(tasks, label="forms")
        manifest = load_manifest(tmp_path / "forms.manifest.json")
        assert (manifest.cache_hits, manifest.cache_misses) == (2, 1)


class TestLeaseProtocol:
    def test_reclaim_race_has_one_winner(self, tmp_path):
        """Two processes sweeping one grid into one store may compute a
        task twice, but every task ends as one whole entry, identical
        to what a lone sweep writes."""
        store = str(tmp_path / "store")
        script = (
            "from repro.experiments.parallel import ResultCache, run_tasks\n"
            "from tests.sweep_grids import demo_grid\n"
            f"run_tasks(demo_grid(24), cache=ResultCache({store!r}))\n"
        )
        sweeps = [
            subprocess.Popen([sys.executable, "-c", script], env=child_env(), cwd=ROOT)
            for _ in range(2)
        ]
        assert [sweep.wait(timeout=120) for sweep in sweeps] == [0, 0]
        tasks = demo_grid(24)
        assert sorted(os.listdir(store)) == sorted(
            f"{task.fingerprint()}.json" for task in tasks
        )
        for task in tasks:
            entry = _entry(store, task)
            assert entry["result"] == task.execute()
            assert entry["counters"] == {"demo/cells": 1}


class TestWorkAndMerge:
    def test_single_worker_drains_queue(self, tmp_path, fresh_globals):
        tasks = demo_grid(5)
        results = run_tasks(tasks, cache=ResultCache(str(tmp_path)), label="drain")
        # Results come back in grid order and match direct execution.
        assert results == [task.execute() for task in tasks]
        # Every entry was published whole: no temp file is left behind.
        names = os.listdir(tmp_path)
        assert len(names) == 5
        assert all(name.endswith(".json") for name in names)

    def test_entries_land_as_each_task_finishes(self, tmp_path, fresh_globals):
        """Each task is stored before the next one starts, so a sweep
        killed part-way keeps every task it finished (entries used to be
        written only once the whole sweep had run)."""
        store = str(tmp_path / "store")
        tasks = [
            SweepTask(fn=_entries_seen, kwargs={"store": store, "x": float(i)})
            for i in range(4)
        ]
        assert run_tasks(tasks, jobs=1, cache=ResultCache(store)) == [0, 1, 2, 3]

    def test_second_worker_sees_nothing_to_do(
        self, tmp_path, fresh_globals, monkeypatch, store_lookups
    ):
        """A sweep whose store is complete starts no pool."""
        witness = str(tmp_path / "witness.log")
        tasks = _witness_grid(witness, 4)
        store = str(tmp_path / "store")
        run_tasks(tasks, jobs=2, cache=ResultCache(store))

        def no_pool(*args, **kwargs):
            raise AssertionError("a complete store must not start a pool")

        monkeypatch.setattr(parallel_mod, "_run_parallel", no_pool)
        assert run_tasks(tasks, jobs=2, cache=ResultCache(store)) == [
            0.0, 1.0, 2.0, 3.0
        ]
        # The first sweep missed all four tasks, the second hit them all.
        assert (store_lookups.hits, store_lookups.misses) == (4, 4)
        assert sorted(_executions(witness)) == ["0.0", "1.0", "2.0", "3.0"]

    def test_fragments_validate_and_carry_deltas(self, tmp_path, fresh_globals):
        """Each entry carries the counter delta of its own task alone."""
        cache = ResultCache(str(tmp_path))
        tasks = demo_grid(4)
        run_tasks(tasks, jobs=2, cache=cache)
        for task in tasks:
            hit, result, counters = cache.get(task.fingerprint())
            assert hit
            assert result == task.execute()
            assert counters == {"demo/cells": 1}

    def test_merge_requires_every_fragment(
        self, tmp_path, fresh_globals, store_lookups
    ):
        """Entries missing from a store are recomputed and restored."""
        witness = str(tmp_path / "witness.log")
        tasks = _witness_grid(witness, 4)
        store = str(tmp_path / "store")
        run_tasks(tasks, cache=ResultCache(store))
        for task in (tasks[1], tasks[3]):
            os.unlink(os.path.join(store, f"{task.fingerprint()}.json"))
        assert run_tasks(tasks, cache=ResultCache(store)) == [0.0, 1.0, 2.0, 3.0]
        # The first sweep missed all four, the second the two deleted.
        assert (store_lookups.hits, store_lookups.misses) == (2, 6)
        assert _executions(witness).count("1.0") == 2
        assert _executions(witness).count("2.0") == 1
        assert len(os.listdir(store)) == 4

    def test_merge_rejects_foreign_fragment(
        self, tmp_path, fresh_globals, store_lookups
    ):
        """An entry copied over another task's file is a miss there,
        recomputed and repaired — never served as that task's result."""
        tasks = demo_grid(2)
        store = str(tmp_path)
        run_tasks(tasks, cache=ResultCache(store))
        a, b = (os.path.join(store, f"{task.fingerprint()}.json") for task in tasks)
        with open(a) as src, open(b, "w") as dst:
            dst.write(src.read())
        assert run_tasks(tasks, cache=ResultCache(store)) == [
            task.execute() for task in tasks
        ]
        # The first sweep missed both, the second the overwritten one.
        assert (store_lookups.hits, store_lookups.misses) == (1, 3)
        assert _entry(store, tasks[1])["key"] == tasks[1].fingerprint()

    def test_merged_manifest_counters_sum_shard_deltas(
        self, tmp_path, fresh_globals, monkeypatch
    ):
        """A warm sweep's counters are the sum of its entries' deltas."""
        store = str(tmp_path / "store")
        run_tasks(demo_grid(6), cache=ResultCache(store))
        _fresh_registry(monkeypatch)
        with manifest_sink(str(tmp_path)):
            run_tasks(demo_grid(6), cache=ResultCache(store), label="sum")
        manifest = load_manifest(tmp_path / "sum.manifest.json")
        assert manifest.cache_hits == 6
        assert manifest.counters == {"demo/cells": 6}

    def test_merge_matches_uninterrupted_run_tasks_manifest(
        self, tmp_path, fresh_globals, monkeypatch
    ):
        """The acceptance contract, cheap edition (demo grid).

        Deterministic manifest fields of a sweep resumed on a partial
        store ≡ one serial ``run_tasks`` sweep of the identical grid.
        """
        tasks = demo_grid(5)
        with manifest_sink(str(tmp_path / "serial")):
            serial_results = run_tasks(tasks, jobs=1, label="contract")
        serial = load_manifest(tmp_path / "serial" / "contract.manifest.json")

        store = str(tmp_path / "store")
        run_tasks(tasks[:3], cache=ResultCache(store))  # the part that finished
        _fresh_registry(monkeypatch)
        with manifest_sink(str(tmp_path / "resumed")):
            resumed_results = run_tasks(
                tasks, jobs=2, cache=ResultCache(store), label="contract"
            )
        resumed = load_manifest(tmp_path / "resumed" / "contract.manifest.json")
        assert (resumed.cache_hits, resumed.cache_misses) == (3, 2)
        assert _comparable(resumed) == _comparable(serial)
        assert resumed.counters == {"demo/cells": 5}
        assert resumed_results == serial_results


class TestResume:
    def test_resume_reruns_failed_shards(
        self, tmp_path, fresh_globals, monkeypatch
    ):
        """A sweep that failed on a task's error keeps every task that
        finished before it; once the cause is gone, the re-run on its
        store hits those, runs the rest and writes the manifest an
        uninterrupted sweep writes — serial and on 2 workers."""
        marker = str(tmp_path / "outage.marker")
        tasks = [
            SweepTask(
                fn=_fail_if_marker,
                # Only task 3 reads the marker; the others read a path
                # that never exists.
                kwargs={"x": float(i), "marker": marker if i == 3 else ""},
                key=("flaky", i),
            )
            for i in range(5)
        ]
        with manifest_sink(str(tmp_path / "uninterrupted")):
            expected = run_tasks(tasks, label="flaky")
        uninterrupted = load_manifest(
            tmp_path / "uninterrupted" / "flaky.manifest.json"
        )
        for jobs in (1, 2):
            store = str(tmp_path / f"store-{jobs}")
            with open(marker, "w"):
                pass  # the environment breaks task 3...
            with pytest.raises(RuntimeError, match="marker present for x=3.0"):
                run_tasks(tasks, jobs=jobs, cache=ResultCache(store))
            stored = sorted(os.listdir(store)) if os.path.isdir(store) else []
            assert f"{tasks[3].fingerprint()}.json" not in stored
            if jobs == 1:  # the tasks before it finished, none after
                assert stored == sorted(
                    f"{task.fingerprint()}.json" for task in tasks[:3]
                )

            os.unlink(marker)  # ...and heals
            _fresh_registry(monkeypatch)
            resumed_dir = tmp_path / f"resumed-{jobs}"
            with manifest_sink(str(resumed_dir)):
                again = run_tasks(
                    tasks, jobs=jobs, cache=ResultCache(store), label="flaky"
                )
            manifest = load_manifest(resumed_dir / "flaky.manifest.json")
            assert (manifest.cache_hits, manifest.cache_misses) == (
                len(stored), len(tasks) - len(stored)
            )
            assert again == expected == [0.0, 10.0, 20.0, 30.0, 40.0]
            assert _comparable(manifest) == _comparable(uninterrupted)

    def test_resume_is_a_no_op_on_a_complete_queue(
        self, tmp_path, fresh_globals, monkeypatch
    ):
        witness = str(tmp_path / "witness.log")
        tasks = _witness_grid(witness, 4)
        store = str(tmp_path / "store")
        with manifest_sink(str(tmp_path / "first")):
            first = run_tasks(tasks, cache=ResultCache(store), label="idle")
        _fresh_registry(monkeypatch)
        with manifest_sink(str(tmp_path / "again")):
            again = run_tasks(tasks, cache=ResultCache(store), label="idle")
        assert again == first
        before = load_manifest(tmp_path / "first" / "idle.manifest.json")
        after = load_manifest(tmp_path / "again" / "idle.manifest.json")
        assert after.tasks == before.tasks
        assert after.counters == before.counters == {"witness/runs": 4}
        # No task re-ran: nothing missed and the witness holds one
        # execution per task.
        assert (after.cache_hits, after.cache_misses) == (4, 0)
        assert sorted(_executions(witness)) == ["0.0", "1.0", "2.0", "3.0"]
