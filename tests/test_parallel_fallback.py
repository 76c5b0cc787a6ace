"""The pool's trouble is not a task's: what ``jobs>1`` survives and what
it raises.

* A task's own exception — whatever its type, ``OSError`` and
  ``PicklingError`` included — and a task or result that does not
  pickle propagate as raised; the task ran once.
* A worker dying while the batch is still being submitted makes
  ``submit`` raise ``BrokenProcessPool``: the refused tasks run on the
  respawned pool, each exactly once.
* Worker processes that cannot start send the tasks the pool did not
  finish to the serial path, and only those: a finished task's shipped
  counter deltas and trace events are merged already, and running it
  again would count both twice.
"""

import pickle
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.experiments.parallel as parallel_mod
import repro.obs.counters as counters_mod
import repro.sim.trace as trace_mod
from repro.experiments.parallel import SweepTask, _run_pending, _run_serial, run_tasks
from repro.obs.counters import CounterRegistry, global_registry
from repro.sim.trace import TraceRecorder
from repro.sim.trace import global_recorder


@pytest.fixture
def fresh_globals(monkeypatch):
    monkeypatch.setattr(trace_mod, "_global_recorder", TraceRecorder())
    monkeypatch.setattr(counters_mod, "_global_registry", CounterRegistry())


class _TraceStub:
    def __init__(self):
        self.events = []

    def record(self, *args, **kwargs):
        self.events.append((args, kwargs))


def _counting_cell(x: float, tag=None) -> float:
    """Counts its executions; ``tag`` exists to smuggle in unpicklables."""
    global_registry().counter("fallback/runs").inc()
    return x * 2.0


def _own_error_cell(path: str, x: float, error=None) -> float:
    """Exactly-once witness that raises ``error`` (a type) when given."""
    with open(path, "a") as handle:
        handle.write(f"{x}\n")
    if error is not None:
        raise error(f"the task's own error at x={x}")
    return x


def _lock_result_cell(x: float) -> dict:
    """A result that cannot cross a process boundary."""
    return {"x": x, "lock": threading.Lock()}


def _grid(n, unpicklable_at=()):
    return [
        SweepTask(
            fn=_counting_cell,
            kwargs={
                "x": float(i),
                "tag": (lambda: None) if i in unpicklable_at else None,
            },
            key=("fallback", i),
        )
        for i in range(n)
    ]


def _witness_grid(path, n, error_at=None, error=None):
    return [
        SweepTask(
            fn=_own_error_cell,
            kwargs={
                "path": path,
                "x": float(i),
                "error": error if i == error_at else None,
            },
            key=("own", i),
        )
        for i in range(n)
    ]


def _executions(path):
    with open(path) as handle:
        return handle.read().split()


class TestFallbackResumesOnlyUnfinished:
    def test_pool_partial_progress_is_not_rerun(self, tmp_path, monkeypatch):
        """A pool that finishes task 0 and then finds it cannot start
        more workers hands tasks 1-3 alone to the serial path: the
        witness shows each task exactly once."""
        witness = str(tmp_path / "witness.log")
        tasks = _witness_grid(witness, 4)

        def failing_parallel(tasks_, pending, jobs):
            yield from _run_serial(tasks_, pending[:1])
            raise parallel_mod._PoolUnavailable("no more workers")

        monkeypatch.setattr(parallel_mod, "_run_parallel", failing_parallel)
        trace = _TraceStub()
        completed = _run_pending(
            tasks, [0, 1, 2, 3], jobs=2, label="resume", trace=trace
        )
        assert sorted(completed) == [0, 1, 2, 3]
        assert sorted(_executions(witness)) == ["0.0", "1.0", "2.0", "3.0"]
        # The fallback was recorded as a trace event with its reason.
        assert [args for args, _ in trace.events] == [("sweep", "serial_fallback")]


class TestTaskErrorsAreNotPoolFailures:
    @pytest.mark.parametrize("error", [TypeError, OSError])
    def test_own_exception_runs_once_without_fallback(
        self, tmp_path, fresh_globals, error
    ):
        """2 workers: a task raising ``TypeError``/``OSError`` is not a
        pool that cannot start; its error reaches the caller after one
        run."""
        global_recorder().enable("sweep")
        witness = str(tmp_path / "witness.log")
        with pytest.raises(error, match="own error at x=1.0"):
            run_tasks(_witness_grid(witness, 3, 1, error), jobs=2)
        assert _executions(witness).count("1.0") == 1
        assert global_recorder().events("sweep", "serial_fallback") == []

    def test_own_pickling_error_runs_once_without_fallback(
        self, tmp_path, fresh_globals
    ):
        """2 workers: a task raising ``pickle.PicklingError`` itself is
        that task's error, raised after one run."""
        global_recorder().enable("sweep")
        witness = str(tmp_path / "witness.log")
        tasks = _witness_grid(witness, 3, 1, pickle.PicklingError)
        with pytest.raises(pickle.PicklingError, match="own error at x=1.0"):
            run_tasks(tasks, jobs=2)
        assert _executions(witness).count("1.0") == 1
        assert global_recorder().events("sweep", "serial_fallback") == []

    def test_unpicklable_task_raises(self, fresh_globals):
        """A task holding a lambda cannot reach a worker: its pickling
        error is raised, with no serial detour."""
        with pytest.raises((pickle.PicklingError, AttributeError)):
            run_tasks(_grid(4, unpicklable_at={2}), jobs=2)

    def test_unpicklable_result_raises(self, fresh_globals):
        """A result holding a lock cannot travel home from a worker."""
        tasks = [
            SweepTask(fn=_lock_result_cell, kwargs={"x": float(i)}, key=("lock", i))
            for i in range(3)
        ]
        with pytest.raises(TypeError, match="pickle"):
            run_tasks(tasks, jobs=2)


class TestBreakDuringSubmission:
    @pytest.mark.parametrize("break_at", [1, 3, 6])
    def test_unsent_tasks_are_uncharged_victims(
        self, tmp_path, fresh_globals, monkeypatch, break_at
    ):
        """A worker dying while the batch is still being submitted makes
        ``submit`` raise ``BrokenProcessPool``; that used to escape
        ``run_tasks``.  The refused tasks run on a new pool, once."""
        calls = []

        class SubmitBreaks(ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                calls.append(None)
                if len(calls) == break_at:
                    raise BrokenProcessPool("a worker died mid-submission")
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", SubmitBreaks)
        witness = str(tmp_path / "witness.log")
        results = run_tasks(_witness_grid(witness, 6), jobs=2)
        assert results == [float(i) for i in range(6)]
        assert sorted(_executions(witness)) == [str(float(i)) for i in range(6)]
        assert len(calls) > 6  # the refused tasks were submitted again


class TestPoolStartFailure:
    @pytest.mark.parametrize("at", ["init", "submit"])
    def test_pool_that_cannot_start_falls_back_to_serial(
        self, fresh_globals, monkeypatch, at
    ):
        """Worker processes that cannot start (no semaphores, fork
        failing) are the pool's failure: every task still runs, once,
        on the serial path."""
        global_recorder().enable("sweep")

        class CannotStart(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                if at == "init":
                    raise OSError("no semaphores")
                super().__init__(*args, **kwargs)

            def submit(self, *args, **kwargs):
                raise OSError("fork failed")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", CannotStart)
        results = run_tasks(_grid(4), jobs=2)
        assert results == [0.0, 2.0, 4.0, 6.0]
        assert global_registry().snapshot()["fallback/runs"] == 4
        assert len(global_recorder().events("sweep", "serial_fallback")) == 1
