"""Executor fallback correctness: per-task probes, resume-only-unfinished.

Two historical bugs, each with a failing-before/passing-after test here:

* ``_run_pending`` probed picklability only on ``tasks[pending[0]]``.
  One unpicklable task at the head demoted the *whole* sweep to serial;
  one anywhere else reached the pool and blew it up mid-batch.  Now
  every pending task is probed and only the unpicklable ones take the
  serial path.
* The serial fallback after a pool exception re-ran *every* pending
  index, including tasks the pool had already completed — whose shipped
  counter deltas and trace events were already merged into the parent
  registry, so the re-run double-merged both.  Now the fallback resumes
  only the unfinished indices.
"""

import os
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.experiments.parallel as parallel_mod
import repro.obs.counters as counters_mod
import repro.sim.trace as trace_mod
from repro.experiments.parallel import (
    SweepTask,
    _run_pending,
    _run_serial,
    resolve_policy,
    run_tasks,
)
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


def _boom_cell(x: float) -> float:
    """Always fails (module-level, so it passes the pickle probe)."""
    raise RuntimeError(f"x={x}")


def _append_cell(path: str, x: float) -> float:
    """Appends one line per execution — an exactly-once witness."""
    with open(path, "a") as handle:
        handle.write(f"{x}\n")
    return x


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


class TestPerTaskProbe:
    def test_unpicklable_mid_batch_runs_exactly_once(self, fresh_globals):
        """End-to-end: a lambda-carrying task at index 2 of 5, jobs=2.

        Before the fix this task reached the pool (only ``pending[0]``
        was probed) and killed the batch; now it runs serially alongside
        the pooled rest, every task exactly once.
        """
        results = run_tasks(_grid(5, unpicklable_at={2}), jobs=2)
        assert results == [0.0, 2.0, 4.0, 6.0, 8.0]
        assert global_registry().snapshot()["fallback/runs"] == 5

    def test_unpicklable_at_head_does_not_demote_the_pool(
        self, fresh_globals, monkeypatch
    ):
        """Old behavior: probe ``pending[0]``, unpicklable → all serial.

        Instrument ``_run_parallel`` to observe exactly which indices
        are pooled: with the bad task at index 0, the rest must still
        be handed to the pool.
        """
        pooled_batches = []

        def observing_parallel(tasks, pending, jobs, policy,
                               completed=None, failures=None, store=None):
            pooled_batches.append(list(pending))
            return _run_serial(tasks, pending, policy, completed, failures)

        monkeypatch.setattr(parallel_mod, "_run_parallel", observing_parallel)
        tasks = _grid(4, unpicklable_at={0})
        trace = _TraceStub()
        completed, failures = _run_pending(
            tasks, [0, 1, 2, 3], jobs=2, label="probe", trace=trace,
            policy=resolve_policy(on_error="record"),
        )
        assert pooled_batches == [[1, 2, 3]]  # index 0 stayed serial
        assert failures == []
        assert {i: v for i, (v, _) in completed.items()} == {
            0: 0.0, 1: 2.0, 2: 4.0, 3: 6.0,
        }
        assert global_registry().snapshot()["fallback/runs"] == 4

    def test_all_unpicklable_skips_the_pool_entirely(
        self, fresh_globals, monkeypatch
    ):
        def exploding_parallel(*args, **kwargs):
            raise AssertionError("pool must not be used")

        monkeypatch.setattr(parallel_mod, "_run_parallel", exploding_parallel)
        tasks = _grid(3, unpicklable_at={0, 1, 2})
        completed, failures = _run_pending(
            tasks, [0, 1, 2], jobs=4, label="allserial", trace=_TraceStub(),
            policy=resolve_policy(on_error="record"),
        )
        assert failures == []
        assert len(completed) == 3


class TestFallbackResumesOnlyUnfinished:
    def test_pool_partial_progress_is_not_rerun(self, tmp_path, monkeypatch):
        """The double-merge regression, made deterministic.

        A fake pool completes task 0 for real (file-append side effect,
        mimicking a worker whose result and deltas already shipped) and
        then dies of a result that will not pickle — the old fallback re-ran *all*
        pending indices, executing task 0 twice and double-merging its
        already-shipped deltas.  The witness file must show each task
        exactly once.
        """
        witness = str(tmp_path / "witness.log")
        tasks = [
            SweepTask(
                fn=_append_cell,
                kwargs={"path": witness, "x": float(i)},
                key=("once", i),
            )
            for i in range(4)
        ]

        def dying_parallel(tasks_, pending, jobs, policy,
                           completed=None, failures=None, store=None):
            _run_serial(tasks_, [pending[0]], policy, completed, failures)
            raise parallel_mod._ResultWontPickle("result will not pickle")

        monkeypatch.setattr(parallel_mod, "_run_parallel", dying_parallel)
        trace = _TraceStub()
        completed, failures = _run_pending(
            tasks, [0, 1, 2, 3], jobs=2, label="resume", trace=trace,
            policy=resolve_policy(on_error="record"),
        )
        assert failures == []
        assert sorted(completed) == [0, 1, 2, 3]
        with open(witness) as handle:
            lines = handle.read().split()
        assert sorted(lines) == ["0.0", "1.0", "2.0", "3.0"]  # exactly once
        # The fallback was recorded as a trace event with its reason.
        kinds = [args for args, _ in trace.events]
        assert ("sweep", "serial_fallback") in kinds

    def test_pool_partial_failures_are_not_recharged(self, monkeypatch):
        """A task the pool already *failed* must not be re-attempted
        either — its retry budget was spent and its failure recorded."""

        def dying_parallel(tasks_, pending, jobs, policy,
                           completed=None, failures=None, store=None):
            _run_serial(tasks_, pending[:2], policy, completed, failures)
            raise parallel_mod._ResultWontPickle("boom")

        tasks = [
            SweepTask(fn=_boom_cell, kwargs={"x": float(i)}, key=("fail", i))
            for i in range(3)
        ]
        monkeypatch.setattr(parallel_mod, "_run_parallel", dying_parallel)
        completed, failures = _run_pending(
            tasks, [0, 1, 2], jobs=2, label="failures", trace=_TraceStub(),
            policy=resolve_policy(on_error="record"),
        )
        assert completed == {}
        assert [f.index for f in failures] == [0, 1, 2]
        # One attempt each: the fallback did not re-run the pool's two.
        assert all(f.attempts == 1 for f in failures)


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


class TestTaskErrorsAreNotPoolFailures:
    @pytest.mark.parametrize("error", [TypeError, OSError])
    def test_own_exception_runs_once_without_fallback(
        self, tmp_path, fresh_globals, error
    ):
        """Raise mode, 2 workers: a task raising ``TypeError``/``OSError``
        used to be mistaken for a pool failure and re-run in-process by
        the serial fallback, which then blamed the pool."""
        global_recorder().enable("sweep")
        witness = str(tmp_path / "witness.log")
        tasks = [
            SweepTask(
                fn=_own_error_cell,
                kwargs={
                    "path": witness,
                    "x": float(i),
                    "error": error if i == 1 else None,
                },
                key=("own", i),
            )
            for i in range(3)
        ]
        with pytest.raises(error, match="own error at x=1.0"):
            run_tasks(tasks, jobs=2)
        with open(witness) as handle:
            assert handle.read().split().count("1.0") == 1
        assert global_recorder().events("sweep", "serial_fallback") == []

    @pytest.mark.parametrize("on_error", ["record", "raise"])
    def test_own_pickling_error_runs_once_without_fallback(
        self, tmp_path, fresh_globals, on_error
    ):
        """2 workers: a task raising ``pickle.PicklingError`` itself was
        taken for a result that will not pickle, so the serial fallback
        ran it a second time and blamed the pool."""
        global_recorder().enable("sweep")
        witness = str(tmp_path / "witness.log")
        tasks = [
            SweepTask(
                fn=_own_error_cell,
                kwargs={
                    "path": witness,
                    "x": float(i),
                    "error": pickle.PicklingError if i == 1 else None,
                },
                key=("own", i),
            )
            for i in range(3)
        ]
        if on_error == "raise":
            with pytest.raises(pickle.PicklingError, match="own error at x=1.0"):
                run_tasks(tasks, jobs=2, on_error=on_error)
        else:
            results = run_tasks(tasks, jobs=2, on_error=on_error)
            assert results == [0.0, None, 2.0]
            (failed,) = global_recorder().events("sweep", "task_failed")
            assert failed.get("kind") == "exception"
            assert "own error at x=1.0" in failed.get("error")
        with open(witness) as handle:
            assert handle.read().split().count("1.0") == 1
        assert global_recorder().events("sweep", "serial_fallback") == []

    def test_unpicklable_result_matches_serial_in_record_mode(
        self, fresh_globals
    ):
        """Record mode, 2 workers: a result holding a lock used to come
        back as ``None`` plus an ``exception`` failure, while ``jobs=1``
        returned it — the pool now hands such tasks to the serial path."""
        tasks = [
            SweepTask(fn=_lock_result_cell, kwargs={"x": float(i)}, key=("lock", i))
            for i in range(3)
        ]

        def shape(results):
            return [
                None if r is None else (r["x"], type(r["lock"])) for r in results
            ]

        serial = run_tasks(tasks, jobs=1, on_error="record")
        pooled = run_tasks(tasks, jobs=2, on_error="record")
        lock_type = type(threading.Lock())
        assert shape(serial) == [(float(i), lock_type) for i in range(3)]
        assert shape(pooled) == shape(serial)


class TestBreakDuringSubmission:
    @pytest.mark.parametrize("break_at", [1, 3, 6])
    def test_unsent_tasks_are_uncharged_victims(
        self, tmp_path, fresh_globals, monkeypatch, break_at
    ):
        """A worker dying while the batch is still being submitted makes
        ``submit`` raise ``BrokenProcessPool``; that used to escape
        ``run_tasks`` even in record mode."""
        calls = []

        class SubmitBreaks(ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                calls.append(None)
                if len(calls) == break_at:
                    raise BrokenProcessPool("a worker died mid-submission")
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", SubmitBreaks)
        witness = str(tmp_path / "witness.log")
        tasks = [
            SweepTask(
                fn=_append_cell,
                kwargs={"path": witness, "x": float(i)},
                key=("submit", i),
            )
            for i in range(6)
        ]
        results = run_tasks(tasks, jobs=2, retries=0, on_error="record")
        assert results == [float(i) for i in range(6)]
        with open(witness) as handle:
            lines = handle.read().split()
        assert sorted(lines) == [str(float(i)) for i in range(6)]  # exactly once
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
        results = run_tasks(_grid(4), jobs=2, on_error="record")
        assert results == [0.0, 2.0, 4.0, 6.0]
        assert global_registry().snapshot()["fallback/runs"] == 4
        assert len(global_recorder().events("sweep", "serial_fallback")) == 1
