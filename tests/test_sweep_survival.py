"""One failure rule for sweeps: a task's error fails the sweep.

A sweep task is a pure function of its record, so a task that raised
would raise again: ``run_tasks`` propagates its own exception as raised,
serial or pooled, and the store resumes the sweep once the cause is
fixed.  What a sweep survives is its pool's trouble, not a task's: a
worker that dies respawns the pool and the unfinished tasks run again,
bit-identically, until the third break in one sweep raises.
"""

import json
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import runner
from repro.experiments.parallel import ResultCache, SweepTask, run_tasks
from repro.obs import manifest as obs_manifest
from repro.util.rng import derive_seed

from tests.sweep_grids import ROOT, child_env, survivors


# ----------------------------------------------------------------------
# Module-level task callables (must pickle by reference)
# ----------------------------------------------------------------------
def seeded_value(base_seed=0, key=(), seed=None):
    """Deterministic result derived the way real sweep tasks derive it."""
    return derive_seed(base_seed, *key) % 1_000_003


def raiser(seed=0):
    raise RuntimeError("injected task failure")


def worker_killer(path, seed=0):
    """Kills the process it runs in, after noting the attempt."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("attempt\n")
    os._exit(13)


def dies_once(marker, seed=0, key=()):
    """Kills its worker the first time it runs, then succeeds."""
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write("died")
        os._exit(13)
    return seeded_value(base_seed=seed, key=key)


def flaky_once(marker, seed=0, key=()):
    """Fails the first time it runs, then succeeds deterministically."""
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write("attempted")
        raise RuntimeError("transient failure")
    return seeded_value(base_seed=seed, key=key)


def record_pid_then_sleep(path, seconds, i=0):
    """Notes the executing process's PID, then naps."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(f"{os.getpid()}\n")
    time.sleep(seconds)
    return i


def witnessed(path, x, fail=False, nap_s=0.0):
    """Appends one line per execution, then raises when ``fail``, else
    naps ``nap_s`` seconds."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(f"{x}\n")
    if fail:
        raise RuntimeError(f"injected failure at x={x}")
    time.sleep(nap_s)
    return x


def _ok_task(i):
    return SweepTask(
        fn=seeded_value, kwargs={"base_seed": 7, "key": ("ok", i)}, key=("ok", i)
    )


def _flaky_task(marker):
    key = ("flaky", 4)
    return SweepTask(
        fn=flaky_once, kwargs={"marker": marker, "seed": 11, "key": key}, key=key
    )


def _executions(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read().split()


class TestPolicy:
    def test_defaults_preserve_old_contract(self, tmp_path, monkeypatch):
        """No timeout and no retry, whatever the environment: the retired
        ``REPRO_TASK_TIMEOUT_S`` and ``REPRO_TASK_RETRIES`` change nothing."""
        monkeypatch.setenv("REPRO_TASK_TIMEOUT_S", "0.01")
        monkeypatch.setenv("REPRO_TASK_RETRIES", "3")
        with pytest.raises(RuntimeError, match="transient failure"):
            run_tasks([_flaky_task(str(tmp_path / "attempted.marker"))], jobs=1)
        nap = SweepTask(
            fn=record_pid_then_sleep,
            kwargs={"path": str(tmp_path / "pids.log"), "seconds": 0.05},
        )
        assert run_tasks([nap], jobs=1) == [0]


class TestSweepSurvival:
    def test_default_raise_mode_propagates(self, tmp_path):
        """Serial: the task's own error reaches the caller after one run,
        and the tasks after it never start."""
        witness = str(tmp_path / "witness.log")
        tasks = [
            SweepTask(
                fn=witnessed,
                kwargs={"path": witness, "x": float(i), "fail": i == 1},
                key=("w", i),
            )
            for i in range(3)
        ]
        with pytest.raises(RuntimeError, match="injected failure at x=1.0"):
            run_tasks(tasks, jobs=1)
        assert _executions(witness) == ["0.0", "1.0"]

    def test_task_error_starts_no_queued_task(self, tmp_path):
        """2 workers: once a task's error is raised, no queued task
        starts; the pool used to run the rest of the sweep in the
        background, discarding every result, and process exit waited."""
        witness = str(tmp_path / "witness.log")
        tasks = [
            SweepTask(
                fn=witnessed,
                kwargs={"path": witness, "x": float(i), "fail": i == 0,
                        "nap_s": 0.05},
                key=("w", i),
            )
            for i in range(20)
        ]
        with pytest.raises(RuntimeError, match="injected failure at x=0.0"):
            run_tasks(tasks, jobs=2)
        time.sleep(1.0)  # the whole queue runs in about 0.5 s
        # Task 0, plus what the two workers and the call queue held.
        assert len(_executions(witness)) < 10

    def test_retry_reproduces_bit_identically(self, tmp_path):
        """The retry is the caller's: the same task record, run again,
        derives the same seed and the same result as a direct run."""
        task = _flaky_task(str(tmp_path / "attempted.marker"))
        with pytest.raises(RuntimeError, match="transient failure"):
            run_tasks([task], jobs=1)
        assert run_tasks([task], jobs=1) == [
            seeded_value(base_seed=11, key=("flaky", 4))
        ]

    def test_worker_death_does_not_abort_sweep(self, tmp_path):
        """A worker dying once respawns the pool; the unfinished tasks
        run again and the results equal a serial run's."""
        tasks = [
            _ok_task(0),
            SweepTask(
                fn=dies_once,
                kwargs={"marker": str(tmp_path / "died.marker"), "seed": 3,
                        "key": ("die",)},
                key=("die",),
            ),
            _ok_task(1),
            _ok_task(2),
        ]
        pooled = run_tasks(tasks, jobs=2)
        assert os.path.exists(tmp_path / "died.marker")
        assert pooled == run_tasks(tasks, jobs=1)
        assert pooled[1] == seeded_value(base_seed=3, key=("die",))

    def test_worker_killer_breaks_the_sweep(self, tmp_path):
        """Two breaks are survived; the third raises ``BrokenProcessPool``."""
        attempts = str(tmp_path / "attempts.log")
        tasks = [
            _ok_task(0),
            SweepTask(fn=worker_killer, kwargs={"path": attempts}, key=("die",)),
            _ok_task(1),
        ]
        with pytest.raises(BrokenProcessPool):
            run_tasks(tasks, jobs=2)
        assert len(_executions(attempts)) == 3

    def test_failures_are_never_cached(self, tmp_path, store_lookups):
        """The tasks before a failure are stored; the failed one is not,
        so a re-run hits the former and fails on the latter again."""
        cache = ResultCache(root=str(tmp_path / "cache"))
        tasks = [_ok_task(0), SweepTask(fn=raiser, key=("boom",))]
        with pytest.raises(RuntimeError, match="injected task failure"):
            run_tasks(tasks, jobs=1, cache=cache)
        assert (store_lookups.hits, store_lookups.misses) == (0, 2)
        assert os.listdir(cache.root) == [f"{tasks[0].fingerprint()}.json"]
        with pytest.raises(RuntimeError, match="injected task failure"):
            run_tasks(tasks, jobs=1, cache=cache)
        assert (store_lookups.hits, store_lookups.misses) == (1, 3)

    def test_runner_raises_the_task_error_whatever_the_env(self, monkeypatch):
        """A runner regroups every task's result, so it must see a failed
        cell's own error: ``REPRO_ON_ERROR=record`` used to hand it a
        ``None``, and the sweep died of a ``TypeError`` in the regroup."""
        goodput = runner._exposed_goodput

        def fail_one_cell(**kwargs):
            if kwargs["c2_x"] == 26.0:
                raise RuntimeError("injected cell failure")
            return goodput(**kwargs)

        monkeypatch.setenv("REPRO_ON_ERROR", "record")
        monkeypatch.setattr(runner, "_exposed_goodput", fail_one_cell)
        with pytest.raises(RuntimeError, match="injected cell failure"):
            runner.run_exposed_sweep(
                [22.0, 26.0], duration_s=0.02, repeats=1, seed=1, jobs=1
            )

    def test_manifest_omits_failures_in_raise_mode(self, tmp_path):
        """A manifest has no ``failures`` field: a sweep that wrote one
        had no failure."""
        with obs_manifest.manifest_sink(str(tmp_path)):
            run_tasks([_ok_task(0)], jobs=1, label="clean")
        with open(tmp_path / "clean.manifest.json", "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        obs_manifest.validate_manifest(manifest)
        assert "failures" not in manifest


class TestParentDeath:
    def test_pool_workers_exit_with_a_killed_sweep(self, tmp_path):
        """A SIGKILLed sweep cannot shut its pool down; its workers used
        to live on as orphans, holding open every pipe it held."""
        pid_log = tmp_path / "pids.log"
        script = (
            "from repro.experiments.parallel import SweepTask, run_tasks\n"
            "from tests.test_sweep_survival import record_pid_then_sleep\n"
            "run_tasks([SweepTask(fn=record_pid_then_sleep, "
            f"kwargs={{'path': {str(pid_log)!r}, 'seconds': 0.3, 'i': i}}, "
            "key=('nap', i)) for i in range(8)], jobs=2)\n"
        )
        sweep = subprocess.Popen(
            [sys.executable, "-c", script], env=child_env(), cwd=ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        workers = set()
        try:
            deadline = time.monotonic() + 60.0
            while len(workers) < 2 and time.monotonic() < deadline:
                assert sweep.poll() is None, "the sweep ended before both workers ran"
                time.sleep(0.02)
                if pid_log.exists():
                    workers = {int(pid) for pid in pid_log.read_text().split()}
        finally:
            sweep.send_signal(signal.SIGKILL)
            sweep.wait(timeout=60)
        assert len(workers) == 2
        assert survivors(sorted(workers), within_s=10.0) == []
