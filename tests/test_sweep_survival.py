"""Crash-tolerant sweep execution: timeouts, retries, dying workers.

One raising task, one hanging task, or one worker-killing task must not
abort a sweep: with ``on_error="record"`` every other task completes,
the failures land as structured entries in the trace and run manifest,
and a retried deterministic task reproduces its result bit-identically
(same task record → same derived seed → same simulation).
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments import runner
from repro.experiments.parallel import (
    RETRIES_ENV,
    TIMEOUT_ENV,
    FailurePolicy,
    SweepTask,
    TaskTimeout,
    _alarm,
    resolve_policy,
    run_tasks,
)
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


def hanger(seed=0):
    time.sleep(60)
    return "never"


def worker_killer(seed=0):
    os._exit(13)


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


def _ok_task(i):
    return SweepTask(
        fn=seeded_value, kwargs={"base_seed": 7, "key": ("ok", i)}, key=("ok", i)
    )


# ----------------------------------------------------------------------
# Policy resolution
# ----------------------------------------------------------------------
class TestPolicy:
    def test_defaults_preserve_old_contract(self, monkeypatch):
        for env in (TIMEOUT_ENV, RETRIES_ENV):
            monkeypatch.delenv(env, raising=False)
        policy = resolve_policy()
        assert policy == FailurePolicy(timeout_s=None, retries=0, on_error="raise")

    def test_env_backfill(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "2.5")
        monkeypatch.setenv(RETRIES_ENV, "3")
        policy = resolve_policy()
        assert policy == FailurePolicy(timeout_s=2.5, retries=3, on_error="raise")

    def test_arguments_win_over_env(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "2.5")
        policy = resolve_policy(timeout_s=9.0, retries=1, on_error="record")
        assert policy.timeout_s == 9.0

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            resolve_policy(on_error="explode")
        with pytest.raises(ValueError, match="timeout_s"):
            resolve_policy(timeout_s=-1.0)

    def test_alarm_raises_task_timeout(self):
        with pytest.raises(TaskTimeout):
            with _alarm(0.05):
                time.sleep(5)

    def test_alarm_noop_without_limit(self):
        with _alarm(None):
            pass
        with _alarm(0):
            pass


# ----------------------------------------------------------------------
# The acceptance scenario: raise + hang, everything else completes
# ----------------------------------------------------------------------
class TestSweepSurvival:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raise_and_timeout_recorded_not_fatal(self, jobs, tmp_path):
        tasks = [
            _ok_task(0),
            SweepTask(fn=raiser, kwargs={}, key=("boom",)),
            SweepTask(fn=hanger, kwargs={}, key=("hang",)),
            _ok_task(1),
            _ok_task(2),
        ]
        with obs_manifest.manifest_sink(str(tmp_path)):
            results = run_tasks(
                tasks,
                jobs=jobs,
                label=f"survival_j{jobs}",
                timeout_s=1.0,
                retries=0,
                on_error="record",
            )
        # The healthy tasks completed with their deterministic values...
        assert results[0] == seeded_value(7, ("ok", 0))
        assert results[3] == seeded_value(7, ("ok", 1))
        assert results[4] == seeded_value(7, ("ok", 2))
        # ...and both failures are recorded, not fatal.
        assert results[1] is None and results[2] is None
        manifests = [
            name
            for name in os.listdir(tmp_path)
            if name.endswith(".manifest.json")
        ]
        assert len(manifests) == 1
        with open(tmp_path / manifests[0], "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        obs_manifest.validate_manifest(manifest)
        failures = {tuple(f["key"]): f for f in manifest["failures"]}
        assert failures[("boom",)]["kind"] == "exception"
        assert "injected task failure" in failures[("boom",)]["error"]
        assert failures[("hang",)]["kind"] == "timeout"
        assert failures[("boom",)]["attempts"] == 1

    def test_default_raise_mode_propagates(self):
        tasks = [SweepTask(fn=raiser, kwargs={}, key=("boom",))]
        with pytest.raises(RuntimeError, match="injected task failure"):
            run_tasks(tasks, jobs=1)

    def test_retry_reproduces_bit_identically(self, tmp_path):
        marker = str(tmp_path / "attempted.marker")
        key = ("flaky", 4)
        task = SweepTask(
            fn=flaky_once,
            kwargs={"marker": marker, "seed": 11, "key": key},
            key=key,
        )
        results = run_tasks([task], jobs=1, retries=1, on_error="record")
        # Second attempt succeeded and matches a fresh direct execution
        # of the same task record exactly.
        assert results[0] == seeded_value(base_seed=11, key=key)
        assert os.path.exists(marker)

    def test_retries_exhausted_still_recorded(self, tmp_path):
        tasks = [SweepTask(fn=raiser, kwargs={}, key=("boom",)), _ok_task(0)]
        with obs_manifest.manifest_sink(str(tmp_path)):
            results = run_tasks(
                tasks, jobs=1, label="exhausted", retries=2, on_error="record"
            )
        assert results[0] is None
        assert results[1] == seeded_value(7, ("ok", 0))
        manifest_name = [
            n for n in os.listdir(tmp_path) if n.endswith(".manifest.json")
        ][0]
        with open(tmp_path / manifest_name, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["failures"][0]["attempts"] == 3  # 1 try + 2 retries

    def test_worker_death_does_not_abort_sweep(self, tmp_path):
        tasks = [
            _ok_task(0),
            SweepTask(fn=worker_killer, kwargs={}, key=("die",)),
            _ok_task(1),
            _ok_task(2),
        ]
        with obs_manifest.manifest_sink(str(tmp_path)):
            results = run_tasks(
                tasks, jobs=2, label="broken_pool", retries=0, on_error="record"
            )
        assert results[0] == seeded_value(7, ("ok", 0))
        assert results[2] == seeded_value(7, ("ok", 1))
        assert results[3] == seeded_value(7, ("ok", 2))
        assert results[1] is None
        manifest_name = [
            n for n in os.listdir(tmp_path) if n.endswith(".manifest.json")
        ][0]
        with open(tmp_path / manifest_name, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        kinds = {tuple(f["key"]): f["kind"] for f in manifest["failures"]}
        assert kinds == {("die",): "broken_pool"}

    def test_failures_are_never_cached(self, tmp_path, store_lookups):
        from repro.experiments.parallel import ResultCache

        cache = ResultCache(root=str(tmp_path / "cache"))
        tasks = [SweepTask(fn=raiser, kwargs={}, key=("boom",)), _ok_task(0)]
        results = run_tasks(
            tasks, jobs=1, cache=cache, retries=0, on_error="record"
        )
        assert results[0] is None
        assert (store_lookups.hits, store_lookups.misses) == (0, 2)
        # Re-running hits the cache only for the healthy task.
        run_tasks(tasks, jobs=1, cache=cache, retries=0, on_error="record")
        assert (store_lookups.hits, store_lookups.misses) == (1, 3)

    def test_runner_raises_the_task_error_whatever_the_env(self, monkeypatch):
        """A runner regroups every task's result, so it runs in raise
        mode: ``REPRO_ON_ERROR=record`` used to hand it a failed cell's
        ``None``, and the sweep died of a ``TypeError`` in the regroup
        instead of the cell's own error."""
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
        with obs_manifest.manifest_sink(str(tmp_path)):
            run_tasks([_ok_task(0)], jobs=1, label="clean")
        manifest_name = [
            n for n in os.listdir(tmp_path) if n.endswith(".manifest.json")
        ][0]
        with open(tmp_path / manifest_name, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["failures"] is None

    def test_record_mode_writes_empty_failures_list(self, tmp_path):
        with obs_manifest.manifest_sink(str(tmp_path)):
            run_tasks([_ok_task(0)], jobs=1, label="clean", on_error="record")
        manifest_name = [
            n for n in os.listdir(tmp_path) if n.endswith(".manifest.json")
        ][0]
        with open(tmp_path / manifest_name, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["failures"] == []


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
