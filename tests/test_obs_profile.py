"""The profiling harness: knob parsing, block shape, manifest wiring."""

import math
import os
import sys

import pytest

from repro.experiments.parallel import SweepTask, run_tasks
from repro.obs.manifest import load_manifest, manifest_sink
from repro.obs.profile import (
    PROFILE_ENV,
    TOP,
    Profiler,
    maybe_profiler,
    profiling_enabled,
)


# ----------------------------------------------------------------------
# Knob parsing
# ----------------------------------------------------------------------
class TestKnob:
    @pytest.mark.parametrize("value", ["1", "true", "yes", "on"])
    def test_truthy(self, monkeypatch, value):
        monkeypatch.setenv(PROFILE_ENV, value)
        assert profiling_enabled() is True
        assert maybe_profiler() is not None

    @pytest.mark.parametrize("value", ["", "0", "false", "no", "off"])
    def test_falsy(self, monkeypatch, value):
        monkeypatch.setenv(PROFILE_ENV, value)
        assert profiling_enabled() is False
        assert maybe_profiler() is None

    def test_unset_is_off(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        assert profiling_enabled() is False


# ----------------------------------------------------------------------
# Block shape
# ----------------------------------------------------------------------
def _busy_work():
    return sum(math.sqrt(i) for i in range(20_000))


def _profile(work, *args):
    """A plain profiler started and stopped around one call."""
    prof = Profiler()
    prof.start()
    try:
        work(*args)
    finally:
        prof.stop()
    return prof


class TestProfilerBlock:
    def test_block_has_phases_and_top(self):
        prof = _profile(_busy_work)
        prof.add_phase("work", 0.5)
        block = prof.as_block()
        assert block["wall_s"] > 0.0
        assert block["phases"] == [{"name": "work", "wall_s": 0.5}]
        assert isinstance(block["top"], list)
        if "error" not in block:  # an outer profiler may preempt cProfile
            assert block["top"], "expected a non-empty cumulative table"
            row = block["top"][0]
            assert set(row) == {
                "function", "calls", "primitive_calls", "tottime_s", "cumtime_s",
            }
            assert row["cumtime_s"] >= row["tottime_s"] >= 0.0

    def test_top_table_sorted_by_cumtime(self):
        top = _profile(_busy_work).top_functions()
        if top:
            cums = [row["cumtime_s"] for row in top]
            assert cums == sorted(cums, reverse=True)

    def test_top_limit_respected(self):
        # A serial sweep calls far more than TOP distinct functions.
        prof = _profile(run_tasks, _make_tasks(), 1)
        if "error" not in prof.as_block():
            assert len(prof.top_functions()) == TOP

    def test_add_phase_and_stop_idempotent(self):
        prof = Profiler()
        prof.start()
        prof.stop()
        prof.stop()
        prof.add_phase("late", 1.25)
        block = prof.as_block()
        assert block["phases"] == [{"name": "late", "wall_s": 1.25}]

    def test_nested_profiler_degrades_gracefully(self):
        outer = Profiler()
        outer.start()
        try:
            block = _profile(_busy_work).as_block()
        finally:
            outer.stop()
        # Whichever of the two lost the race, neither may crash, and the
        # loser must carry an explanatory note with an empty table.
        if "error" in block:
            assert block["top"] == []
        assert "phases" in block and "top" in block
        assert "top" in outer.as_block()


# ----------------------------------------------------------------------
# Manifest wiring through run_tasks
# ----------------------------------------------------------------------
def _profile_task(x: int, seed: int = 0) -> int:
    """Module-level (picklable) task."""
    return x * 2 + seed


def _make_tasks(n=4):
    return [
        SweepTask(fn=_profile_task, kwargs={"x": x, "seed": 1}, key=("p", x))
        for x in range(n)
    ]


def _manifest_for(tmp_path, label):
    return load_manifest(os.path.join(str(tmp_path), f"{label}.manifest.json"))


class TestManifestProfileBlock:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_profile_block_written(self, tmp_path, monkeypatch, jobs):
        monkeypatch.setenv(PROFILE_ENV, "1")
        label = f"prof_sweep_j{jobs}"
        with manifest_sink(str(tmp_path)):
            results = run_tasks(_make_tasks(), jobs=jobs, label=label)
        assert results == [1, 3, 5, 7]
        manifest = _manifest_for(tmp_path, label)
        block = manifest.profile
        assert block is not None
        phase_names = [p["name"] for p in block["phases"]]
        assert phase_names == ["cache_scan", "execute"]
        assert all(p["wall_s"] >= 0.0 for p in block["phases"])
        assert isinstance(block["top"], list)
        if "error" not in block:
            assert block["top"]

    def test_disabled_leaves_profile_none(self, tmp_path, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        with manifest_sink(str(tmp_path)):
            run_tasks(_make_tasks(), jobs=1, label="noprof_sweep")
        manifest = _manifest_for(tmp_path, "noprof_sweep")
        assert manifest.profile is None

    def test_old_manifests_still_validate(self, tmp_path, monkeypatch):
        # The profile field is optional: a manifest without it (as every
        # pre-profile archive is) must load unchanged.
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        with manifest_sink(str(tmp_path)):
            run_tasks(_make_tasks(), jobs=1, label="legacy_sweep")
        path = os.path.join(str(tmp_path), "legacy_sweep.manifest.json")
        import json

        with open(path) as handle:
            payload = json.load(handle)
        payload.pop("profile", None)
        with open(path, "w") as handle:
            json.dump(payload, handle)
        assert load_manifest(path).profile is None


def _failing_task() -> None:
    """Module-level task whose own error fails the sweep."""
    raise ZeroDivisionError("task error")


class _FailingStore:
    """A result store whose lookup raises during the cache scan."""

    def get(self, fingerprint):
        raise OSError("store unreadable")


class TestFailedSweepStopsProfiler:
    """A sweep that raises leaves no profiler installed behind it."""

    def test_task_error(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, "1")
        before = sys.getprofile()
        with pytest.raises(ZeroDivisionError):
            run_tasks([SweepTask(fn=_failing_task)], jobs=1, label="boom")
        assert sys.getprofile() is before

    def test_cache_scan_error(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, "1")
        before = sys.getprofile()
        with pytest.raises(OSError):
            run_tasks(_make_tasks(1), jobs=1, cache=_FailingStore(), label="boom")
        assert sys.getprofile() is before
