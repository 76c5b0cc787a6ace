"""The on-disk sweep result cache: hits, invalidation, corruption tolerance.

The cache is keyed by a content fingerprint of the whole task (callable
identity + every keyword argument, with dataclasses like
``ScenarioParams`` canonicalised field-by-field).  The properties that
matter:

* a repeated identical sweep hits the cache and returns identical rows;
* changing *any* scenario knob — params field, seed, duration, topology
  argument — misses (stale results can never be served);
* a corrupted, truncated, or wrong-version cache file is just a miss:
  sweeps recompute, they never crash.
"""

import json
import os
import tempfile
import threading
import time

import pytest

import repro.obs.counters as counters_mod
from repro.experiments.parallel import (
    CACHE_VERSION,
    ResultCache,
    SweepTask,
    default_cache_dir,
    run_tasks,
)
from repro.experiments.params import testbed_params
from repro.experiments.runner import run_exposed_sweep
from repro.obs.counters import CounterRegistry
from repro.obs.manifest import load_manifest, manifest_sink

from tests.sweep_grids import ROOT, fig8_grid


def _double(x: float) -> float:
    return x * 2.0


def _task(x: float = 1.5) -> SweepTask:
    return SweepTask(fn=_double, kwargs={"x": x}, key=("double", x))


class TestHitMiss:
    def test_cold_then_warm(self, tmp_path, store_lookups):
        cache = ResultCache(str(tmp_path))
        tasks = [_task(1.0), _task(2.0)]
        first = run_tasks(tasks, cache=cache)
        assert first == [2.0, 4.0]
        assert (store_lookups.hits, store_lookups.misses) == (0, 2)
        second = run_tasks(tasks, cache=cache)
        assert second == first
        assert store_lookups.hits == 2

    def test_manifest_counts_only_its_own_sweep(self, tmp_path):
        """One store serves many sweeps; each manifest counts its own
        lookups (the lifetime totals used to leak into the warm one)."""
        cache = ResultCache(str(tmp_path / "store"))
        tasks = [_task(1.0), _task(2.0), _task(3.0)]
        for label in ("cold", "warm"):
            with manifest_sink(str(tmp_path)):
                run_tasks(tasks, cache=cache, label=label)
        cold = load_manifest(tmp_path / "cold.manifest.json")
        warm = load_manifest(tmp_path / "warm.manifest.json")
        assert (cold.cache_hits, cold.cache_misses) == (0, 3)
        assert (warm.cache_hits, warm.cache_misses) == (3, 0)

    def test_float_results_roundtrip_exactly(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        value = 1.0 / 3.0 + 1e-16
        task = _task(value)
        (cold,) = run_tasks([task], cache=cache)
        (warm,) = run_tasks([task], cache=cache)
        assert warm == cold
        assert warm.hex() == cold.hex()

    def test_cache_disabled_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        run_tasks([_task(3.0)])
        assert not os.listdir(tmp_path)

    def test_cache_enabled_via_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert default_cache_dir() == str(tmp_path)
        run_tasks([_task(3.0)])
        assert len(os.listdir(tmp_path)) == 1


class TestInvalidation:
    def test_every_scenario_params_field_invalidates(self, tmp_path):
        base = testbed_params()
        base_task = SweepTask(fn=_double, kwargs={"x": 1.0, "params": base})
        seen = {base_task.fingerprint()}
        # Perturb each scalar field one at a time; every perturbation
        # must produce a distinct fingerprint.
        perturbations = dict(
            alpha=base.alpha + 0.1,
            sigma_db=base.sigma_db + 1.0,
            tx_power_dbm=base.tx_power_dbm + 3.0,
            cs_threshold_dbm=base.cs_threshold_dbm + 1.0,
            cull_margin_db=10.0,
            shadowing_mode="none",
            data_rate_bps=54_000_000,
            default_payload_bytes=base.default_payload_bytes + 1,
        )
        for name, value in perturbations.items():
            changed = base.with_overrides(**{name: value})
            fp = SweepTask(fn=_double, kwargs={"x": 1.0, "params": changed}).fingerprint()
            assert fp not in seen, f"changing {name} did not invalidate the cache"
            seen.add(fp)

    def test_nested_comap_config_invalidates(self, tmp_path):
        from repro.core.config import CoMapConfig

        base = testbed_params()
        changed = base.with_overrides(comap=CoMapConfig(t_sir_db=6.0, sr_window=4))
        a = SweepTask(fn=_double, kwargs={"params": base}).fingerprint()
        b = SweepTask(fn=_double, kwargs={"params": changed}).fingerprint()
        assert a != b

    def test_seed_duration_and_fn_invalidate(self):
        a = SweepTask(fn=_double, kwargs={"x": 1.0, "seed": 1, "duration_s": 0.5})
        b = SweepTask(fn=_double, kwargs={"x": 1.0, "seed": 2, "duration_s": 0.5})
        c = SweepTask(fn=_double, kwargs={"x": 1.0, "seed": 1, "duration_s": 0.6})
        d = SweepTask(fn=_task, kwargs={"x": 1.0, "seed": 1, "duration_s": 0.5})
        prints = {t.fingerprint() for t in (a, b, c, d)}
        assert len(prints) == 4

    def test_error_model_identity_and_radius_invalidate(self):
        from repro.net.localization import GaussianError, UniformDiskError

        fps = {
            SweepTask(fn=_double, kwargs={"error_model": m}).fingerprint()
            for m in (None, UniformDiskError(10.0), UniformDiskError(5.0),
                      GaussianError(10.0))
        }
        assert len(fps) == 4


class TestCorruptionTolerance:
    def _poison(self, cache: ResultCache, task: SweepTask, payload: bytes) -> None:
        os.makedirs(cache.root, exist_ok=True)
        with open(cache.path_for(task.fingerprint()), "wb") as handle:
            handle.write(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            b"",                               # truncated to nothing
            b"{not json at all",               # syntactically broken
            b"[1, 2, 3]",                      # wrong shape
            b'{"version": 999, "result": 1}',  # future version
            b'{"version": 1}',                 # missing result
            b'\x80\x04\x95garbage',            # binary garbage
        ],
    )
    def test_corrupt_file_is_a_miss_not_a_crash(self, tmp_path, payload):
        cache = ResultCache(str(tmp_path))
        task = _task(4.0)
        self._poison(cache, task, payload)
        results = run_tasks([task], cache=cache)
        assert results == [8.0]
        # ... and the recompute repaired the entry.
        hit, value, _ = cache.get(task.fingerprint())
        assert hit and value == 8.0

    def test_wrong_key_field_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        task = _task(4.0)
        self._poison(
            cache,
            task,
            json.dumps(
                {
                    "version": CACHE_VERSION,
                    "key": "somebody-else",
                    "result": 1.0,
                    "counters": {},
                }
            ).encode(),
        )
        assert run_tasks([task], cache=cache) == [8.0]

    def test_unreadable_directory_never_crashes(self, tmp_path):
        missing = str(tmp_path / "does" / "not" / "exist")
        cache = ResultCache(missing)
        assert run_tasks([_task(5.0)], cache=cache) == [10.0]

    def test_non_json_result_simply_not_memoized(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        task = SweepTask(fn=complex, kwargs={"real": 1.0, "imag": 2.0})
        assert run_tasks([task], cache=cache) == [complex(1.0, 2.0)]
        hit, _, _ = cache.get(task.fingerprint())
        assert not hit

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_tasks([_task(1.0), _task(2.0)], cache=cache)
        assert cache.clear() == 2
        assert os.listdir(tmp_path) == []


class TestAtomicWrites:
    """``put`` is atomic: dying mid-write can never poison an entry."""

    #: A child process that is SIGKILLed at the worst possible instant —
    #: after the temp file is written and fsynced, just before the
    #: rename would publish it.  ``os.replace`` is patched to pull the
    #: trigger, so the payload definitely hit the disk first.
    _KILLED_MID_PUT = """
import os, signal
import repro.experiments.parallel as parallel

def _die(src, dst):
    os.kill(os.getpid(), signal.SIGKILL)

os.replace = _die
cache = parallel.ResultCache({root!r})
cache.put({digest!r}, [1.0, 2.0, 3.0], {{"demo/cells": 3}})
raise SystemExit("unreachable: the put above must have killed us")
"""

    def test_kill_mid_put_leaves_no_partial_entry(self, tmp_path):
        import subprocess
        import sys

        root = str(tmp_path)
        task = _task(6.0)
        digest = task.fingerprint()
        proc = subprocess.run(
            [sys.executable, "-c",
             self._KILLED_MID_PUT.format(root=root, digest=digest)],
            env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == -9, proc.stderr  # SIGKILL, not SystemExit
        # No .json was published: the final name never appeared, so a
        # later reader sees a clean miss, not a truncated entry.
        names = os.listdir(root)
        assert not any(name.endswith(".json") for name in names)
        cache = ResultCache(root)
        hit, _, _ = cache.get(digest)
        assert not hit
        # The only debris is the orphaned temp file.  A *fresh* .tmp
        # could belong to a live concurrent writer, so clear() leaves
        # it alone until it outlives the orphan-age guard...
        orphans = [name for name in names if name.endswith(".tmp")]
        assert len(orphans) == 1
        assert cache.clear() == 0
        assert os.listdir(root) == names
        # ...after which it is reaped without counting as an entry.
        stale = time.time() - 2 * ResultCache.ORPHAN_AGE_S
        os.utime(os.path.join(root, orphans[0]), (stale, stale))
        assert cache.clear() == 0
        assert os.listdir(root) == []
        # And the cache still works afterwards.
        cache.put(digest, [4.0], {})
        hit, value, _ = cache.get(digest)
        assert hit and value == [4.0]


class TestClearOrphanAgeGuard:
    """``clear()`` must never reap a live concurrent writer's temp file.

    Sweeps in several processes may share one store; a ``.tmp`` that
    is *currently* between ``mkstemp`` and ``os.replace`` belongs to one
    of them.  The old ``clear()`` unlinked every ``.tmp`` it saw,
    making the writer's rename fail and silently dropping the entry.
    """

    def test_fresh_tmp_survives_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_tasks([_task(1.0)], cache=cache)
        fd, tmp = tempfile.mkstemp(dir=str(tmp_path), suffix=".tmp")
        os.close(fd)
        assert cache.clear() == 1  # the .json entry goes...
        assert os.listdir(tmp_path) == [os.path.basename(tmp)]  # ...tmp stays

    def test_stale_tmp_is_reaped(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        fd, tmp = tempfile.mkstemp(dir=str(tmp_path), suffix=".tmp")
        os.close(fd)
        stale = time.time() - 2 * ResultCache.ORPHAN_AGE_S
        os.utime(tmp, (stale, stale))
        assert cache.clear() == 0
        assert os.listdir(tmp_path) == []

    def test_explicit_age_overrides_default(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        fd, _ = tempfile.mkstemp(dir=str(tmp_path), suffix=".tmp")
        os.close(fd)
        assert cache.clear(orphan_age_s=0.0) == 0
        assert os.listdir(tmp_path) == []

    def test_concurrent_writer_mid_put_survives_clear(self, tmp_path, monkeypatch):
        """Deterministic interleaving: clear() lands mid-``put``.

        A writer thread is paused between writing its temp file and the
        publishing ``os.replace``; ``clear()`` runs in that window.  The
        entry must still be published and readable afterwards — before
        the age guard, clear() deleted the temp file and the writer's
        rename died in ``put``'s best-effort ``except OSError``, losing
        the entry without a trace.
        """
        import repro.experiments.parallel as parallel

        cache = ResultCache(str(tmp_path))
        task = _task(7.0)
        digest = task.fingerprint()
        tmp_written = threading.Event()
        clear_done = threading.Event()
        real_replace = os.replace

        def paused_replace(src, dst):
            tmp_written.set()
            assert clear_done.wait(timeout=10.0)
            real_replace(src, dst)

        monkeypatch.setattr(parallel.os, "replace", paused_replace)
        writer = threading.Thread(target=cache.put, args=(digest, [1.0, 2.0], {}))
        writer.start()
        try:
            assert tmp_written.wait(timeout=10.0)
            # The writer is mid-put: its .tmp exists but is not renamed.
            assert any(n.endswith(".tmp") for n in os.listdir(tmp_path))
            cache.clear()
            # The live temp file survived the concurrent clear().
            assert any(n.endswith(".tmp") for n in os.listdir(tmp_path))
        finally:
            clear_done.set()
            writer.join(timeout=10.0)
        assert not writer.is_alive()
        hit, value, _ = cache.get(digest)
        assert hit and value == [1.0, 2.0]


class TestEndToEndSweepCaching:
    def test_cached_sweep_is_bit_identical(self, tmp_path, store_lookups):
        cache = ResultCache(str(tmp_path))
        kwargs = dict(
            positions_m=[26.0], mac_kinds=("dcf",), duration_s=0.15,
            repeats=2, seed=9,
        )
        cold = run_exposed_sweep(cache=cache, **kwargs)
        assert store_lookups.misses == 2 and store_lookups.hits == 0
        warm = run_exposed_sweep(cache=cache, **kwargs)
        assert store_lookups.hits == 2
        assert [(p.x, p.goodput_mbps) for p in cold] == [
            (p.x, p.goodput_mbps) for p in warm
        ]

    def test_warm_manifest_counts_what_the_cold_one_did(
        self, tmp_path, monkeypatch
    ):
        """Hits replay the counter deltas their tasks added, so a warm
        sweep's manifest counts what the cold sweep's did (it used to
        count nothing)."""
        cache = ResultCache(str(tmp_path / "store"))
        tasks = fig8_grid(positions_m=(12.5, 27.5), duration_s=0.02)
        manifests = {}
        for label in ("cold", "warm"):
            monkeypatch.setattr(counters_mod, "_global_registry", CounterRegistry())
            with manifest_sink(str(tmp_path)):
                run_tasks(tasks, cache=cache, label=label)
            manifests[label] = load_manifest(tmp_path / f"{label}.manifest.json")
        cold, warm = manifests["cold"], manifests["warm"]
        assert warm.cache_hits == len(tasks)
        assert any(key.startswith("node/") for key in cold.counters)
        assert warm.counters == cold.counters

    def test_different_seed_misses(self, tmp_path, store_lookups):
        cache = ResultCache(str(tmp_path))
        kwargs = dict(
            positions_m=[26.0], mac_kinds=("dcf",), duration_s=0.15, repeats=1
        )
        run_exposed_sweep(cache=cache, seed=1, **kwargs)
        run_exposed_sweep(cache=cache, seed=2, **kwargs)
        assert store_lookups.hits == 0
        assert store_lookups.misses == 2
