"""Run manifests (repro.obs.manifest)."""

import dataclasses
import json
import os

import pytest

import repro.obs.counters as counters_mod
from repro.experiments.parallel import (
    CACHE_VERSION,
    ResultCache,
    SweepTask,
    run_tasks,
    split_common_params,
)
from repro.obs.counters import CounterRegistry, global_registry
from repro.obs.manifest import (
    MANIFEST_DIR_ENV,
    MANIFEST_SCHEMA,
    MANIFEST_SCHEMA_VERSION,
    ManifestError,
    RunManifest,
    active_manifest_dir,
    build_manifest,
    current_git_sha,
    jsonable,
    load_manifest,
    manifest_sink,
    validate_manifest,
    write_manifest,
)


def make_manifest(**overrides):
    base = dict(
        label="fig1",
        created_unix=1700000000.0,
        wall_s=1.5,
        jobs=2,
        tasks=[{"key": ["fig1", 0], "seed": 3, "fingerprint": "abc"}],
        params={"seed": 3},
        seeds=[3],
        counters={"mac/data_transmissions": 10},
        trace_counts={"sweep/task_run": 1},
    )
    base.update(overrides)
    return RunManifest(**base)


class TestWriteLoadValidate:
    def test_round_trip(self, tmp_path):
        manifest = make_manifest()
        path = write_manifest(manifest, tmp_path)
        assert os.path.basename(path) == "fig1.manifest.json"
        loaded = load_manifest(path)
        assert loaded == manifest

    def test_written_document_carries_schema(self, tmp_path):
        path = write_manifest(make_manifest(), tmp_path)
        with open(path) as handle:
            obj = json.load(handle)
        assert obj["schema"] == MANIFEST_SCHEMA
        assert obj["version"] == MANIFEST_SCHEMA_VERSION

    def test_label_sanitized_for_filename(self, tmp_path):
        path = write_manifest(make_manifest(label="fig 1/exposed"), tmp_path)
        assert os.path.basename(path) == "fig_1_exposed.manifest.json"

    def test_missing_field_rejected(self):
        obj = make_manifest().to_dict()
        del obj["seeds"]
        with pytest.raises(ManifestError, match="seeds"):
            validate_manifest(obj)

    def test_wrong_type_rejected(self):
        obj = make_manifest().to_dict()
        obj["jobs"] = "two"
        with pytest.raises(ManifestError, match="jobs"):
            validate_manifest(obj)

    def test_foreign_schema_rejected(self):
        obj = make_manifest().to_dict()
        obj["schema"] = "something.else"
        with pytest.raises(ManifestError, match="not a repro.manifest"):
            validate_manifest(obj)

    def test_version_mismatch_rejected(self):
        obj = make_manifest().to_dict()
        obj["version"] = 99
        with pytest.raises(ManifestError, match="version"):
            validate_manifest(obj)

    def test_task_without_fingerprint_rejected(self):
        obj = make_manifest(tasks=[{"key": [1]}]).to_dict()
        with pytest.raises(ManifestError, match="fingerprint"):
            validate_manifest(obj)

    def test_unreadable_file_rejected(self, tmp_path):
        path = tmp_path / "bad.manifest.json"
        path.write_text("not json")
        with pytest.raises(ManifestError, match="unreadable"):
            load_manifest(path)


class TestSink:
    def test_inactive_by_default(self, monkeypatch):
        monkeypatch.delenv(MANIFEST_DIR_ENV, raising=False)
        assert active_manifest_dir() is None

    def test_env_knob(self, monkeypatch, tmp_path):
        monkeypatch.setenv(MANIFEST_DIR_ENV, str(tmp_path))
        assert active_manifest_dir() == str(tmp_path)

    def test_context_manager_wins_over_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(MANIFEST_DIR_ENV, "/somewhere/else")
        with manifest_sink(str(tmp_path)):
            assert active_manifest_dir() == str(tmp_path)
        assert active_manifest_dir() == "/somewhere/else"

    def test_empty_sink_disables_writing(self, monkeypatch):
        monkeypatch.setenv(MANIFEST_DIR_ENV, "/somewhere/else")
        with manifest_sink(""):
            assert active_manifest_dir() is None


class TestProvenanceHelpers:
    def test_current_git_sha_in_repo(self):
        sha = current_git_sha(os.path.dirname(__file__))
        # The repo is git-initialised; tolerate git being absent.
        assert sha is None or (len(sha) == 40 and set(sha) <= set("0123456789abcdef"))

    def test_jsonable_scalars_pass_through(self):
        assert jsonable(None) is None
        assert jsonable(3) == 3
        assert jsonable("x") == "x"

    def test_jsonable_dataclass(self):
        @dataclasses.dataclass
        class Cfg:
            radius: float = 10.0

        out = jsonable({"error_model": Cfg(), "seeds": (1, 2)})
        assert out["error_model"]["radius"] == 10.0
        assert out["error_model"]["__type__"].endswith("Cfg")
        assert out["seeds"] == [1, 2]
        json.dumps(out)  # must always be serializable

    def test_jsonable_callable_and_fallback(self):
        out = jsonable(make_manifest)
        assert "make_manifest" in out
        assert isinstance(jsonable(object()), str)

    def test_jsonable_plain_object_renders_its_fields(self):
        """A plain config object used to render as its ``repr``, memory
        address included, so two runs' manifests could never agree."""
        from repro.net.localization import UniformDiskError

        out = jsonable(UniformDiskError(10.0))
        assert out == {"radius_m": 10.0, "__type__": "UniformDiskError"}
        assert jsonable(UniformDiskError(10.0)) == out


def _square(x: int, seed: int = 0) -> int:
    return x * x


class TestRunTasksIntegration:
    def tasks(self):
        return [
            SweepTask(fn=_square, kwargs={"x": x, "seed": 10 + x}, key=("sq", x))
            for x in range(3)
        ]

    def test_sweep_writes_validated_manifest(self, tmp_path):
        with manifest_sink(str(tmp_path)):
            results = run_tasks(self.tasks(), jobs=1, label="unit_sweep")
        assert results == [0, 1, 4]
        manifest = load_manifest(tmp_path / "unit_sweep.manifest.json")
        assert manifest.label == "unit_sweep"
        assert manifest.jobs == 1
        assert manifest.seeds == [10, 11, 12]
        assert [t["key"] for t in manifest.tasks] == [["sq", 0], ["sq", 1], ["sq", 2]]
        assert all(len(t["fingerprint"]) == 64 for t in manifest.tasks)
        assert manifest.wall_s >= 0

    def test_no_sink_no_manifest(self, tmp_path, monkeypatch):
        monkeypatch.delenv(MANIFEST_DIR_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        run_tasks(self.tasks(), jobs=1, label="quiet")
        assert list(tmp_path.iterdir()) == []

    def test_env_knob_routes_manifest(self, tmp_path, monkeypatch):
        monkeypatch.setenv(MANIFEST_DIR_ENV, str(tmp_path))
        run_tasks(self.tasks(), jobs=1, label="env_sweep")
        assert (tmp_path / "env_sweep.manifest.json").exists()


class TestSchemaVersions:
    """Version 2 is written; archived version-1 manifests still load."""

    def test_written_version_is_two(self):
        assert MANIFEST_SCHEMA_VERSION == 2
        assert make_manifest().to_dict()["version"] == 2

    def test_version_one_manifest_still_validates(self, tmp_path):
        # An archived v1 manifest: no overrides.
        obj = make_manifest().to_dict()
        obj["version"] = 1
        validate_manifest(obj)
        path = tmp_path / "old.manifest.json"
        path.write_text(json.dumps(obj))
        loaded = load_manifest(path)
        assert loaded == make_manifest()

    def test_shards_block_round_trips(self, tmp_path):
        # Archived manifests carry blocks nothing writes any more — the
        # sweep queue's ``shards``, record mode's ``failures`` (a list,
        # or None in raise mode); they validate and load without them.
        legacy = {
            "shards": {"count": 2, "chunk": 1, "grid_fingerprint": "f" * 64,
                       "digests": ["a" * 64, "b" * 64], "workers": ["w-1"]},
            "failures": [{"index": 1, "key": ["boom"], "kind": "exception",
                          "error": "RuntimeError: boom", "attempts": 1}],
        }
        obj = make_manifest().to_dict()
        assert not set(legacy) & set(obj)
        path = tmp_path / "legacy.manifest.json"
        for name, block in [*legacy.items(), ("failures", None)]:
            for version in (1, 2):
                payload = dict(obj, version=version, **{name: block})
                validate_manifest(payload)
                path.write_text(json.dumps(payload))
                assert load_manifest(path) == make_manifest()


class TestParamsIntersection:
    """``params`` records only kwargs every task agrees on (satellite:
    the old field copied ``tasks[0].kwargs`` wholesale, misreporting
    heterogeneous grids)."""

    def grid(self):
        return [
            SweepTask(
                fn=_square,
                kwargs={"x": x, "seed": 7},  # x varies, seed is common
                key=("het", x),
            )
            for x in range(3)
        ]

    def test_split_common_params(self):
        common, overrides = split_common_params(self.grid())
        assert common == {"seed": 7}
        assert overrides == [{"x": 0}, {"x": 1}, {"x": 2}]

    def test_homogeneous_grid_keeps_old_params_shape(self):
        tasks = [
            SweepTask(fn=_square, kwargs={"x": 5, "seed": 1}, key=("h", i))
            for i in range(2)
        ]
        common, overrides = split_common_params(tasks)
        assert common == {"x": 5, "seed": 1}
        assert overrides == [{}, {}]

    def test_manifest_records_intersection_and_overrides(self, tmp_path):
        with manifest_sink(str(tmp_path)):
            run_tasks(self.grid(), jobs=1, label="het_sweep")
        manifest = load_manifest(tmp_path / "het_sweep.manifest.json")
        assert manifest.params == {"seed": 7}
        assert [t["overrides"] for t in manifest.tasks] == [
            {"x": 0}, {"x": 1}, {"x": 2},
        ]
        validate_manifest(manifest.to_dict())  # overrides stay schema-valid


DIGEST = "d" * 64


def make_entry(**overrides):
    """A well-formed store entry for the task fingerprinted ``DIGEST``."""
    base = dict(
        version=CACHE_VERSION, key=DIGEST, result=9, counters={"demo/cells": 1}
    )
    base.update(overrides)
    return base


def write_entry(cache, entry):
    os.makedirs(cache.root, exist_ok=True)
    with open(cache.path_for(DIGEST), "w") as handle:
        handle.write(entry if isinstance(entry, str) else json.dumps(entry))


class TestFragments:
    """A sweep's per-task fragment is its store entry: the task's result
    plus the counter delta it added (``ResultCache``).  An entry that
    does not validate is a miss, never a partial read."""

    def test_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(DIGEST, [1.5, 2.5], {"a": 2, "b": 1})
        assert cache.get(DIGEST) == (True, [1.5, 2.5], {"a": 2, "b": 1})
        with open(cache.path_for(DIGEST)) as handle:
            assert json.load(handle) == make_entry(
                result=[1.5, 2.5], counters={"a": 2, "b": 1}
            )

    def test_foreign_schema_rejected(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        write_entry(cache, make_manifest().to_dict())
        assert cache.get(DIGEST) == (False, None, {})

    def test_version_mismatch_rejected(self, tmp_path):
        # A version-1 entry holds no counter delta: replaying it as a
        # hit would undercount, so it misses.
        cache = ResultCache(str(tmp_path))
        v1 = make_entry(version=1)
        del v1["counters"]
        write_entry(cache, v1)
        assert cache.get(DIGEST)[0] is False
        write_entry(cache, make_entry(version=CACHE_VERSION + 1))
        assert cache.get(DIGEST)[0] is False

    def test_missing_field_rejected(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        entry = make_entry()
        del entry["counters"]
        write_entry(cache, entry)
        assert cache.get(DIGEST)[0] is False

    def test_shard_block_needs_index_and_digest(self, tmp_path):
        # The entry names the task it belongs to.
        cache = ResultCache(str(tmp_path))
        entry = make_entry()
        del entry["key"]
        write_entry(cache, entry)
        assert cache.get(DIGEST)[0] is False

    def test_task_row_needs_global_index(self, tmp_path):
        # A delta that is not a map of numbers would crash the replay.
        cache = ResultCache(str(tmp_path))
        for counters in ([1, 2], {"demo/cells": "one"}):
            write_entry(cache, make_entry(counters=counters))
            assert cache.get(DIGEST)[0] is False

    def test_write_refuses_invalid_fragment(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(DIGEST, {1.0, 2.0}, {})  # a set is not JSON
        assert not os.path.exists(cache.path_for(DIGEST))

    def test_unreadable_fragment_rejected(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        write_entry(cache, json.dumps(make_entry())[:-10])
        assert cache.get(DIGEST) == (False, None, {})

    def test_replayed_fragment_counters_sum_deltas(
        self, tmp_path, monkeypatch, store_lookups
    ):
        """Hits fold their entries' deltas into the registry, summed."""
        cache = ResultCache(str(tmp_path))
        tasks = [
            SweepTask(fn=_square, kwargs={"x": x}, key=("sum", x)) for x in range(3)
        ]
        deltas = [{"a": 2, "b": 1}, {"a": 3}, {}]
        for task, delta in zip(tasks, deltas):
            cache.put(task.fingerprint(), task.execute(), delta)
        monkeypatch.setattr(counters_mod, "_global_registry", CounterRegistry())
        assert run_tasks(tasks, cache=cache) == [0, 1, 4]
        assert store_lookups.hits == 3
        assert global_registry().snapshot() == {"a": 5, "b": 1}
