"""Parallel-vs-serial bit-equivalence for every ``run_*`` sweep.

The regression contract of the parallel executor: for any sweep, running
with ``jobs=N`` must produce *the same bytes* as ``jobs=1`` — identical
floats, identical row order, identical structure — because every task's
result is a pure function of its task record and seeds derive from grid
coordinates, never from execution order.

These run the real sweeps at the smallest scales that still exercise
multiple tasks, so they also double as smoke tests for the task
decomposition inside each runner.
"""

import pytest

from repro.experiments.runner import (
    run_exposed_sweep,
    run_ht_cdf,
    run_model_validation,
    run_multi_et,
    run_office_floor,
    run_payload_sweep,
    run_rival_et,
)
from repro.net.localization import UniformDiskError

#: Enough workers to force real multi-process execution and interleaving.
JOBS = 2
DURATION = 0.15


def exposed_rows(points):
    return [(p.x, sorted(p.goodput_mbps.items())) for p in points]


class TestExposedSweep:
    def test_bit_identical(self):
        kwargs = dict(
            positions_m=[22.0, 30.0],
            mac_kinds=("dcf", "comap"),
            duration_s=DURATION,
            repeats=2,
            seed=11,
        )
        serial = run_exposed_sweep(jobs=1, **kwargs)
        parallel = run_exposed_sweep(jobs=JOBS, **kwargs)
        assert exposed_rows(serial) == exposed_rows(parallel)

    def test_bit_identical_with_position_error(self):
        # The error model draws extra RNG samples inside each worker —
        # a classic way for parallel decompositions to drift.
        kwargs = dict(
            positions_m=[26.0, 34.0],
            mac_kinds=("comap",),
            duration_s=DURATION,
            repeats=2,
            seed=12,
            error_model=UniformDiskError(10.0),
        )
        serial = run_exposed_sweep(jobs=1, **kwargs)
        parallel = run_exposed_sweep(jobs=JOBS, **kwargs)
        assert exposed_rows(serial) == exposed_rows(parallel)


class TestPayloadSweep:
    def test_bit_identical(self):
        kwargs = dict(
            payloads=[400, 1200],
            hidden_counts=(0, 1),
            duration_s=DURATION,
            repeats=2,
            seed=13,
        )
        serial = run_payload_sweep(jobs=1, **kwargs)
        parallel = run_payload_sweep(jobs=JOBS, **kwargs)
        assert set(serial) == set(parallel)
        for n_ht in serial:
            assert exposed_rows(serial[n_ht]) == exposed_rows(parallel[n_ht])


class TestModelValidation:
    def test_bit_identical(self):
        kwargs = dict(
            windows=(63, 255),
            hidden_counts=(0,),
            payloads=(600, 1400),
            duration_s=DURATION,
            seed=0,
        )
        serial = run_model_validation(jobs=1, **kwargs)
        parallel = run_model_validation(jobs=JOBS, **kwargs)
        assert serial == parallel  # frozen dataclasses compare field-wise


class TestHtCdf:
    def test_bit_identical(self):
        kwargs = dict(mac_kinds=("dcf", "comap"), duration_s=DURATION, seed=4)
        serial = run_ht_cdf(jobs=1, **kwargs)
        parallel = run_ht_cdf(jobs=JOBS, **kwargs)
        assert serial == parallel


class TestOfficeFloor:
    def test_bit_identical_including_error_model(self):
        variants = [
            ("dcf", "dcf", None),
            ("comap10", "comap", UniformDiskError(10.0)),
        ]
        kwargs = dict(
            variants=variants, n_topologies=2, duration_s=DURATION, seed=5
        )
        serial = run_office_floor(jobs=1, **kwargs)
        parallel = run_office_floor(jobs=JOBS, **kwargs)
        assert serial == parallel


class TestAblationRunners:
    def test_multi_et_bit_identical(self):
        serial = run_multi_et(duration_s=DURATION, seed=6, jobs=1)
        parallel = run_multi_et(duration_s=DURATION, seed=6, jobs=JOBS)
        assert serial == parallel

    def test_rival_et_bit_identical(self):
        serial = run_rival_et(duration_s=DURATION, seeds=(1, 2), jobs=1)
        parallel = run_rival_et(duration_s=DURATION, seeds=(1, 2), jobs=JOBS)
        assert serial == parallel


class TestEnvKnob:
    def test_repro_jobs_env_matches_serial(self, monkeypatch):
        kwargs = dict(
            positions_m=[30.0],
            mac_kinds=("dcf",),
            duration_s=DURATION,
            repeats=2,
            seed=3,
        )
        serial = run_exposed_sweep(jobs=1, **kwargs)
        monkeypatch.setenv("REPRO_JOBS", str(JOBS))
        via_env = run_exposed_sweep(**kwargs)
        assert exposed_rows(serial) == exposed_rows(via_env)

    def test_invalid_repro_jobs_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "not-a-number")
        points = run_exposed_sweep(
            [26.0], mac_kinds=("dcf",), duration_s=DURATION, repeats=1, seed=1
        )
        assert len(points) == 1


class TestUnpicklableTask:
    def test_closure_raises_in_the_pool(self):
        # A closure cannot be pickled into a worker. jobs=1 runs it in
        # process; a pool raises the pickling error and does not run the
        # tasks in this process instead.
        import pickle

        from repro.experiments.parallel import SweepTask, run_tasks

        captured = []

        def unpicklable(x):
            captured.append(x)
            return x * 2.0

        tasks = [
            SweepTask(fn=unpicklable, kwargs={"x": float(i)}, key=("t", i))
            for i in range(4)
        ]
        assert run_tasks(tasks, jobs=1) == [0.0, 2.0, 4.0, 6.0]
        assert sorted(captured) == [0.0, 1.0, 2.0, 3.0]
        captured.clear()
        with pytest.raises((pickle.PicklingError, AttributeError)):
            run_tasks(tasks, jobs=JOBS)
        assert captured == []

