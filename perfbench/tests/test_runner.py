"""The runner's contract: smoke mode, reference digests, refusal paths."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from perfbench import harness
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, "perfbench/run.py"]


def _run(args, cwd=ROOT, env=None):
    return subprocess.run(
        RUN + args, cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def _clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def test_benchmark_json_names_exactly_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_predictions_cite_known_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = json.loads((ROOT / "perfbench" / "predictions.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    names = [row["name"] for row in table["predictions"]]
    assert len(names) == len(set(names))
    for row in table["predictions"]:
        assert set(row["per_layer"]) <= per_layer, row["name"]
        assert set(row["moves"]) <= end_to_end, row["name"]
        assert set(row["on"]) | set(row["no_change_on"]) <= set(WORKLOADS)


def test_smoke_digest_repeats_in_a_fresh_process():
    """Smoke mode checks names and units; a fresh process repeats the digest."""
    runs = [_run(["--smoke", "--seed", "11"], env=_clean_env()) for _ in range(2)]
    for run in runs:
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout.splitlines()[-1])["correct"] is True
    digests = [
        sorted(line for line in run.stdout.splitlines() if line.startswith("digest "))
        for run in runs
    ]
    assert len(digests[0]) == len(WORKLOADS)
    assert digests[0] == digests[1]


def test_default_seed_matches_reference_digest():
    reference = harness.load_reference()
    with harness.NetworkCollector().installed() as collector:
        op = harness.run_op(
            WORKLOADS["dense_cell"], harness.DEFAULT_SEED, False, collector
        )
    assert op.digest == reference["dense_cell"]


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = _run(["--workload", "dense_cell", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=tmp_path, env=_clean_env())
    assert run.returncode != 0
    assert '"correct"' not in run.stdout


def test_non_default_mode_is_labelled_and_not_reported():
    env = dict(_clean_env(), REPRO_SPATIAL="1")
    run = _run(["--workload", "dense_cell", "--seconds", "0", "--trace", "0"], env=env)
    assert run.returncode == 3
    machine = json.loads(run.stdout.splitlines()[-1])["machine"]
    assert machine["mode"] == "non-default"
    assert machine["repro_env"] == {"REPRO_SPATIAL": "1"}
    assert machine["spatial"] is True
