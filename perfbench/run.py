"""The CO-MAP simulator benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py                      # every workload, both runs
    python3 perfbench/run.py --workload dense_cell --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke              # tiny durations, checks only

``--trace 0`` measures the end-to-end metrics from untraced ops;
``--trace 1`` measures the per-layer metrics from traced ops, each paired
with an untraced op for ``trace.overhead_ratio``.  Without ``--workload``
both runs are made for every workload and printed as tables.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it is the machine and mode
block.

The simulator is measured in its default mode.  With any ``REPRO_*``
variable set the result is labelled ``non-default``, no result line is
printed and the exit code is 3, so such a run never stands in for the
default baseline.  ``--write-reference`` re-records the default-seed
digests the correctness gate compares against (after a deliberate
change to a workload or to the simulator's physics).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def _print_table(title: str, metrics: dict) -> None:
    print(f"== {title}")
    for name, metric in metrics.items():
        print(f"  {name:<32} {metric['value']:>16.6g} {metric['unit']}")


def _report(result, title: str) -> None:
    _print_table(title, result.metrics)
    for name, value in result.host.items():
        print(f"  {name:<32} {value:>16.6g} (unscaled)")
    print(f"  {'ops':<32} {result.attempted:>16d} count")
    print(f"  {'ops_failed':<32} {result.failed:>16d} count")
    print(f"  {'digest':<32} {result.digest or '-':>16}")
    for note in result.notes:
        print(f"  ! {note}", file=sys.stderr)


def _result_line(results, metrics: dict) -> str:
    return json.dumps({
        "correct": all(result.correct for result in results),
        "attempted": sum(result.attempted for result in results),
        "failed": sum(result.failed for result in results),
        "metrics": metrics,
    })


def _check_names(result, specs, label: str) -> list:
    """Every metric ``specs`` names is in ``result`` with the same unit."""
    problems = []
    for spec in specs:
        metric = result.metrics.get(spec["name"])
        if metric is None:
            problems.append(f"{label}: {spec['name']} missing")
        elif metric["unit"] != spec["unit"]:
            problems.append(
                f"{label}: {spec['name']} unit {metric['unit']} != {spec['unit']}"
            )
    return problems


def _smoke(harness, names, seed: int) -> int:
    spec = json.loads(BENCHMARK_JSON.read_text())
    problems, results = [], []
    for name in names:
        first = harness.measure_end_to_end(name, seed, 0.0, smoke=True)
        layered = harness.measure_per_layer(name, seed, 0.0, smoke=True)
        second = harness.measure_end_to_end(name, seed, 0.0, smoke=True)
        results += [first, layered, second]
        problems += _check_names(first, spec["end_to_end"], name)
        problems += _check_names(layered, spec["per_layer"], name)
        digests = {first.digest, layered.digest, second.digest}
        if None in digests or len(digests) != 1:
            problems.append(f"{name}: digests differ across runs: {digests}")
        for result in (first, layered, second):
            problems += [f"{name}: {note}" for note in result.notes]
        print(f"digest {name} {first.digest}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print(_result_line(results, {}))
    return 0 if not problems and all(r.correct for r in results) else 1


def _write_reference(harness, names) -> int:
    digests = harness.load_reference()
    for name in names:
        with harness.NetworkCollector().installed() as collector:
            op = harness.run_op(
                harness.WORKLOADS[name], harness.DEFAULT_SEED, False, collector
            )
        digests[name] = op.digest
        print(f"reference {name} {op.digest}")
    harness.REFERENCE_PATH.write_text(json.dumps(
        {"seed": harness.DEFAULT_SEED, "digests": digests}, indent=2,
        sort_keys=True,
    ) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench import harness
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator: {exc}", file=sys.stderr)
        return 2

    if args.workload == "all":
        names = list(harness.WORKLOADS)
    elif args.workload in harness.WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}")
    seed = harness.DEFAULT_SEED if args.seed is None else args.seed

    if args.write_reference:
        return _write_reference(harness, names)
    if args.smoke:
        return _smoke(harness, names, 7 if args.seed is None else seed)

    machine = harness.machine_block()
    phases = [args.trace] if args.trace is not None else [0, 1]
    results, metrics = [], {}
    for name in names:
        for trace in phases:
            measure = (
                harness.measure_per_layer if trace else harness.measure_end_to_end
            )
            print(f"perfbench: {name} trace={trace} seed={seed}", file=sys.stderr)
            result = measure(name, seed, args.seconds)
            _report(result, f"{name} ({'per-layer, traced' if trace else 'end-to-end'})")
            results.append(result)
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in result.metrics.items()})
    print(json.dumps({"machine": machine}))
    if machine["mode"] != "default":
        print("perfbench: REPRO_* knobs set; no comparable result", file=sys.stderr)
        return 3
    print(_result_line(results, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
