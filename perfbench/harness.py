"""Ops, correctness digests and metrics for the benchmark.

One *op* is one run of a workload's scenario: ``setup`` (timed as set-up)
then ``window`` (the timed window).  Every op of a run uses the same
inputs, so every op must produce the same digest; at the default seed
that digest must also equal the reference in ``reference.json``.  An op
fails if it raises, if a sweep hands back a ``None`` result, or if its
digest mismatches.

End-to-end metrics come from untraced ops.  Per-layer metrics come from
traced ops (:mod:`perfbench.spans`), each paired with an untraced op of
the same inputs so the tracing overhead is a ratio of neighbours and the
traced digest can be checked against the untraced one.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

import numpy

from perfbench.calibrate import REFERENCE_PROBE_S, probe_s
from perfbench.spans import LAYERS, Tracer, installed, patched
from perfbench.workloads import WORKLOADS, Workload
from repro.net.network import Network

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: The seed whose digests ``reference.json`` records.
DEFAULT_SEED = 1

#: Fewest ops (or traced pairs) a run makes, however long they take.
MIN_OPS = 3

#: End-to-end metrics: name -> unit.
END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "sim_s_per_wall_s": "s/s",
    "frames_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> Dict[str, str]:
    """Per-layer metrics: name -> unit."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
    units.update({
        "sim.events": "count",
        "sim.heap_peak": "count",
        "phy.channel.frames": "count",
        "phy.channel.visits_per_frame": "visits/frame",
        "phy.channel.cull_ratio": "ratio",
        "phy.spatial.queries": "count",
        "phy.propagation.draws": "count",
        "util.rng.substreams": "count",
        "phy.radio.decode_ratio": "ratio",
        "mac.retry_ratio": "ratio",
        "core.decisions": "count",
        "core.grant_ratio": "ratio",
        "net.position_updates": "count",
        "experiments.tasks": "count",
        "trace.overhead_ratio": "ratio",
        "trace.coverage": "ratio",
    })
    return units


class OpFailed(Exception):
    """An op produced an output that counts as a failure."""


# ----------------------------------------------------------------------
# Observing the networks an op builds
# ----------------------------------------------------------------------
class NetworkCollector:
    """Remembers every :class:`Network` finalized while installed.

    The sweep runners build their networks inside task bodies; hooking
    ``finalize`` (once per network) is how the digest reaches them.
    """

    def __init__(self) -> None:
        self.nets: List[Network] = []

    def _make(self, original):
        nets = self.nets

        def finalize(net, *args, **kwargs):
            result = original(net, *args, **kwargs)
            if all(seen is not net for seen in nets):
                nets.append(net)
            return result

        return finalize

    @contextmanager
    def installed(self) -> Iterator["NetworkCollector"]:
        with patched(Network, "finalize", self._make):
            yield self


def network_digest_rows(net: Network) -> list:
    """Per-node (tx, rx, corrupted, missed) plus per-flow delivered bytes."""
    nodes = [
        [node_id, r.frames_transmitted, r.frames_received, r.frames_corrupted,
         r.frames_missed]
        for node_id, r in sorted(
            (node_id, node.radio) for node_id, node in net.nodes.items()
        )
    ]
    flows = sorted(
        [src, dst, flow.delivered_bytes]
        for (src, dst), flow in net.results().flows.items()
    )
    return [nodes, flows]


def digest(nets: List[Network], outputs: Any) -> str:
    blob = json.dumps(
        [[network_digest_rows(net) for net in nets], outputs],
        sort_keys=True, default=repr,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _contains_none(value: Any) -> bool:
    if value is None:
        return True
    if isinstance(value, dict):
        return any(_contains_none(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return any(_contains_none(v) for v in value)
    return False


def network_counters(nets: List[Network]) -> Counter:
    """Program counters summed over an op's networks."""
    total: Counter = Counter()
    for net in nets:
        snap = net.counters()
        total["events"] += snap["sim/events_fired"]
        total["heap_peak"] = max(total["heap_peak"], snap["sim/heap_peak"])
        total["retransmissions"] += snap.get("mac/retransmissions", 0)
        total["data_transmissions"] += snap.get("mac/data_transmissions", 0)
        total["granted"] += snap.get("comap/opportunities_validated", 0)
        total["granted"] += snap.get("csr/concurrent_granted", 0)
        total["denied"] += snap.get("comap/opportunities_rejected", 0)
        total["denied"] += snap.get("csr/concurrent_denied", 0)
        total["streams"] += len(net.rngs.known_streams())
        for channel in net.channels.values():
            counters = channel.counters()
            frames = counters["frames_sent"]
            total["frames"] += frames
            total["links"] += frames * (counters["radios"] - 1)
            total["culled"] += counters["culled_links"]
            total["spatial_skipped"] += counters["spatial_skipped"]
            total["spatial_queries"] += counters["spatial_queries"]
        for node in net.nodes.values():
            radio = node.radio
            total["received"] += radio.frames_received
            total["corrupted"] += radio.frames_corrupted
            total["missed"] += radio.frames_missed
    return total


# ----------------------------------------------------------------------
# One op
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One op's host times, scaled by ``speed`` into reference-speed times."""

    speed: float
    setup_s: float
    wall_s: float
    cpu_s: float
    sim_s: float
    frames: int
    digest: str
    counters: Counter = field(default_factory=Counter)
    #: Traced ops only: layer -> (calls, self ns) and span name -> calls,
    #: taken when the window ends (before the digest is computed).
    layers: Optional[Dict[str, tuple]] = None
    span_calls: Optional[Dict[str, int]] = None


def run_op(
    workload: Workload,
    seed: int,
    smoke: bool,
    collector: NetworkCollector,
    tracer: Optional[Tracer] = None,
) -> Op:
    """Set up and run one op; raises on failure."""
    setup, window = workload.setup, workload.window
    if tracer is not None:
        setup = tracer.wrap("scenario.setup", "scenario", setup)
        window = tracer.wrap("scenario.window", "scenario", window)
    collector.nets.clear()
    gc.collect()
    probe_before = probe_s()
    started = time.perf_counter()
    state = setup(seed, smoke)
    setup_s = time.perf_counter() - started
    before = {
        id(net): (net.sim.now, sum(ch.frames_sent for ch in net.channels.values()))
        for net in collector.nets
    }
    cpu_started = time.process_time()
    started = time.perf_counter()
    outputs = window(state)
    wall_s = time.perf_counter() - started
    cpu_s = time.process_time() - cpu_started
    layers = span_calls = None
    if tracer is not None:
        layers, span_calls = tracer.layer_totals(), dict(tracer.calls)
    speed = 2.0 * REFERENCE_PROBE_S / (probe_before + probe_s())
    if _contains_none(outputs):
        raise OpFailed("a sweep task returned None")
    sim_ns = frames = 0
    for net in collector.nets:
        now0, frames0 = before.get(id(net), (0, 0))
        sim_ns += net.sim.now - now0
        frames += sum(ch.frames_sent for ch in net.channels.values()) - frames0
    op = Op(
        speed=speed,
        setup_s=setup_s,
        wall_s=wall_s,
        cpu_s=cpu_s,
        sim_s=sim_ns / 1e9,
        frames=frames,
        digest=digest(collector.nets, outputs),
        counters=network_counters(collector.nets),
        layers=layers,
        span_calls=span_calls,
    )
    collector.nets.clear()
    return op


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def load_reference() -> Dict[str, str]:
    try:
        return json.loads(REFERENCE_PATH.read_text())["digests"]
    except (OSError, ValueError, KeyError):
        return {}


@dataclass
class RunResult:
    workload: str
    attempted: int = 0
    failed: int = 0
    digest: Optional[str] = None
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Unscaled host figures, printed beside the metrics.
    host: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0 and bool(self.metrics)


class _Checker:
    """Counts ops and failures; every digest must equal the expected one."""

    def __init__(self, result: RunResult, expected: Optional[str]) -> None:
        self.result = result
        self.expected = expected

    def attempt(self, *args) -> Optional[Op]:
        """:func:`run_op` with ``args``; None when the op failed."""
        result = self.result
        result.attempted += 1
        try:
            op = run_op(*args)
        except Exception:  # an op boundary: record and keep measuring
            result.failed += 1
            result.notes.append(traceback.format_exc(limit=4))
            return None
        if self.expected is None:
            self.expected = op.digest
        if op.digest != self.expected:
            result.failed += 1
            result.notes.append(
                f"digest {op.digest} != expected {self.expected}"
            )
            return None
        result.digest = op.digest
        return op


def _expected_digest(workload: str, seed: int, smoke: bool) -> Optional[str]:
    if smoke or seed != DEFAULT_SEED:
        return None
    return load_reference().get(workload, "missing reference digest")


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def measure_end_to_end(
    name: str, seed: int, seconds: float, smoke: bool = False,
) -> RunResult:
    """Untraced ops for ``seconds``; medians of per-op figures."""
    workload = WORKLOADS[name]
    result = RunResult(name)
    check = _Checker(result, _expected_digest(name, seed, smoke))
    ops: List[Op] = []
    with NetworkCollector().installed() as collector:
        started = time.perf_counter()
        while result.attempted < MIN_OPS or time.perf_counter() - started < seconds:
            op = check.attempt(workload, seed, smoke, collector)
            if op is not None:
                ops.append(op)
            if smoke:
                break
    if not ops:
        return result
    median = statistics.median
    values = {
        "wall_s": median(op.wall_s * op.speed for op in ops),
        "cpu_s": median(op.cpu_s * op.speed for op in ops),
        "setup_s": median(op.setup_s * op.speed for op in ops),
        "sim_s_per_wall_s": median(op.sim_s / (op.wall_s * op.speed) for op in ops),
        "frames_per_s": median(op.frames / (op.wall_s * op.speed) for op in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result.host = {
        "host_wall_s": median(op.wall_s for op in ops),
        "host_setup_s": median(op.setup_s for op in ops),
        "probe_speed": median(op.speed for op in ops),
    }
    result.metrics = {
        key: _metric(value, END_TO_END_UNITS[key]) for key, value in values.items()
    }
    return result


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(op: Op) -> Dict[str, float]:
    """Per-layer metrics of one traced op (times at the reference speed)."""
    traced_wall_s = op.setup_s + op.wall_s
    values: Dict[str, float] = {}
    covered_ns = 0
    for layer, (calls, self_ns) in op.layers.items():
        values[f"{layer}.calls"] = calls
        values[f"{layer}.self_s"] = self_ns / 1e9 * op.speed
        values[f"{layer}.share"] = self_ns / 1e9 / traced_wall_s
        covered_ns += self_ns
    c, span_calls = op.counters, op.span_calls
    decoded = c["received"] + c["corrupted"] + c["missed"]
    decisions = c["granted"] + c["denied"]
    values.update({
        "sim.events": c["events"],
        "sim.heap_peak": c["heap_peak"],
        "phy.channel.frames": c["frames"],
        "phy.channel.visits_per_frame": _ratio(
            c["links"] - c["spatial_skipped"], c["frames"]
        ),
        "phy.channel.cull_ratio": _ratio(c["culled"], c["links"]),
        "phy.spatial.queries": c["spatial_queries"],
        "phy.propagation.draws": span_calls["LogNormalShadowing.shadowing_db"],
        "util.rng.substreams": c["streams"],
        "phy.radio.decode_ratio": _ratio(c["received"], decoded),
        "mac.retry_ratio": _ratio(c["retransmissions"], c["data_transmissions"]),
        "core.decisions": decisions,
        "core.grant_ratio": _ratio(c["granted"], decisions),
        "net.position_updates": span_calls["Network.update_node_position"],
        "experiments.tasks": span_calls["SweepTask.execute"],
        "trace.coverage": covered_ns / 1e9 / traced_wall_s,
    })
    return values


def measure_per_layer(
    name: str, seed: int, seconds: float, smoke: bool = False,
) -> RunResult:
    """Pairs of (untraced, traced) ops for ``seconds``; per-layer medians."""
    workload = WORKLOADS[name]
    result = RunResult(name)
    check = _Checker(result, _expected_digest(name, seed, smoke))
    samples: List[Dict[str, float]] = []
    tracer = Tracer()
    with NetworkCollector().installed() as collector:
        started = time.perf_counter()
        while len(samples) < MIN_OPS or time.perf_counter() - started < seconds:
            plain = check.attempt(workload, seed, smoke, collector)
            with installed(tracer):
                tracer.reset()
                traced = check.attempt(workload, seed, smoke, collector, tracer)
            if plain is not None and traced is not None:
                values = layer_values(traced)
                values["trace.overhead_ratio"] = (
                    (traced.setup_s + traced.wall_s) * traced.speed
                ) / ((plain.setup_s + plain.wall_s) * plain.speed)
                samples.append(values)
            if smoke or (result.attempted >= 4 * MIN_OPS and not samples):
                break
    if not samples:
        return result
    units = per_layer_units()
    result.metrics = {
        key: _metric(statistics.median(s[key] for s in samples), units[key])
        for key in units
    }
    return result


# ----------------------------------------------------------------------
# Machine and mode block
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _git_sha() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def repro_knobs() -> Dict[str, str]:
    """Every ``REPRO_*`` variable set in the environment."""
    return {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")}


def machine_block() -> Dict[str, Any]:
    """Where and in which simulator mode the numbers were taken."""
    from repro.experiments.parallel import resolve_jobs
    from repro.experiments.params import ns2_params
    from repro.phy.channel import resolve_cull_margin_db
    from repro.util.hotpath import mode_enabled

    knobs = repro_knobs()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "hotpath": mode_enabled("hotpath"),
        "vector": mode_enabled("vector"),
        "spatial": mode_enabled("spatial"),
        "cull_margin_db": resolve_cull_margin_db(ns2_params().sigma_db),
        "jobs": resolve_jobs(),
        "repro_env": knobs,
        "mode": "default" if not knobs else "non-default",
    }
