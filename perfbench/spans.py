"""Span tracing of the simulator's layers, installed from outside it.

The benchmark never edits the simulator.  For its traced run it replaces
each layer's entry points -- the methods the layers call one another
through, plus every callback the engine dispatches -- with wrappers that
record a span, and puts the originals back afterwards.  A span has a
name, a start, an end and a parent (the span open when it began).  Its
self time is its duration minus the durations of its child spans; a
layer's self time is the sum over its spans.

Spans are aggregated as they close (per-name call count and self time),
so a traced run of any length holds O(names) state.  The first
``keep_spans`` spans are also kept whole, so tests can recompute self
time from the raw span tree.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from contextlib import ExitStack, contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Layers in report order.  ``scenario`` is the workload's own code --
#: the benchmark's set-up and window functions, topology builders and
#: sweep task bodies -- minus every layer those call into.
LAYERS = (
    "sim",
    "phy.channel",
    "phy.spatial",
    "phy.propagation",
    "util.rng",
    "phy.radio",
    "mac",
    "core",
    "net",
    "experiments",
    "scenario",
)

#: (layer, "module:Class" or "module", attribute names).  Each attribute
#: must be a plain function defined on that owner itself; a rename in the
#: simulator makes installation fail loudly rather than go unmeasured.
ENTRY_POINTS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.engine:Simulator", ("run", "schedule", "schedule_at")),
    ("phy.channel", "repro.phy.channel:Channel", (
        "attach", "detach", "transmit", "on_radio_moved",
        "on_radio_power_changed",
        # engine-dispatched delivery callbacks
        "_end_transmission", "_deliver_air_start", "_deliver_air_end",
    )),
    ("phy.spatial", "repro.phy.spatial:SpatialIndex", ("query_disk", "move")),
    ("phy.propagation", "repro.phy.propagation:LogNormalShadowing", (
        "shadowing_db", "mean_rx_dbm",
    )),
    ("util.rng", "repro.util.rng:RngStreams", ("stream", "substream")),
    ("phy.radio", "repro.phy.radio:Radio", (
        "start_transmission", "on_air_start", "on_air_end", "on_own_tx_end",
        "move_to", "set_tx_power_dbm", "_embedded_decode",
    )),
    ("mac", "repro.mac.dcf:DcfMac", (
        "enqueue", "on_tx_complete", "on_frame_received", "on_medium_busy",
        "on_medium_idle", "on_frame_corrupted", "on_energy_changed",
        "on_header_overheard", "on_data_overheard",
        # engine-dispatched timers
        "_ifs_elapsed", "_backoff_expired", "_send_control",
        "_launch_protected_data", "_nav_expired", "_cts_timeout",
        "_ack_timeout", "_send_ack",
    )),
    ("mac", "repro.mac.comap:CoMapMac", (
        "refresh_adaptation", "on_header_overheard", "on_energy_changed",
        "on_medium_idle", "_expire_opportunity",
    )),
    ("mac", "repro.mac.csr:CsrMac", (
        "on_tx_complete", "_on_backhaul", "_activate_csr_opportunity",
    )),
    ("core", "repro.core.protocol:CoMapAgent", (
        "observe_neighbor", "should_report_move", "mark_reported",
        "forget_neighbor", "location_stale", "neighbor_stale",
        "concurrency_allowed", "validate", "predicted_concurrent_sir_db",
        "announce_worthwhile", "choose_receiver", "concurrency_allowed_multi",
        "link_counts", "hidden_terminals", "advised_settings",
    )),
    ("core", "repro.core.concurrency:ConcurrencyValidator", (
        "validate", "validate_multi",
    )),
    ("core", "repro.core.co_occurrence:CoOccurrenceMap", (
        "confidence", "query", "record", "concurrent_receivers",
        "invalidate_node", "clear",
    )),
    ("net", "repro.net.network:Network", (
        "__init__", "add_ap", "add_client", "finalize", "add_saturated",
        "add_cbr", "add_tcp", "run", "results", "counters",
        "update_node_position", "publish_report",
        # engine-dispatched coalesced adaptation refresh
        "_drain_adaptation_refresh",
    )),
    ("net", "repro.net.node:Node", (
        "_fan_out_delivery", "_fan_out_queue_space",
    )),
    ("net", "repro.net.mobility:LinearMobility", ("_tick",)),
    ("net", "repro.net.backhaul:Backhaul", ("publish", "_deliver")),
    ("net", "repro.net.traffic:SaturatedSource", ("_refill",)),
    ("net", "repro.net.traffic:CbrSource", ("_emit",)),
    ("net", "repro.net.traffic:TcpLiteFlow", (
        "_on_rto", "_on_src_delivery", "_on_dst_delivery",
    )),
    ("experiments", "repro.experiments.runner", ("run_tasks",)),
    ("scenario", "repro.experiments.parallel:SweepTask", ("execute",)),
)

#: Marker attribute set on every span wrapper.
SPAN_ATTR = "__perfbench_span__"


def resolve_owner(target: str):
    """The class or module named by ``"module:Class"`` or ``"module"``."""
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def span_name(owner, attr: str) -> str:
    """Stable span name: ``Class.method`` or ``module.function``."""
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Collects spans from the wrappers it makes."""

    def __init__(self, keep_spans: int = 0) -> None:
        #: Span name -> summed self time (ns) and number of spans.
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        #: Span name -> layer, filled as wrappers are made.
        self.layer_of: Dict[str, str] = {}
        #: The first ``keep_spans`` spans as (name, start_ns, end_ns,
        #: parent index or -1), in the order they opened.
        self.spans: List[Optional[tuple]] = []
        self._keep = keep_spans
        self._stack: List[list] = []  # open spans: [child_ns, index]

    def wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        """A wrapper around ``fn`` that records one span per call."""
        self.layer_of[name] = layer
        self.self_ns.setdefault(name, 0)
        self.calls.setdefault(name, 0)
        stack, spans, keep = self._stack, self.spans, self._keep
        self_ns, calls = self.self_ns, self.calls
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0, -1]
            if len(spans) < keep:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self_ns[name] += elapsed - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
                if frame[1] >= 0:
                    parent = stack[-1][1] if stack else -1
                    spans[frame[1]] = (name, start, end, parent)

        setattr(span, SPAN_ATTR, name)
        return span

    def layer_totals(self) -> Dict[str, Tuple[int, int]]:
        """Layer -> (calls, self ns), every layer present."""
        totals = {layer: [0, 0] for layer in LAYERS}
        for name, layer in self.layer_of.items():
            totals[layer][0] += self.calls[name]
            totals[layer][1] += self.self_ns[name]
        return {layer: (calls, ns) for layer, (calls, ns) in totals.items()}

    def reset(self) -> None:
        """Zero the aggregates (wrappers stay valid)."""
        for name in self.self_ns:
            self.self_ns[name] = 0
            self.calls[name] = 0
        self.spans.clear()


@contextmanager
def patched(owner, attr: str, make: Callable[[Callable], Callable]) -> Iterator[None]:
    """Replace ``owner.attr`` by ``make(original)``; restore it on exit."""
    original = vars(owner).get(attr)
    if not isinstance(original, types.FunctionType):
        raise TypeError(f"{owner.__name__}.{attr} is not a plain function")
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every entry point in :data:`ENTRY_POINTS` for the block."""
    with ExitStack() as stack:
        for layer, target, attrs in ENTRY_POINTS:
            owner = resolve_owner(target)
            for attr in attrs:
                name = span_name(owner, attr)
                stack.enter_context(patched(
                    owner, attr,
                    functools.partial(tracer.wrap, name, layer),
                ))
        yield tracer
