"""The traced run: wrappers restored, self time sound, nothing unattributed."""

import pytest

from perfbench import harness, spans
from perfbench.workloads import WORKLOADS
from repro.net.network import Network
from repro.sim.engine import Simulator


def _entry_point_attributes():
    for _layer, target, attrs in spans.ENTRY_POINTS:
        owner = spans.resolve_owner(target)
        for attr in attrs:
            yield owner, attr


def _traced_smoke_op(name, tracer):
    with harness.NetworkCollector().installed() as collector:
        with spans.installed(tracer):
            return harness.run_op(WORKLOADS[name], 5, True, collector, tracer)


def test_every_wrapped_attribute_is_restored():
    before = {(owner, attr): vars(owner)[attr] for owner, attr in _entry_point_attributes()}
    finalize = vars(Network)["finalize"]
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with harness.NetworkCollector().installed():
            with spans.installed(tracer):
                for (owner, attr), original in before.items():
                    wrapper = vars(owner)[attr]
                    assert wrapper is not original
                    assert getattr(wrapper, spans.SPAN_ATTR) == spans.span_name(owner, attr)
                raise RuntimeError("leave the block the hard way")
    for (owner, attr), original in before.items():
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"
    assert vars(Network)["finalize"] is finalize


def test_unknown_entry_point_fails_and_changes_nothing():
    original = vars(Simulator)["run"]
    with pytest.raises(TypeError):
        with spans.patched(Simulator, "no_such_method", lambda fn: fn):
            pass
    assert vars(Simulator)["run"] is original


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_time_covers_the_traced_wall_time(name):
    op = _traced_smoke_op(name, spans.Tracer())
    covered_s = sum(ns for _calls, ns in op.layers.values()) / 1e9
    assert covered_s >= 0.9 * (op.setup_s + op.wall_s)
    assert covered_s <= op.setup_s + op.wall_s


def test_self_time_equals_span_tree():
    tracer = spans.Tracer(keep_spans=10**6)
    _traced_smoke_op("paper_sweep", tracer)
    kept = tracer.spans
    assert kept and None not in kept
    child_ns = [0] * len(kept)
    for name, start, end, parent in kept:
        if parent >= 0:
            _pname, pstart, pend, _ = kept[parent]
            assert pstart <= start <= end <= pend
            child_ns[parent] += end - start
    self_ns = {}
    for index, (name, start, end, _parent) in enumerate(kept):
        self_ns[name] = self_ns.get(name, 0) + (end - start) - child_ns[index]
    assert self_ns == {name: ns for name, ns in tracer.self_ns.items() if ns}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_engine_callback_is_a_span(name):
    """Time in an unwrapped callback would be charged to ``sim``."""
    scheduled = set()

    def recording(original):
        def schedule(sim, when, callback, *args):
            scheduled.add(callback)
            return original(sim, when, callback, *args)
        return schedule

    tracer = spans.Tracer()
    with harness.NetworkCollector().installed() as collector:
        with spans.installed(tracer):
            with spans.patched(Simulator, "schedule", recording):
                with spans.patched(Simulator, "schedule_at", recording):
                    harness.run_op(WORKLOADS[name], 5, True, collector, tracer)
    unwrapped = {
        getattr(cb, "__qualname__", repr(cb))
        for cb in scheduled
        if not hasattr(getattr(cb, "__func__", cb), spans.SPAN_ATTR)
    }
    assert scheduled and not unwrapped
