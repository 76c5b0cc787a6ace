"""The discrete-event engine: ordering, cancellation, determinism.

An event is its heap entry ``[time, seq, callback, args]``; its state is
read from the callback slot (see :func:`is_pending`, :func:`is_cancelled`
and :func:`is_fired`).
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.engine import FIRED, SimulationError, Simulator


def is_pending(entry) -> bool:
    """Scheduled, and neither cancelled nor fired."""
    return entry[2] is not None and entry[2] is not FIRED


def is_cancelled(entry) -> bool:
    return entry[2] is None


def is_fired(entry) -> bool:
    return entry[2] is FIRED


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(30, order.append, "c")
        sim.schedule(10, order.append, "a")
        sim.schedule(20, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        order = []
        for tag in ("first", "second", "third"):
            sim.schedule(5, order.append, tag)
        sim.run()
        assert order == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(123, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [123]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(50, lambda: None)

    def test_zero_delay_runs_after_current_instant_events(self):
        sim = Simulator()
        order = []

        def outer():
            order.append("outer")
            sim.schedule(0, order.append, "inner")

        sim.schedule(10, outer)
        sim.schedule(10, order.append, "peer")
        sim.run()
        assert order == ["outer", "peer", "inner"]

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        hits = []

        def chain(n):
            hits.append(n)
            if n < 5:
                sim.schedule(10, chain, n + 1)

        sim.schedule(0, chain, 0)
        sim.run()
        assert hits == [0, 1, 2, 3, 4, 5]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(10, fired.append, 1)
        sim.cancel(handle)
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        sim.cancel(handle)
        sim.cancel(handle)
        sim.run()
        assert is_cancelled(handle)

    def test_pending_flag(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        assert is_pending(handle)
        sim.cancel(handle)
        assert not is_pending(handle)

    def test_fired_event_reports_not_pending(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        sim.run()
        assert not is_pending(handle)

    def test_pending_events_count_excludes_cancelled(self):
        sim = Simulator()
        h1 = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        sim.cancel(h1)
        assert sim.pending_events == 1


class TestHandleStates:
    """fired / cancelled / pending are three distinct, observable states."""

    def test_fresh_handle_is_pending_only(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        assert handle[:2] == [10, 1]  # the entry's (time, seq) heap key
        assert is_pending(handle)
        assert not is_fired(handle)
        assert not is_cancelled(handle)

    def test_fired_handle_is_fired_not_cancelled(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        sim.run()
        assert is_fired(handle)
        assert not is_cancelled(handle)
        assert not is_pending(handle)

    def test_cancelled_handle_is_cancelled_not_fired(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        sim.cancel(handle)
        sim.run()
        assert is_cancelled(handle)
        assert not is_fired(handle)
        assert not is_pending(handle)

    def test_cancel_after_fire_keeps_fired_state(self):
        sim = Simulator()
        calls = []
        handle = sim.schedule(10, calls.append, 1)
        sim.run()
        sim.cancel(handle)  # idempotent no-op: the callback already ran
        assert calls == [1]
        assert is_fired(handle)
        assert not is_cancelled(handle)

    def test_handle_fired_before_callback_runs(self):
        # A callback observing its own handle sees the fired state — the
        # engine marks the entry when popped, not after the callback.
        sim = Simulator()
        seen = []
        box = {}

        def observe():
            seen.append((is_fired(box["h"]), is_pending(box["h"])))

        box["h"] = sim.schedule(10, observe)
        sim.run()
        assert seen == [(True, False)]

    def test_fired_handle_releases_callback_references(self):
        # Fired entries drop their arguments just like cancelled ones, so
        # long-lived handles don't pin dead objects.
        sim = Simulator()
        handle = sim.schedule(10, lambda payload: None, object())
        cancelled_handle = sim.schedule(20, lambda payload: None, object())
        sim.cancel(cancelled_handle)
        sim.run()
        assert handle[3] == ()
        assert cancelled_handle[3] == ()


class TestRunControl:
    def test_until_horizon_stops_and_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, fired.append, "early")
        sim.schedule(100, fired.append, "late")
        sim.run(until=50)
        assert fired == ["early"]
        assert sim.now == 50

    def test_events_at_horizon_still_fire(self):
        sim = Simulator()
        fired = []
        sim.schedule(50, fired.append, "edge")
        sim.run(until=50)
        assert fired == ["edge"]

    def test_resume_after_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, fired.append, "late")
        sim.run(until=50)
        sim.run(until=150)
        assert fired == ["late"]

    def test_max_events_limits(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(i, fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_max_events_stop_keeps_clock_behind_pending_events(self):
        # Stopped by max_events short of the horizon, the clock must not
        # jump past a live event: the next run fires it at its own time.
        sim = Simulator()
        seen = []
        sim.schedule(10, lambda: seen.append(sim.now))
        sim.schedule(20, lambda: seen.append(sim.now))
        sim.run(until=1000, max_events=1)
        assert seen == [10]
        assert sim.now == 10
        sim.run(until=1000)
        assert seen == [10, 20]
        assert sim.now == 1000

    def test_max_events_stop_advances_clock_when_nothing_is_due(self):
        # Drained, or the next live event lies past the horizon: the
        # clock moves to ``until`` as a plain horizon stop does.
        for late in (None, 2000):
            sim = Simulator()
            sim.schedule(10, lambda: None)
            doomed = sim.schedule(30, lambda: None)
            sim.cancel(doomed)  # a tombstone is not a due event
            if late is not None:
                sim.schedule(late, lambda: None)
            sim.run(until=1000, max_events=1)
            assert sim.now == 1000

    def test_run_not_reentrant(self):
        sim = Simulator()

        def nested():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1, nested)
        sim.run()

    def test_events_fired_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_fired == 4


class TestWatchdog:
    """The liveness check: simulated time must keep advancing.

    ``watchdog_limit`` (off by default) bounds how many events may fire
    at one instant; a handler that reschedules itself at zero delay —
    the classic stuck-simulation bug — then raises a structured
    :class:`WatchdogError` instead of spinning forever.
    """

    def _stuck_sim(self, limit):
        sim = Simulator()
        sim.watchdog_limit = limit

        def stuck_handler():
            sim.schedule(0, stuck_handler)

        sim.schedule(5, stuck_handler)
        return sim

    def test_off_by_default(self):
        sim = Simulator()
        assert sim.watchdog_limit is None
        burst = []
        for i in range(10_000):
            sim.schedule(7, burst.append, i)
        sim.run()  # a big same-instant burst is fine with the dog off
        assert len(burst) == 10_000

    def test_stuck_handler_trips_structured_error(self):
        from repro.sim.engine import WatchdogError

        sim = self._stuck_sim(limit=100)
        with pytest.raises(WatchdogError) as excinfo:
            sim.run()
        err = excinfo.value
        assert err.time == 5
        assert err.events == 101  # limit exceeded by exactly one
        assert "stuck_handler" in err.callback
        assert "not draining" in str(err)
        # Post-mortem state is consistent: the clock stopped at the
        # stuck instant and the unfired event is still pending.
        assert sim.now == 5
        assert sim.pending_events == 1
        assert sim.counters()["watchdog_trips"] == 1

    def test_legitimate_bursts_below_limit_pass(self):
        sim = Simulator()
        sim.watchdog_limit = 50
        fired = []
        for t in (1, 2, 3):
            for i in range(50):  # exactly at the limit, never above
                sim.schedule(t, fired.append, (t, i))
        sim.run()
        assert len(fired) == 150
        assert sim.counters()["watchdog_trips"] == 0

    def test_advancing_clock_resets_streak(self):
        sim = Simulator()
        sim.watchdog_limit = 3

        def ping(t):
            if t < 20:
                sim.schedule(1, ping, t + 1)

        sim.schedule(0, ping, 0)
        sim.run()  # one event per instant: never trips
        assert sim.counters()["watchdog_trips"] == 0

    def test_watchdog_error_is_simulation_error(self):
        from repro.sim.engine import WatchdogError

        sim = self._stuck_sim(limit=10)
        with pytest.raises(SimulationError):
            sim.run()
        assert issubclass(WatchdogError, SimulationError)


def _seeded_ops(seed: int, steps: int = 500):
    """The schedule / cancel / run(max_events) mix a seeded RNG draws.

    Cancel indices pick among the entries scheduled so far, so the
    sequence replays exactly through :func:`_apply_ops`.
    """
    rng = random.Random(seed)
    ops = []
    scheduled = 0
    for _ in range(steps):
        action = rng.random()
        if action < 0.6 or not scheduled:
            ops.append(("schedule", rng.randrange(1, 100)))
            scheduled += 1
        elif action < 0.85:
            ops.append(("cancel", rng.randrange(scheduled)))
        else:
            ops.append(("run_max", rng.randrange(1, 4)))
    return ops


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(min_value=0, max_value=100)),
        st.tuples(st.sampled_from(["cancel", "cancel_twice"]),
                  st.integers(min_value=0, max_value=10_000)),
        st.tuples(st.just("run_max"), st.integers(min_value=0, max_value=4)),
        st.tuples(st.just("run_until"), st.integers(min_value=0, max_value=150)),
        st.tuples(st.just("run_both"), st.integers(min_value=0, max_value=150),
                  st.integers(min_value=0, max_value=4)),
    ),
    max_size=120,
)


def _apply_ops(ops):
    """Drive a simulator through ``ops``; returns (sim, entries, log, clock).

    ``log`` holds the ``(time, seq)`` of every callback in firing order
    and ``clock`` every reading of ``sim.now`` (inside callbacks and
    after each op).  A cancel picks ``index % len(entries)``, so it may
    hit a pending, a cancelled or a fired entry.
    """
    sim = Simulator()
    entries, log, clock = [], [], []

    def record(box):
        clock.append(sim.now)
        log.append((sim.now, box[0][1]))

    for op in ops:
        kind = op[0]
        if kind == "schedule":
            box = []
            box.append(sim.schedule(op[1], record, box))
            entries.append(box[0])
        elif kind in ("cancel", "cancel_twice"):
            if entries:
                entry = entries[op[1] % len(entries)]
                sim.cancel(entry)
                if kind == "cancel_twice":
                    sim.cancel(entry)
        elif kind == "run_max":
            sim.run(max_events=op[1])
        elif kind == "run_until":
            sim.run(until=sim.now + op[1])
        else:
            sim.run(until=sim.now + op[1], max_events=op[2])
        clock.append(sim.now)
    return sim, entries, log, clock


class TestLivePendingCount:
    """pending_events is an exact O(1) count, not a queue scan."""

    def test_interleaved_schedule_cancel_fire(self):
        sim = Simulator()
        h1 = sim.schedule(10, lambda: None)
        h2 = sim.schedule(20, lambda: None)
        h3 = sim.schedule(30, lambda: None)
        assert sim.pending_events == 3
        sim.cancel(h2)
        assert sim.pending_events == 2
        sim.run(until=10)  # fires h1
        assert sim.pending_events == 1
        h4 = sim.schedule(15, lambda: None)
        assert sim.pending_events == 2
        sim.cancel(h4)
        sim.cancel(h3)
        assert sim.pending_events == 0
        sim.run()
        assert sim.pending_events == 0
        assert is_fired(h1) and is_cancelled(h2) and is_cancelled(h3) and is_cancelled(h4)

    def test_double_cancel_decrements_once(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        sim.cancel(handle)
        sim.cancel(handle)
        assert sim.pending_events == 1

    def test_cancel_after_fire_does_not_decrement(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        sim.run(until=10)
        assert sim.pending_events == 1
        sim.cancel(handle)  # no-op: already fired
        assert sim.pending_events == 1

    def test_cancel_own_handle_inside_callback(self):
        # A callback cancelling its own (already-fired) entry must not
        # double-decrement the live count.
        sim = Simulator()
        box = {}
        box["h"] = sim.schedule(10, lambda: sim.cancel(box["h"]))
        sim.schedule(20, lambda: None)
        sim.run(until=10)
        assert sim.pending_events == 1

    @given(ops=_ops)
    @example(ops=_seeded_ops(42))
    @example(ops=[("schedule", 10), ("schedule", 20), ("run_both", 150, 1),
                  ("run_max", 1)])
    @settings(deadline=None)
    def test_count_matches_scan_under_random_interleaving(self, ops):
        sim, entries, log, clock = _apply_ops(ops)
        scan = sum(1 for entry in sim._queue if entry[2] is not None)
        assert sim.pending_events == scan
        assert scan == sum(1 for entry in entries if is_pending(entry))
        assert clock == sorted(clock), "the clock moved backwards"
        # Drain: every entry not cancelled fires exactly once, and all
        # fired in (time, seq) order.
        sim.run()
        assert sim.pending_events == 0
        assert log == sorted(log)
        assert sorted(seq for _, seq in log) == [
            entry[1] for entry in entries if not is_cancelled(entry)
        ]
        assert all(is_fired(entry) or is_cancelled(entry) for entry in entries)


class TestHeapCompaction:
    def test_compaction_triggers_past_floor_and_majority(self):
        sim = Simulator()
        sim.compact_floor = 8
        live = [sim.schedule(1000 + i, lambda: None) for i in range(6)]
        doomed = [sim.schedule(2000 + i, lambda: None) for i in range(10)]
        for handle in doomed:
            sim.cancel(handle)
        assert sim.heap_compactions == 1
        # Compaction fires at the 9th cancel (dead=9 of 16: past floor 8
        # and a majority); the 10th cancel leaves one fresh tombstone.
        assert len(sim._queue) == len(live) + 1
        assert sim.pending_events == 6

    def test_no_compaction_below_floor(self):
        sim = Simulator()  # default floor of 1024
        doomed = [sim.schedule(100 + i, lambda: None) for i in range(50)]
        for handle in doomed:
            sim.cancel(handle)
        assert sim.heap_compactions == 0

    def test_no_compaction_while_tombstones_are_minority(self):
        sim = Simulator()
        sim.compact_floor = 4
        for i in range(20):
            sim.schedule(100 + i, lambda: None)
        for handle in [sim.schedule(500 + i, lambda: None) for i in range(5)]:
            sim.cancel(handle)
        # 5 dead of 25 total: past the floor but not a majority.
        assert sim.heap_compactions == 0

    def test_compaction_preserves_firing_order(self):
        rng = random.Random(7)
        sim = Simulator()
        sim.compact_floor = 16
        order = []
        expected = []
        handles = []
        for i in range(400):
            t = rng.randrange(1, 10_000)
            handles.append((t, sim.schedule_at(t, order.append, (t, i))))
        # Cancel enough to force several compactions mid-stream.
        for t, handle in rng.sample(handles, 300):
            sim.cancel(handle)
        assert sim.heap_compactions >= 1
        survivors = [(t, h) for t, h in handles if not is_cancelled(h)]
        # Survivors must fire in (time, seq) order; seq increases with
        # creation order, so sorting by (t, creation index) predicts it.
        expected = sorted(
            ((t, h[1]) for t, h in survivors), key=lambda pair: pair
        )
        sim.run()
        assert [t for t, _ in order] == [t for t, _ in expected]
        assert len(order) == len(survivors)

    def test_compaction_counters_exposed(self):
        sim = Simulator()
        sim.compact_floor = 2
        for i in range(6):
            sim.schedule(10 + i, lambda: None)
        counters = sim.counters()
        assert counters["heap_peak"] == 6
        assert counters["heap_compactions"] == 0
        for handle in list(sim._queue)[:5]:
            sim.cancel(handle)
        counters = sim.counters()
        assert counters["heap_compactions"] >= 1
        assert counters["pending_events"] == 1
        assert counters["heap_peak"] == 6

    def test_compaction_mid_run_is_safe(self):
        sim = Simulator()
        sim.compact_floor = 4
        fired = []
        doomed = [sim.schedule(500 + i, lambda: None) for i in range(20)]

        def cancel_many():
            fired.append("cancel")
            for handle in doomed:
                sim.cancel(handle)

        sim.schedule(10, cancel_many)
        sim.schedule(100, fired.append, "after")
        sim.run()
        assert fired == ["cancel", "after"]
        assert sim.heap_compactions >= 1


class TestDeterminismProperty:
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=1000),
                      st.integers(min_value=0, max_value=9)),
            min_size=1,
            max_size=50,
        )
    )
    def test_replay_produces_identical_order(self, entries):
        def run_once():
            sim = Simulator()
            order = []
            for delay, tag in entries:
                sim.schedule(delay, lambda t=tag: order.append((sim.now, t)))
            sim.run()
            return order

        assert run_once() == run_once()

    @given(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50)
    )
    def test_fire_times_are_sorted(self, delays):
        sim = Simulator()
        times = []
        for delay in delays:
            sim.schedule(delay, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)
