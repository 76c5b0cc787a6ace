"""The discrete-event simulator core.

Design notes
------------

* **Integer time.**  Timestamps are integer nanoseconds.  802.11 timing is
  defined in microseconds, so nanoseconds leave headroom for sub-slot
  bookkeeping while keeping comparisons exact — two events scheduled for
  "the same instant" really collide, instead of drifting apart through
  floating-point noise.
* **Deterministic tie-break.**  Events at equal times fire in scheduling
  order (a monotonically increasing sequence number breaks heap ties).
  This makes runs bit-reproducible across platforms.
* **Cancellation by tombstone.**  Cancelling marks the handle dead; the
  heap entry is discarded lazily when popped.  This is O(1) per cancel and
  keeps the hot loop branch-light — the standard approach for MAC
  simulations where backoff timers are cancelled constantly.
* **Tuple heap entries.**  The heap stores ``(time, seq, handle)``
  tuples, not handles, so every sift comparison is a C-level tuple
  compare — ``seq`` is unique, so ordering is decided before the handle
  is ever compared.  A dense saturated cell pushes tens of thousands of
  events through the heap; python-level ``__lt__`` dispatch on each
  comparison was a measurable share of the whole run.
* **Heap hygiene.**  The engine maintains an exact live-event count
  (``pending_events`` is O(1), not a queue scan) and compacts the heap
  when tombstones exceed both half the heap and a floor of
  ``compact_floor`` entries — MAC simulations cancel an ACK timeout on
  every successful exchange, so long runs would otherwise drag a
  dead-entry majority through every push and pop.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional


class SimulationError(RuntimeError):
    """Raised for invalid uses of the engine (negative delays, time travel)."""


class WatchdogError(SimulationError):
    """The liveness watchdog tripped: simulated time stopped advancing.

    Carries structured context so a sweep harness can record what was
    stuck without parsing the message: the instant the clock froze at
    (``time``), how many events fired at that instant (``events``), and
    the qualified name of the last callback executed (``callback``).
    """

    def __init__(self, time: int, events: int, callback: str) -> None:
        super().__init__(
            f"watchdog: {events} events fired at t={time} without the clock "
            f"advancing (last callback: {callback}); the event queue is not "
            f"draining"
        )
        self.time = time
        self.events = events
        self.callback = callback


class EventHandle:
    """A cancellable reference to a scheduled callback.

    Returned by :meth:`Simulator.schedule`; callers keep it only if they may
    need to cancel (e.g. an ACK timeout cancelled by ACK arrival).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired", "_sim")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[..., None],
        args: tuple,
        sim: "Optional[Simulator]" = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent.

        Cancelling after the event fired is a no-op: the handle stays in
        the ``fired`` state rather than pretending the callback never ran.
        Double-cancel is likewise a no-op — the engine's live-event count
        is decremented exactly once per handle.
        """
        if self.fired or self.cancelled:
            return
        self.cancelled = True
        # Drop references eagerly so cancelled closures don't pin objects.
        self.callback = _noop
        self.args = ()
        if self._sim is not None:
            self._sim._note_cancelled()

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and not cancelled or fired."""
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.fired else ("cancelled" if self.cancelled else "pending")
        return f"<EventHandle t={self.time} seq={self.seq} {state}>"


def _noop(*_args: Any) -> None:
    """Placeholder callback installed by :meth:`EventHandle.cancel`."""


class Simulator:
    """A single-threaded discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(10 * MICROSECOND, radio.end_tx, frame)
        sim.run(until=2 * SECOND)
    """

    #: Minimum tombstone count before compaction is considered.  Class
    #: default; tests lower it per-instance to exercise compaction cheaply.
    compact_floor: int = 1024

    #: Liveness watchdog: maximum events fired at one simulated instant
    #: before :meth:`run` raises :class:`WatchdogError`.  ``None`` (the
    #: default) disables the check — legitimate workloads (coalesced air
    #: notifications, zero-delay drains) fire bounded same-instant bursts,
    #: so the limit is a scenario-scale knob, not a universal constant.
    watchdog_limit: Optional[int] = None

    def __init__(self) -> None:
        self._now: int = 0
        self._seq: int = 0
        # Heap of (time, seq, handle); see the tuple-entry design note.
        self._queue: List[tuple] = []
        self._running = False
        self._events_fired = 0
        self._live = 0  # exact count of scheduled, not-cancelled, not-fired events
        self._heap_peak = 0
        self._compactions = 0
        self._watchdog_trips = 0

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total callbacks executed so far (profiling/diagnostics)."""
        return self._events_fired

    @property
    def running(self) -> bool:
        """True while :meth:`run` is executing events.

        Lets callers distinguish "called from inside an event callback"
        (defer follow-up work with a zero-delay event) from "called
        between runs" (do it synchronously — a deferred event would not
        fire until the next ``run``).
        """
        return self._running

    @property
    def pending_events(self) -> int:
        """Number of scheduled-and-live events still in the queue.

        O(1): the engine maintains an exact count across schedule, fire,
        and cancel instead of scanning the queue per snapshot.
        """
        return self._live

    @property
    def heap_peak(self) -> int:
        """Largest heap length (live + tombstones) observed so far."""
        return self._heap_peak

    @property
    def heap_compactions(self) -> int:
        """Number of times the heap was rebuilt to shed tombstones."""
        return self._compactions

    def counters(self) -> dict:
        """Engine-level counters, in registry-source form.

        :class:`repro.net.network.Network` registers this under the
        ``sim`` prefix of its counter registry.
        """
        return {
            "events_fired": self._events_fired,
            "pending_events": self.pending_events,
            "heap_compactions": self._compactions,
            "heap_peak": self._heap_peak,
            "watchdog_trips": self._watchdog_trips,
        }

    def schedule(self, delay: int, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now.

        ``delay`` must be a non-negative integer; zero-delay events run
        after all events already scheduled for the current instant.

        This is the engine's hottest entry point (every frame schedules
        at least its end-of-air and delivery), so the body inlines
        :meth:`schedule_at` rather than delegating — a non-negative
        delay from ``now`` can never land in the past, making the
        absolute-time check redundant here.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self._now + int(delay)
        self._seq += 1
        seq = self._seq
        handle = EventHandle(time, seq, callback, args, self)
        queue = self._queue
        heapq.heappush(queue, (time, seq, handle))
        self._live += 1
        if len(queue) > self._heap_peak:
            self._heap_peak = len(queue)
        return handle

    def schedule_at(self, time: int, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        self._seq += 1
        handle = EventHandle(int(time), self._seq, callback, args, self)
        heapq.heappush(self._queue, (handle.time, self._seq, handle))
        self._live += 1
        if len(self._queue) > self._heap_peak:
            self._heap_peak = len(self._queue)
        return handle

    def _note_cancelled(self) -> None:
        """Bookkeeping hook called by :meth:`EventHandle.cancel` (once).

        Decrements the live count and compacts the heap when tombstones
        exceed both half the heap and :attr:`compact_floor` entries.
        """
        self._live -= 1
        dead = len(self._queue) - self._live
        if dead >= self.compact_floor and dead * 2 > len(self._queue):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap from live handles, dropping tombstones.

        ``heapify`` over the filtered list preserves the (time, seq)
        ordering invariant, so firing order is unchanged.  Safe mid-run:
        the run loop re-reads ``self._queue`` every iteration.
        """
        self._queue = [entry for entry in self._queue if not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._compactions += 1

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events in timestamp order.

        Stops when the queue drains, when simulated time would pass
        ``until`` (events at exactly ``until`` still fire), or after
        ``max_events`` callbacks (a runaway-loop safeguard for tests).
        Returns the number of events fired by this call.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        fired = 0
        # Liveness watchdog state: a same-instant event streak within this
        # run() call.  The streak resets whenever the clock advances, so
        # only a genuinely stuck instant (e.g. a handler rescheduling
        # itself at zero delay forever) can trip it.
        watchdog_limit = self.watchdog_limit
        streak_time = -1
        streak = 0
        try:
            while self._queue:
                entry = self._queue[0]
                handle = entry[2]
                if handle.cancelled:
                    heapq.heappop(self._queue)
                    continue
                time = entry[0]
                if until is not None and time > until:
                    break
                if max_events is not None and fired >= max_events:
                    break
                heapq.heappop(self._queue)
                self._now = time
                if watchdog_limit is not None:
                    if time == streak_time:
                        streak += 1
                    else:
                        streak_time = time
                        streak = 1
                    if streak > watchdog_limit:
                        # Push the unfired event back so pending_events and
                        # the queue stay consistent for post-mortem reads.
                        heapq.heappush(self._queue, entry)
                        self._watchdog_trips += 1
                        name = getattr(
                            handle.callback, "__qualname__", repr(handle.callback)
                        )
                        raise WatchdogError(handle.time, streak, name)
                callback, args = handle.callback, handle.args
                handle.fired = True  # fired events cannot be cancelled later
                handle.callback = _noop  # release closures, as cancel() does
                handle.args = ()
                self._live -= 1
                callback(*args)
                fired += 1
                self._events_fired += 1
        finally:
            self._running = False
        if until is not None and self._now < until:
            # Advance the clock to the horizon so metrics normalise over the
            # full requested window even if the network went quiet early.
            self._now = until
        return fired
