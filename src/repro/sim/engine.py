"""The discrete-event simulator core.

Design notes
------------

* **Integer time.**  Timestamps are integer nanoseconds.  802.11 timing is
  defined in microseconds, so nanoseconds leave headroom for sub-slot
  bookkeeping while keeping comparisons exact — two events scheduled for
  "the same instant" really collide, instead of drifting apart through
  floating-point noise.  Callers pass integer delays and times; the
  engine does not convert them.
* **Deterministic tie-break.**  Events at equal times fire in scheduling
  order (a monotonically increasing sequence number breaks heap ties).
  This makes runs bit-reproducible across platforms.
* **An event is its heap entry.**  :meth:`Simulator.schedule` pushes and
  returns one list ``[time, seq, callback, args]``; there is no separate
  handle object.  ``seq`` is unique, so every sift comparison is a
  C-level list compare decided before the callback is reached.  A
  saturated cell schedules tens of thousands of timers a window and
  cancels most of them before they fire, so one allocation per event
  instead of two is a measurable share of the run.
* **Cancellation by tombstone.**  :meth:`Simulator.cancel` empties the
  entry's callback slot (``None``) and releases its arguments; the entry
  stays in the heap until it is popped or compacted away.  This is O(1)
  per cancel and keeps the hot loop branch-light — the standard approach
  for MAC simulations where backoff timers are cancelled constantly.
  The run loop stores :data:`FIRED` in the slot before it calls the
  callback, so the slot alone tells the three states apart: a callable
  is pending, ``None`` is cancelled, :data:`FIRED` has fired.
* **Heap hygiene.**  The engine maintains an exact live-event count
  (``pending_events`` is O(1), not a queue scan) and compacts the heap
  when tombstones exceed both half the heap and a floor of
  ``compact_floor`` entries — MAC simulations cancel an ACK timeout on
  every successful exchange, so long runs would otherwise drag a
  dead-entry majority through every push and pop.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
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


#: What the run loop stores in an entry's callback slot just before it
#: calls the callback, so a fired entry is told apart from a pending one
#: (a callable) and a cancelled one (``None``).
FIRED = object()


class Simulator:
    """A single-threaded discrete-event simulator.

    Typical use::

        sim = Simulator()
        timeout = sim.schedule(10 * MICROSECOND, mac.ack_timeout, frame)
        sim.cancel(timeout)  # the ACK came first: the timeout never fires
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
        #: Current simulated time in nanoseconds.  A plain attribute read
        #: on every MAC edge; only :meth:`run` writes it.
        self.now: int = 0
        self._seq: int = 0
        # Heap of [time, seq, callback, args] entries; see the design notes.
        self._queue: List[list] = []
        self._running = False
        self._events_fired = 0
        self._live = 0  # exact count of scheduled, not-cancelled, not-fired events
        self._heap_peak = 0
        self._compactions = 0
        self._watchdog_trips = 0

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
        """Engine-level counters, by name.

        :meth:`repro.net.network.Network.counters` reports them under
        ``sim/``.
        """
        return {
            "events_fired": self._events_fired,
            "pending_events": self.pending_events,
            "heap_compactions": self._compactions,
            "heap_peak": self._heap_peak,
            "watchdog_trips": self._watchdog_trips,
        }

    def schedule(self, delay: int, callback: Callable[..., None], *args: Any) -> list:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now.

        ``delay`` must be a non-negative integer; zero-delay events run
        after all events already scheduled for the current instant.
        Returns the event's heap entry, the handle :meth:`cancel` takes.

        This is the engine's hottest entry point (every frame schedules
        at least its end-of-air and delivery), so the body inlines
        :meth:`schedule_at` rather than delegating — a non-negative
        delay from ``now`` can never land in the past, making the
        absolute-time check redundant here.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq = seq = self._seq + 1
        entry = [self.now + delay, seq, callback, args]
        queue = self._queue
        heappush(queue, entry)
        self._live += 1
        if len(queue) > self._heap_peak:
            self._heap_peak = len(queue)
        return entry

    def schedule_at(self, time: int, callback: Callable[..., None], *args: Any) -> list:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        self._seq = seq = self._seq + 1
        entry = [time, seq, callback, args]
        queue = self._queue
        heappush(queue, entry)
        self._live += 1
        if len(queue) > self._heap_peak:
            self._heap_peak = len(queue)
        return entry

    def cancel(self, entry: list) -> None:
        """Keep a scheduled event from firing.  Idempotent.

        Tombstones ``entry`` in place: its callback slot becomes ``None``
        and its arguments are released, so a cancelled closure pins
        nothing.  Cancelling an entry that already fired or was already
        cancelled is a no-op, so the live count drops once per event and
        a fired entry stays fired.
        """
        callback = entry[2]
        if callback is None or callback is FIRED:
            return
        entry[2] = None
        entry[3] = ()
        self._live -= 1
        # Compact when tombstones exceed both half the heap and the floor.
        size = len(self._queue)
        dead = size - self._live
        if dead >= self.compact_floor and dead * 2 > size:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap from live entries, dropping tombstones.

        ``heapify`` over the filtered list preserves the (time, seq)
        ordering invariant, so firing order is unchanged.  Safe mid-run:
        the list is rebuilt in place, so the run loop's reference to it
        stays valid.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue if entry[2] is not None]
        heapify(queue)
        self._compactions += 1

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events in timestamp order.

        Stops when the queue drains, when simulated time would pass
        ``until`` (events at exactly ``until`` still fire), or after
        ``max_events`` callbacks (a runaway-loop safeguard for tests).
        The clock then moves to ``until`` unless ``max_events`` stopped
        the run with a live event still due by then: that event keeps
        the clock from passing it.  Returns the number of events fired
        by this call.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        fired = 0
        halted = False
        # Liveness watchdog state: a same-instant event streak within this
        # run() call.  The streak resets whenever the clock advances, so
        # only a genuinely stuck instant (e.g. a handler rescheduling
        # itself at zero delay forever) can trip it.
        watchdog_limit = self.watchdog_limit
        streak_time = -1
        streak = 0
        queue = self._queue
        try:
            while queue:
                entry = heappop(queue)
                callback = entry[2]
                if callback is None:
                    continue  # a tombstone
                time = entry[0]
                if until is not None and time > until:
                    heappush(queue, entry)  # not due: put it back
                    break
                if max_events is not None and fired >= max_events:
                    heappush(queue, entry)
                    halted = True
                    break
                self.now = time
                if watchdog_limit is not None:
                    if time == streak_time:
                        streak += 1
                    else:
                        streak_time = time
                        streak = 1
                    if streak > watchdog_limit:
                        # Push the unfired event back so pending_events and
                        # the queue stay consistent for post-mortem reads.
                        heappush(queue, entry)
                        self._watchdog_trips += 1
                        name = getattr(callback, "__qualname__", repr(callback))
                        raise WatchdogError(time, streak, name)
                args = entry[3]
                entry[2] = FIRED  # fired events cannot be cancelled later
                entry[3] = ()  # release the arguments, as cancel() does
                self._live -= 1
                callback(*args)
                fired += 1
                self._events_fired += 1
        finally:
            self._running = False
        if until is not None and self.now < until and not halted:
            # Advance the clock to the horizon so metrics normalise over the
            # full requested window even if the network went quiet early.
            self.now = until
        return fired
