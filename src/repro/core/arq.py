"""Selective-repeat ARQ bookkeeping (Section IV-C4).

When CO-MAP enables exposed concurrent transmissions, the two data frames
rarely finish together, so an ACK sent right after one of them can be
corrupted by the tail of the other.  Stop-and-wait would retransmit the
(already received) data frame; the paper instead adopts selective-repeat:

* the sender keeps a window of up to ``W_send`` frames; on a missing ACK
  it *advances* to the next frame instead of retransmitting;
* the receiver's ACKs carry the recently received sequence numbers, so a
  later ACK retroactively confirms frames whose own ACK was lost;
* once the window is exhausted, the sender retransmits exactly the frames
  never confirmed.

The classes below are pure bookkeeping (no timers, no simulator) so their
invariants are property-testable in isolation;
:class:`repro.mac.comap.CoMapMac` drives them from its ACK path.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Iterable, List, Optional, Tuple, TypeVar

ItemT = TypeVar("ItemT")


class SrSender(Generic[ItemT]):
    """Sender-side window of transmitted-but-unconfirmed items."""

    def __init__(self, window_size: int) -> None:
        if window_size < 1:
            raise ValueError("window size must be at least 1")
        self.window_size = window_size
        self._pending: "OrderedDict[int, ItemT]" = OrderedDict()
        self.advances = 0
        #: Deferred frames confirmed by a *later* frame's ACK — the ACK
        #: they were waiting on really was lost and the piggybacked
        #: sequence list rescued them.
        self.late_confirms = 0
        #: Deferred frames confirmed by their *own* ACK (it arrived after
        #: the sender had already advanced past them, e.g. a delayed ACK
        #: beating the retransmission).  Not a loss, so counted apart.
        self.prompt_confirms = 0

    def defer(self, seq: int, item: ItemT) -> None:
        """Record an unacknowledged frame and advance past it.

        Raises if the window is already full — the caller must retransmit
        (:meth:`next_retransmit`) before deferring more.
        """
        if self.window_full:
            raise RuntimeError(
                f"selective-repeat window ({self.window_size}) exhausted; "
                "retransmit before deferring more frames"
            )
        if seq in self._pending:
            raise ValueError(f"sequence {seq} already deferred")
        self._pending[seq] = item
        self.advances += 1

    def confirm(self, seqs: Iterable[int], own_seq: Optional[int] = None) -> List[ItemT]:
        """Remove every pending frame whose sequence appears in ``seqs``.

        Returns the confirmed items.  ``own_seq`` names the sequence the
        confirming ACK *directly* acknowledges: confirming that frame is
        a **prompt** confirmation (its own ACK arrived, merely later
        than the timeout), while every other hit is a **late**
        confirmation — a frame whose own ACK was genuinely lost and that
        this ACK's piggybacked list vouched for.  Before the split,
        ``late_confirms`` over-reported by counting both kinds.
        """
        confirmed: List[ItemT] = []
        for seq in seqs:
            item = self._pending.pop(seq, None)
            if item is not None:
                confirmed.append(item)
                if own_seq is not None and seq == own_seq:
                    self.prompt_confirms += 1
                else:
                    self.late_confirms += 1
        return confirmed

    def counters(self) -> dict:
        """This window's counters, by name (CO-MAP sums them under ``arq/``)."""
        return {
            "advances": self.advances,
            "prompt_confirms": self.prompt_confirms,
            "late_confirms": self.late_confirms,
            "outstanding": len(self._pending),
        }

    @property
    def window_full(self) -> bool:
        """True when no more frames may be deferred."""
        return len(self._pending) >= self.window_size

    @property
    def outstanding(self) -> int:
        """Number of deferred, still-unconfirmed frames."""
        return len(self._pending)

    def next_retransmit(self) -> Optional[Tuple[int, ItemT]]:
        """Oldest unconfirmed frame to resend, or None if all confirmed."""
        if not self._pending:
            return None
        seq = next(iter(self._pending))
        return seq, self._pending.pop(seq)


class SrReceiver:
    """Receiver-side history used to populate ACK confirmation lists."""

    def __init__(self, history: int) -> None:
        if history < 1:
            raise ValueError("history must be at least 1")
        self.history = history
        self._recent: "OrderedDict[int, None]" = OrderedDict()

    def on_received(self, seq: int) -> None:
        """Record one successfully received sequence number."""
        if seq in self._recent:
            self._recent.move_to_end(seq)
        else:
            self._recent[seq] = None
            while len(self._recent) > self.history:
                self._recent.popitem(last=False)

    def ack_payload(self) -> Tuple[int, ...]:
        """Sequences to piggyback on the next ACK (newest last)."""
        return tuple(self._recent)
