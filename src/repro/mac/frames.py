"""Frame formats and airtime arithmetic.

Sizes follow IEEE 802.11-2007 (the revision the paper cites):

* data MPDU overhead: 24-byte MAC header + 4-byte FCS = 28 bytes;
* ACK: 14 bytes total;
* CO-MAP announcement header (the paper's "separate small header packet
  with its own FCS"): source + destination addresses (12 B) + FCS (4 B)
  = 16 bytes, carried at the base rate so every neighbor can decode it.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.phy.rates import Rate

#: MAC header (24 B) plus frame check sequence (4 B) for data frames.
MAC_DATA_OVERHEAD_BYTES = 28
#: Total size of an 802.11 ACK control frame.
ACK_BYTES = 14
#: Total sizes of the RTS / CTS control frames.
RTS_BYTES = 20
CTS_BYTES = 14
#: Total size of the CO-MAP transmission-announcement header packet.
COMAP_HEADER_BYTES = 16
#: Extra FCS inserted after the sequence-number field for the *embedded*
#: announcement variant ("adds only four bytes overhead on the current
#: frame format").
EMBEDDED_ANNOUNCE_BYTES = 4
#: Portion of the MAC header (addresses + seq + early FCS) an overhearer
#: must decode to learn the announcement: 2+2+6+6+2 bytes + 4 B FCS.
EMBEDDED_DECODE_BYTES = 22

#: Broadcast destination marker.
BROADCAST = -1

_frame_ids = itertools.count(1)


class FrameType(enum.Enum):
    """Kinds of frames the simulator moves over the air."""

    DATA = "data"
    ACK = "ack"
    RTS = "rts"
    CTS = "cts"
    COMAP_HEADER = "comap-header"


#: The frame kinds bound once as globals: a class read of an enum member
#: goes through a slow attribute hook before Python 3.12 (see
#: ``repro.mac.dcf._CONTEND``), and every frame is built and tested.
_DATA = FrameType.DATA
_ACK = FrameType.ACK
_RTS = FrameType.RTS
_CTS = FrameType.CTS
_COMAP_HEADER = FrameType.COMAP_HEADER


@dataclass
class Frame:
    """One over-the-air frame (PSDU) plus simulation metadata.

    ``payload_bytes`` counts only upper-layer payload; MAC/PHY overhead is
    added by the airtime computation.  ``meta`` carries protocol extras:
    CO-MAP uses it for selective-repeat ACK bitmaps and for flagging
    frames sent as exposed concurrent transmissions.
    """

    kind: FrameType
    src: int
    dst: int
    rate: Rate
    payload_bytes: int = 0
    seq: int = 0
    flow: Optional[Tuple[int, int]] = None
    retry: int = 0
    meta: Dict[str, Any] = field(default_factory=dict)
    uid: int = field(default_factory=lambda: next(_frame_ids))

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ValueError("payload size cannot be negative")
        if self.kind is _DATA and self.payload_bytes == 0:
            raise ValueError("data frames must carry payload")

    @property
    def total_bytes(self) -> int:
        """On-air MPDU size including MAC overhead."""
        kind = self.kind
        if kind is _DATA:
            extra = EMBEDDED_ANNOUNCE_BYTES if self.meta.get("embedded_announce") else 0
            return self.payload_bytes + MAC_DATA_OVERHEAD_BYTES + extra
        if kind is _ACK:
            return ACK_BYTES
        if kind is _RTS:
            return RTS_BYTES
        if kind is _CTS:
            return CTS_BYTES
        if kind is _COMAP_HEADER:
            return COMAP_HEADER_BYTES
        raise AssertionError(f"unhandled frame kind {self.kind}")

    @property
    def is_broadcast(self) -> bool:
        """True when the frame is not addressed to a single receiver."""
        return self.dst == BROADCAST

    def describe(self) -> str:
        """Compact human-readable rendering used by reprs and errors."""
        return (
            f"{self.kind.value}#{self.seq} {self.src}->{self.dst} "
            f"{self.payload_bytes}B @{self.rate}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Frame {self.describe()} uid={self.uid}>"
