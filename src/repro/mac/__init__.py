"""MAC layer: 802.11 DCF and the CO-MAP extension.

* :mod:`repro.mac.frames` — frame formats and airtime arithmetic.
* :mod:`repro.mac.timing` — PHY timing profiles (slot/SIFS/DIFS/preamble).
* :mod:`repro.mac.dcf` — the baseline CSMA/CA Distributed Coordination
  Function: binary exponential backoff, stop-and-wait ACK, retries, EIFS.
* :mod:`repro.mac.exposed` — the exposed-transmission episode CO-MAP,
  C-SR and CMAP share: announcement header, ``RSSI_1`` capture, counting
  down through the busy medium, expiry and teardown.
* :mod:`repro.mac.comap` — the CO-MAP MAC: location-validated
  exposed-terminal concurrency with the enhanced scheduling algorithm,
  selective-repeat ARQ, and HT-driven packet-size/CW adaptation.
* :mod:`repro.mac.cmap` — a CMAP-style baseline that learns its conflict
  map from losses instead of positions (related-work comparison).
* :mod:`repro.mac.rate_control` — Minstrel-style bit-rate adaptation.
"""

from repro.mac.frames import Frame, FrameType, MAC_DATA_OVERHEAD_BYTES, ACK_BYTES
from repro.mac.timing import PhyTiming, DSSS_TIMING, OFDM_TIMING
from repro.mac.dcf import DcfMac, MacConfig, LinkStats
from repro.mac.comap import CoMapMac, CoMapMacConfig
from repro.mac.cmap import CmapMac
from repro.mac.rate_control import MinstrelLite, FixedRate, RatePolicy

__all__ = [
    "Frame",
    "FrameType",
    "MAC_DATA_OVERHEAD_BYTES",
    "ACK_BYTES",
    "PhyTiming",
    "DSSS_TIMING",
    "OFDM_TIMING",
    "DcfMac",
    "MacConfig",
    "LinkStats",
    "CoMapMac",
    "CoMapMacConfig",
    "CmapMac",
    "MinstrelLite",
    "FixedRate",
    "RatePolicy",
]
