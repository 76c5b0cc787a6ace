"""Bianchi's saturated-DCF slot model for constant backoff windows.

For a network of ``n = c + 1`` saturated stations each drawing backoff
uniformly from a constant window of ``W`` slots, a station transmits in a
randomly chosen slot with probability::

    tau = 2 / (W + 1)

(the paper's simplification of Bianchi's fixed point for constant CW).
The renewal "slot" seen by a contender is then one of:

* an **empty** slot of length ``T0`` with probability ``1 - P_tr``,
* a **successful** exchange of length ``T_s`` with probability
  ``P_tr * P_s``,
* a **collision** of length ``T_c`` with probability ``P_tr (1 - P_s)``,

with ``P_tr = 1 - (1 - tau)^(c+1)`` and
``P_s = (c+1) tau (1 - tau)^c / P_tr`` (eqs. 6-7).  ``T_s`` and ``T_c``
follow eq. (8): ``T_s = T_HDR + T_payload + SIFS + T_ACK + DIFS`` and
``T_c = T_HDR + T_payload + DIFS`` (homogeneous payloads, so the longest
frame in a collision equals the average frame).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # hints only — keeps analytical import-independent of mac
    from repro.mac.timing import PhyTiming
    from repro.phy.rates import Rate


@dataclass(frozen=True)
class SlotBreakdown:
    """The pieces of the expected-slot computation (all times in ns)."""

    tau: float
    p_tr: float
    p_s: float
    t_empty_ns: float
    t_success_ns: float
    t_collision_ns: float

    @property
    def expected_slot_ns(self) -> float:
        """E[slot length] of eq. (5)'s denominator."""
        return (
            (1.0 - self.p_tr) * self.t_empty_ns
            + self.p_tr * self.p_s * self.t_success_ns
            + self.p_tr * (1.0 - self.p_s) * self.t_collision_ns
        )

    def tagged_goodput_bps(self, contenders: int, payload_bytes: int) -> float:
        """Per-link saturation goodput without hidden terminals (bit/s).

        This is eq. (5) with ``h = 0``: the tagged station's success
        probability is ``tau (1 - tau)^c`` per slot.
        """
        p_success_tagged = self.tau * (1.0 - self.tau) ** contenders
        payload_bits = payload_bytes * 8
        return p_success_tagged * payload_bits / (self.expected_slot_ns * 1e-9)


class BianchiSlotModel:
    """Slot statistics of a constant-window saturated DCF network.

    Parameters
    ----------
    timing:
        PHY timing profile (shared with the simulator so model and
        simulation agree on every overhead term).
    data_rate / ack_rate:
        Rates for the payload and the acknowledgement.
    extra_header_bytes:
        Extra per-exchange on-air bytes (CO-MAP's announcement header is
        modelled by inflating ``T_HDR``); zero for plain DCF.
    """

    def __init__(
        self,
        timing: "PhyTiming",
        data_rate: "Rate",
        ack_rate: "Rate",
        extra_header_ns: int = 0,
    ) -> None:
        self.timing = timing
        self.data_rate = data_rate
        self.ack_rate = ack_rate
        self.extra_header_ns = int(extra_header_ns)

    @staticmethod
    def tau_for_window(window: int) -> float:
        """Per-slot transmission probability for constant window ``W``."""
        if window < 1:
            raise ValueError(f"window must be at least 1 slot, got {window}")
        return 2.0 / (window + 1.0)

    def t_success_ns(self, payload_bytes: int) -> float:
        """Eq. (8)'s ``T_s`` for one payload size."""
        return (
            self.timing.data_exchange_ns(self.data_rate, payload_bytes, self.ack_rate)
            + self.extra_header_ns
        )

    def t_collision_ns(self, payload_bytes: int) -> float:
        """Eq. (8)'s ``T_c`` for one payload size."""
        return self.timing.collision_ns(self.data_rate, payload_bytes) + self.extra_header_ns

    def data_airtime_ns(self, payload_bytes: int) -> float:
        """On-air time of the data frame alone (the model's ``T_i``)."""
        return (
            self.timing.data_airtime_ns(self.data_rate, payload_bytes)
            + self.extra_header_ns
        )

    def slot(self, window: int, contenders: int, payload_bytes: int) -> SlotBreakdown:
        """Full slot statistics for ``c = contenders`` and window ``W``."""
        if contenders < 0:
            raise ValueError("contender count cannot be negative")
        if payload_bytes <= 0:
            raise ValueError("payload must be positive")
        return self._breakdown(self.tau_for_window(window), contenders, payload_bytes)

    def goodput_bps(self, window: int, contenders: int, payload_bytes: int) -> float:
        """Per-link saturation goodput without hidden terminals (bit/s)."""
        return self.slot(window, contenders, payload_bytes).tagged_goodput_bps(
            contenders, payload_bytes
        )

    def slot_for_tau(self, tau: float, contenders: int, payload_bytes: int) -> SlotBreakdown:
        """Slot statistics for an externally supplied ``tau`` (BEB model)."""
        if not 0.0 < tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {tau}")
        return self._breakdown(tau, contenders, payload_bytes)

    def _breakdown(self, tau: float, contenders: int, payload_bytes: int) -> SlotBreakdown:
        """Eqs. (6)-(8) for ``c = contenders`` stations besides the tagged
        one, each transmitting with probability ``tau``."""
        n = contenders + 1
        p_tr = 1.0 - (1.0 - tau) ** n
        if p_tr <= 0.0:
            raise ValueError("degenerate network: nobody ever transmits")
        p_s = n * tau * (1.0 - tau) ** contenders / p_tr
        return SlotBreakdown(
            tau=tau,
            p_tr=p_tr,
            p_s=p_s,
            t_empty_ns=float(self.timing.slot_ns),
            t_success_ns=self.t_success_ns(payload_bytes),
            t_collision_ns=self.t_collision_ns(payload_bytes),
        )


class BebFixedPoint:
    """Bianchi's *full* DCF model: binary exponential backoff fixed point.

    For saturated stations with minimum window ``W0 = cw_min + 1``
    doubling over ``m`` stages, the per-slot transmission probability and
    the conditional collision probability satisfy the coupled equations

        tau(p) = 2 (1 - 2p) /
                 ((1 - 2p)(W0 + 1) + p W0 (1 - (2p)^m))
        p(tau) = 1 - (1 - tau)^c

    (Bianchi 2000, eqs. 7 and 9).  :meth:`solve` iterates them to a fixed
    point.  This complements the constant-window simplification the
    paper's eq. (5) uses — the DCF baseline in the simulator runs real
    BEB, so this is the model that predicts *its* goodput.
    """

    def __init__(self, slot_model: BianchiSlotModel, cw_min: int = 31,
                 cw_max: int = 1023) -> None:
        if cw_min < 1 or cw_max < cw_min:
            raise ValueError(f"invalid CW range [{cw_min}, {cw_max}]")
        self.slot_model = slot_model
        self.cw_min = cw_min
        self.cw_max = cw_max
        # Number of doubling stages: CWmax = 2^m (CWmin+1) - 1.
        self.stages = 0
        w = cw_min
        while w < cw_max:
            w = 2 * (w + 1) - 1
            self.stages += 1

    def tau_of_p(self, p: float) -> float:
        """Bianchi's tau(p) for the configured backoff stages."""
        if not 0.0 <= p < 1.0:
            raise ValueError(f"collision probability must lie in [0, 1), got {p}")
        w0 = self.cw_min + 1
        m = self.stages
        if m == 0 or p == 0.0:
            return 2.0 / (w0 + 1.0)
        if abs(2.0 * p - 1.0) < 1e-12:
            # Removable singularity at p = 1/2.
            return 2.0 / (w0 + 1.0 + w0 * m / 2.0)
        num = 2.0 * (1.0 - 2.0 * p)
        den = (1.0 - 2.0 * p) * (w0 + 1.0) + p * w0 * (1.0 - (2.0 * p) ** m)
        return num / den

    def solve(self, contenders: int, tolerance: float = 1e-10,
              max_iterations: int = 10_000) -> tuple:
        """Return the fixed point ``(tau, p)`` for ``c`` contenders."""
        if contenders < 0:
            raise ValueError("contender count cannot be negative")
        p = 0.0
        for _ in range(max_iterations):
            tau = self.tau_of_p(p)
            p_next = 1.0 - (1.0 - tau) ** contenders
            if abs(p_next - p) < tolerance:
                return tau, p_next
            # Damped iteration keeps the map contractive for large n.
            p = 0.5 * p + 0.5 * p_next
        raise RuntimeError("BEB fixed point did not converge")

    def goodput_bps(self, contenders: int, payload_bytes: int) -> float:
        """Per-link saturation goodput of BEB DCF (no hidden terminals)."""
        tau, _ = self.solve(contenders)
        return self.slot_model.slot_for_tau(
            tau, contenders, payload_bytes
        ).tagged_goodput_bps(contenders, payload_bytes)
