"""The paper's hidden-terminal goodput model (eqs. 5-9).

A tagged station with ``c`` contenders and ``h`` hidden terminals
succeeds in a slot only if (a) it wins the slot against its contenders —
Bianchi's ``tau (1 - tau)^c`` — and (b) **none of its hidden terminals
transmits during the vulnerable window** around its frame.  The window
spans the hidden terminal's possible overlap: ``T_s + T_i`` (the
successful-exchange time plus the tagged frame's own airtime), which in
slot units is::

    k = (T_s + T_i) / E[slot length]                                (text)

so the survival factor is ``((1 - tau)^h)^k`` and (eq. 9)::

    P_s^i = tau (1 - tau)^c  *  ((1 - tau)^h)^k

Goodput follows eq. (5): ``S_i = P_s^i * L_i / E[slot length]``.

HTs do not lengthen the slot seen by contending nodes (they are, by
definition, not sensed), so ``E[slot]`` comes from the plain Bianchi
model over the ``c`` contenders.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analytical.bianchi import BianchiSlotModel


@dataclass(frozen=True)
class GoodputBreakdown:
    """Intermediate quantities of one goodput evaluation (for inspection)."""

    tau: float
    expected_slot_ns: float
    vulnerable_slots: float
    p_success: float
    goodput_bps: float


class HtGoodputModel:
    """Evaluate eq. (5) for arbitrary (W, c, h, payload) combinations."""

    def __init__(self, slot_model: BianchiSlotModel) -> None:
        self.slot_model = slot_model

    def breakdown(
        self,
        window: int,
        contenders: int,
        hidden: int,
        payload_bytes: int,
        attacker_window: int = None,
        attacker_payload: int = None,
    ) -> GoodputBreakdown:
        """Full evaluation with intermediates exposed.

        With the default ``attacker_window=None`` this is the paper's
        homogeneous model: hidden terminals use the same window as the
        tagged station, so raising ``W`` slows attackers too.  Passing an
        explicit ``attacker_window`` decouples them — the survival factor
        then uses the attackers' own ``tau`` and expected slot (their own
        saturated cell of ``h`` nodes), which models *non-adaptive*
        hidden terminals that keep hammering regardless of the tagged
        station's settings.  The packet-size adaptation uses the
        decoupled form (see :class:`repro.core.adaptation.AdaptationTable`).
        """
        if hidden < 0:
            raise ValueError("hidden-terminal count cannot be negative")
        slot = self.slot_model.slot(window, contenders, payload_bytes)
        e_slot = slot.expected_slot_ns
        t_s = self.slot_model.t_success_ns(payload_bytes)
        t_i = self.slot_model.data_airtime_ns(payload_bytes)
        if hidden == 0:
            survival, k = 1.0, 0.0
        elif attacker_window is None:
            k = (t_s + t_i) / e_slot
            survival = ((1.0 - slot.tau) ** hidden) ** k
        else:
            a_payload = attacker_payload or payload_bytes
            a_slot = self.slot_model.slot(
                attacker_window, max(hidden - 1, 0), a_payload
            )
            k = (t_s + t_i) / a_slot.expected_slot_ns
            survival = ((1.0 - a_slot.tau) ** hidden) ** k
        p_success = slot.tau * (1.0 - slot.tau) ** contenders * survival
        payload_bits = payload_bytes * 8
        goodput = p_success * payload_bits / (e_slot * 1e-9)
        return GoodputBreakdown(
            tau=slot.tau,
            expected_slot_ns=e_slot,
            vulnerable_slots=k,
            p_success=p_success,
            goodput_bps=goodput,
        )

    def goodput_bps(
        self,
        window: int,
        contenders: int,
        hidden: int,
        payload_bytes: int,
        attacker_window: int = None,
        attacker_payload: int = None,
    ) -> float:
        """Per-link saturation goodput in bit/s under ``h`` hidden terminals."""
        return self.breakdown(
            window, contenders, hidden, payload_bytes,
            attacker_window=attacker_window, attacker_payload=attacker_payload,
        ).goodput_bps
