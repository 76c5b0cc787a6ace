"""Topology builders — one per evaluated scenario.

Every builder returns a finalized :class:`repro.net.network.Network` with
traffic attached, plus the identifiers needed to read the measured link
out of the results.  Coordinates are meters on a line/plane matching the
paper's network-configuration sketches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.experiments.params import (
    ScenarioParams,
    ht_params,
    ht_testbed_params,
    ns2_params,
    testbed_params,
)
from repro.net.localization import PositionErrorModel
from repro.net.network import Network
from repro.net.node import Node


@dataclass
class BuiltScenario:
    """A ready-to-run network plus the flow under measurement."""

    network: Network
    tagged_flow: Tuple[int, int]
    extra: dict

    def run_goodput_mbps(self, duration_s: float) -> float:
        """Run and return the tagged flow's goodput in Mbit/s."""
        results = self.network.run(duration_s)
        return results.goodput_mbps(*self.tagged_flow)


# ----------------------------------------------------------------------
# Fig. 1 / Fig. 8 — exposed-terminal testbed
# ----------------------------------------------------------------------
def exposed_terminal_topology(
    mac_kind: str,
    c2_x: float,
    seed: int = 0,
    params: Optional[ScenarioParams] = None,
    traffic: str = "saturated",
    payload_bytes: Optional[int] = None,
    error_model: Optional[PositionErrorModel] = None,
) -> BuiltScenario:
    """Two BSSes on a line: AP1—C1 at 8 m, AP2 36 m away, C2 swept.

    ``c2_x`` is C2's position in meters from AP1 (the Fig. 1/8 x-axis).
    Both clients carry uplink traffic; the tagged link is C1 → AP1.
    """
    params = params or testbed_params()
    net = Network(params, mac_kind=mac_kind, seed=seed, error_model=error_model)
    ap1 = net.add_ap("AP1", 0.0, 0.0)
    ap2 = net.add_ap("AP2", 36.0, 0.0)
    c1 = net.add_client("C1", -8.0, 0.0, ap=ap1)
    c2 = net.add_client("C2", c2_x, 0.0, ap=ap2)
    net.finalize()
    if traffic == "tcp":
        net.add_tcp(c1, ap1, payload_bytes=payload_bytes)
        net.add_tcp(c2, ap2, payload_bytes=payload_bytes)
    else:
        net.add_saturated(c1, ap1, payload_bytes=payload_bytes)
        net.add_saturated(c2, ap2, payload_bytes=payload_bytes)
    return BuiltScenario(
        network=net,
        tagged_flow=(c1.node_id, ap1.node_id),
        extra={"c1": c1, "c2": c2, "ap1": ap1, "ap2": ap2},
    )


# ----------------------------------------------------------------------
# Fig. 2 — hidden-terminal testbed (payload sweep, N_ht in {0, 1})
# ----------------------------------------------------------------------
def hidden_terminal_topology(
    mac_kind: str,
    payload_bytes: int,
    n_ht: int = 1,
    seed: int = 0,
    params: Optional[ScenarioParams] = None,
) -> BuiltScenario:
    """One tagged uplink C1 → AP1 with an optional hidden interferer.

    The hidden client C2 (uplink to AP2) sits inside AP1's interference
    range but outside C1's carrier-sense range (see
    :func:`repro.experiments.params.ht_params` for why the sense range is
    shrunk relative to the paper's wall-induced hiddenness).
    """
    if n_ht not in (0, 1):
        raise ValueError("this scenario supports 0 or 1 hidden terminal")
    params = params or ht_testbed_params()
    net = Network(params, mac_kind=mac_kind, seed=seed)
    ap1 = net.add_ap("AP1", 0.0, 0.0)
    c1 = net.add_client("C1", -10.0, 0.0, ap=ap1)
    c2 = None
    if n_ht:
        ap2 = net.add_ap("AP2", 24.0, 0.0)
        c2 = net.add_client("C2", 15.0, 0.0, ap=ap2)
    net.finalize()
    net.add_saturated(c1, ap1, payload_bytes=payload_bytes)
    if c2 is not None:
        net.add_saturated(c2, net.node("AP2"), payload_bytes=payload_bytes)
    return BuiltScenario(
        network=net,
        tagged_flow=(c1.node_id, ap1.node_id),
        extra={"c1": c1, "c2": c2, "ap1": ap1},
    )


# ----------------------------------------------------------------------
# Fig. 6 — multiple exposed terminals (enhanced-scheduler micro-scenario)
# ----------------------------------------------------------------------
def _scheduler_overrides(enhanced_scheduler: bool) -> Optional[dict]:
    """MAC overrides turning the enhanced scheduler off, when asked to.

    The default (on) is left to the MAC config, so kinds without the
    scheduler (``dcf``, ``cmap``) build unchanged; asking one of them to
    turn it off fails with the network's unknown-field error.
    """
    return None if enhanced_scheduler else {"enhanced_scheduler": False}


def multi_et_topology(
    mac_kind: str,
    seed: int = 0,
    params: Optional[ScenarioParams] = None,
    enhanced_scheduler: bool = True,
) -> BuiltScenario:
    """Three mutually-exposed uplinks on a line (C2, C1, C11 of Fig. 6).

    Three widely separated BSSes whose clients sit in each other's
    carrier-sense range but far from each other's receivers — all three
    links could run concurrently, and the enhanced scheduling algorithm
    must keep simultaneous ET activations from colliding.
    """
    # Fixed 6 Mbps isolates the airtime-concurrency effect of Fig. 6 from
    # rate adaptation (the paper's NS-2 evaluation also fixes 6 Mbps).
    params = params or testbed_params().with_overrides(data_rate_bps=6_000_000)
    net = Network(params, mac_kind=mac_kind, seed=seed,
                  mac_overrides=_scheduler_overrides(enhanced_scheduler))
    # Clients 30 m apart (inside each other's ~42 m carrier-sense range at
    # 0 dBm / alpha 2.9); each AP sits 8 m above its client, which keeps
    # every rival transmitter > 30 m from every receiver — far enough for
    # the two-sided eq. (3) test to clear T_PRR = 95 %.
    spacing = 30.0
    aps: List[Node] = []
    clients: List[Node] = []
    for i in range(3):
        center = i * spacing
        ap = net.add_ap(f"AP{i}", center, 8.0)
        client = net.add_client(f"C{i}", center, 0.0, ap=ap)
        aps.append(ap)
        clients.append(client)
    net.finalize()
    for client, ap in zip(clients, aps):
        net.add_saturated(client, ap)
    return BuiltScenario(
        network=net,
        tagged_flow=(clients[0].node_id, aps[0].node_id),
        extra={"clients": clients, "aps": aps},
    )


# ----------------------------------------------------------------------
# Fig. 3 situation — rival exposed terminals sharing one receiver
# ----------------------------------------------------------------------
def rival_et_topology(
    mac_kind: str,
    seed: int = 0,
    params: Optional[ScenarioParams] = None,
    enhanced_scheduler: bool = True,
) -> BuiltScenario:
    """An ongoing link plus TWO exposed terminals aimed at one shared AP.

    This is the situation the enhanced scheduling algorithm exists for
    (Fig. 3: both C1 and C11 may transmit while C2 is sending, but not
    simultaneously with *each other*): E1 and E2 both validate against
    the ongoing link, yet their own transmissions collide at AP1.  The
    RSSI monitor must let exactly one of them exploit each opportunity.
    """
    params = params or testbed_params().with_overrides(data_rate_bps=6_000_000)
    net = Network(params, mac_kind=mac_kind, seed=seed,
                  mac_overrides=_scheduler_overrides(enhanced_scheduler))
    ap0 = net.add_ap("AP0", 0.0, 8.0)
    c2 = net.add_client("C2", 0.0, 0.0, ap=ap0)     # the ongoing sender
    ap1 = net.add_ap("AP1", 30.0, 8.0)
    e1 = net.add_client("E1", 28.0, 0.0, ap=ap1)    # rival exposed terminal
    e2 = net.add_client("E2", 32.0, 0.0, ap=ap1)    # rival exposed terminal
    net.finalize()
    net.add_saturated(c2, ap0)
    net.add_saturated(e1, ap1)
    net.add_saturated(e2, ap1)
    return BuiltScenario(
        network=net,
        tagged_flow=(c2.node_id, ap0.node_id),
        extra={"c2": c2, "e1": e1, "e2": e2, "ap0": ap0, "ap1": ap1},
    )


# ----------------------------------------------------------------------
# Fig. 7 — analytical-model validation (c contenders + h hidden nodes)
# ----------------------------------------------------------------------
def model_validation_topology(
    window: int,
    payload_bytes: int,
    hidden: int,
    contenders: int = 5,
    seed: int = 0,
) -> BuiltScenario:
    """Saturated cell with ``contenders`` rivals and ``hidden`` interferers.

    * Tagged sender S and its ``c`` contenders cluster 17 m west of the
      shared receiver R (all mutually in carrier-sense range, matching
      Bianchi's single-cell assumption).
    * ``h`` hidden clients cluster 24 m east of R, transmitting uplink to
      their own AP: inside R's interference range, outside every tagged
      sender's (shrunk) carrier-sense range.

    Shadowing is disabled so hidden/contending relations are crisp; the
    MAC uses a constant contention window of ``window`` slots, matching
    the model's ``tau = 2/(W+1)``.

    The hidden interferers are offered traffic at exactly the model's
    per-HT attempt rate (``tau`` per expected slot): eq. (9) models each
    HT as a member of a homogeneous saturated network transmitting with
    probability ``tau`` per slot.  A fully saturated *co-located* HT
    cluster would occupy the channel nearly continuously and attack far
    harder than ``h`` such attackers — see DESIGN.md's deviations.
    """
    params = ht_params().with_overrides(shadowing_mode="none")
    net = Network(
        params,
        mac_kind="dcf",
        seed=seed,
        mac_overrides={"constant_cw": window},
    )
    receiver = net.add_ap("R", 0.0, 0.0)
    tagged = net.add_client("S", -17.0, 0.0, ap=receiver)
    rivals: List[Node] = []
    for i in range(contenders):
        angle = 2.0 * math.pi * i / max(contenders, 1)
        x = -17.0 + 1.5 * math.cos(angle)
        y = 1.5 * math.sin(angle)
        rivals.append(net.add_client(f"S{i}", x, y, ap=receiver))
    hidden_nodes: List[Node] = []
    for i in range(hidden):
        x = 24.0 + (i % 3) * 1.0
        y = (i // 3) * 1.0 - 1.0
        # CS-disabled: these interferers never defer to anyone, exactly
        # like the model's independent tau-rate attackers.
        hidden_nodes.append(
            net.add_client(f"H{i}", x, y, cs_threshold_dbm=40.0)
        )
    net.finalize()
    net.add_saturated(tagged, receiver, payload_bytes=payload_bytes)
    for rival in rivals:
        net.add_saturated(rival, receiver, payload_bytes=payload_bytes)
    if hidden_nodes:
        from repro.analytical.bianchi import BianchiSlotModel

        slot_model = BianchiSlotModel(
            params.timing,
            params.rates.by_bps(params.data_rate_bps),
            params.rates.base,
        )
        slot = slot_model.slot(window, contenders, payload_bytes)
        attempts_per_second = slot.tau / (slot.expected_slot_ns * 1e-9)
        ht_rate_bps = attempts_per_second * payload_bytes * 8
        interval_ns = int(round(payload_bytes * 8 * 1e9 / ht_rate_bps))
        for i, node in enumerate(hidden_nodes):
            # Broadcast frames: no ACKs, no retries — the offered rate is
            # the attack rate.  Phases are staggered so the h attackers
            # are independent rather than one merged burst.
            net.add_cbr(
                node,
                None,
                ht_rate_bps,
                payload_bytes=payload_bytes,
                start_ns=(i * interval_ns) // max(len(hidden_nodes), 1),
            )
    return BuiltScenario(
        network=net,
        tagged_flow=(tagged.node_id, receiver.node_id),
        extra={"tagged": tagged, "receiver": receiver},
    )


# ----------------------------------------------------------------------
# Fig. 9 — hidden-terminal adaptation over 10 topology configurations
# ----------------------------------------------------------------------
#: Candidate client slots relative to AP1 at the origin and the tagged
#: sender C1 at (-10, 0): "contender" (senses C1, interferes with AP1),
#: "hidden" (corrupts AP1, cannot sense C1), "independent" (affects
#: nothing).  All slots are clients of AP2 at (22, 0), like the paper's
#: C2/C3/C4 around AP2.
_FIG9_SLOTS: Tuple[Tuple[str, float, float], ...] = (
    ("contender", -2.0, 4.0),
    ("contender", -2.0, -4.0),
    ("contender", 0.0, 6.0),
    ("hidden", 15.0, 0.0),
    ("hidden", 15.5, 3.0),
    ("hidden", 15.5, -3.0),
    ("independent", 60.0, 0.0),
    ("independent", 62.0, 5.0),
    ("independent", 58.0, -6.0),
)


def fig9_configurations() -> List[Tuple[int, ...]]:
    """The 10 slot-index triples used as Fig. 9's topology configurations.

    Each configuration places three AP2 clients (the paper's C2, C3, C4)
    into three distinct slots, spanning 0-3 hidden terminals and 0-3
    contenders around the tagged link.
    """
    return [
        (0, 3, 6),  # 1 contender, 1 hidden, 1 independent (paper's sketch)
        (0, 1, 6),  # 2 contenders, 0 hidden
        (3, 4, 6),  # 0 contenders, 2 hidden
        (0, 3, 4),  # 1 contender, 2 hidden
        (6, 7, 8),  # all independent
        (0, 1, 2),  # 3 contenders
        (3, 4, 5),  # 3 hidden
        (0, 1, 3),  # 2 contenders, 1 hidden
        (1, 4, 7),  # 1 contender, 1 hidden, 1 independent (alternate)
        (2, 5, 8),  # 1 contender, 1 hidden, 1 independent (alternate)
    ]


def ht_adaptation_topology(
    mac_kind: str,
    slots: Tuple[int, ...],
    seed: int = 0,
    params: Optional[ScenarioParams] = None,
    payload_bytes: Optional[int] = 1000,
) -> BuiltScenario:
    """One Fig. 9 configuration: tagged link + three AP2 clients in ``slots``."""
    params = params or ht_testbed_params()
    net = Network(params, mac_kind=mac_kind, seed=seed)
    ap1 = net.add_ap("AP1", 0.0, 0.0)
    c1 = net.add_client("C1", -10.0, 0.0, ap=ap1)
    ap2 = net.add_ap("AP2", 24.0, 0.0)
    others: List[Node] = []
    for rank, slot in enumerate(slots):
        kind, x, y = _FIG9_SLOTS[slot]
        others.append(net.add_client(f"N{rank}-{kind}", x, y, ap=ap2))
    net.finalize()
    # With CO-MAP the tagged sender sizes its packets from the (h, c)
    # estimate; the DCF baseline uses the fixed scenario payload.
    tagged_payload = None if mac_kind == "comap" else payload_bytes
    net.add_saturated(c1, ap1, payload_bytes=tagged_payload)
    for node in others:
        net.add_saturated(node, ap2, payload_bytes=payload_bytes)
    return BuiltScenario(
        network=net,
        tagged_flow=(c1.node_id, ap1.node_id),
        extra={"c1": c1, "others": others},
    )


# ----------------------------------------------------------------------
# Fig. 10 — large-scale office floor
# ----------------------------------------------------------------------
def office_floor_topology(
    mac_kind: str,
    topology_seed: int,
    seed: int = 0,
    params: Optional[ScenarioParams] = None,
    error_model: Optional[PositionErrorModel] = None,
    n_clients: int = 9,
    cbr_bps: float = 3_000_000.0,
) -> BuiltScenario:
    """Three co-channel APs ~60 m apart with randomly placed clients.

    Mirrors the paper's office floor: nine clients dropped uniformly
    around the AP line, associated to the nearest AP, carrying two-way
    3 Mbps CBR with their AP.  ``topology_seed`` selects the placement
    (the paper uses 30 distinct configurations); ``seed`` drives the
    channel/backoff randomness.
    """
    params = params or ns2_params()
    rng = np.random.default_rng(topology_seed)
    net = Network(params, mac_kind=mac_kind, seed=seed, error_model=error_model)
    ap_positions = [(0.0, 0.0), (60.0, 0.0), (120.0, 0.0)]
    aps = [net.add_ap(f"AP{i}", x, y) for i, (x, y) in enumerate(ap_positions)]
    clients: List[Node] = []
    for i in range(n_clients):
        # "Nine clients are randomly deployed around these APs": each
        # client lands in an annulus around one AP (round-robin), keeping
        # link lengths realistic for an office floor.
        home = aps[i % len(aps)]
        radius = float(rng.uniform(5.0, 25.0))
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        x = home.position.x + radius * math.cos(angle)
        y = home.position.y + radius * math.sin(angle)
        client = net.add_client(f"C{i}", x, y)
        nearest = min(aps, key=lambda ap: ap.position.distance_to(client.position))
        client.associate(nearest)
        clients.append(client)
    net.finalize()
    flows: List[Tuple[int, int]] = []
    for client in clients:
        ap = client.associated_ap
        net.add_cbr(client, ap, cbr_bps)
        net.add_cbr(ap, client, cbr_bps)
        flows.append((client.node_id, ap.node_id))
        flows.append((ap.node_id, client.node_id))
    return BuiltScenario(
        network=net,
        tagged_flow=flows[0],
        extra={"clients": clients, "aps": aps, "flows": flows},
    )


# ----------------------------------------------------------------------
# C-SR — enterprise floor with overlapping co-channel cells
# ----------------------------------------------------------------------
def enterprise_floor_topology(
    mac_kind: str,
    topology_seed: int,
    seed: int = 0,
    params: Optional[ScenarioParams] = None,
    error_model: Optional[PositionErrorModel] = None,
    n_aps: int = 4,
    clients_per_ap: int = 2,
    cbr_bps: float = 2_000_000.0,
) -> BuiltScenario:
    """``n_aps`` co-channel APs on a 60 m grid, CBR downlink.

    The C-SR study scenario: every AP shares one frequency band, the
    20 dBm / ``alpha = 3.3`` NS-2 physics put all of them well inside
    each other's ~1 km carrier-sense range, and plain DCF serializes the
    whole floor.  Clients sit 6-10 m from their AP, so the co-occurrence
    map validates cross-cell concurrency (predicted concurrent SIR
    ``10 * alpha * log10(60/10) ≈ 26 dB`` against ``T_sir = 10``) — the
    headroom coordinated spatial reuse exists to harvest.

    Traffic is downlink CBR (AP -> client), putting the TXOPs on the
    coordinating APs.  The default per-client rate is chosen so the
    floor's *aggregate* offered load exceeds what one serialized
    collision domain can carry while each cell's share stays within its
    own capacity: the serialized baseline saturates (queues fill, tail
    latency explodes) and spatial reuse drains the same load with
    shallow queues — the regime where coordination pays in both goodput
    and latency percentiles.  ``topology_seed`` selects client
    placement; ``seed`` drives channel/backoff randomness.
    """
    if n_aps < 1:
        raise ValueError("need at least one AP")
    params = params or ns2_params()
    rng = np.random.default_rng(topology_seed)
    net = Network(params, mac_kind=mac_kind, seed=seed, error_model=error_model)
    columns = max(1, int(round(math.sqrt(n_aps))))
    spacing = 60.0
    aps: List[Node] = []
    for i in range(n_aps):
        x = (i % columns) * spacing
        y = (i // columns) * spacing
        aps.append(net.add_ap(f"AP{i}", x, y))
    clients: List[Node] = []
    for ap_index, ap in enumerate(aps):
        for j in range(clients_per_ap):
            radius = float(rng.uniform(6.0, 10.0))
            angle = float(rng.uniform(0.0, 2.0 * math.pi))
            client = net.add_client(
                f"C{ap_index}-{j}",
                ap.position.x + radius * math.cos(angle),
                ap.position.y + radius * math.sin(angle),
                ap=ap,
            )
            clients.append(client)
    net.finalize()
    flows: List[Tuple[int, int]] = []
    for client in clients:
        ap = client.associated_ap
        net.add_cbr(ap, client, cbr_bps)
        flows.append((ap.node_id, client.node_id))
    return BuiltScenario(
        network=net,
        tagged_flow=flows[0],
        extra={"clients": clients, "aps": aps, "flows": flows},
    )


def full_floor_topology(
    mac_kind: str,
    topology_seed: int,
    seed: int = 0,
    params: Optional[ScenarioParams] = None,
    error_model: Optional[PositionErrorModel] = None,
    clients_per_ap: int = 3,
    cbr_bps: float = 3_000_000.0,
) -> BuiltScenario:
    """The paper's complete office floor: 8 APs on 3 orthogonal bands.

    "Eight APs with three separate non-overlapping frequency bands are
    deployed in this floor, only the ones using the same frequency band
    are considered."  Bands are assigned in the classic 1-6-11 reuse
    pattern along the floor; each AP serves ``clients_per_ap`` clients
    with two-way CBR.  :func:`office_floor_topology` is the
    same-frequency-band subset the paper actually simulates; this builder
    exists to show the whole floor runs (orthogonal bands never interact)
    and to measure per-band behaviour.
    """
    params = params or ns2_params()
    rng = np.random.default_rng(topology_seed)
    net = Network(params, mac_kind=mac_kind, seed=seed, error_model=error_model)
    aps: List[Node] = []
    for i in range(8):
        x = 20.0 + i * 30.0
        y = 0.0 if i % 2 == 0 else 18.0
        aps.append(net.add_ap(f"AP{i}", x, y, band=i % 3))
    clients: List[Node] = []
    for ap_index, ap in enumerate(aps):
        for j in range(clients_per_ap):
            radius = float(rng.uniform(5.0, 22.0))
            angle = float(rng.uniform(0.0, 2.0 * math.pi))
            client = net.add_client(
                f"C{ap_index}-{j}",
                ap.position.x + radius * math.cos(angle),
                ap.position.y + radius * math.sin(angle),
                ap=ap,
            )
            clients.append(client)
    net.finalize()
    flows: List[Tuple[int, int]] = []
    for client in clients:
        ap = client.associated_ap
        net.add_cbr(client, ap, cbr_bps)
        net.add_cbr(ap, client, cbr_bps)
        flows.append((client.node_id, ap.node_id))
        flows.append((ap.node_id, client.node_id))
    return BuiltScenario(
        network=net,
        tagged_flow=flows[0],
        extra={"clients": clients, "aps": aps, "flows": flows},
    )
