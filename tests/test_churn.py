"""Churn round trips: what a node that leaves and re-joins must find.

A node's departure (:meth:`repro.net.network.Network.detach_node`) and
return (:meth:`~repro.net.network.Network.reattach_node`) touch state
other nodes derived from it.  After the round trip:

* the band's neighbor table holds exactly the attached nodes, each at its
  report — also for a node that was away while a peer re-joined or moved;
* every verdict an agent's co-occurrence map stores equals eq. 3 on that
  agent's neighbor table — a deny taken while a peer was away (its
  position missing) must not outlive its return;
* a node that leaves owes no one a response: an ACK or CTS due after it
  left is never sent, and neither is data a CTS cleared just before;
* the C-SR backhaul holds exactly the attached APs: a detached AP hears
  no coordination round and leaves the TXOP ledger, and re-attaches
  when it re-joins;
* a C-SR AP caught transmitting at a capped power leaves at, and comes
  back at, its configured power;
* a re-join is a fresh report like a move's: the node's location faults
  govern it, so an outage publishes nothing, a frozen or drift window
  holds the report back, and with a location TTL a node back without
  its row is in fallback until its next keep-alive.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import CoMapConfig
from repro.core.neighbor_table import NeighborTable
from repro.core.protocol import CoMapAgent
from repro.experiments.params import ns2_params, testbed_params
from repro.experiments.topologies import (
    enterprise_floor_topology,
    exposed_terminal_topology,
)
from repro.faults import (
    BeaconLoss,
    FaultPlan,
    FrozenLocation,
    LocationDrift,
    LocationOutage,
    NodeChurn,
)
from repro.net.mobility import LinearMobility
from repro.phy.propagation import LogNormalShadowing
from repro.util.geometry import Point

MS = 1_000_000
US = 1_000
KEEP_ALIVE_NS = 2 * MS
TTL_NS = 6 * MS


def eq3_allows(agent, src, dst, my_dst):
    """Eq. 3, computed afresh on the agent's neighbor table."""
    return agent.validator.validate(
        agent.neighbor_table, src, dst, agent.node_id, my_dst
    ).allowed


def stale_verdicts(network):
    """(agent, src, dst, my_dst, stored) wherever the map disagrees with eq. 3."""
    ids = sorted(network.nodes)
    stale = []
    for node in network.nodes.values():
        agent = node.agent
        for src in ids:
            for dst in ids:
                for my_dst in ids:
                    stored = agent.co_map.query((src, dst), my_dst)
                    if stored is not None and stored != eq3_allows(
                        agent, src, dst, my_dst
                    ):
                        stale.append((node.name, src, dst, my_dst, stored))
    return stale


def stale_rows(network):
    """(reader, rows, expected) wherever a node's neighbor table is not
    exactly the attached same-band nodes, each at its report."""
    stale = []
    for reader in network.nodes.values():
        rows = {row.node_id: row.position for row in reader.agent.neighbor_table}
        expected = {
            node.node_id: node.agent.reported_position
            for node in network.nodes.values()
            if node.band == reader.band and node.radio.attached
        }
        if rows != expected:
            stale.append((reader.name, rows, expected))
    return stale


def fig8_pair(mac_kind="comap", seed=3, ttl_ns=None):
    """The Fig. 8 pair with C2 at 30 m, optionally with a location TTL."""
    params = testbed_params()
    if ttl_ns is not None:
        params = params.with_overrides(
            comap=dataclasses.replace(params.comap, location_ttl_ns=ttl_ns)
        )
    return exposed_terminal_topology(
        mac_kind, c2_x=30.0, seed=seed, params=params
    ).network


def walk_c2(network, end_x):
    """C2 walks from 30 m towards ``end_x`` at 60 m/s, in 10 ms ticks."""
    LinearMobility(
        network, network.node("C2"), [(30, 0), (end_x, 0)],
        speed_mps=60, tick_s=0.01,
    )


class TestVerdictsAfterRejoin:
    def test_agent_revalidates_a_rejoined_peer(self):
        table = NeighborTable()
        agent = CoMapAgent(
            node_id=0,
            propagation=LogNormalShadowing(alpha=2.9, sigma_db=4.0),
            config=CoMapConfig(t_sir_db=4.0),
            tx_power_dbm=0.0,
            t_cs_dbm=-75.0,
            neighbor_table=table,
        )
        for node_id, x in ((0, 0.0), (1, 5.0), (2, 300.0), (3, 305.0)):
            table.update(node_id, Point(x, 0))
        assert agent.concurrency_allowed(2, 3, 1)
        table.remove(3)
        assert not agent.concurrency_allowed(2, 3, 1)  # never transmit blind
        assert agent.co_map.query((2, 3), 1) is None  # ... but store nothing
        table.update(3, Point(305, 0))  # the same spot again
        assert eq3_allows(agent, 2, 3, 1)
        assert agent.concurrency_allowed(2, 3, 1)

    @pytest.mark.parametrize("churned", ["AP1", "AP2"])
    def test_stored_verdicts_match_eq3_after_churn(self, churned):
        scenario = exposed_terminal_topology("comap", c2_x=30.0, seed=2)
        network = scenario.network
        network.install_faults(FaultPlan(events=(
            NodeChurn(churned, leave_ns=100 * MS, rejoin_ns=150 * MS),
        )))
        network.run(1.0)
        assert stale_verdicts(network) == []

    def test_leaving_node_drops_its_own_verdicts(self):
        network = exposed_terminal_topology("comap", c2_x=30.0, seed=2).network
        c1 = network.node("C1")
        network.run(0.1)
        assert c1.agent.co_map.entry_count > 0
        network.detach_node(c1)
        assert c1.agent.co_map.entry_count == 0


class TestTablesAfterChurn:
    def test_node_away_while_a_peer_rejoins_relearns_it(self):
        network = exposed_terminal_topology("comap", c2_x=30.0, seed=2).network
        network.install_faults(FaultPlan(events=(
            NodeChurn("AP1", leave_ns=100 * MS, rejoin_ns=300 * MS),
            NodeChurn("C2", leave_ns=150 * MS, rejoin_ns=200 * MS),
        )))
        network.run(0.5)
        c2 = network.node("C2")
        assert c2.node_id in network.node("AP1").agent.neighbor_table
        assert stale_rows(network) == []

    def test_node_away_while_a_peer_moves_sees_where_it_went(self):
        network = exposed_terminal_topology("comap", c2_x=30.0, seed=2).network
        walk_c2(network, end_x=45)
        network.install_faults(FaultPlan(events=(
            NodeChurn("AP1", leave_ns=50 * MS, rejoin_ns=300 * MS),
        )))
        network.run(0.5)
        c2 = network.node("C2")
        seen = network.node("AP1").agent.neighbor_table.position_of(c2.node_id)
        assert seen == c2.agent.reported_position
        assert seen.x > 40.0
        assert stale_rows(network) == []
        assert stale_verdicts(network) == []

    def test_detached_node_that_moves_publishes_nothing(self):
        network = exposed_terminal_topology("comap", c2_x=30.0, seed=2).network
        walk_c2(network, end_x=60)
        network.install_faults(FaultPlan(events=(
            NodeChurn("C2", leave_ns=100 * MS, rejoin_ns=400 * MS),
        )))
        c2 = network.node("C2")
        network.run(0.3)
        for name in ("AP1", "AP2", "C1"):
            assert c2.node_id not in network.node(name).agent.neighbor_table
        network.run(0.15)  # back at 400 ms, reporting where it is now
        assert c2.agent.reported_position.x > 50.0
        assert stale_rows(network) == []


class TestLeavingWithinSifs:
    @pytest.mark.parametrize("mac_kind", ["dcf", "comap"])
    def test_owed_ack_is_not_sent(self, mac_kind):
        # AP2 leaves 1 us after decoding a data frame, inside the SIFS
        # before its ACK, and re-joins 5 ms later.
        network = exposed_terminal_topology(mac_kind, c2_x=30.0, seed=1).network
        ap2 = network.node("AP2")
        acks = {}

        def leave_before_the_ack(frame):
            if acks or network.sim.now < 20 * MS:
                return
            acks["at_leave"] = ap2.mac.stats.acks_sent
            network.sim.schedule(US, network.detach_node, ap2)
            network.sim.schedule(
                5 * MS, lambda: acks.setdefault("at_rejoin", ap2.mac.stats.acks_sent)
            )
            network.sim.schedule(5 * MS, network.reattach_node, ap2)

        ap2.add_delivery_listener(leave_before_the_ack)
        network.run(0.1)
        assert acks["at_rejoin"] == acks["at_leave"]
        assert ap2.mac.stats.acks_sent > acks["at_rejoin"]

    def test_data_a_cts_cleared_waits_for_a_new_attempt(self):
        # C1 leaves 1 us after its CTS arrives and is back 2 us later,
        # still inside the SIFS before the data the CTS cleared: that
        # data must not go out from the reset state machine.
        network = exposed_terminal_topology(
            "dcf", c2_x=30.0, seed=1, mac_overrides={"use_rts_cts": True}
        ).network
        c1 = network.node("C1")
        accept_cts = c1.mac._accept_cts
        left = []

        def leave_after_the_cts(cts):
            accept_cts(cts)
            if left or network.sim.now < 20 * MS:
                return
            left.append(c1.mac.stats.successes)
            network.sim.schedule(US, network.detach_node, c1)
            network.sim.schedule(3 * US, network.reattach_node, c1)

        c1.mac._accept_cts = leave_after_the_cts
        network.run(0.1)
        assert left
        assert c1.mac.stats.successes > left[0]


class TestChurnPlans:
    def test_overlapping_windows_of_one_node_are_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            FaultPlan(events=(
                NodeChurn("C2", leave_ns=10 * MS, rejoin_ns=50 * MS),
                NodeChurn("C2", leave_ns=30 * MS, rejoin_ns=70 * MS),
            ))
        FaultPlan(events=(  # other nodes' windows may overlap
            NodeChurn("C1", leave_ns=10 * MS, rejoin_ns=50 * MS),
            NodeChurn("C2", leave_ns=30 * MS, rejoin_ns=70 * MS),
        ))

    @pytest.mark.parametrize("listed", ["in time order", "later first"])
    def test_touching_windows_run_in_either_list_order(self, listed):
        windows = (
            NodeChurn("C2", leave_ns=10 * MS, rejoin_ns=50 * MS),
            NodeChurn("C2", leave_ns=50 * MS, rejoin_ns=70 * MS),
        )
        if listed == "later first":
            windows = windows[::-1]
        network = fig8_pair()
        injector = network.install_faults(FaultPlan(events=windows))
        network.run(0.1)
        assert injector.counters["churn_leaves"] == 2
        assert injector.counters["churn_joins"] == 2
        assert network.node("C2").radio.attached
        assert stale_rows(network) == []


class TestLocationFaultsAtRejoin:
    """A re-join while the node's location service fails reports nothing."""

    def run_with_a_move_while_away(self, window):
        # C2 leaves at 50 ms, moves 10 m at 70 ms and re-joins at 100 ms.
        network = fig8_pair()
        c2 = network.node("C2")
        network.install_faults(FaultPlan(
            events=(window, NodeChurn("C2", leave_ns=50 * MS, rejoin_ns=100 * MS)),
            report_interval_ns=KEEP_ALIVE_NS,
        ))
        network.sim.schedule_at(
            70 * MS, network.update_node_position, c2, Point(40, 0)
        )
        network.run(0.2)
        return network, c2

    def test_outage_holds_back_the_rejoin_report(self):
        network, c2 = self.run_with_a_move_while_away(
            LocationOutage("C2", start_ns=0, duration_ns=10**12)
        )
        assert c2.node_id not in c2.agent.neighbor_table
        assert c2.agent.reported_position == Point(30, 0)
        assert network.faults.counters["reports_suppressed"] > 0
        assert stale_verdicts(network) == []

    def test_frozen_window_keeps_the_pre_window_report(self):
        network, c2 = self.run_with_a_move_while_away(
            FrozenLocation("C2", start_ns=0, duration_ns=10**12)
        )
        row = c2.agent.neighbor_table.get(c2.node_id)
        assert row.position == Point(30, 0)
        assert row.updated_at == 200 * MS  # the last keep-alive
        assert stale_rows(network) == []

    @pytest.mark.parametrize(
        "outage_ms, leave_ms, rejoin_ms",
        [(0, 50, 100), (40, 20, 60)],
        ids=["left-in-fallback", "outage-began-while-away"],
    )
    def test_rejoin_without_a_row_is_in_fallback(
        self, outage_ms, leave_ms, rejoin_ms
    ):
        network = fig8_pair(ttl_ns=TTL_NS)
        c2 = network.node("C2")
        network.install_faults(FaultPlan(
            events=(
                LocationOutage("C2", start_ns=outage_ms * MS, duration_ns=10**12),
                NodeChurn("C2", leave_ns=leave_ms * MS, rejoin_ns=rejoin_ms * MS),
            ),
            report_interval_ns=KEEP_ALIVE_NS,
        ))
        network.sim.run(until=rejoin_ms * MS)
        assert c2.radio.attached
        assert c2.mac._degraded()
        network.run(0.1)
        stats = c2.mac.comap_stats
        assert (stats.fallback_entered, stats.fallback_exited) == (1, 0)
        assert c2.mac._degraded()

    def test_rejoin_report_ends_a_fallback_before_the_mac_contends(self):
        # C2 falls back in a 0-40 ms outage, leaves at 20 ms still in
        # fallback, and re-joins at 60 ms with a report.
        network = fig8_pair(ttl_ns=TTL_NS)
        c2 = network.node("C2")
        network.install_faults(FaultPlan(
            events=(
                LocationOutage("C2", start_ns=0, duration_ns=40 * MS),
                NodeChurn("C2", leave_ns=20 * MS, rejoin_ns=60 * MS),
            ),
            report_interval_ns=KEEP_ALIVE_NS,
        ))
        resume = c2.mac.resume
        degraded_at_resume = []

        def logged_resume():
            degraded_at_resume.append(c2.mac._degraded())
            resume()

        c2.mac.resume = logged_resume
        network.run(0.1)
        assert degraded_at_resume == [False]
        stats = c2.mac.comap_stats
        assert (stats.fallback_entered, stats.fallback_exited) == (1, 1)


CHURNABLE = ("AP1", "AP2", "C1", "C2")


@st.composite
def churn_windows(draw):
    """1-3 windows on distinct nodes of the Fig. 8 pair; they may overlap."""
    names = draw(st.lists(
        st.sampled_from(CHURNABLE), min_size=1, max_size=3, unique=True
    ))
    windows = []
    for name in names:
        leave_us = draw(st.integers(1, 190_000))
        away_us = draw(st.integers(1, 150_000))
        windows.append(NodeChurn(
            name, leave_ns=leave_us * US, rejoin_ns=(leave_us + away_us) * US
        ))
    return tuple(windows)


class TestChurnFuzz:
    @settings(max_examples=25, deadline=None)
    @given(
        mac_kind=st.sampled_from(["dcf", "comap", "cmap"]),
        seed=st.integers(0, 2**16),
        walks=st.booleans(),
        windows=churn_windows(),
    )
    def test_churn_keeps_tables_and_verdicts_current(
        self, mac_kind, seed, walks, windows
    ):
        network = exposed_terminal_topology(
            mac_kind, c2_x=30.0, seed=seed
        ).network
        if walks:
            walk_c2(network, end_x=45)
        network.install_faults(FaultPlan(events=windows))
        network.run(0.2)
        if mac_kind == "comap":
            assert stale_rows(network) == []
            assert stale_verdicts(network) == []


LOCATION_SPECS = (LocationOutage, FrozenLocation, LocationDrift, BeaconLoss)
#: Specs that hold a node's fresh reports back while active.
HOLDING = (LocationOutage, FrozenLocation, LocationDrift)


@st.composite
def churn_and_location_windows(draw):
    """Per node of the Fig. 8 pair: 0-2 disjoint churn windows and 0-2
    location windows, every location window closed by 150 ms."""
    events = []
    for name in CHURNABLE:
        edges = sorted(draw(st.lists(
            st.integers(1, 199_000), max_size=4, unique=True
        )))
        for leave_us, rejoin_us in zip(edges[::2], edges[1::2]):
            events.append(NodeChurn(
                name, leave_ns=leave_us * US, rejoin_ns=rejoin_us * US
            ))
        for _ in range(draw(st.integers(0, 2))):
            start_us = draw(st.integers(0, 149_000))
            end_us = draw(st.integers(start_us + 1, 150_000))
            window = (name, start_us * US, (end_us - start_us) * US)
            spec = draw(st.sampled_from(LOCATION_SPECS))
            if spec is BeaconLoss:
                drop_prob = draw(st.sampled_from((0.0, 0.5, 1.0)))
                events.append(BeaconLoss(*window, drop_prob=drop_prob))
            else:
                events.append(spec(*window))
    return tuple(events)


class TestLocationFaultFuzz:
    @settings(max_examples=40, deadline=None)
    @given(
        mac_kind=st.sampled_from(["comap", "cmap", "dcf"]),
        seed=st.integers(0, 2**16),
        ttl_ns=st.sampled_from([None, TTL_NS]),
        walks=st.booleans(),
        events=churn_and_location_windows(),
    )
    def test_location_faults_govern_every_report(
        self, mac_kind, seed, ttl_ns, walks, events
    ):
        network = fig8_pair(mac_kind, seed, ttl_ns)
        if walks:
            walk_c2(network, end_x=45)
        published, reported = [], []
        publish = network.publish_report

        def logged_publish(node, position):
            published.append((node.name, network.sim.now))
            publish(node, position)

        network.publish_report = logged_publish
        for node in network.nodes.values():
            if node.agent is not None:
                mark = node.agent.mark_reported

                def logged_mark(report, position, name=node.name, mark=mark):
                    reported.append((name, network.sim.now))
                    mark(report, position)

                node.agent.mark_reported = logged_mark
        network.install_faults(FaultPlan(
            events=events, report_interval_ns=KEEP_ALIVE_NS
        ))
        network.run(0.2)

        def held(name, now, kinds):
            return any(
                isinstance(event, kinds) and event.node == name
                and event.active(now)
                for event in events
            )

        assert [p for p in published if held(*p, LocationOutage)] == []
        assert [r for r in reported if held(*r, HOLDING)] == []
        if mac_kind != "comap":
            return
        assert stale_verdicts(network) == []
        assert stale_rows(network) == []
        if ttl_ns is not None:
            now = network.sim.now
            for node in network.nodes.values():
                if node.radio.attached and node.agent.location_stale(now):
                    assert node.mac._degraded(), node.name


def csr_floor():
    params = ns2_params().with_overrides(csr_backhaul_latency_ns=200_000)
    return enterprise_floor_topology(
        "csr", topology_seed=2000, seed=1, params=params
    ).network


class TestCsrChurn:
    def test_detached_ap_leaves_the_backhaul(self):
        network = csr_floor()
        network.install_faults(FaultPlan(events=(
            NodeChurn("AP3", leave_ns=50 * MS, rejoin_ns=100 * MS),
        )))
        ap3 = network.node("AP3")
        network.run(0.05)
        rounds = ap3.mac.csr_stats.coordination_rounds
        assert rounds > 0
        assert ap3.node_id not in network.backhaul._endpoints
        network.run(0.0499)
        assert ap3.mac.csr_stats.coordination_rounds == rounds
        network.run(0.0002)  # re-joined at 100 ms
        assert list(network.backhaul._endpoints)[-1] == ap3.node_id
        assert len(network.backhaul._endpoints) == 4
        network.run(0.05)
        assert ap3.mac.csr_stats.coordination_rounds > rounds

    def test_message_on_the_wire_to_a_leaving_ap_is_dropped(self):
        # AP0 leaves 61 us after a peer announced a TXOP over the 200 us
        # backhaul; the announcement lands while AP0 is away.
        leave_ns = 11_237_113
        network = csr_floor()
        network.install_faults(FaultPlan(events=(
            NodeChurn("AP0", leave_ns=leave_ns, rejoin_ns=leave_ns + 5 * MS),
        )))
        ap0 = network.node("AP0")
        network.sim.run(until=leave_ns - 1)
        rounds = ap0.mac.csr_stats.coordination_rounds
        network.sim.run(until=leave_ns + MS)
        assert ap0.mac.csr_stats.coordination_rounds == rounds

    def test_capped_ap_leaves_and_returns_at_configured_power(self):
        network = csr_floor()
        aps = [node for node in network.nodes.values() if node.is_ap]
        capped = None
        while capped is None and network.sim.now < 50 * MS:
            network.run(0.0001)
            capped = next(
                (ap for ap in aps
                 if ap.radio.tx_power_dbm < ap.radio.config.tx_power_dbm),
                None,
            )
        assert capped is not None, "no AP transmitted at a capped power"
        backhaul = network.backhaul
        owners = {r.src for r in backhaul.active_txops(network.sim.now)}
        assert capped.node_id in owners

        network.detach_node(capped)
        assert capped.radio.tx_power_dbm == capped.radio.config.tx_power_dbm
        owners = {r.src for r in backhaul.active_txops(network.sim.now)}
        assert capped.node_id not in owners
        assert capped.node_id not in backhaul._endpoints

        network.reattach_node(capped)
        assert capped.node_id in backhaul._endpoints
        assert capped.radio.tx_power_dbm == capped.radio.config.tx_power_dbm
