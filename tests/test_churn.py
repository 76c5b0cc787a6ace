"""Churn round trips: what a node that leaves and re-joins must find.

A node's departure (:meth:`repro.net.network.Network.detach_node`) and
return (:meth:`~repro.net.network.Network.reattach_node`) touch state
other nodes derived from it.  After the round trip:

* every verdict an agent's co-occurrence map stores equals eq. 3 on that
  agent's neighbor table — a deny taken while a peer was away (its
  position missing) must not outlive its return;
* the C-SR backhaul holds exactly the attached APs: a detached AP hears
  no coordination round and leaves the TXOP ledger, and re-attaches
  when it re-joins;
* a C-SR AP caught transmitting at a capped power leaves at, and comes
  back at, its configured power.
"""

import pytest

from repro.core.config import CoMapConfig
from repro.core.protocol import CoMapAgent
from repro.experiments.params import ns2_params
from repro.experiments.topologies import (
    enterprise_floor_topology,
    exposed_terminal_topology,
)
from repro.faults import FaultPlan, NodeChurn
from repro.phy.propagation import LogNormalShadowing
from repro.util.geometry import Point

MS = 1_000_000


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


class TestVerdictsAfterRejoin:
    def test_agent_revalidates_a_rejoined_peer(self):
        agent = CoMapAgent(
            node_id=0,
            propagation=LogNormalShadowing(alpha=2.9, sigma_db=4.0),
            config=CoMapConfig(t_sir_db=4.0),
            tx_power_dbm=0.0,
            t_cs_dbm=-75.0,
        )
        for node_id, x in ((0, 0.0), (1, 5.0), (2, 300.0), (3, 305.0)):
            agent.observe_neighbor(node_id, Point(x, 0))
        assert agent.concurrency_allowed(2, 3, 1)
        agent.forget_neighbor(3)
        assert not agent.concurrency_allowed(2, 3, 1)  # never transmit blind
        assert agent.co_map.query((2, 3), 1) is None  # ... but store nothing
        agent.observe_neighbor(3, Point(305, 0))  # the same spot again
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
        owners = {r.owner for r in backhaul.active_txops(network.sim.now)}
        assert capped.node_id in owners

        network.detach_node(capped)
        assert capped.radio.tx_power_dbm == capped.radio.config.tx_power_dbm
        owners = {r.owner for r in backhaul.active_txops(network.sim.now)}
        assert capped.node_id not in owners
        assert capped.node_id not in backhaul._endpoints

        network.reattach_node(capped)
        assert capped.node_id in backhaul._endpoints
        assert capped.radio.tx_power_dbm == capped.radio.config.tx_power_dbm
