"""Scenario parameter bundles and result extraction helpers."""

import pytest

from repro.core.concurrency import T_PRR
from repro.experiments.metrics import average_link_goodput_mbps, flow_goodputs_mbps
from repro.experiments.params import NS2_TABLE_I, ht_params, ht_testbed_params, ns2_params
from repro.experiments.params import testbed_params as make_testbed_params
from repro.net.network import Network


class TestParams:
    def test_ns2_matches_table_i(self):
        params = ns2_params()
        assert params.data_rate_bps == 6_000_000
        assert params.tx_power_dbm == 20.0
        assert T_PRR == 0.95
        assert params.cs_threshold_dbm == -80.0
        assert params.alpha == 3.3
        assert params.sigma_db == 5.0
        assert params.comap.t_sir_db == 10.0

    def test_testbed_measured_propagation(self):
        params = make_testbed_params()
        assert params.alpha == 2.9
        assert params.sigma_db == 4.0
        assert params.tx_power_dbm == 0.0
        assert params.data_rate_bps is None  # Minstrel

    def test_ht_params_only_changes_cs(self):
        base, ht = ns2_params(), ht_params()
        assert ht.cs_threshold_dbm > base.cs_threshold_dbm
        assert ht.alpha == base.alpha
        assert ht.data_rate_bps == base.data_rate_bps

    def test_ht_testbed_regime(self):
        params = ht_testbed_params()
        assert params.data_rate_bps == 11_000_000
        assert params.rates.top.bps == 11_000_000

    def test_with_overrides_copies(self):
        base = ns2_params()
        tweaked = base.with_overrides(tx_power_dbm=10.0)
        assert tweaked.tx_power_dbm == 10.0
        assert base.tx_power_dbm == 20.0

    def test_table_i_entries(self):
        keys = dict(NS2_TABLE_I)
        assert keys["Data rate"] == "6 Mbps"
        assert keys["T'_cs"] == "-80.14 dBm"
        assert len(NS2_TABLE_I) == 8


class TestMetrics:
    def make_results(self):
        net = Network(ns2_params(), seed=0)
        ap = net.add_ap("AP", 0, 0)
        c1 = net.add_client("C1", 10, 0, ap=ap)
        c2 = net.add_client("C2", -10, 0, ap=ap)
        net.finalize()
        net.add_saturated(c1, ap)
        net.add_saturated(c2, ap)
        return net, net.run(0.2), [(c1.node_id, ap.node_id), (c2.node_id, ap.node_id)]

    def test_flow_goodputs(self):
        net, results, flows = self.make_results()
        table = flow_goodputs_mbps(results, flows)
        assert set(table) == set(flows)

    def test_average_link_goodput(self):
        net, results, flows = self.make_results()
        avg = average_link_goodput_mbps(results, flows)
        values = list(flow_goodputs_mbps(results, flows).values())
        assert avg == pytest.approx(sum(values) / 2)

    def test_average_requires_flows(self):
        net, results, _ = self.make_results()
        with pytest.raises(ValueError):
            average_link_goodput_mbps(results, [])
