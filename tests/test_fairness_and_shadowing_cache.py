"""Fairness reporting."""

import pytest

from repro.experiments.params import ns2_params
from repro.net.network import Network


class TestResultsFairness:
    def make_results(self):
        net = Network(ns2_params(), seed=0)
        ap = net.add_ap("AP", 0, 0)
        c1 = net.add_client("C1", 10, 0, ap=ap)
        c2 = net.add_client("C2", -10, 0, ap=ap)
        net.finalize()
        net.add_saturated(c1, ap)
        net.add_saturated(c2, ap)
        return net.run(0.3), ap, c1, c2

    def test_symmetric_contenders_are_fair(self):
        results, ap, c1, c2 = self.make_results()
        assert results.fairness() > 0.9

    def test_explicit_flow_list_with_starved_flow(self):
        results, ap, c1, c2 = self.make_results()
        flows = [(c1.node_id, ap.node_id), (c2.node_id, ap.node_id),
                 (ap.node_id, c1.node_id)]  # downlink never carried data
        fairness = results.fairness(flows)
        assert fairness < results.fairness()

    def test_empty_flow_list_rejected(self):
        results, *_ = self.make_results()
        with pytest.raises(ValueError):
            results.fairness([])

