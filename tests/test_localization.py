"""Localization error models."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.experiments.params import ns2_params
from repro.net.localization import GaussianError, NoError, UniformDiskError
from repro.net.network import Network
from repro.util.geometry import Point


class TestNoError:
    def test_identity(self):
        rng = np.random.default_rng(0)
        p = Point(3.0, 4.0)
        assert NoError().apply(p, rng) == p


class TestUniformDiskError:
    def test_zero_radius_is_identity(self):
        rng = np.random.default_rng(0)
        p = Point(1.0, 2.0)
        assert UniformDiskError(0.0).apply(p, rng) == p

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            UniformDiskError(-1.0)

    def test_error_bounded_by_radius(self):
        rng = np.random.default_rng(1)
        model = UniformDiskError(10.0)
        origin = Point(0.0, 0.0)
        for _ in range(500):
            reported = model.apply(origin, rng)
            assert origin.distance_to(reported) <= 10.0 + 1e-9

    def test_area_uniformity(self):
        # Area-uniform draws put ~25 % of points inside half the radius^...
        # precisely: P(r <= R/2) = 1/4 for area-uniform.
        rng = np.random.default_rng(2)
        model = UniformDiskError(10.0)
        origin = Point(0.0, 0.0)
        inside = sum(
            origin.distance_to(model.apply(origin, rng)) <= 5.0 for _ in range(4000)
        )
        assert inside / 4000 == pytest.approx(0.25, abs=0.03)

    def test_mean_error_reasonable(self):
        # Area-uniform disk: E[r] = 2R/3.
        rng = np.random.default_rng(3)
        model = UniformDiskError(9.0)
        origin = Point(0.0, 0.0)
        errors = [origin.distance_to(model.apply(origin, rng)) for _ in range(3000)]
        assert np.mean(errors) == pytest.approx(6.0, abs=0.25)

    @given(st.floats(min_value=-100, max_value=100),
           st.floats(min_value=-100, max_value=100))
    def test_centered_on_true_position(self, x, y):
        rng = np.random.default_rng(4)
        model = UniformDiskError(3.0)
        p = Point(x, y)
        assert p.distance_to(model.apply(p, rng)) <= 3.0 + 1e-9


class TestGaussianError:
    def test_zero_sigma_is_identity(self):
        rng = np.random.default_rng(0)
        p = Point(1.0, 2.0)
        assert GaussianError(0.0).apply(p, rng) == p

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            GaussianError(-1.0)

    def test_spread_matches_sigma(self):
        rng = np.random.default_rng(5)
        model = GaussianError(2.0)
        origin = Point(0.0, 0.0)
        xs = [model.apply(origin, rng).x for _ in range(4000)]
        assert np.std(xs) == pytest.approx(2.0, abs=0.15)
        assert np.mean(xs) == pytest.approx(0.0, abs=0.15)


def _two_client_net(error_model, seed=3):
    net = Network(ns2_params(), mac_kind="comap", seed=seed, error_model=error_model)
    ap = net.add_ap("AP", 0, 0)
    c1 = net.add_client("C1", 10, 0, ap=ap)
    c2 = net.add_client("C2", -10, 0, ap=ap)
    net.finalize()
    return net, ap, c1, c2


def _reports(net):
    """Each node's last report, by node id."""
    return {i: node.agent.reported_position for i, node in net.nodes.items()}


class TestPerNodeErrorStreams:
    """The draw-count contract: localization draws are per node.

    ``UniformDiskError.apply``/``GaussianError.apply`` consume 2 RNG
    draws when the radius/sigma is positive but 0 on the certainty path,
    so on a shared stream sweeping the error through 0 would shift every
    other consumer's realizations.  Each node therefore perturbs its
    reports from its own ``substream("locerr", node_id)``.
    """

    @pytest.mark.parametrize(
        "certain", [UniformDiskError(0.0), GaussianError(0.0)]
    )
    def test_certainty_is_bit_identical_to_no_error(self, certain):
        reference, _, r1, _ = _two_client_net(NoError())
        zeroed, _, z1, _ = _two_client_net(certain)
        for net, c in ((reference, r1), (zeroed, z1)):
            net.add_saturated(c, c.associated_ap)
            net.run(0.05)
        assert _reports(reference) == _reports(zeroed)
        assert reference.counters() == zeroed.counters()

    def test_one_nodes_draws_never_shift_anothers(self):
        # An extra report by C1 in one network must not change what C2's
        # next report draws — with a shared stream it would consume two
        # draws out from under C2.
        net_a, _, a1, a2 = _two_client_net(UniformDiskError(10.0))
        net_b, _, _, b2 = _two_client_net(UniformDiskError(10.0))
        assert net_a.update_node_position(a1, Point(30, 0))
        assert net_a.update_node_position(a2, Point(-30, 0))
        assert net_b.update_node_position(b2, Point(-30, 0))
        assert a2.agent.reported_position == b2.agent.reported_position
