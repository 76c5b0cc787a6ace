"""Multi-interferer aggregation (the paper's stated future work)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.concurrency import ConcurrencyValidator
from repro.core.neighbor_table import NeighborTable
from repro.core.protocol import CoMapAgent
from repro.core.config import CoMapConfig
from repro.phy.propagation import LogNormalShadowing
from repro.phy.prr import PrrModel
from repro.util.geometry import Point


def make_model(alpha=2.9, sigma=4.0, t_sir=4.0):
    return PrrModel(LogNormalShadowing(alpha=alpha, sigma_db=sigma), t_sir_db=t_sir)


class TestEffectiveDistance:
    def test_single_interferer_is_identity(self):
        model = make_model()
        assert model.effective_interferer_distance([30.0]) == pytest.approx(30.0)

    def test_two_equal_interferers_closer_than_either(self):
        model = make_model(alpha=3.0)
        r_eff = model.effective_interferer_distance([30.0, 30.0])
        # Doubling the power: r_eff = 30 * 2^(-1/alpha).
        assert r_eff == pytest.approx(30.0 * 2 ** (-1 / 3.0))

    def test_dominated_by_nearest(self):
        model = make_model()
        r_eff = model.effective_interferer_distance([10.0, 1000.0])
        assert r_eff == pytest.approx(10.0, rel=1e-3)

    def test_validation_errors(self):
        model = make_model()
        with pytest.raises(ValueError):
            model.effective_interferer_distance([])
        with pytest.raises(ValueError):
            model.effective_interferer_distance([10.0, -1.0])
        # A co-located interferer counts as one at d0 = 1 m.
        assert model.effective_interferer_distance([0.0]) == 1.0
        assert model.prr_multi(0.0, [0.0]) == model.prr(1.0, 1.0)

    @given(st.lists(st.floats(min_value=1.0, max_value=500.0), min_size=1, max_size=8))
    def test_effective_distance_bounded_by_minimum(self, distances):
        r_eff = make_model().effective_interferer_distance(distances)
        assert r_eff <= min(distances) + 1e-9

    @given(st.lists(st.floats(min_value=1.0, max_value=500.0), min_size=1, max_size=8),
           st.floats(min_value=1.0, max_value=100.0))
    def test_prr_multi_never_exceeds_worst_single(self, distances, d_link):
        model = make_model()
        multi = model.prr_multi(d_link, distances)
        singles = [model.prr(d_link, r) for r in distances]
        assert multi <= min(singles) + 1e-9


class TestValidateMulti:
    def table(self):
        """Two far ongoing links plus me/my receiver in the middle."""
        t = NeighborTable()
        t.update(1, Point(-60, 0))    # ongoing src A
        t.update(2, Point(-52, 0))    # ongoing dst A
        t.update(3, Point(60, 0))     # ongoing src B
        t.update(4, Point(52, 0))     # ongoing dst B
        t.update(5, Point(0, 0))      # me
        t.update(6, Point(6, 0))      # my receiver
        return t

    def validator(self):
        return ConcurrencyValidator(make_model())

    def test_two_far_links_allowed(self):
        result = self.validator().validate_multi(self.table(), [(1, 2), (3, 4)], 5, 6)
        assert result.allowed

    def test_requires_links(self):
        with pytest.raises(ValueError):
            self.validator().validate_multi(self.table(), [], 5, 6)

    def test_participant_rejected(self):
        result = self.validator().validate_multi(self.table(), [(1, 2)], 1, 6)
        assert not result.allowed

    def test_missing_position_rejected(self):
        table = self.table()
        table.remove(4)
        result = self.validator().validate_multi(table, [(1, 2), (3, 4)], 5, 6)
        assert not result.allowed

    def test_aggregation_can_flip_a_marginal_verdict(self):
        # Each single interferer passes, but two of them together push the
        # combined interference over the line (my PRR: 0.96 alone, 0.94
        # from both, against T_PRR = 0.95).
        t = NeighborTable()
        t.update(1, Point(-32, 0)); t.update(2, Point(-38, 6))
        t.update(3, Point(32, 0)); t.update(4, Point(38, 6))
        t.update(5, Point(0, 0)); t.update(6, Point(8, 0))
        validator = self.validator()
        single_a = validator.validate(t, 1, 2, 5, 6)
        single_b = validator.validate(t, 3, 4, 5, 6)
        both = validator.validate_multi(t, [(1, 2), (3, 4)], 5, 6)
        assert single_a.allowed and single_b.allowed
        assert both.prr_mine < min(single_a.prr_mine, single_b.prr_mine)
        assert not both.allowed

    def test_agent_facade(self):
        agent = CoMapAgent(
            node_id=5,
            propagation=LogNormalShadowing(alpha=2.9, sigma_db=4.0),
            config=CoMapConfig(t_sir_db=4.0),
            tx_power_dbm=0.0,
            t_cs_dbm=-87.0,
            neighbor_table=NeighborTable(),
        )
        for node_id, pos in ((1, (-60, 0)), (2, (-52, 0)), (3, (60, 0)),
                             (4, (52, 0)), (5, (0, 0)), (6, (6, 0))):
            agent.neighbor_table.update(node_id, Point(*pos))
        assert agent.concurrency_allowed_multi([(1, 2), (3, 4)], 6)
