"""Hidden-terminal / contender classification (eq. 4)."""

from repro.core.ht_estimation import HtEstimator, InterferenceClass
from repro.core.neighbor_table import NeighborTable
from repro.phy.propagation import LogNormalShadowing
from repro.phy.prr import PrrModel
from repro.util.geometry import Point


def make_estimator(t_cs=-75.0, alpha=2.9, sigma=4.0, t_sir=10.0,
                   floor=0.5, hidden_prob=0.9):
    model = PrrModel(LogNormalShadowing(alpha=alpha, sigma_db=sigma), t_sir_db=t_sir)
    return HtEstimator(model, tx_power_dbm=0.0, t_cs_dbm=t_cs,
                       hidden_prob_threshold=hidden_prob,
                       interference_prr_floor=floor)


def ht_scenario_table():
    """The Fig. 2-style topology: C1(-10) -> AP1(0); C2 hidden at 15."""
    table = NeighborTable()
    table.update(0, Point(0, 0), is_ap=True)    # AP1 (receiver)
    table.update(1, Point(-10, 0))              # C1 (sender)
    table.update(2, Point(15, 0))               # hidden interferer
    table.update(3, Point(-6, 3))               # contender near C1
    table.update(4, Point(70, 0))               # far independent node
    return table


class TestClassification:
    def test_three_way_classification(self):
        roles = {r.node_id: r.klass for r in
                 make_estimator().classify(ht_scenario_table(), sender=1, receiver=0)}
        assert roles[2] is InterferenceClass.HIDDEN
        assert roles[3] is InterferenceClass.CONTENDER
        assert roles[4] is InterferenceClass.INDEPENDENT

    def test_counts(self):
        counts = make_estimator().counts(ht_scenario_table(), 1, 0)
        assert counts == {"hidden": 1, "contenders": 1, "independent": 1}

    def test_hidden_terminal_ids(self):
        assert make_estimator().hidden_terminals(ht_scenario_table(), 1, 0) == [2]

    def test_sender_and_receiver_excluded(self):
        roles = make_estimator().classify(ht_scenario_table(), 1, 0)
        ids = {r.node_id for r in roles}
        assert 0 not in ids and 1 not in ids

    def test_unknown_link_gives_empty(self):
        table = ht_scenario_table()
        assert make_estimator().classify(table, 1, 99) == []

    def test_evidence_fields_populated(self):
        for role in make_estimator().classify(ht_scenario_table(), 1, 0):
            assert 0.0 <= role.prr_under_interference <= 1.0
            assert 0.0 <= role.cs_miss_probability <= 1.0

    def test_hidden_requires_both_conditions(self):
        # The far node misses carrier sense but does not interfere: it
        # must be independent, not hidden.
        roles = {r.node_id: r for r in make_estimator().classify(ht_scenario_table(), 1, 0)}
        far = roles[4]
        assert far.cs_miss_probability > 0.9
        assert far.klass is InterferenceClass.INDEPENDENT

    def test_lower_cs_threshold_turns_hidden_into_contender(self):
        # A very sensitive CCA (-95 dBm) senses everyone: no HTs remain.
        counts = make_estimator(t_cs=-95.0).counts(ht_scenario_table(), 1, 0)
        assert counts["hidden"] == 0

    def test_stricter_interference_floor_adds_hidden(self):
        # With floor ~1.0 nearly any neighbor counts as an interferer.
        counts = make_estimator(floor=0.999).counts(ht_scenario_table(), 1, 0)
        assert counts["hidden"] >= 1
