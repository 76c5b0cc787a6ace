"""Hidden-terminal / contender classification (eq. 4)."""

from hypothesis import given, settings
from hypothesis import strategies as st

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


#: A band's rows: node id -> reported (x, y), ids 0-11 (some absent).
_rows = st.dictionaries(
    st.integers(min_value=0, max_value=11),
    st.tuples(
        st.floats(min_value=-80.0, max_value=80.0, allow_nan=False),
        st.floats(min_value=-80.0, max_value=80.0, allow_nan=False),
    ),
    max_size=10,
)


def _tally(roles):
    counts = {"hidden": 0, "contenders": 0, "independent": 0}
    names = {
        InterferenceClass.HIDDEN: "hidden",
        InterferenceClass.CONTENDER: "contenders",
        InterferenceClass.INDEPENDENT: "independent",
    }
    for role in roles:
        counts[names[role.klass]] += 1
    return counts


class TestCountsProperty:
    @given(
        rows=_rows,
        links=st.lists(
            st.tuples(st.integers(0, 13), st.integers(0, 13)), min_size=1, max_size=6
        ),
        t_cs=st.sampled_from([-95.0, -82.0, -75.0, -62.0]),
        sigma=st.sampled_from([0.0, 4.0, 8.0]),
        floor=st.sampled_from([0.5, 0.95]),
    )
    @settings(max_examples=100, deadline=None)
    def test_counts_are_the_tally_of_classify(self, rows, links, t_cs, sigma, floor):
        # Senders and receivers may have no row.
        table = NeighborTable()
        for node_id, (x, y) in rows.items():
            table.update(node_id, Point(x, y))
        estimator = make_estimator(t_cs=t_cs, sigma=sigma, floor=floor)
        model = estimator.model
        for sender, receiver in links:
            roles = estimator.classify(table, sender, receiver)
            assert estimator.counts(table, sender, receiver) == _tally(roles)
            assert estimator.hidden_terminals(table, sender, receiver) == [
                r.node_id for r in roles if r.klass is InterferenceClass.HIDDEN
            ]
            if sender not in table or receiver not in table:
                assert roles == []
                continue
            # The evidence is eq. (3) and (4) on the table's distances.
            d_link = table.distance(sender, receiver)
            expected_ids = [
                e.node_id for e in table.neighbors()
                if e.node_id not in (sender, receiver)
            ]
            assert [r.node_id for r in roles] == expected_ids
            for role in roles:
                miss = model.carrier_sense_miss_probability(
                    table.distance(sender, role.node_id), 0.0, t_cs
                )
                prr = model.prr(d_link, table.distance(role.node_id, receiver))
                assert role.cs_miss_probability == miss
                assert role.prr_under_interference == prr
                if miss <= 0.9:
                    assert role.klass is InterferenceClass.CONTENDER
                elif prr < floor:
                    assert role.klass is InterferenceClass.HIDDEN
                else:
                    assert role.klass is InterferenceClass.INDEPENDENT


class TestEvaluationOrder:
    def test_counts_evaluates_eq3_only_where_the_sender_is_not_sensed(
        self, monkeypatch
    ):
        table = ht_scenario_table()
        estimator = make_estimator()
        unsensed = [
            r.node_id for r in estimator.classify(table, 1, 0)
            if r.cs_miss_probability > 0.9
        ]
        assert sorted(unsensed) == [2, 4]
        evaluated = []
        original = PrrModel.prr

        def prr(model, d_link, r_interferer):
            evaluated.append(r_interferer)
            return original(model, d_link, r_interferer)

        monkeypatch.setattr(PrrModel, "prr", prr)
        counts = estimator.counts(table, 1, 0)
        assert counts == {"hidden": 1, "contenders": 1, "independent": 1}
        assert sorted(evaluated) == sorted(table.distance(n, 0) for n in unsensed)
