"""The CoMapAgent facade: the full Fig. 5 pipeline."""

import pytest

from repro.core.adaptation import AdaptationTable
from repro.core.config import CoMapConfig
from repro.core.neighbor_table import NeighborTable
from repro.core.protocol import CoMapAgent
from repro.mac.timing import DSSS_TIMING
from repro.phy.propagation import LogNormalShadowing
from repro.phy.rates import DSSS_RATES
from repro.util.geometry import Point


def make_agent(node_id=2, t_sir=4.0, with_adaptation=False):
    config = CoMapConfig(t_sir_db=t_sir)
    adaptation = None
    if with_adaptation:
        adaptation = AdaptationTable(
            DSSS_TIMING, DSSS_RATES.by_bps(11_000_000), DSSS_RATES.base, config
        )
    return CoMapAgent(
        node_id=node_id,
        propagation=LogNormalShadowing(alpha=2.9, sigma_db=4.0),
        config=config,
        tx_power_dbm=0.0,
        t_cs_dbm=-75.0,
        neighbor_table=NeighborTable(),
        adaptation=adaptation,
    )


def populate_et_world(agent, c2_x=30.0):
    """Fig. 1 world from the agent's (C1's) perspective."""
    agent.neighbor_table.update(0, Point(0, 0), is_ap=True)            # AP1
    agent.neighbor_table.update(1, Point(36, 0), is_ap=True)           # AP2
    agent.neighbor_table.update(2, Point(-8, 0), associated_ap=0)      # C1 (self)
    agent.neighbor_table.update(3, Point(c2_x, 0), associated_ap=1)    # C2


class TestConcurrencyPath:
    def test_allowed_and_cached(self, monkeypatch):
        agent = make_agent()
        populate_et_world(agent, c2_x=30.0)
        assert agent.concurrency_allowed(3, 1, 0)

        def validate_again(*args):
            raise AssertionError("eq. 3 computed again")

        # Second query is served from the co-occurrence map.
        monkeypatch.setattr(agent, "validate", validate_again)
        assert agent.concurrency_allowed(3, 1, 0)

    def test_denied_near_interferer(self):
        agent = make_agent()
        populate_et_world(agent, c2_x=14.0)
        assert not agent.concurrency_allowed(3, 1, 0)

    def test_unknown_nodes_denied(self):
        agent = make_agent()
        populate_et_world(agent)
        assert not agent.concurrency_allowed(99, 1, 0)

    def test_co_map_holds_the_one_verdict(self):
        agent = make_agent()
        populate_et_world(agent)
        assert agent.concurrency_allowed(3, 1, 0)
        assert agent.co_map.entry_count == 1
        assert agent.co_map.query((3, 1), 0) is True
        # validate() is eq. 3 itself: computed on each call, never stored.
        assert agent.validate(3, 1, 0).reason == "concurrent transmission safe"
        assert agent.co_map.entry_count == 1

    def test_position_update_invalidates_caches(self):
        agent = make_agent()
        populate_et_world(agent, c2_x=30.0)
        assert agent.concurrency_allowed(3, 1, 0)
        # C2 moves right next to AP1: cached verdict must not survive.
        agent.neighbor_table.update(3, Point(5, 0), associated_ap=1)
        assert not agent.concurrency_allowed(3, 1, 0)

    def test_own_move_clears_everything(self):
        agent = make_agent()
        populate_et_world(agent, c2_x=30.0)
        agent.concurrency_allowed(3, 1, 0)
        assert agent.co_map.entry_count == 1
        agent.neighbor_table.update(2, Point(50, 0))  # self moved
        assert agent.co_map.entry_count == 0

    def test_choose_receiver_picks_first_passing(self):
        agent = make_agent()
        populate_et_world(agent, c2_x=30.0)
        # AP1 passes; the ongoing receiver itself never qualifies.
        assert agent.choose_receiver([1, 0], 3, 1) == 0
        assert agent.choose_receiver([1], 3, 1) is None


class TestPredictedSir:
    def test_predicted_sir_formula(self):
        agent = make_agent()
        populate_et_world(agent, c2_x=30.0)
        import math

        expected = 10 * 2.9 * math.log10(30.0 / 8.0)  # r2/d2 from positions
        assert agent.predicted_concurrent_sir_db(3, 0) == pytest.approx(expected)

    def test_unknown_position_gives_none(self):
        agent = make_agent()
        populate_et_world(agent)
        assert agent.predicted_concurrent_sir_db(99, 0) is None


class TestMobilityManagement:
    def test_first_report_always_sent(self):
        agent = make_agent()
        assert agent.should_report_move(Point(0, 0))

    def test_small_moves_suppressed(self):
        agent = make_agent()
        # Reported (4, 4) while at (0, 0): the 5 m rule measures the
        # node's own move, not the distance to its perturbed report.
        agent.mark_reported(Point(4, 4), Point(0, 0))
        assert not agent.should_report_move(Point(3, 0))
        assert agent.should_report_move(Point(6, 0))


class TestHtPath:
    def test_link_counts(self):
        agent = make_agent(t_sir=10.0)
        agent.neighbor_table.update(0, Point(0, 0), is_ap=True)
        agent.neighbor_table.update(2, Point(-10, 0))          # self (sender)
        agent.neighbor_table.update(5, Point(15, 0))           # hidden interferer
        agent.neighbor_table.update(6, Point(-7, 2))           # contender
        hidden, contenders = agent.link_counts(0)
        assert hidden == 1
        assert contenders == 1

    def test_hidden_terminal_listing(self):
        agent = make_agent(t_sir=10.0)
        agent.neighbor_table.update(0, Point(0, 0), is_ap=True)
        agent.neighbor_table.update(2, Point(-10, 0))
        agent.neighbor_table.update(5, Point(15, 0))
        assert agent.hidden_terminals(0) == [5]

    def test_advised_settings_none_without_table(self):
        agent = make_agent()
        populate_et_world(agent)
        assert agent.advised_settings(0) is None

    def test_advised_settings_with_table(self):
        agent = make_agent(t_sir=10.0, with_adaptation=True)
        agent.neighbor_table.update(0, Point(0, 0), is_ap=True)
        agent.neighbor_table.update(2, Point(-10, 0))
        agent.neighbor_table.update(5, Point(15, 0))
        setting = agent.advised_settings(0)
        assert setting is not None
        assert setting.payload_bytes > 0


class TestAnnounceWorthwhile:
    def test_no_neighbors_means_no_header(self):
        agent = make_agent()
        agent.neighbor_table.update(0, Point(0, 0), is_ap=True)
        agent.neighbor_table.update(2, Point(-8, 0), associated_ap=0)
        assert not agent.announce_worthwhile(0)

    def test_exposed_candidate_triggers_headers(self):
        agent = make_agent()
        populate_et_world(agent, c2_x=30.0)
        assert agent.announce_worthwhile(0)

    def test_near_candidate_does_not(self):
        agent = make_agent()
        populate_et_world(agent, c2_x=12.0)
        assert not agent.announce_worthwhile(0)

    def test_cache_invalidated_on_update(self):
        agent = make_agent()
        populate_et_world(agent, c2_x=12.0)
        assert not agent.announce_worthwhile(0)
        agent.neighbor_table.update(3, Point(30, 0), associated_ap=1)
        assert agent.announce_worthwhile(0)

    def test_cache_survives_a_keep_alive(self, monkeypatch):
        agent = make_agent()
        populate_et_world(agent, c2_x=30.0)
        assert agent.announce_worthwhile(0)

        def validate_again(*args, **kwargs):
            raise AssertionError("eq. 3 computed again")

        agent.neighbor_table.update(3, Point(30, 0), associated_ap=1, now=9)
        monkeypatch.setattr(agent.validator, "validate", validate_again)
        assert agent.announce_worthwhile(0)

    def test_association_change_in_place_recomputes(self):
        # C2 re-associating with AP1 leaves no neighbor a receiver of its
        # own that could run beside C1 -> AP1: no header is worthwhile.
        agent = make_agent()
        populate_et_world(agent, c2_x=30.0)
        assert agent.announce_worthwhile(0)
        agent.neighbor_table.update(3, Point(30, 0), associated_ap=0)
        assert not agent.announce_worthwhile(0)

    def test_describe_renders_pipeline(self):
        agent = make_agent()
        populate_et_world(agent)
        agent.concurrency_allowed(3, 1, 0)
        text = agent.describe()
        assert "Neighbor table" in text and "Co-occurrence map" in text
