"""Concurrency validation (Fig. 4 geometry)."""

from repro.core.concurrency import ConcurrencyValidator
from repro.core.neighbor_table import NeighborTable
from repro.phy.propagation import LogNormalShadowing
from repro.phy.prr import PrrModel
from repro.util.geometry import Point


def make_validator(t_sir=4.0, sigma=4.0):
    model = PrrModel(LogNormalShadowing(alpha=2.9, sigma_db=sigma), t_sir_db=t_sir)
    return ConcurrencyValidator(model)


def et_scenario_table(c2_x: float) -> NeighborTable:
    """The Fig. 1 line topology: AP1 at 0, C1 at -8, AP2 at 36, C2 at x."""
    table = NeighborTable()
    table.update(0, Point(0, 0), is_ap=True)      # AP1
    table.update(1, Point(36, 0), is_ap=True)     # AP2
    table.update(2, Point(-8, 0), associated_ap=0)  # C1
    table.update(3, Point(c2_x, 0), associated_ap=1)  # C2
    return table


class TestValidation:
    def test_far_exposed_terminal_allowed(self):
        # C2 at 30 m: classic exposed terminal, concurrency must pass.
        table = et_scenario_table(30.0)
        result = make_validator().validate(table, ongoing_src=3, ongoing_dst=1,
                                           me=2, my_dst=0)
        assert result.allowed
        assert result.prr_theirs >= 0.95
        assert result.prr_mine >= 0.95

    def test_close_interferer_rejected(self):
        # C2 at 14 m would corrupt AP1: concurrency must fail.
        table = et_scenario_table(14.0)
        result = make_validator().validate(table, ongoing_src=3, ongoing_dst=1,
                                           me=2, my_dst=0)
        assert not result.allowed

    def test_two_sided_check_direction_two(self):
        # Receiver too close to the ongoing transmitter: direction 2 fails
        # even though direction 1 passes.
        table = NeighborTable()
        table.update(10, Point(0, 0))     # ongoing src
        table.update(11, Point(3, 0))     # ongoing dst (short, robust link)
        table.update(12, Point(40, 0))    # me, far from the ongoing rx
        table.update(13, Point(1, 0))     # my receiver, next to ongoing src
        result = make_validator().validate(table, 10, 11, 12, 13)
        assert not result.allowed
        assert "my receiver" in result.reason
        assert result.prr_theirs >= 0.95  # direction 1 passed

    def test_missing_position_rejected(self):
        table = et_scenario_table(30.0)
        table.remove(1)
        result = make_validator().validate(table, 3, 1, 2, 0)
        assert not result.allowed
        assert "missing" in result.reason

    def test_participant_of_ongoing_link_rejected(self):
        table = et_scenario_table(30.0)
        validator = make_validator()
        assert not validator.validate(table, 3, 1, 3, 0).allowed
        assert not validator.validate(table, 3, 1, 2, 1).allowed

    def test_threshold_strictness_monotone(self):
        # Moving C2 from AP1 toward its own AP raises both PRRs, so along
        # the line the T_PRR bar can only turn denied into allowed.
        validator = make_validator()
        verdicts = [
            validator.validate(et_scenario_table(float(x)), 3, 1, 2, 0).allowed
            for x in range(14, 36, 2)
        ]
        assert verdicts == sorted(verdicts)
        assert not verdicts[0] and verdicts[-1]

    def test_et_region_boundary_matches_paper(self):
        # With the testbed parameters the validated ET region opens a few
        # meters past 20 m from AP1 (the paper reports 20-34 m).
        validator = make_validator()
        allowed = [
            x for x in range(13, 44, 2)  # odd positions avoid C2 == AP2
            if validator.validate(et_scenario_table(float(x)), 3, 1, 2, 0).allowed
        ]
        assert allowed, "some positions must validate"
        assert min(allowed) >= 18
        assert min(allowed) <= 28
