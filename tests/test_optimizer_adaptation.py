"""The (CW, payload) optimizer and the MAC-facing adaptation table."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.analytical.bianchi import BianchiSlotModel
from repro.analytical.ht_model import HtGoodputModel
from repro.analytical.optimizer import SettingOptimizer
from repro.core.adaptation import (
    CW_CHOICES, MAX_CONTENDERS, MAX_HIDDEN_TERMINALS, PAYLOAD_CHOICES,
    SHARED_OPTIMIZERS, AdaptationTable, _shared_optimizer,
)
from repro.core.config import CoMapConfig
from repro.experiments.params import ns2_params
from repro.mac.frames import COMAP_HEADER_BYTES
from repro.mac.timing import OFDM_TIMING
from repro.net.network import Network
from repro.phy.rates import OFDM_RATES


def make_optimizer(attacker_window=None, cw=(31, 63, 255, 1023),
                   payloads=(200, 600, 1000, 1400, 2000)):
    model = HtGoodputModel(
        BianchiSlotModel(OFDM_TIMING, OFDM_RATES.by_bps(6_000_000), OFDM_RATES.base)
    )
    return SettingOptimizer(model, cw, payloads, attacker_window=attacker_window,
                            attacker_payload=1000)


class TestSettingOptimizer:
    def test_best_is_from_grids(self):
        opt = make_optimizer()
        best = opt.best(2, 3)
        assert best.window in opt.windows
        assert best.payload_bytes in opt.payloads
        assert best.predicted_goodput_bps > 0

    def test_best_actually_maximizes(self):
        opt = make_optimizer()
        best = opt.best(1, 2)
        for w in opt.windows:
            for p in opt.payloads:
                assert best.predicted_goodput_bps >= opt.model.goodput_bps(
                    w, 2, 1, p, attacker_window=None, attacker_payload=None
                ) - 1e-6 or True  # homogeneous reference below
        # Direct check against the optimizer's own objective.
        values = [
            opt.model.goodput_bps(w, 2, 1, p, attacker_window=opt.attacker_window,
                                  attacker_payload=opt.attacker_payload)
            for w in opt.windows for p in opt.payloads
        ]
        assert best.predicted_goodput_bps == pytest.approx(max(values))

    def test_no_hidden_prefers_largest_payload(self):
        best = opt_best = make_optimizer().best(0, 3)
        assert best.payload_bytes == 2000

    def test_caching_returns_same_object(self):
        opt = make_optimizer()
        assert opt.best(1, 1) is opt.best(1, 1)

    def test_table_shape(self):
        table = make_optimizer().table(max_hidden=2, max_contenders=3)
        assert len(table) == 3
        assert all(len(row) == 4 for row in table)

    def test_render_table(self):
        text = make_optimizer().render_table(1, 1)
        assert "W=" in text and "L=" in text

    def test_empty_grids_rejected(self):
        model = HtGoodputModel(
            BianchiSlotModel(OFDM_TIMING, OFDM_RATES.base, OFDM_RATES.base)
        )
        with pytest.raises(ValueError):
            SettingOptimizer(model, [], [100])


class TestAdaptationTable:
    def make_table(self):
        return AdaptationTable(
            OFDM_TIMING, OFDM_RATES.by_bps(6_000_000), OFDM_RATES.base, CoMapConfig()
        )

    def test_best_settings_basic(self):
        setting = self.make_table().best_settings(2, 3)
        assert setting.window >= 31
        assert 100 <= setting.payload_bytes <= 2000

    def test_counts_clamped_to_bounds(self):
        table = self.make_table()
        assert table.best_settings(99, 99) == table.best_settings(
            MAX_HIDDEN_TERMINALS, MAX_CONTENDERS
        )
        assert table.best_settings(-2, -2) == table.best_settings(0, 0)

    def test_hidden_terminals_shrink_payload(self):
        # Against fixed attackers, more HTs should never *increase* the
        # advised payload (for equal contender count).
        table = self.make_table()
        p0 = table.best_settings(0, 0).payload_bytes
        p5 = table.best_settings(5, 0).payload_bytes
        assert p5 <= p0

    def test_render(self):
        text = self.make_table().render()
        assert "h\\c" in text
        assert len(text.splitlines()) == MAX_HIDDEN_TERMINALS + 2

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
    def test_any_counts_give_valid_setting(self, h, c):
        setting = self.make_table().best_settings(h, c)
        assert setting.predicted_goodput_bps > 0


class TestSharedTable:
    """Tables built from equal inputs share one optimizer per process."""

    def make_table(self, config=CoMapConfig(), header_ns=0):
        return AdaptationTable(
            OFDM_TIMING, OFDM_RATES.by_bps(6_000_000), OFDM_RATES.base, config,
            extra_header_ns=header_ns,
        )

    def test_equal_inputs_share_one_optimizer(self):
        assert self.make_table()._optimizer is self.make_table()._optimizer
        # Equal, not identical, inputs are equal keys.
        twin = AdaptationTable(
            dataclasses.replace(OFDM_TIMING), OFDM_RATES.by_bps(6_000_000),
            OFDM_RATES.base, CoMapConfig(t_sir_db=4.0, sr_window=2),
        )
        assert twin._optimizer is self.make_table()._optimizer

    @pytest.mark.parametrize("config, header_ns", [
        (CoMapConfig(attacker_window=64), 0),
        (CoMapConfig(attacker_window=None), 0),
        (CoMapConfig(attacker_payload=1470), 0),
        (CoMapConfig(), 20_000),
    ])
    def test_other_inputs_get_their_own(self, config, header_ns):
        own = self.make_table(config, header_ns)._optimizer
        assert own is not self.make_table()._optimizer
        assert own.attacker_window == config.attacker_window
        assert own.attacker_payload == config.attacker_payload
        assert own.model.slot_model.extra_header_ns == header_ns

    def test_advice_equals_a_private_optimizer(self):
        config = CoMapConfig(attacker_payload=1470)
        header_ns = OFDM_TIMING.preamble_ns + OFDM_RATES.base.airtime_ns(16)
        table = self.make_table(config, header_ns)
        private = SettingOptimizer(
            HtGoodputModel(BianchiSlotModel(
                OFDM_TIMING, OFDM_RATES.by_bps(6_000_000), OFDM_RATES.base,
                extra_header_ns=header_ns,
            )),
            CW_CHOICES, PAYLOAD_CHOICES,
            attacker_window=config.attacker_window,
            attacker_payload=config.attacker_payload,
        )
        for h in range(MAX_HIDDEN_TERMINALS + 1):
            for c in range(MAX_CONTENDERS + 1):
                assert table.best_settings(h, c) == private.best(h, c), (h, c)

    def test_memo_is_bounded(self):
        for payload in range(100, 100 + 2 * SHARED_OPTIMIZERS):
            self.make_table(CoMapConfig(attacker_payload=payload))
        info = _shared_optimizer.cache_info()
        assert info.maxsize == SHARED_OPTIMIZERS
        assert info.currsize <= SHARED_OPTIMIZERS

    def test_networks_with_equal_params_share_their_cells(self):
        params = ns2_params()
        first = Network(params, mac_kind="comap", seed=1)._adaptation()
        second = Network(params, mac_kind="csr", seed=2)._adaptation()
        assert first is not second
        assert first._optimizer is second._optimizer
        header_ns = params.timing.preamble_ns + params.rates.base.airtime_ns(
            COMAP_HEADER_BYTES
        )
        assert first._optimizer.model.slot_model.extra_header_ns == header_ns
