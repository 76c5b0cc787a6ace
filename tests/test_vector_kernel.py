"""Property tests for the exact scalar helpers.

dB↔ratio conversions via python pow/log, the per-rate sensitivity and
SIR constants on ``Rate``, the radio's decode / SIR / capture decisions
and link seed derivation must agree **bit for bit** with the plain
expressions that define them.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mac.frames import Frame, FrameType
from repro.phy.channel import Transmission
from repro.phy.radio import Radio, RadioConfig, _ReceptionLock
from repro.experiments.params import ns2_params
from repro.phy.rates import OFDM_RATES, Rate
from repro.util.geometry import Point
from repro.util.rng import derive_seed
from repro.util.units import db_to_ratio, dbm_to_mw, mw_to_dbm, ratio_to_db

from tests.conftest import StubMac, build_phy_world

_db = st.floats(min_value=-200.0, max_value=200.0,
                allow_nan=False, allow_infinity=False)
_mw = st.floats(min_value=1e-15, max_value=1e6,
                allow_nan=False, allow_infinity=False)


# ----------------------------------------------------------------------
# dB <-> ratio algebra (exact scalar helpers the kernels build on)
# ----------------------------------------------------------------------
class TestDbAlgebra:
    @given(db=_db)
    @settings(deadline=None)
    def test_round_trip(self, db):
        assert math.isclose(ratio_to_db(db_to_ratio(db)), db,
                            rel_tol=0, abs_tol=1e-9)

    def test_identity_at_zero(self):
        assert db_to_ratio(0.0) == 1.0
        assert ratio_to_db(1.0) == 0.0
        assert dbm_to_mw(0.0) == 1.0

    @given(a=_db, b=_db)
    @settings(deadline=None)
    def test_monotone(self, a, b):
        if a < b:
            assert db_to_ratio(a) <= db_to_ratio(b)
        if a + 1e-9 < b:  # strict once the gap survives float rounding
            assert db_to_ratio(a) < db_to_ratio(b)

    def test_ratio_to_db_rejects_non_positive(self):
        with pytest.raises(ValueError):
            ratio_to_db(0.0)
        with pytest.raises(ValueError):
            ratio_to_db(-1.0)


# ----------------------------------------------------------------------
# Link seed derivation
# ----------------------------------------------------------------------
class TestDeriveSeeds:
    def test_injective_over_link_grid(self):
        # The channel's shadowing substream keys: ("shadowing", band, tx, rx).
        keys = [(tx, rx) for tx in range(50) for rx in range(50) if tx != rx]
        seeds = {derive_seed(123, "shadowing", 0, tx, rx) for tx, rx in keys}
        assert len(keys) == 2450
        assert len(seeds) == len(keys)

    def test_prefix_is_part_of_identity(self):
        a = {derive_seed(7, "shadowing", 0, 0, k) for k in (1, 2, 3)}
        b = {derive_seed(7, "shadowing", 1, 0, k) for k in (1, 2, 3)}
        assert not a & b


# ----------------------------------------------------------------------
# Rate constants
# ----------------------------------------------------------------------
class TestRateConstants:
    @pytest.mark.parametrize("rate", list(OFDM_RATES))
    def test_matches_cached_scalar_helpers(self, rate):
        # The constants on Rate are exactly the conversions they replace.
        assert rate.sensitivity_mw == 10.0 ** (rate.sensitivity_dbm / 10.0)
        assert rate.sensitivity_mw == dbm_to_mw(rate.sensitivity_dbm)
        assert rate.sir_threshold_ratio == 10.0 ** (rate.sir_threshold_db / 10.0)
        assert rate.sir_threshold_ratio == db_to_ratio(rate.sir_threshold_db)

    def test_cached_identity(self):
        rate = OFDM_RATES.by_bps(6_000_000)
        assert rate.sensitivity_mw is rate.sensitivity_mw
        assert rate.sir_threshold_ratio is rate.sir_threshold_ratio

    def test_constants_change_no_seed_or_cache_key(self):
        # derive_seed, result-store keys and manifest params encode
        # dataclasses.fields(): the constants must stay out of them.
        assert [f.name for f in dataclasses.fields(Rate)] == [
            "bps", "sir_threshold_db", "sensitivity_dbm",
        ]
        assert derive_seed(0, ns2_params()) == 5335229341065096762  # rates included

    def test_replace_recomputes_constants(self):
        rate = dataclasses.replace(OFDM_RATES.base, sensitivity_dbm=-70.0)
        assert rate.sensitivity_mw == dbm_to_mw(-70.0)
        assert rate.sir_threshold_ratio == OFDM_RATES.base.sir_threshold_ratio


# ----------------------------------------------------------------------
# The radio's decisions vs the plain compares that define them
# ----------------------------------------------------------------------
_power_batch = st.lists(_mw, min_size=1, max_size=24)
_thr_db = st.floats(min_value=0.0, max_value=30.0,
                    allow_nan=False, allow_infinity=False)


def _listener():
    """An idle radio with a stub MAC on an otherwise empty channel."""
    world = build_phy_world([(50.0, 0.0)])
    radio = Radio(
        radio_id=7, position=Point(0.0, 0.0),
        config=RadioConfig(), channel=world.channel,
    )
    radio.bind_mac(StubMac())
    return radio, world.radios[0]


def _tx(sender, rate):
    frame = Frame(kind=FrameType.DATA, src=0, dst=7, rate=rate, payload_bytes=100)
    return Transmission(frame, sender, 0, 1_000)


class TestDecisionMasks:
    @given(powers=_power_batch, sens_db=_db)
    @settings(max_examples=50, deadline=None)
    def test_decode_masks_match_scalar_compares(self, powers, sens_db):
        # An idle radio locks iff the power clears the rate's
        # sensitivity, and otherwise counts a miss iff it clears noise.
        rate = Rate(6_000_000, 10.0, mw_to_dbm(db_to_ratio(sens_db) * 1e-9))
        sens = rate.sensitivity_mw
        radio, sender = _listener()
        for p in powers:
            missed = radio.frames_missed
            tx = _tx(sender, rate)
            radio.on_air_start(tx, p)
            assert (radio._lock is not None) == (p >= sens)
            assert radio.frames_missed - missed == (p < sens and p >= radio.noise_mw)
            radio.on_air_end(tx)

    @given(
        signal=_power_batch,
        interference=_mw,
        thr_db=_thr_db,
    )
    @settings(max_examples=50, deadline=None)
    def test_sir_mask_matches_scalar(self, signal, interference, thr_db):
        # A finished reception is delivered iff
        # signal / (max interference + noise) >= threshold, with the
        # signal's mw_to_dbm as its RSSI.  The radio is seeded as if it
        # had locked onto the frame with that interference seen.
        rate = Rate(6_000_000, thr_db, -200.0)
        radio, sender = _listener()
        thr = rate.sir_threshold_ratio
        for s in signal:
            received = radio.frames_received
            tx = _tx(sender, rate)
            radio._in_air[tx] = s
            radio._lock = _ReceptionLock(tx, s, interference)
            radio.on_air_end(tx)
            delivered = s / (interference + radio.noise_mw) >= thr
            assert radio.frames_received - received == delivered
            if delivered:
                assert radio.mac.received[-1] == (tx.frame, mw_to_dbm(s))

    @given(
        powers=_power_batch,
        extra_mw=_mw,
        thr_db=_thr_db,
        sens_dbm=st.floats(min_value=-100.0, max_value=-60.0,
                           allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_capture_mask_matches_scalar(
        self, powers, extra_mw, thr_db, sens_dbm
    ):
        # A locked radio re-locks onto a new frame iff it is decodable
        # and clears SIR against all other in-air energy plus noise.
        rate = Rate(6_000_000, thr_db, sens_dbm)
        sens, thr = rate.sensitivity_mw, rate.sir_threshold_ratio
        radio, sender = _listener()
        first_mw = extra_mw + sens  # always lockable
        for p in powers:
            first, second = _tx(sender, rate), _tx(sender, rate)
            radio.on_air_start(first, first_mw)
            assert radio._lock.tx is first
            radio.on_air_start(second, p)
            energy = first_mw + p
            captured = p >= sens and p / (energy - p + radio.noise_mw) >= thr
            assert (radio._lock.tx is second) == captured
            radio.on_air_end(first)
            radio.on_air_end(second)

