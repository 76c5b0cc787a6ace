"""Frame formats and PHY timing arithmetic."""

import pytest

from repro.mac.frames import (
    ACK_BYTES,
    BROADCAST,
    COMAP_HEADER_BYTES,
    MAC_DATA_OVERHEAD_BYTES,
    Frame,
    FrameType,
)
from repro.mac.timing import DSSS_TIMING, OFDM_TIMING
from repro.phy.rates import DSSS_RATES, OFDM_RATES
from repro.util.units import MICROSECOND


def data_frame(payload=1000, rate=None):
    return Frame(
        kind=FrameType.DATA, src=1, dst=2,
        rate=rate or OFDM_RATES.by_bps(6_000_000), payload_bytes=payload, seq=0,
    )


class TestFrame:
    def test_data_total_bytes_includes_mac_overhead(self):
        assert data_frame(1000).total_bytes == 1000 + MAC_DATA_OVERHEAD_BYTES

    def test_ack_size(self):
        ack = Frame(kind=FrameType.ACK, src=1, dst=2, rate=OFDM_RATES.base)
        assert ack.total_bytes == ACK_BYTES == 14

    def test_header_size(self):
        hdr = Frame(kind=FrameType.COMAP_HEADER, src=1, dst=2, rate=OFDM_RATES.base)
        assert hdr.total_bytes == COMAP_HEADER_BYTES

    def test_data_requires_payload(self):
        with pytest.raises(ValueError):
            Frame(kind=FrameType.DATA, src=1, dst=2, rate=OFDM_RATES.base, payload_bytes=0)

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            Frame(kind=FrameType.ACK, src=1, dst=2, rate=OFDM_RATES.base, payload_bytes=-1)

    def test_broadcast_flag(self):
        frame = Frame(kind=FrameType.DATA, src=1, dst=BROADCAST,
                      rate=OFDM_RATES.base, payload_bytes=10)
        assert frame.is_broadcast

    def test_uids_unique(self):
        assert data_frame().uid != data_frame().uid

    def test_describe_mentions_endpoints(self):
        text = data_frame().describe()
        assert "1->2" in text and "1000B" in text


class TestTiming:
    def test_difs_is_sifs_plus_two_slots(self):
        assert DSSS_TIMING.difs_ns == DSSS_TIMING.sifs_ns + 2 * DSSS_TIMING.slot_ns
        assert OFDM_TIMING.difs_ns == OFDM_TIMING.sifs_ns + 2 * OFDM_TIMING.slot_ns

    def test_standard_dsss_values(self):
        assert DSSS_TIMING.slot_ns == 20 * MICROSECOND
        assert DSSS_TIMING.sifs_ns == 10 * MICROSECOND
        assert DSSS_TIMING.difs_ns == 50 * MICROSECOND
        assert DSSS_TIMING.preamble_ns == 192 * MICROSECOND

    def test_standard_ofdm_values(self):
        assert OFDM_TIMING.slot_ns == 9 * MICROSECOND
        assert OFDM_TIMING.sifs_ns == 16 * MICROSECOND
        assert OFDM_TIMING.difs_ns == 34 * MICROSECOND

    def test_frame_airtime(self):
        frame = data_frame(1000)
        expected = OFDM_TIMING.preamble_ns + frame.rate.airtime_ns(1028)
        assert OFDM_TIMING.frame_airtime_ns(frame) == expected

    def test_ack_airtime_at_1mbps(self):
        # 192 us preamble + 14 B at 1 Mbps = 112 us -> 304 us.
        assert DSSS_TIMING.ack_airtime_ns(DSSS_RATES.base) == 304 * MICROSECOND

    def test_ack_timeout_exceeds_sifs_plus_ack(self):
        rate = OFDM_RATES.base
        assert OFDM_TIMING.ack_timeout_ns(rate) > OFDM_TIMING.sifs_ns + OFDM_TIMING.ack_airtime_ns(rate)

    def test_eifs_formula(self):
        base = DSSS_RATES.base
        expected = DSSS_TIMING.sifs_ns + DSSS_TIMING.ack_airtime_ns(base) + DSSS_TIMING.difs_ns
        assert DSSS_TIMING.eifs_ns(base) == expected

    def test_data_exchange_matches_paper_ts(self):
        # T_s = T_HDR + T_payload + SIFS + T_ACK + DIFS (eq. 8).
        rate = OFDM_RATES.by_bps(6_000_000)
        t_s = OFDM_TIMING.data_exchange_ns(rate, 1000, OFDM_RATES.base)
        data_air = OFDM_TIMING.preamble_ns + rate.airtime_ns(1000 + MAC_DATA_OVERHEAD_BYTES)
        assert t_s == data_air + OFDM_TIMING.sifs_ns + OFDM_TIMING.ack_airtime_ns(OFDM_RATES.base) + OFDM_TIMING.difs_ns

    def test_collision_matches_paper_tc(self):
        rate = OFDM_RATES.by_bps(6_000_000)
        t_c = OFDM_TIMING.collision_ns(rate, 1000)
        data_air = OFDM_TIMING.preamble_ns + rate.airtime_ns(1000 + MAC_DATA_OVERHEAD_BYTES)
        assert t_c == data_air + OFDM_TIMING.difs_ns

    def test_ts_exceeds_tc(self):
        rate = OFDM_RATES.base
        assert OFDM_TIMING.data_exchange_ns(rate, 500, rate) > OFDM_TIMING.collision_ns(rate, 500)
