"""Unit-level TCP-lite mechanics (driven without a live channel)."""

import pytest

from repro.experiments.params import ns2_params
from repro.mac.frames import Frame, FrameType
from repro.net.network import Network
from repro.phy.rates import OFDM_RATES
from repro.sim.engine import FIRED


def make_flow(window=4):
    net = Network(ns2_params(), seed=0)
    ap = net.add_ap("AP", 0, 0)
    c = net.add_client("C", 10, 0, ap=ap)
    net.finalize()
    flow = net.add_tcp(c, ap, window=window)
    return net, flow, c, ap


def data_segment(flow, seq, src, dst, payload=1000):
    return Frame(
        kind=FrameType.DATA, src=src, dst=dst,
        rate=OFDM_RATES.base, payload_bytes=payload,
        seq=seq, flow=(src, dst), meta={"app": {"tcp_seq": seq}},
    )


class TestReceiverReassembly:
    def test_in_order_delivery(self):
        net, flow, c, ap = make_flow()
        for seq in (0, 1, 2):
            flow._on_dst_delivery(data_segment(flow, seq, c.node_id, ap.node_id))
        assert flow.delivered_segments == 3
        assert flow._rcv_next == 3

    def test_out_of_order_held_back(self):
        net, flow, c, ap = make_flow()
        flow._on_dst_delivery(data_segment(flow, 2, c.node_id, ap.node_id))
        assert flow.delivered_segments == 0
        flow._on_dst_delivery(data_segment(flow, 0, c.node_id, ap.node_id))
        assert flow.delivered_segments == 1
        flow._on_dst_delivery(data_segment(flow, 1, c.node_id, ap.node_id))
        # Sequence 2 was buffered and is now released.
        assert flow.delivered_segments == 3

    def test_duplicate_segment_ignored(self):
        net, flow, c, ap = make_flow()
        flow._on_dst_delivery(data_segment(flow, 0, c.node_id, ap.node_id))
        flow._on_dst_delivery(data_segment(flow, 0, c.node_id, ap.node_id))
        assert flow.delivered_segments == 1
        assert flow.delivered_bytes == 1000

    def test_foreign_traffic_ignored(self):
        net, flow, c, ap = make_flow()
        stranger = data_segment(flow, 0, src=99, dst=ap.node_id)
        flow._on_dst_delivery(stranger)
        assert flow.delivered_segments == 0

    def test_non_tcp_payload_ignored(self):
        net, flow, c, ap = make_flow()
        frame = Frame(kind=FrameType.DATA, src=c.node_id, dst=ap.node_id,
                      rate=OFDM_RATES.base, payload_bytes=500)
        flow._on_dst_delivery(frame)
        assert flow.delivered_segments == 0


class TestSenderWindow:
    def test_initial_fill_respects_window(self):
        net, flow, c, ap = make_flow(window=3)
        assert flow.segments_sent == 3
        assert len(flow._outstanding) == 3

    def test_ack_slides_window(self):
        net, flow, c, ap = make_flow(window=3)
        ack = Frame(kind=FrameType.DATA, src=ap.node_id, dst=c.node_id,
                    rate=OFDM_RATES.base, payload_bytes=40,
                    meta={"app": {"tcp_ack": 2}})
        flow._on_src_delivery(ack)
        assert flow._snd_una == 2
        assert flow.segments_sent == 5  # two more injected

    def test_stale_ack_ignored(self):
        net, flow, c, ap = make_flow(window=3)
        ack = Frame(kind=FrameType.DATA, src=ap.node_id, dst=c.node_id,
                    rate=OFDM_RATES.base, payload_bytes=40,
                    meta={"app": {"tcp_ack": 0}})
        flow._on_src_delivery(ack)
        assert flow._snd_una == 0
        assert flow.segments_sent == 3

    def test_rto_resends_unacked_segment(self):
        net, flow, c, ap = make_flow(window=1)
        sent_before = flow.segments_sent
        # Fire the RTO directly for the outstanding segment.
        flow._on_rto(0)
        assert flow.retransmissions == 1
        # An RTO on an already-acked sequence is a no-op.
        flow._outstanding.clear()
        flow._on_rto(0)
        assert flow.retransmissions == 1

    def test_ack_cancels_rto(self):
        net, flow, c, ap = make_flow(window=1)
        segment = flow._outstanding[0]
        callback = segment.rto_handle[2]  # the entry's callback slot
        assert callback is not None and callback is not FIRED  # pending
        ack = Frame(kind=FrameType.DATA, src=ap.node_id, dst=c.node_id,
                    rate=OFDM_RATES.base, payload_bytes=40,
                    meta={"app": {"tcp_ack": 1}})
        flow._on_src_delivery(ack)
        assert segment.rto_handle[2] is None  # cancelled
