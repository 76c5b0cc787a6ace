"""RTS/CTS study: measure why the paper disables virtual carrier sense.

The paper turns RTS/CTS off everywhere "due to its overhead,
inefficiency, and aggravation of the ET problem".  This example measures
all three on the library's own scenarios:

1. hidden-terminal link at moderate load — RTS/CTS helps (the CTS warns
   the hidden interferer) when control frames are cheap;
2. the same comparison on long-preamble 802.11b — the 1 Mbps control
   frames eat the gain (overhead);
3. exposed-terminal pair — NAV reservations silence exactly the
   transmissions CO-MAP would enable (aggravation), while CO-MAP gains.

Run:  python examples/rts_cts_study.py [--quick]
"""

import sys

from repro.experiments.params import ht_params, ht_testbed_params, testbed_params
from repro.experiments.topologies import exposed_terminal_topology
from repro.net.network import Network


def ht_link(params, rate_bps, duration, rts, seed=1):
    net = Network(params, mac_kind="dcf", seed=seed,
                  mac_overrides={"use_rts_cts": rts})
    ap1 = net.add_ap("AP1", 0.0, 0.0)
    c1 = net.add_client("C1", -17.0, 0.0, ap=ap1)
    ap2 = net.add_ap("AP2", 31.0, 0.0)
    c2 = net.add_client("C2", 24.0, 0.0, ap=ap2)
    net.finalize()
    net.add_cbr(c1, ap1, rate_bps, payload_bytes=1470)
    net.add_cbr(c2, ap2, rate_bps, payload_bytes=1470)
    results = net.run(duration)
    return results.goodput_mbps(c1.node_id, ap1.node_id)


def et_pair(duration, variant, seed=1):
    mac_kind = "comap" if variant == "comap" else "dcf"
    scenario = exposed_terminal_topology(
        mac_kind, c2_x=30.0, seed=seed,
        mac_overrides={"use_rts_cts": variant == "rts"},
    )
    results = scenario.network.run(duration)
    c2, ap2 = scenario.extra["c2"], scenario.extra["ap2"]
    return (results.goodput_mbps(*scenario.tagged_flow)
            + results.goodput_mbps(c2.node_id, ap2.node_id))


def main() -> None:
    quick = "--quick" in sys.argv
    duration = 0.6 if quick else 2.0

    print("1) Hidden terminal, 3 Mbps CBR, OFDM control frames (~47 us):")
    off = ht_link(ht_params(), 3_000_000, duration, rts=False)
    on = ht_link(ht_params(), 3_000_000, duration, rts=True)
    print(f"   DCF {off:.2f} Mbps  ->  RTS/CTS {on:.2f} Mbps "
          f"({(on / off - 1) * 100:+.0f}%)")

    print("\n2) Same link on long-preamble 802.11b (1 Mbps control frames):")
    off_b = ht_link(ht_testbed_params(), 3_000_000, duration, rts=False)
    on_b = ht_link(ht_testbed_params(), 3_000_000, duration, rts=True)
    print(f"   DCF {off_b:.2f} Mbps  ->  RTS/CTS {on_b:.2f} Mbps "
          f"({(on_b / off_b - 1) * 100:+.0f}%)  <- overhead eats the rescue")

    print("\n3) Exposed-terminal pair (aggregate of both links):")
    plain = et_pair(duration, "dcf")
    rts = et_pair(duration, "rts")
    comap = et_pair(duration, "comap")
    print(f"   DCF {plain:.2f}  RTS/CTS {rts:.2f} "
          f"({(rts / plain - 1) * 100:+.0f}%)  "
          f"CO-MAP {comap:.2f} ({(comap / plain - 1) * 100:+.0f}%)")
    print("\nRTS/CTS and CO-MAP pull in opposite directions on exposed "
          "terminals: reservations forbid exactly what positions prove safe.")


if __name__ == "__main__":
    main()
