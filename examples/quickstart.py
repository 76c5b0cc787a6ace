"""Quickstart: build a tiny WLAN, run DCF vs CO-MAP, inspect the pipeline.

Creates the paper's Fig. 1 exposed-terminal situation (two BSSes whose
clients carrier-sense each other), runs it under basic DCF and under
CO-MAP, prints per-link goodput and then dumps one node's neighbor
table and co-occurrence map — the two stores of the Fig. 5 pipeline
(its PRR step, eq. 3, is computed on demand between them).

Run:  python examples/quickstart.py
"""

from repro import Network, testbed_params


def build(mac_kind: str) -> tuple:
    net = Network(testbed_params(), mac_kind=mac_kind, seed=7)
    ap1 = net.add_ap("AP1", 0, 0)
    ap2 = net.add_ap("AP2", 36, 0)
    c1 = net.add_client("C1", -8, 0, ap=ap1)
    c2 = net.add_client("C2", 30, 0, ap=ap2)  # exposed-terminal position
    net.finalize()
    net.add_saturated(c1, ap1)
    net.add_saturated(c2, ap2)
    return net, (c1, ap1), (c2, ap2)


def main() -> None:
    print("CO-MAP quickstart: two exposed uplinks, 1 second of airtime\n")
    goodputs = {}
    for mac_kind in ("dcf", "comap"):
        net, (c1, ap1), (c2, ap2) = build(mac_kind)
        results = net.run(1.0)
        goodputs[mac_kind] = (
            results.goodput_mbps(c1.node_id, ap1.node_id),
            results.goodput_mbps(c2.node_id, ap2.node_id),
        )
        if mac_kind == "comap":
            agent = c1.agent
    for mac_kind, (g1, g2) in goodputs.items():
        print(f"{mac_kind:>6s}:  C1->AP1 {g1:5.2f} Mbps   C2->AP2 {g2:5.2f} Mbps"
              f"   total {g1 + g2:5.2f} Mbps")
    dcf_total = sum(goodputs["dcf"])
    comap_total = sum(goodputs["comap"])
    print(f"\nCO-MAP aggregate gain: {(comap_total / dcf_total - 1) * 100:+.1f}%")

    print("\n--- C1's location-derived state (the Fig. 5 pipeline) ---\n")
    print(agent.describe())


if __name__ == "__main__":
    main()
