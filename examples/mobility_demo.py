"""Mobility demo: a walking client, throttled position reports.

A client walks across the floor while uploading.  The network re-reports
its position only when it has moved beyond the 5 m threshold
(Section V's mobility management), and every CO-MAP agent's cached
interference state is invalidated on each report.

Run:  python examples/mobility_demo.py
"""

from repro import Network, testbed_params
from repro.core.protocol import POSITION_UPDATE_THRESHOLD_M
from repro.net.mobility import LinearMobility


def main() -> None:
    params = testbed_params()
    net = Network(params, mac_kind="comap", seed=1)
    ap1 = net.add_ap("AP1", 0, 0)
    ap2 = net.add_ap("AP2", 36, 0)
    c1 = net.add_client("C1", -8, 0, ap=ap1)
    walker = net.add_client("C2", 12, 0, ap=ap2)
    net.finalize()
    net.add_saturated(c1, ap1)
    net.add_saturated(walker, ap2)

    # C2 walks from the deferral zone (12 m) through the exposed-terminal
    # region and out the far side, at pedestrian speed.
    mover = LinearMobility(net, walker, waypoints=[(44.0, 0.0)], speed_mps=4.0,
                           tick_s=0.1)

    print("C2 walks 12 m -> 44 m while both clients upload (CO-MAP)\n")
    print(f"{'t(s)':>5} {'C2 x(m)':>8} {'C1 goodput':>11} {'C2 goodput':>11} "
          f"{'reports':>8}")
    window_s = 1.0
    last_bytes = {c1.node_id: 0, walker.node_id: 0}
    for step in range(1, 9):
        results = net.run(window_s)
        row = []
        for node, ap in ((c1, ap1), (walker, ap2)):
            flow = results.flows.get((node.node_id, ap.node_id))
            total = flow.delivered_bytes if flow else 0
            delta = total - last_bytes[node.node_id]
            last_bytes[node.node_id] = total
            row.append(delta * 8 / window_s / 1e6)
        print(f"{step * window_s:5.1f} {walker.position.x:8.1f} "
              f"{row[0]:11.2f} {row[1]:11.2f} {mover.reports_sent:8d}")
    print(f"\nDistance walked: {mover.distance_travelled_m:.1f} m, "
          f"position reports sent: {mover.reports_sent} "
          f"(threshold {POSITION_UPDATE_THRESHOLD_M} m)")


if __name__ == "__main__":
    main()
