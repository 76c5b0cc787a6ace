"""Baseline — RTS/CTS virtual carrier sense (the mechanism CO-MAP avoids).

Paper (Sections IV-C1 and VI): RTS/CTS "is not enabled in many cases due
to its overhead and inefficiency of detecting all HTs.  Moreover, it
aggravates the ET problem."  This bench demonstrates both directions on
the paper's own scenarios:

* hidden-terminal link: the CTS warns the hidden interferer, so RTS/CTS
  *helps* (at the price of per-frame control overhead);
* exposed-terminal pair: NAV reservations silence the exposed terminal,
  so RTS/CTS *hurts* aggregate goodput where CO-MAP gains instead.
"""

from repro.experiments.topologies import exposed_terminal_topology, hidden_terminal_topology

from benchmarks._harness import banner, full_scale, paper_vs_measured, run_once, sweep, table

SEEDS = (1, 2, 3)


def _ht_scenario_cbr(seed: int, rts: bool):
    """A hidden-terminal link under moderate (non-saturated) load.

    Two conditions matter for the classic virtual-carrier-sense rescue:

    * the hidden interferer must *listen* between its frames (a saturated
      HT is deaf ~85 % of the time and never hears the CTS), so the
      workload is moderate CBR (3 Mbps: enough pressure that plain DCF
      drops packets, enough idle time that the CTS is heard);
    * control frames must be cheap relative to data (OFDM: ~47 us RTS at
      6 Mbps).  On long-preamble 802.11b, RTS/CTS at 1 Mbps costs ~50 %
      of the data airtime and loses outright — one of the paper's
      "overhead" reasons for disabling it.
    """
    from repro.experiments.params import ht_params
    from repro.net.network import Network

    params = ht_params()
    net = Network(params, mac_kind="dcf", seed=seed,
                  mac_overrides={"use_rts_cts": rts})
    ap1 = net.add_ap("AP1", 0.0, 0.0)
    c1 = net.add_client("C1", -17.0, 0.0, ap=ap1)
    ap2 = net.add_ap("AP2", 31.0, 0.0)
    c2 = net.add_client("C2", 24.0, 0.0, ap=ap2)
    net.finalize()
    net.add_cbr(c1, ap1, 3_000_000, payload_bytes=1470)
    net.add_cbr(c2, ap2, 3_000_000, payload_bytes=1470)
    return net, (c1.node_id, ap1.node_id)


def _ht_goodput(rts: bool, seed: int, duration: float) -> float:
    net, tagged = _ht_scenario_cbr(seed, rts)
    results = net.run(duration)
    return results.goodput_mbps(*tagged)


def _et_goodput(rts: bool, seed: int, duration: float) -> float:
    scenario = exposed_terminal_topology(
        "dcf", c2_x=30.0, seed=seed, mac_overrides={"use_rts_cts": rts}
    )
    results = scenario.network.run(duration)
    c2, ap2 = scenario.extra["c2"], scenario.extra["ap2"]
    return (results.goodput_mbps(*scenario.tagged_flow)
            + results.goodput_mbps(c2.node_id, ap2.node_id))


def regenerate():
    duration = 3.0 if full_scale() else 1.5
    cells = [(kind, rts) for kind in ("ht", "et") for rts in (False, True)]
    grid = [
        dict(fn_kind=kind, rts=rts, seed=seed, duration=duration)
        for kind, rts in cells
        for seed in SEEDS
    ]
    results = iter(sweep(_rts_cell_goodput, grid, label="rts_cts_baseline"))
    return {
        cell: sum(next(results) for _ in SEEDS) / len(SEEDS) for cell in cells
    }


def _rts_cell_goodput(fn_kind: str, rts: bool, seed: int, duration: float) -> float:
    body = _ht_goodput if fn_kind == "ht" else _et_goodput
    return body(rts, seed, duration)


def test_rts_cts_baseline(benchmark):
    out = run_once(benchmark, regenerate)
    banner("Baseline — RTS/CTS on the HT and ET scenarios (basic DCF)")
    table(
        ["scenario", "plain DCF (Mbps)", "with RTS/CTS (Mbps)", "delta %"],
        [
            ("hidden terminal", out[("ht", False)], out[("ht", True)],
             round((out[("ht", True)] / out[("ht", False)] - 1) * 100, 1)),
            ("exposed terminals", out[("et", False)], out[("et", True)],
             round((out[("et", True)] / out[("et", False)] - 1) * 100, 1)),
        ],
    )
    paper_vs_measured(
        "RTS/CTS mitigates HT collisions but aggravates the ET problem",
        f"HT link {(out[('ht', True)] / out[('ht', False)] - 1) * 100:+.0f}%, "
        f"ET aggregate {(out[('et', True)] / out[('et', False)] - 1) * 100:+.0f}%",
    )
    # The paper's two claims, as inequalities.
    assert out[("ht", True)] > out[("ht", False)]
    assert out[("et", True)] < out[("et", False)]
