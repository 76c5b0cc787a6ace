"""Substrate validation — Bianchi's full BEB model vs the DCF simulator.

Not a paper figure: the paper's eq. (5) uses the constant-window
simplification (validated in Fig. 7), but the DCF *baseline* in every
comparison runs real binary exponential backoff.  This bench checks that
the simulator's saturated BEB goodput matches Bianchi's fixed-point
model, i.e. that the baseline the paper's gains are measured against is
itself faithful.

Saturated DCF is a per-station model (Bianchi's, and the Markov model of
arXiv 1411.1126): the model predicts one station's goodput, and the
c + 1 stations of a cell are symmetric.  The measured value is therefore
the mean over all c + 1 stations of a cell and over ``SEEDS``, with a
Student-t interval across the seeds.  One station's share swings by
±20 % between seeds at c = 9 (some stations capture more often than
others) while the cell mean moves by a few percent.
"""

from repro.analytical.bianchi import BebFixedPoint, BianchiSlotModel
from repro.experiments.params import ns2_params
from repro.mac.timing import OFDM_TIMING
from repro.net.network import Network
from repro.phy.rates import OFDM_RATES
from repro.util.stats import confidence_interval

from benchmarks._harness import (
    banner, full_scale, paper_vs_measured, run_once, sweep, table,
)

CONTENDERS = (0, 1, 2, 4, 6, 9)
SEEDS = (1, 2, 3, 4, 5)


def station_mean_goodput_mbps(contenders: int, seed: int, duration_s: float) -> float:
    """Mean saturated goodput of the c + 1 stations of one cell, in Mb/s."""
    net = Network(ns2_params(), seed=seed)
    ap = net.add_ap("AP", 0, 0)
    clients = [
        net.add_client(f"C{i}", 10 + 0.3 * i, i % 3, ap=ap)
        for i in range(contenders + 1)
    ]
    net.finalize()
    for client in clients:
        net.add_saturated(client, ap, payload_bytes=1000)
    results = net.run(duration_s)
    return sum(
        results.goodput_mbps(client.node_id, ap.node_id) for client in clients
    ) / len(clients)


def regenerate():
    duration = 3.0 if full_scale() else 1.5
    model = BebFixedPoint(
        BianchiSlotModel(OFDM_TIMING, OFDM_RATES.by_bps(6_000_000), OFDM_RATES.base)
    )
    grid = [
        dict(contenders=contenders, seed=seed, duration_s=duration)
        for contenders in CONTENDERS
        for seed in SEEDS
    ]
    measured = iter(sweep(station_mean_goodput_mbps, grid, label="bianchi_beb"))
    rows = []
    for contenders in CONTENDERS:
        predicted = model.goodput_bps(contenders, 1000) / 1e6
        per_seed = [next(measured) for _ in SEEDS]
        error = confidence_interval([(m / predicted - 1) * 100 for m in per_seed])
        tau, p = model.solve(contenders)
        rows.append((contenders, predicted, sum(per_seed) / len(per_seed),
                     round(error.mean, 1), round(error.half_width, 1), round(p, 3)))
    return rows


def test_bianchi_beb_validation(benchmark):
    rows = run_once(benchmark, regenerate)
    banner("Substrate — Bianchi BEB fixed point vs saturated DCF simulation")
    print(f"  sim: mean over the c + 1 stations and seeds {SEEDS[0]}-{SEEDS[-1]}; "
          f"err: 95 % Student-t interval over the seeds")
    table(["contenders", "model (Mbps)", "sim (Mbps)", "err %", "± %", "p (model)"],
          rows)
    errors = {c: err for c, _, _, err, _, _ in rows}
    paper_vs_measured(
        "(substrate check; Bianchi 2000 assumes no capture)",
        "errors: " + ", ".join(
            f"c={c}: {err:+.1f} ± {half:.1f}%" for c, _, _, err, half, _ in rows
        ),
    )
    # Tight agreement at low-to-moderate contention.
    for c in (0, 1, 2, 4):
        assert abs(errors[c]) < 10.0
    # At high contention the simulator sits above the model (+5-7 % at
    # c = 6-9, not yet attributed); it must not fall far below it.
    assert errors[9] > -10.0
