"""Table I — parameter settings for the NS-2 simulations.

Reprints the table from the configuration objects (so the code is the
source of truth) and sanity-runs a small simulation under exactly those
settings.
"""

import math

from repro.core.concurrency import T_PRR
from repro.experiments.params import NS2_TABLE_I, ns2_params
from repro.net.network import Network
from repro.phy.channel import NOISE_FLOOR_DBM
from repro.util.units import dbm_to_mw, mw_to_dbm

from benchmarks._harness import banner, paper_vs_measured, run_once, table


def regenerate():
    params = ns2_params()
    net = Network(params, mac_kind="comap", seed=0)
    ap = net.add_ap("AP", 0, 0)
    client = net.add_client("C", 15, 0, ap=ap)
    net.finalize()
    net.add_cbr(client, ap, 3_000_000)
    results = net.run(0.5)
    return params, results.goodput_mbps(client.node_id, ap.node_id)


def test_table1_params(benchmark):
    params, goodput = run_once(benchmark, regenerate)
    banner("Table I — parameter settings for the NS-2 simulations")
    table(["parameter", "value"], NS2_TABLE_I)

    # Cross-check the printed table against the live configuration.
    assert params.data_rate_bps == 6_000_000
    assert params.tx_power_dbm == 20.0
    assert T_PRR == 0.95
    assert params.cs_threshold_dbm == -80.0
    assert params.alpha == 3.3
    assert params.sigma_db == 5.0
    assert params.comap.t_sir_db == 10.0
    # T'_cs is T_cs minus the noise floor in the linear domain: -80.14 dBm.
    t_cs_prime = mw_to_dbm(dbm_to_mw(-80.0) - dbm_to_mw(NOISE_FLOOR_DBM))
    assert math.isclose(t_cs_prime, -80.14, abs_tol=0.01)

    paper_vs_measured(
        "Table I defines the NS-2 configuration",
        f"3 Mbps CBR under Table I settings delivers {goodput:.2f} Mbps "
        "on a clean 15 m link",
    )
    assert goodput > 2.5
