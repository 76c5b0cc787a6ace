"""CO-MAP: location-aided multiple access for mobile WLANs.

A from-scratch reproduction of *"Harnessing Mobile Multiple Access
Efficiency with Location Input"* (Wan Du and Mo Li, IEEE ICDCS 2013),
including the discrete-event 802.11 WLAN simulator it is evaluated on.

Quick start::

    from repro import Network, testbed_params

    net = Network(testbed_params(), mac_kind="comap", seed=1)
    ap = net.add_ap("AP", 0, 0)
    client = net.add_client("C", -8, 0, ap=ap)
    net.finalize()
    net.add_saturated(client, ap)
    results = net.run(duration_s=1.0)
    print(results.goodput_mbps(client.node_id, ap.node_id))

Package layout (see DESIGN.md for the full inventory):

* ``repro.sim`` -- deterministic discrete-event engine;
* ``repro.phy`` -- log-normal shadowing propagation, PRR model, radios;
* ``repro.mac`` -- 802.11 DCF and the CO-MAP MAC;
* ``repro.core`` -- CO-MAP control plane (neighbor table -> eq. 3 PRR
  test -> co-occurrence map, HT estimation, adaptation, selective-repeat
  ARQ);
* ``repro.analytical`` -- Bianchi model + hidden-terminal extension;
* ``repro.net`` -- nodes, networks, traffic, localization error, mobility;
* ``repro.experiments`` -- per-figure topology builders and runners.
"""

from repro.analytical import BianchiSlotModel, HtGoodputModel, SettingOptimizer
from repro.core import CoMapAgent, CoMapConfig
from repro.experiments.params import (
    ScenarioParams,
    ht_params,
    ns2_params,
    testbed_params,
)
from repro.mac import CoMapMac, DcfMac, MacConfig, CoMapMacConfig
from repro.net import (
    GaussianError,
    Network,
    NoError,
    UniformDiskError,
)
from repro.phy import LogNormalShadowing, PrrModel
from repro.sim import Simulator
from repro.util import EmpiricalCdf, Point, RngStreams

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Simulator",
    "LogNormalShadowing",
    "PrrModel",
    "DcfMac",
    "MacConfig",
    "CoMapMac",
    "CoMapMacConfig",
    "CoMapAgent",
    "CoMapConfig",
    "BianchiSlotModel",
    "HtGoodputModel",
    "SettingOptimizer",
    "Network",
    "NoError",
    "UniformDiskError",
    "GaussianError",
    "ScenarioParams",
    "testbed_params",
    "ns2_params",
    "ht_params",
    "EmpiricalCdf",
    "Point",
    "RngStreams",
]
