"""Scenario parameter bundles.

Two canonical configurations mirror the paper's two substrates:

* :func:`testbed_params` — the 6-laptop office testbed (Section VI-A):
  802.11b DSSS rates with Minstrel rate adaptation, 0 dBm transmit power,
  measured path loss ``alpha = 2.9`` and shadowing ``sigma = 4 dB``,
  ``T_sir = 4`` (the lowest-rate threshold).
* :func:`ns2_params` — the NS-2 simulations (Table I): 6 Mbps fixed,
  20 dBm, ``alpha = 3.3``, ``sigma = 5 dB``, ``T_cs = -80 dBm``,
  ``T_PRR = 95 %``, ``T_sir = 10``.

The testbed's CCA threshold is not stated in the paper; -87 dBm matches
the observed geometry (C2 stops being carrier-sensed by C1 once it is
roughly 34 m past AP1 in Fig. 1, i.e. a ~42 m carrier-sense range at the
measured path loss).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple, Union

from repro.core.config import CoMapConfig
from repro.mac.timing import DSSS_TIMING, OFDM_TIMING, PhyTiming
from repro.phy.rates import DSSS_RATES, OFDM_RATES, RateTable


@dataclass(frozen=True)
class ScenarioParams:
    """Everything needed to instantiate a :class:`repro.net.network.Network`.

    Frozen, like the configs it holds: a variant is a copy
    (:meth:`with_overrides`).  The DCF settings are not here:
    :class:`repro.mac.dcf.MacConfig` owns them, and a network sets them
    through ``Network(mac_overrides=...)``.
    """

    # Propagation (eq. 1).
    alpha: float
    sigma_db: float
    tx_power_dbm: float
    cs_threshold_dbm: float
    shadowing_mode: str = "per_frame"
    #: Below-floor interference culling margin in dB.  ``None`` takes the
    #: default (6σ of the shadowing model); ``"off"`` or a negative value
    #: disables culling.  See :mod:`repro.phy.channel`.
    cull_margin_db: Union[float, str, None] = None
    # PHY.
    rates: RateTable = field(default_factory=lambda: OFDM_RATES)
    timing: PhyTiming = OFDM_TIMING
    #: Fixed data rate in bps; ``None`` enables Minstrel rate adaptation.
    data_rate_bps: Optional[int] = 6_000_000
    # Traffic.
    default_payload_bytes: int = 1000
    # CO-MAP control plane.
    comap: CoMapConfig = field(default_factory=CoMapConfig)
    #: One-way wired-backhaul latency between APs (C-SR coordination
    #: plane, :mod:`repro.net.backhaul`).  ``None`` disables the
    #: backhaul: a ``mac_kind="csr"`` network then runs bit-identically
    #: to plain CO-MAP.
    csr_backhaul_latency_ns: Optional[int] = None

    def with_overrides(self, **kwargs) -> "ScenarioParams":
        """A copy with selected fields replaced (scenario tweaking)."""
        return replace(self, **kwargs)


def testbed_params() -> ScenarioParams:
    """The Section VI-A hardware-testbed configuration.

    The laptops are 802.11b/g (Intel 4965AGN) with Minstrel enabled; the
    Fig. 9 goodput ceiling of 11 Mbps implies OFDM (802.11g) rates were
    in play, so the testbed profile uses the OFDM table with Minstrel.
    ``T_sir`` follows the paper's rule of using the lowest rate's
    threshold (6 dB for 6 Mbps OFDM; the paper's 4 dB is 1 Mbps DSSS).
    """
    return ScenarioParams(
        alpha=2.9,
        sigma_db=4.0,
        tx_power_dbm=0.0,
        cs_threshold_dbm=-87.0,
        rates=OFDM_RATES,
        timing=OFDM_TIMING,
        data_rate_bps=None,  # Minstrel, as on the laptops
        default_payload_bytes=1470,
        comap=CoMapConfig(t_sir_db=6.0),
    )


def testbed_dsss_params() -> ScenarioParams:
    """An 802.11b-only variant of the testbed profile (1-11 Mbps DSSS).

    Kept for studies of the long-preamble regime; ``T_sir = 4`` is the
    paper's 1 Mbps threshold.
    """
    return ScenarioParams(
        alpha=2.9,
        sigma_db=4.0,
        tx_power_dbm=0.0,
        cs_threshold_dbm=-87.0,
        rates=DSSS_RATES,
        timing=DSSS_TIMING,
        data_rate_bps=None,
        default_payload_bytes=1470,
        comap=CoMapConfig(t_sir_db=4.0),
    )


def ns2_params() -> ScenarioParams:
    """The Table I NS-2 configuration."""
    return ScenarioParams(
        alpha=3.3,
        sigma_db=5.0,
        tx_power_dbm=20.0,
        cs_threshold_dbm=-80.0,
        rates=OFDM_RATES,
        timing=OFDM_TIMING,
        data_rate_bps=6_000_000,
        default_payload_bytes=1000,
        # The paper implemented its first (embedded, 4-byte) header method
        # in NS-2; at a fixed 6 Mbps every overhearer can decode it.
        comap=CoMapConfig(t_sir_db=10.0, announce_mode="embedded"),
    )


def ht_params() -> ScenarioParams:
    """Parameters for the hidden-terminal scenarios (Figs. 2, 7, 9).

    Identical to :func:`ns2_params` except for a raised carrier-sense
    threshold (-62 dBm, i.e. a ~19 m sense range at ``alpha = 3.3``).

    Why: the paper's hidden terminals arise from walls — its testbed has
    C2 interfering with AP1 from 22 m while being unable to sense C1 a
    mere 37 m away.  An isotropic simulator cannot produce that with a
    42 m+ sense range, so we shrink the sense range relative to the
    interference range instead (the standard way to induce HTs in NS-2
    studies).  CO-MAP's eq. (4) detector uses the same ``T_cs``, so
    detection and physics stay mutually consistent.
    """
    base = ns2_params()
    return base.with_overrides(
        cs_threshold_dbm=-62.0,
        comap=CoMapConfig(t_sir_db=10.0, announce_mode="embedded"),
    )


def ht_testbed_params() -> ScenarioParams:
    """Parameters for the hidden-terminal *testbed* scenarios (Figs. 2, 9).

    The paper's HT experiments live in a specific physical regime:

    * an overlap between the hidden terminal's frame and the tagged frame
      is (nearly) lethal — the interferer sits close to the receiver, so
      the SIR deficit exceeds every rate's margin;
    * the hidden terminal's duty cycle leaves real gaps (slow DSSS PHY,
      long preambles, 1 Mbps ACKs), so frames short enough to *fit the
      gaps* survive — which is exactly why packet size matters and an
      intermediate size is optimal.

    As with :func:`ht_params`, hiddenness itself comes from a raised
    carrier-sense threshold standing in for the testbed's walls.
    """
    return ScenarioParams(
        alpha=2.9,
        sigma_db=4.0,
        tx_power_dbm=0.0,
        cs_threshold_dbm=-75.0,
        rates=DSSS_RATES,
        timing=DSSS_TIMING,
        data_rate_bps=11_000_000,
        default_payload_bytes=1470,
        comap=CoMapConfig(t_sir_db=10.0, attacker_payload=1470),
    )


#: Table I verbatim, for the bench that reprints it.
NS2_TABLE_I: Tuple[Tuple[str, str], ...] = (
    ("Data rate", "6 Mbps"),
    ("TX power", "20 dBm"),
    ("T_PRR", "95 %"),
    ("T_cs", "-80 dBm"),
    ("Path loss exponent alpha", "3.3"),
    ("T'_cs", "-80.14 dBm"),
    ("Standard deviation sigma", "5 dB"),
    ("T_sir", "10"),
)
