"""Experiment harness: scenario parameters, topologies, runners, metrics.

Each figure/table of the paper's evaluation maps to a builder in
:mod:`repro.experiments.topologies` plus a runner in
:mod:`repro.experiments.runner`; DESIGN.md carries the full index.
"""

from repro.experiments.params import (
    ScenarioParams,
    testbed_params,
    ns2_params,
    ht_params,
    NS2_TABLE_I,
)
from repro.experiments.topologies import (
    exposed_terminal_topology,
    hidden_terminal_topology,
    multi_et_topology,
    rival_et_topology,
    model_validation_topology,
    ht_adaptation_topology,
    office_floor_topology,
)
from repro.experiments.runner import (
    run_exposed_sweep,
    run_payload_sweep,
    run_model_validation,
    run_ht_cdf,
    run_office_floor,
    run_multi_et,
    run_rival_et,
)
from repro.experiments.parallel import (
    ResultCache,
    SweepTask,
    derive_seed,
    resolve_jobs,
    run_tasks,
)
from repro.experiments.metrics import flow_goodputs_mbps
from repro.experiments.inspect import InterferenceSurvey, survey_network

__all__ = [
    "ScenarioParams",
    "testbed_params",
    "ns2_params",
    "ht_params",
    "NS2_TABLE_I",
    "exposed_terminal_topology",
    "hidden_terminal_topology",
    "multi_et_topology",
    "rival_et_topology",
    "model_validation_topology",
    "ht_adaptation_topology",
    "office_floor_topology",
    "run_exposed_sweep",
    "run_payload_sweep",
    "run_model_validation",
    "run_ht_cdf",
    "run_office_floor",
    "run_multi_et",
    "run_rival_et",
    "ResultCache",
    "SweepTask",
    "derive_seed",
    "resolve_jobs",
    "run_tasks",
    "flow_goodputs_mbps",
    "InterferenceSurvey",
    "survey_network",
]
