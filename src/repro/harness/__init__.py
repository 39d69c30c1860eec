"""The unified workload / query-engine layer.

Every experiment, benchmark and example in the repository evaluates
nearest-peer schemes *under a fixed workload*: build a world, pick members
and targets, run a batch of queries, score exact-hit / cluster-hit /
probe-cost.  This package is that loop, written once:

* :class:`Scenario` — a declarative workload spec (topology + noise model +
  member/target sampling policy + protocol + trial count + seed) with a
  process-wide registry, so new workloads are one dataclass away.  Three
  protocols: ``sampled``, ``per-target`` and the simulated-time
  ``daemon``, which is also the one membership engine — churn workloads
  are zero-delay daemons (:func:`churn_spec`) and long-running service
  mode is a daemon scenario with :class:`ServicePhase` phases;
* :class:`QueryEngine` — executes scenarios: builds worlds, fans trials out
  across seeds (optionally over a :mod:`concurrent.futures` process pool),
  runs query batches and scores them against an exact ground-truth index;
* :class:`TrialRecord` / :class:`DaemonTrialRecord` /
  :class:`AggregateStats` — typed per-trial and cross-trial results,
  consumed by :mod:`repro.analysis.compare`;
* :mod:`repro.harness.workloads` — the cached expensive artefacts (DNS and
  Azureus measurement studies) shared by the measurement-driven figures.

Experiment drivers, benchmarks and examples never hand-roll member/target
sampling or per-target scoring loops; they describe the workload and hand
it to the engine.
"""

from repro.harness.engine import QueryEngine
from repro.harness.results import (
    AggregateStats,
    DaemonTrialRecord,
    MembershipLog,
    ScenarioResult,
    TrialRecord,
)
from repro.harness.scenario import (
    DaemonSpec,
    FaultSpec,
    NoiseSpec,
    SamplingSpec,
    Scenario,
    ServicePhase,
    TraceSpec,
    churn_spec,
    get_scenario,
    list_scenarios,
    register_scenario,
)
from repro.harness.scoring import score_epochs, score_single

__all__ = [
    "AggregateStats",
    "DaemonSpec",
    "FaultSpec",
    "DaemonTrialRecord",
    "MembershipLog",
    "NoiseSpec",
    "QueryEngine",
    "SamplingSpec",
    "Scenario",
    "ScenarioResult",
    "ServicePhase",
    "TraceSpec",
    "TrialRecord",
    "churn_spec",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    "score_epochs",
    "score_single",
]
