"""Simulated-time nearest-peer service.

The paper's title quantity is the *difficulty* of finding the nearest peer
— in a deployed system, the wall-clock time an answer takes, not just the
probe count the offline benchmarks bill.  This package runs any
:class:`~repro.algorithms.base.NearestPeerAlgorithm` as a **daemon** on
the :mod:`repro.netsim` event loop:

* queries arrive as a Poisson process and are answered through the
  stepwise sans-io :meth:`~repro.algorithms.base.NearestPeerAlgorithm.query_plan`
  protocol, so every probe fan-out completes only after its simulated RTT
  and a query's latency is its true critical path;
* entry nodes serve a bounded number of queries concurrently, with FIFO
  queueing behind the cap — queueing delay shows up in time-to-answer
  exactly as it would in production;
* membership events, deferred-maintenance flushes and Meridian's
  continuous gossip ring repair
  (:class:`~repro.meridian.gossip.PeriodicRepair`) fire on the same loop,
  interleaved between query rounds.

The daemon core is vectorised: hot per-node state lives in
struct-of-arrays form (:mod:`repro.service.soa`) and probe rounds step as
whole numpy batches (:mod:`repro.service.stepper`), which is what carries
the simulator to million-peer populations in one process.

The harness front-end is the ``daemon`` protocol
(:meth:`repro.harness.engine.QueryEngine.run_daemon_trial`), which scores
the run and wraps it in a
:class:`~repro.harness.results.DaemonTrialRecord` carrying time-to-answer
percentiles next to the classic probe bill.
"""

from repro.service.daemon import DaemonRun, QueryDaemon
from repro.service.soa import MemberStateArrays
from repro.service.stepper import PlanBatchStepper

__all__ = [
    "DaemonRun",
    "MemberStateArrays",
    "PlanBatchStepper",
    "QueryDaemon",
]
