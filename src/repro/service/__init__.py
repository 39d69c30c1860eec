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
  (:func:`~repro.meridian.gossip.repair_overlay_rings`) fire on the same
  loop, interleaved between query rounds.

The daemon core is vectorised: admission is one ``int32`` counter per
node id and each probe round steps as one numpy delay array on one loop
event, which is what carries the simulator to million-peer populations
in one process.

:meth:`~repro.service.daemon.QueryDaemon.run` returns the finished
daemon, whose jobs, membership log, counters and load integrals are the
run's raw record.  The harness front-end is the ``daemon`` protocol
(:meth:`repro.harness.engine.QueryEngine.run_daemon_trial`), which scores
that record and reads it into a
:class:`~repro.harness.results.DaemonTrialRecord` carrying time-to-answer
percentiles next to the classic probe bill.
"""

from repro.service.daemon import QueryDaemon

__all__ = ["QueryDaemon"]
