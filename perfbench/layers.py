"""Host-time attribution from outside the program.

Every timer here wraps a call into one ``src/repro/`` layer's public
functions; nothing under ``src/`` is edited.  A :class:`Meter` keeps a
stack of open calls, so each wrapped call's *self* time is its duration
minus the wrapped calls nested inside it, and the buckets tile the
measured interval: whatever no wrapper covers is reported as
``bench.unattributed_s``.

Two instrumentation levels share one code path:

* *coarse* (always on): ``QueryDaemon.run``, ``score_epochs`` and each
  scheme's ``build``.  A handful of calls per scheme, which is what splits
  ``run_s`` into set-up, serving and scoring for the end-to-end metrics.
* *traced* (the per-layer pass only): additionally the latency oracle
  (a pass-through proxy), every plan step, ``join``/``leave``/
  ``flush_maintenance``, Meridian ring repair and the public coordinate
  solvers.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import replace

import numpy as np

import repro.harness.engine as engine_module
from repro.coords.gnp import GnpEmbedding
from repro.coords.vivaldi import VivaldiSystem
from repro.latency.builder import ClusteredWorld
from repro.service.daemon import QueryDaemon

#: Self-time buckets, in report order.  Their sum is the measured interval.
BUCKETS = (
    "topology.world",
    "topology.oracle",
    "algorithms.build",
    "algorithms.plan",
    "algorithms.maint",
    "coords",
    "meridian",
    "service",
    "harness.score",
    "harness.self",
    "bench.unattributed",
)

_clock = time.perf_counter


class Meter:
    """Self-time buckets and call counters fed by nested wrappers."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(BUCKETS, 0.0)
        self.total_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        # Open frames: [bucket, start, time covered by nested wrappers].
        self._stack: list[list] = []
        #: Completed ``QueryDaemon.run`` results, in call order.
        self.daemon_runs: list = []
        #: The ``QueryDaemon`` whose ``run`` is in progress, if any.
        self.serving = None

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def open(self, bucket: str) -> list:
        """Start a timed call charged to ``bucket``; returns its frame."""
        frame = [bucket, _clock(), 0.0]
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        """End the innermost call; ``frame[0]`` may be re-bucketed first."""
        elapsed = _clock() - frame[1]
        self._stack.pop()
        bucket = frame[0]
        self.self_s[bucket] += elapsed - frame[2]
        self.total_s[bucket] = self.total_s.get(bucket, 0.0) + elapsed
        self.calls[bucket] = self.calls.get(bucket, 0) + 1
        if self._stack:
            self._stack[-1][2] += elapsed

    def call(self, bucket: str, fn, *args, **kwargs):
        """Run ``fn`` as one timed call charged to ``bucket``."""
        frame = self.open(bucket)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(frame)


# -- coarse wrappers (both passes) -------------------------------------------


@contextlib.contextmanager
def coarse(meter: Meter):
    """Time daemon serving and scoring; restore the originals on exit."""
    original_run = QueryDaemon.run
    original_score = engine_module.score_epochs

    def run(self, *args, **kwargs):
        meter.serving = self
        try:
            result = meter.call("service", original_run, self, *args, **kwargs)
        finally:
            meter.serving = None
        meter.daemon_runs.append(result)
        return result

    def score_epochs(*args, **kwargs):
        return meter.call("harness.score", original_score, *args, **kwargs)

    QueryDaemon.run = run
    engine_module.score_epochs = score_epochs
    try:
        yield meter
    finally:
        QueryDaemon.run = original_run
        engine_module.score_epochs = original_score


def time_build(meter: Meter, algorithm):
    """Charge ``algorithm.build`` to ``algorithms.build`` (instance wrapper)."""
    original = algorithm.build

    def build(*args, **kwargs):
        return meter.call("algorithms.build", original, *args, **kwargs)

    algorithm.build = build
    return algorithm


# -- traced wrappers (per-layer pass only) ------------------------------------


class OracleProxy:
    """Pass-through latency oracle that charges calls to ``topology.oracle``."""

    def __init__(self, inner, meter: Meter) -> None:
        self._inner = inner
        self._meter = meter

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def latency_ms(self, a, b):
        self._meter.count("oracle_pairs")
        return self._meter.call("topology.oracle", self._inner.latency_ms, a, b)

    def latencies_from(self, a, members=None):
        n = self._inner.n_nodes if members is None else np.size(members)
        self._meter.count("oracle_pairs", int(n))
        return self._meter.call(
            "topology.oracle", self._inner.latencies_from, a, members
        )

    def latency_block(self, rows, cols):
        self._meter.count("oracle_pairs", int(np.size(rows) * np.size(cols)))
        return self._meter.call(
            "topology.oracle", self._inner.latency_block, rows, cols
        )


def proxied_world(world: ClusteredWorld, meter: Meter) -> ClusteredWorld:
    """The same world, its oracle behind an :class:`OracleProxy`.

    Scoring reads ``world.matrix`` / ``world.topology`` directly, so the
    ground-truth lookups stay in ``harness.score``.
    """
    return replace(world, oracle=OracleProxy(world.oracle, meter))


def _timed_plan(meter: Meter, algorithm, plan):
    """Re-yield ``plan``, timing each step as one call.

    A step during which the algorithm's ``maintenance_probes_total`` moved
    ran a lazy flush or a partial refresh, so it is charged to
    maintenance instead of plan.
    """
    sent = None
    while True:
        before = algorithm.maintenance_probes_total
        frame = meter.open("algorithms.plan")
        try:
            batch = plan.send(sent)
        except StopIteration as stop:
            return stop.value
        finally:
            if algorithm.maintenance_probes_total != before:
                frame[0] = "algorithms.maint"
            meter.close(frame)
        sent = yield batch


def trace_algorithm(meter: Meter, algorithm):
    """Instance wrappers for plan steps, membership and ring repair."""
    query_plan = algorithm.query_plan

    def timed_query_plan(target, seed=None):
        return _timed_plan(meter, algorithm, query_plan(target, seed=seed))

    algorithm.query_plan = timed_query_plan
    for name in ("join", "leave", "flush_maintenance"):
        original = getattr(algorithm, name)

        def maint(*args, _original=original, **kwargs):
            return meter.call("algorithms.maint", _original, *args, **kwargs)

        setattr(algorithm, name, maint)
    repair = getattr(algorithm, "repair_rings", None)
    if repair is not None:

        def repair_rings(*args, **kwargs):
            return meter.call("meridian", repair, *args, **kwargs)

        algorithm.repair_rings = repair_rings
    return algorithm


_COORD_METHODS = (
    (GnpEmbedding, "build"),
    (GnpEmbedding, "place_external"),
    (VivaldiSystem, "run"),
    (VivaldiSystem, "observe"),
    (VivaldiSystem, "place_external"),
)


@contextlib.contextmanager
def traced_coords(meter: Meter):
    """Class-level wrappers on the public coordinate solvers."""
    saved = [(cls, name, cls.__dict__[name]) for cls, name in _COORD_METHODS]
    for cls, name, attr in saved:
        if isinstance(attr, classmethod):
            bound = getattr(cls, name)

            def wrapper(*args, _original=bound, **kwargs):
                return meter.call("coords", _original, *args, **kwargs)

            setattr(cls, name, staticmethod(wrapper))
        else:

            def wrapper(self, *args, _original=attr, **kwargs):
                return meter.call("coords", _original, self, *args, **kwargs)

            setattr(cls, name, wrapper)
    try:
        yield meter
    finally:
        for cls, name, attr in saved:
            setattr(cls, name, attr)
