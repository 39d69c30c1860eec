"""Declarative workload specs and the scenario registry.

A :class:`Scenario` is everything needed to replay a workload from one
integer seed: the clustered-topology parameters, the probe-noise model, the
member/target sampling policy, the query protocol and the trial count.
Scenarios are frozen dataclasses — picklable, so the engine can ship them to
worker processes — and live in a process-wide registry keyed by name, so a
new workload (skewed targets, denser clusters, noisier probes) is one
dataclass away.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from repro.latency.builder import ClusteredWorld
from repro.topology.clustered import ClusteredConfig
from repro.topology.oracle import LatencyOracle, NoisyOracle
from repro.util.errors import ConfigurationError
from repro.util.rng import spawn_seeds
from repro.util.validate import require_in_range, require_positive

#: Query protocols.  ``sampled`` is the Meridian Section 4 protocol: draw
#: ``n_queries`` targets with replacement from the target pool, threading
#: one rng through build and queries.  ``per-target`` is the head-to-head
#: comparison protocol: query each target exactly once, in sampling order,
#: seeding each query with the target id (common random numbers across
#: schemes).  ``daemon`` is simulated-time service: Poisson query
#: arrivals, per-node concurrency caps with FIFO queueing, membership
#: events (with optional session expiry and warmup) and continuous Meridian
#: ring repair all interleaved on one netsim event loop, with
#: time-to-answer percentiles as the headline metric (:class:`DaemonSpec`,
#: :class:`repro.service.daemon.QueryDaemon`).  It is the one membership
#: engine: a churn workload is a ``zero_delay`` daemon (queries then
#: answer like blocking calls between membership events), and long-running
#: service mode is a daemon scenario with a :class:`ServicePhase` sequence
#: run on one warm algorithm.
PROTOCOLS = ("sampled", "per-target", "daemon")

#: Target-sampling policies understood by :class:`SamplingSpec`.
SAMPLING_POLICIES = ("uniform", "skewed", "single-cluster")


@dataclass(frozen=True)
class NoiseSpec:
    """Probe-noise model: lognormal factor plus exponential additive lag.

    ``seed=None`` reuses the trial's world seed, so one integer still
    replays the whole trial.

    The wrapped :class:`NoisyOracle` serves batched probes
    (``latencies_from`` / ``latency_block``) by drawing noise per-batch
    from the same generator as scalar probes: all lognormal factors in one
    vectorised draw, then (for ``additive_ms > 0``) all additive lags.
    With ``additive_ms == 0`` a batch is bit-identical to the equivalent
    scalar probe loop; with additive lag the draw order differs from the
    interleaved scalar stream (see
    :class:`repro.topology.oracle.NoisyOracle`).
    """

    sigma: float = 0.05
    additive_ms: float = 0.0
    seed: int | None = None

    def wrap(
        self,
        oracle: LatencyOracle,
        default_seed: int | np.random.Generator | None,
    ) -> NoisyOracle:
        """Wrap ``oracle`` in the configured :class:`NoisyOracle`.

        With an *integer* ``default_seed`` the noise gets its own
        generator, independent of the trial's other streams.  Passing a
        ``Generator`` shares that generator with the caller (noise draws
        then interleave with sampling/build/query draws) — use integer
        seeds when stream independence matters.
        """
        return NoisyOracle(
            oracle,
            sigma=self.sigma,
            additive_ms=self.additive_ms,
            seed=self.seed if self.seed is not None else default_seed,
        )


@dataclass(frozen=True)
class SamplingSpec:
    """How targets are drawn from a world's population.

    Members are always the complement of the target set — targets must not
    be members, or "nearest member" degenerates to the target itself.
    """

    n_targets: int = 100
    policy: str = "uniform"
    #: Zipf exponent for the ``skewed`` policy: cluster ``c`` gets weight
    #: ``(c + 1) ** -skew``, modelling workloads where query load piles onto
    #: a few popular clusters.
    skew: float = 1.0
    #: Cluster id for the ``single-cluster`` policy.
    cluster: int = 0

    def __post_init__(self) -> None:
        require_positive(self.n_targets, "n_targets")
        if self.policy not in SAMPLING_POLICIES:
            raise ConfigurationError(
                f"unknown sampling policy {self.policy!r}; "
                f"choose from {SAMPLING_POLICIES}"
            )

    def sample(self, world: ClusteredWorld, rng: np.random.Generator) -> np.ndarray:
        """Draw the target ids (without replacement) for one trial."""
        topology = world.topology
        n = topology.n_nodes
        if self.policy == "single-cluster":
            pool = topology.hosts_in_cluster(self.cluster)
        else:
            pool = np.arange(n)
        if self.n_targets >= pool.size:
            raise ConfigurationError(
                f"n_targets={self.n_targets} must be < candidate pool {pool.size}"
            )
        if self.policy == "skewed":
            weights = (topology.host_cluster[pool] + 1.0) ** -self.skew
            weights /= weights.sum()
            return rng.choice(pool, size=self.n_targets, replace=False, p=weights)
        return rng.choice(pool, size=self.n_targets, replace=False)


@dataclass(frozen=True)
class FaultSpec:
    """Declarative network-fault configuration for the ``daemon`` protocol.

    Describes the broken-network layer
    (:class:`~repro.netsim.network.FaultModel`) in workload terms: loss
    rates by link class, a NAT-ed fraction, scheduled outage windows and
    a clock-skew spread.  :meth:`build_model` materialises the model for
    one trial's topology from a *dedicated* fault stream — so attaching
    faults never perturbs the workload or algorithm draws, and the same
    fault layout replays across schemes (common random numbers).

    ``deadline_ms`` is a scoring knob, not a mechanism: availability is
    the fraction of queries answered within it.  An all-zero spec builds
    an *inert* model (``active == False``) — the daemon then runs the
    exact fault-free code path, bit for bit (the zero-fault identity
    tests pin this).
    """

    #: Loss probability applied to every src/dst cluster pair.
    base_loss_rate: float = 0.0
    #: Override for same-cluster links (``None`` keeps the base rate).
    intra_cluster_loss_rate: float | None = None
    #: Override for cross-cluster links (``None`` keeps the base rate).
    cross_cluster_loss_rate: float | None = None
    #: Fraction of hosts behind NATs (probed only via their relay).
    nat_fraction: float = 0.0
    #: ``(start_ms, end_ms, clusters)`` regional outage windows.
    outages: tuple = ()
    #: Half-width of the uniform per-node clock-skew factor around 1.0.
    clock_skew: float = 0.0
    probe_timeout_ms: float = 400.0
    max_retransmits: int = 2
    retransmit_backoff: float = 2.0
    query_retry_ms: float = 200.0
    query_retry_backoff: float = 2.0
    #: Availability deadline: a query answered later counts unavailable.
    deadline_ms: float = float("inf")
    #: Dedicated fault-stream seed; ``None`` derives it from the trial
    #: seed (same faults per trial, independent of every other stream).
    seed: int | None = None

    def __post_init__(self) -> None:
        for name in (
            "base_loss_rate",
            "intra_cluster_loss_rate",
            "cross_cluster_loss_rate",
            # 1.0 would NAT every host and leave no relay to detour through.
            "nat_fraction",
        ):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value < 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1), got {value}"
                )
        require_in_range(self.clock_skew, "clock_skew", 0.0, 1.0)
        require_positive(self.probe_timeout_ms, "probe_timeout_ms")
        require_positive(self.query_retry_ms, "query_retry_ms")
        require_positive(self.deadline_ms, "deadline_ms")
        if self.max_retransmits < 0:
            raise ConfigurationError(
                f"max_retransmits must be >= 0, got {self.max_retransmits}"
            )
        if self.retransmit_backoff < 1.0 or self.query_retry_backoff < 1.0:
            raise ConfigurationError("backoff factors must be >= 1")
        for window in self.outages:
            try:
                start, end, clusters = window
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"outage window {window!r} is not (start_ms, end_ms, "
                    "clusters)"
                ) from None
            if not 0.0 <= float(start) < float(end):
                raise ConfigurationError(f"bad outage window {window!r}")
            ids = np.asarray(clusters)
            if (
                ids.ndim != 1
                or ids.size == 0
                or ids.dtype.kind not in "iu"
                or ids.min() < 0
            ):
                raise ConfigurationError(
                    f"outage window {window!r} needs a non-empty sequence "
                    "of cluster ids >= 0"
                )

    def build_model(
        self, host_cluster: np.ndarray, rng: np.random.Generator
    ) -> "FaultModel":
        """Materialise the fault model for one trial's topology.

        Draw order (pinned by the determinism tests): NAT membership,
        then each NAT-ed host's relay, then the skew factors.  Relays
        prefer a reachable host in the NAT-ed host's own cluster — the
        "hole-punching helper next door" layout — falling back to any
        reachable host.
        """
        from repro.netsim.network import FaultModel

        host_cluster = np.asarray(host_cluster, dtype=np.int64)
        n = host_cluster.size
        n_clusters = int(host_cluster.max()) + 1
        for window in self.outages:
            if max(window[2]) >= n_clusters:
                raise ConfigurationError(
                    f"outage window {window!r} names a cluster the "
                    f"{n_clusters}-cluster world does not have"
                )
        loss = np.full((n_clusters, n_clusters), self.base_loss_rate)
        if self.intra_cluster_loss_rate is not None:
            np.fill_diagonal(loss, self.intra_cluster_loss_rate)
        if self.cross_cluster_loss_rate is not None:
            off = ~np.eye(n_clusters, dtype=bool)
            loss[off] = self.cross_cluster_loss_rate
        natted = None
        relay_of = None
        if self.nat_fraction > 0.0:
            natted = rng.random(n) < self.nat_fraction
            reachable = np.flatnonzero(~natted)
            if reachable.size == 0:
                raise ConfigurationError(
                    "every host came out NAT-ed; lower nat_fraction"
                )
            relay_of = np.arange(n, dtype=np.int64)
            for host in np.flatnonzero(natted):
                local = reachable[
                    host_cluster[reachable] == host_cluster[host]
                ]
                pool = local if local.size else reachable
                relay_of[host] = int(rng.choice(pool))
        skew = None
        if self.clock_skew > 0.0:
            skew = rng.uniform(
                1.0 - self.clock_skew, 1.0 + self.clock_skew, size=n
            )
        return FaultModel(
            host_cluster,
            loss_matrix=loss,
            outages=self.outages,
            natted=natted,
            relay_of=relay_of,
            skew=skew,
            probe_timeout_ms=self.probe_timeout_ms,
            max_retransmits=self.max_retransmits,
            retransmit_backoff=self.retransmit_backoff,
            query_retry_ms=self.query_retry_ms,
            query_retry_backoff=self.query_retry_backoff,
        )


@dataclass(frozen=True)
class TraceSpec:
    """Observability configuration for a daemon run.

    Attaching one to :attr:`DaemonSpec.trace` turns the simulated-time
    tracing and metrics layer on (:mod:`repro.obs`): per-query spans on
    the loop clock, ledger-tagged maintenance spans, and a
    :class:`~repro.obs.metrics.TimeSeriesBlock` sampled every
    ``sample_interval_ms`` of simulated time.  The layer is passive and
    rng-clean — enabling it never changes answers, timing or bills.
    """

    #: Simulated-time spacing of the metrics sampling grid.
    sample_interval_ms: float = 100.0

    def __post_init__(self) -> None:
        require_positive(self.sample_interval_ms, "sample_interval_ms")


@dataclass(frozen=True)
class DaemonSpec:
    """Simulated-time service load for the ``daemon`` protocol.

    All times are simulated milliseconds on the daemon's event loop.
    Queries arrive as a Poisson process (exponential inter-arrival times
    with mean ``mean_interarrival_ms``); each query enters at a uniformly
    random live member, which serves at most ``per_node_concurrency``
    queries simultaneously — excess arrivals wait in that node's FIFO
    queue.  Probe fan-outs complete after their measured RTTs, so a
    scheme's *time to answer* is its true critical path (per round, the
    slowest probe), not its probe count.

    Membership events, when configured, fire as their own Poisson process
    (mean spacing ``mean_event_interval_ms``); each event first retires
    the members whose session expired (``session_length_ms``, exponential
    per arrival), then draws ``Poisson(departure_rate)`` random departures
    (all respecting ``min_members``; an expiry the floor blocks retries at
    the next event) and ``Poisson(arrival_rate)`` arrivals from the
    standby pool, applied through the algorithm's counted join/leave
    maintenance — index repair happens *between* query rounds on the same
    loop, exactly the interleaving a live deployment sees.  ``warmup_ms``
    lets that process churn the built index before the first query
    arrives.  ``flush_period_ms`` additionally
    forces deferred-maintenance (coalesce/lazy) flushes on a timer;
    ``ring_repair_period_ms`` re-drives Meridian's gossip ring repair
    continuously (ignored by schemes without ``repair_rings``).

    ``zero_delay`` collapses every probe delay to zero — queries then
    serialise perfectly and the daemon reproduces the blocking
    :meth:`~repro.algorithms.base.NearestPeerAlgorithm.query` results bit
    for bit (the regression tests pin this).  That makes it the churn
    workload too: with a step of ``S`` ms, ``mean_event_interval_ms = S``
    and ``mean_interarrival_ms = S * k`` interleave about ``k`` membership
    events between consecutive queries.
    """

    mean_interarrival_ms: float = 50.0
    per_node_concurrency: int = 2
    #: Fraction of the member pool live at build time (rest = standby).
    initial_fraction: float = 0.7
    min_members: int = 24
    #: Mean spacing of membership events; ``None`` keeps membership static.
    mean_event_interval_ms: float | None = None
    arrival_rate: float = 0.5
    departure_rate: float = 0.5
    #: Mean session length of arrivals (exponential; ``None`` keeps an
    #: arrival in until the random-departure draw picks it).
    session_length_ms: float | None = None
    #: Simulated time the membership process runs before the first
    #: arrival gap starts; maintenance spent before the first arrival is
    #: billed to no query.
    warmup_ms: float = 0.0
    #: Forced deferred-maintenance flush period (``None`` = only
    #: event/query-driven flushes).
    flush_period_ms: float | None = None
    #: Continuous Meridian ring-repair period (``None`` disables).
    ring_repair_period_ms: float | None = None
    #: Instantaneous probe delivery (testing / equivalence runs).
    zero_delay: bool = False
    #: Bill the coordination hop: asking peer *p* to probe the target
    #: costs the entry->p RTT, drawn through the network's vectorised path
    #: draw, on top of the probe RTT.  Off by default so goldens hold.
    charge_dispatch: bool = False
    #: Network-fault configuration (``None`` = the perfect network).
    faults: FaultSpec | None = None
    #: Observability configuration (``None`` = tracing off: no tracer is
    #: constructed and the hot path allocates nothing).  Tracing is
    #: rng-clean and passive — it reads only the loop clock and the
    #: daemon's own counters — so enabling it is bit-identical for
    #: answers, time-to-answer and maintenance bills (pinned by the
    #: trace tests and the ``obs-passivity`` lint rule).
    trace: "TraceSpec | None" = None

    def __post_init__(self) -> None:
        require_positive(self.mean_interarrival_ms, "mean_interarrival_ms")
        require_positive(self.per_node_concurrency, "per_node_concurrency")
        require_in_range(self.initial_fraction, "initial_fraction", 0.0, 1.0)
        if self.min_members < 2:
            raise ConfigurationError(
                f"min_members must be >= 2, got {self.min_members}"
            )
        if self.mean_event_interval_ms is not None:
            require_positive(self.mean_event_interval_ms, "mean_event_interval_ms")
        if self.arrival_rate < 0:
            raise ConfigurationError(
                f"arrival_rate must be >= 0, got {self.arrival_rate}"
            )
        if self.departure_rate < 0:
            raise ConfigurationError(
                f"departure_rate must be >= 0, got {self.departure_rate}"
            )
        if self.session_length_ms is not None:
            require_positive(self.session_length_ms, "session_length_ms")
        if self.warmup_ms < 0:
            raise ConfigurationError(
                f"warmup_ms must be >= 0, got {self.warmup_ms}"
            )
        if self.flush_period_ms is not None:
            require_positive(self.flush_period_ms, "flush_period_ms")
        if self.ring_repair_period_ms is not None:
            require_positive(self.ring_repair_period_ms, "ring_repair_period_ms")


def check_member_floor(spec: DaemonSpec, pool: int) -> None:
    """Reject a spec whose membership floor exceeds the member pool.

    Departures stop at ``min_members``; a floor above the whole pool
    would silently freeze the membership, so it fails up front instead.
    """
    if spec.min_members > pool:
        raise ConfigurationError(
            f"min_members={spec.min_members} exceeds the member pool of "
            f"{pool} peers (hosts minus targets)"
        )


@dataclass(frozen=True)
class ServicePhase:
    """One phase of a phased ``daemon`` scenario (long-running service mode).

    A phased scenario builds its algorithm once and runs one daemon per
    phase on it (warm restarts: the index carries over, no rebuild).  The
    standby pool, the open session timers and the workload and algorithm
    streams carry from phase to phase; each phase runs under its own
    ``daemon`` spec (its ``warmup_ms`` is an event-only transition period)
    and yields its own
    :class:`~repro.harness.results.DaemonTrialRecord`, tagged with
    ``name``.  The first phase's ``initial_fraction`` seeds the initial
    membership split; later phases inherit the live membership.
    """

    name: str
    daemon: DaemonSpec
    n_queries: int = 100

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a service phase needs a name")
        require_positive(self.n_queries, "n_queries")


@dataclass(frozen=True)
class Scenario:
    """A full workload: world + noise + sampling + protocol + trials."""

    name: str
    topology: ClusteredConfig
    sampling: SamplingSpec = SamplingSpec()
    noise: NoiseSpec | None = None
    protocol: str = "sampled"
    #: Queries per trial under the ``sampled`` and ``daemon`` protocols
    #: (ignored by ``per-target``, which queries each target once, and by
    #: phased scenarios, whose phases carry their own counts).
    n_queries: int = 1000
    #: Independent worlds per scenario (the paper runs three).
    trials: int = 1
    seed: int = 2008
    #: Synthetic-core pool size override (see ``build_clustered_oracle``).
    core_pool_size: int | None = None
    #: Simulated-time load of the ``daemon`` protocol (exclusive with
    #: ``phases``).
    daemon: DaemonSpec | None = None
    #: Phase sequence of a phased ``daemon`` scenario — long-running
    #: service mode, one record per phase (exclusive with ``daemon``).
    phases: tuple[ServicePhase, ...] | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigurationError(
                f"unknown protocol {self.protocol!r}; choose from {PROTOCOLS}"
            )
        require_positive(self.n_queries, "n_queries")
        require_positive(self.trials, "trials")
        if self.protocol != "daemon":
            if self.daemon is not None or self.phases is not None:
                raise ConfigurationError(
                    f"daemon spec or phases set but protocol is "
                    f"{self.protocol!r}"
                )
            return
        if self.phases == ():
            raise ConfigurationError("scenario.phases must not be empty")
        if (self.daemon is None) == (self.phases is None):
            raise ConfigurationError(
                "the daemon protocol requires either a DaemonSpec "
                "(scenario.daemon) or a non-empty phase sequence "
                "(scenario.phases), not both"
            )
        pool = self.topology.n_peers - self.sampling.n_targets
        specs = [self.daemon] if self.daemon is not None else [
            phase.daemon for phase in self.phases
        ]
        for spec in specs:
            check_member_floor(spec, pool)

    def world_seeds(self) -> list[int]:
        """Independent per-trial world seeds derived from the master seed."""
        return spawn_seeds(self.seed, self.trials)

    def with_(self, **changes) -> "Scenario":
        """A copy with fields replaced (sweep convenience)."""
        return replace(self, **changes)


# -- registry ---------------------------------------------------------------

_REGISTRY: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario, overwrite: bool = False) -> Scenario:
    """Add a scenario to the process-wide registry (returns it unchanged)."""
    if scenario.name in _REGISTRY and not overwrite:
        raise ConfigurationError(
            f"scenario {scenario.name!r} is already registered "
            "(pass overwrite=True to replace it)"
        )
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look a registered scenario up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def unregister_scenario(name: str) -> Scenario:
    """Remove (and return) a registered scenario.

    The counterpart of :func:`register_scenario`, so tests and parameter
    sweeps can clean up after themselves instead of leaking entries into
    the process-wide registry.
    """
    try:
        return _REGISTRY.pop(name)
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


@contextmanager
def temporary_scenario(scenario: Scenario, overwrite: bool = False):
    """Register ``scenario`` for the duration of a ``with`` block.

    On exit the previous registry state is restored exactly: the entry is
    removed, or — when ``overwrite=True`` replaced an existing scenario —
    the original is put back.
    """
    previous = _REGISTRY.get(scenario.name)
    register_scenario(scenario, overwrite=overwrite)
    try:
        yield scenario
    finally:
        if previous is not None:
            _REGISTRY[scenario.name] = previous
        else:
            _REGISTRY.pop(scenario.name, None)


def list_scenarios() -> list[str]:
    """Names of every registered scenario, sorted."""
    return sorted(_REGISTRY)


# -- canonical workloads ----------------------------------------------------

#: The head-to-head comparison world: every latency-only scheme, one
#: clustered world, realistic probe noise (used by
#: ``benchmarks/bench_algorithm_comparison.py``).
PAPER_COMPARISON = register_scenario(
    Scenario(
        name="paper-comparison",
        topology=ClusteredConfig(n_clusters=8, end_networks_per_cluster=40, delta=0.2),
        sampling=SamplingSpec(n_targets=60),
        noise=NoiseSpec(sigma=0.05, additive_ms=0.3),
        protocol="per-target",
        seed=53,
        description="all schemes, one noisy clustered world, 60 targets",
    )
)

#: A deep-in-the-phase-transition Meridian workload (125 end-networks per
#: cluster, where the clustering condition dominates).
MERIDIAN_PHASE_TRANSITION = register_scenario(
    Scenario(
        name="meridian-phase-transition",
        topology=ClusteredConfig(
            n_clusters=10, end_networks_per_cluster=125, delta=0.2
        ),
        sampling=SamplingSpec(n_targets=100),
        n_queries=600,
        trials=2,
        description="Meridian under a fully developed clustering condition",
    )
)

#: Query load concentrated on a few popular clusters — the skewed workload
#: the hand-rolled loops could not express.
SKEWED_TARGETS = register_scenario(
    Scenario(
        name="skewed-targets",
        topology=ClusteredConfig(n_clusters=12, end_networks_per_cluster=30, delta=0.2),
        sampling=SamplingSpec(n_targets=80, policy="skewed", skew=1.5),
        noise=NoiseSpec(sigma=0.05),
        n_queries=400,
        trials=2,
        description="zipf-weighted targets: load piles onto low-id clusters",
    )
)

# -- churn workloads --------------------------------------------------------

#: One churn step in simulated ms: the churn workloads are zero-delay
#: daemons whose membership events fire every step on average, with one
#: query per step (or per ``k`` steps), so queries answer like blocking
#: calls between membership events.
CHURN_STEP_MS = 10.0


def churn_spec(events_per_query: int = 1, **changes) -> DaemonSpec:
    """A zero-delay churn daemon: ~``events_per_query`` events per query.

    ``changes`` set any other :class:`DaemonSpec` field (``min_members``
    defaults to 32).
    """
    settings = dict(
        mean_event_interval_ms=CHURN_STEP_MS, min_members=32, zero_delay=True
    )
    settings.update(changes)
    return DaemonSpec(
        mean_interarrival_ms=CHURN_STEP_MS * events_per_query, **settings
    )


#: Steady-state churn: arrivals balance departures around a ~70% duty
#: cycle, with exponential session lengths — the operating point real p2p
#: populations live at.
STEADY_CHURN = register_scenario(
    Scenario(
        name="steady-churn",
        topology=ClusteredConfig(n_clusters=6, end_networks_per_cluster=20, delta=0.2),
        sampling=SamplingSpec(n_targets=40),
        protocol="daemon",
        daemon=churn_spec(
            initial_fraction=0.7,
            arrival_rate=0.6,
            departure_rate=0.6,
            session_length_ms=80 * CHURN_STEP_MS,
            warmup_ms=25 * CHURN_STEP_MS,
        ),
        n_queries=200,
        seed=77,
        description="balanced join/leave flow with exponential sessions",
    )
)

#: Flash crowd: a small seed population, then a burst of arrivals that
#: almost never leave — the join-dominated regime (a swarm forming).
FLASH_CROWD = register_scenario(
    Scenario(
        name="flash-crowd",
        topology=ClusteredConfig(n_clusters=6, end_networks_per_cluster=20, delta=0.2),
        sampling=SamplingSpec(n_targets=40),
        protocol="daemon",
        daemon=churn_spec(
            initial_fraction=0.25, arrival_rate=3.0, departure_rate=0.05
        ),
        n_queries=150,
        seed=78,
        description="join burst onto a small seed population",
    )
)

#: Mass departure: a nearly full population drains with no replacement —
#: the leave-dominated regime (a swarm dissolving / a partition).
MASS_DEPARTURE = register_scenario(
    Scenario(
        name="mass-departure",
        topology=ClusteredConfig(n_clusters=6, end_networks_per_cluster=20, delta=0.2),
        sampling=SamplingSpec(n_targets=40),
        protocol="daemon",
        daemon=churn_spec(
            initial_fraction=0.95, arrival_rate=0.0, departure_rate=2.0
        ),
        n_queries=150,
        seed=79,
        description="population drains toward the membership floor",
    )
)

#: High event rate, sparse queries: about eight membership events between
#: consecutive queries.  The regime deferred maintenance disciplines are
#: built for — under ``maintenance="lazy"`` the events coalesce into one
#: index application per query, under ``"coalesce:8"`` into roughly one
#: per window, while ``"eager"`` pays per event.
CHURN_LAZY_INDEX = register_scenario(
    Scenario(
        name="churn-lazy-index",
        topology=ClusteredConfig(n_clusters=6, end_networks_per_cluster=20, delta=0.2),
        sampling=SamplingSpec(n_targets=40),
        protocol="daemon",
        daemon=churn_spec(
            events_per_query=8,
            initial_fraction=0.7,
            arrival_rate=0.7,
            departure_rate=0.7,
            session_length_ms=300 * CHURN_STEP_MS,
            warmup_ms=24 * CHURN_STEP_MS,
        ),
        n_queries=60,
        seed=81,
        description="~8 membership events per query: the deferred-maintenance regime",
    )
)

# -- simulated-time daemon workloads ----------------------------------------

#: Steady simulated-time service: Poisson queries at a sustainable rate,
#: background churn, and continuous Meridian ring repair — the workload
#: where *time to answer* (not probe count) ranks the schemes.
DAEMON_STEADY = register_scenario(
    Scenario(
        name="daemon-steady",
        topology=ClusteredConfig(n_clusters=6, end_networks_per_cluster=20, delta=0.2),
        sampling=SamplingSpec(n_targets=40),
        protocol="daemon",
        daemon=DaemonSpec(
            mean_interarrival_ms=40.0,
            per_node_concurrency=2,
            initial_fraction=0.7,
            min_members=32,
            mean_event_interval_ms=150.0,
            arrival_rate=0.5,
            departure_rate=0.5,
            ring_repair_period_ms=600.0,
        ),
        n_queries=150,
        seed=91,
        description="Poisson queries + background churn + continuous ring repair",
    )
)

#: Flash crowd on the daemon: queries pour in an order of magnitude faster
#: onto a small seed population while arrivals flood the membership — the
#: regime where per-node concurrency caps fill and FIFO queueing delay
#: dominates time-to-answer.
DAEMON_FLASH_CROWD = register_scenario(
    Scenario(
        name="daemon-flash-crowd",
        topology=ClusteredConfig(n_clusters=6, end_networks_per_cluster=20, delta=0.2),
        sampling=SamplingSpec(n_targets=40),
        protocol="daemon",
        daemon=DaemonSpec(
            mean_interarrival_ms=5.0,
            per_node_concurrency=1,
            initial_fraction=0.25,
            min_members=32,
            mean_event_interval_ms=40.0,
            arrival_rate=3.0,
            departure_rate=0.05,
        ),
        n_queries=150,
        seed=92,
        description="query burst onto a small population: queueing delay dominates",
    )
)

# -- broken-network daemon workloads ----------------------------------------

#: The shared shape of the fault scenarios: the steady daemon world with
#: lighter background churn, so the fault layer — not membership flux —
#: dominates what changes between the three.
_FAULT_DAEMON = DaemonSpec(
    mean_interarrival_ms=40.0,
    per_node_concurrency=2,
    initial_fraction=0.7,
    min_members=32,
    mean_event_interval_ms=500.0,
    arrival_rate=0.3,
    departure_rate=0.3,
)

_FAULT_WORLD = ClusteredConfig(n_clusters=6, end_networks_per_cluster=20, delta=0.2)

#: Lossy links: light loss inside clusters, heavy loss across them —
#: probes drop, retransmit with backoff, occasionally time out.  The
#: availability gate (answered within the deadline) runs on this one.
DAEMON_LOSSY = register_scenario(
    Scenario(
        name="daemon-lossy",
        topology=_FAULT_WORLD,
        sampling=SamplingSpec(n_targets=40),
        protocol="daemon",
        daemon=replace(
            _FAULT_DAEMON,
            faults=FaultSpec(
                base_loss_rate=0.03,
                cross_cluster_loss_rate=0.10,
                probe_timeout_ms=250.0,
                max_retransmits=2,
                deadline_ms=5000.0,
            ),
        ),
        n_queries=150,
        seed=93,
        description="3% intra / 10% cross-cluster loss with retransmits",
    )
)

#: NAT-ed peers: a quarter of the hosts cannot be probed directly; every
#: probe to them detours through a designated reachable relay, billing
#: the longer path.
DAEMON_NATTED = register_scenario(
    Scenario(
        name="daemon-natted",
        topology=_FAULT_WORLD,
        sampling=SamplingSpec(n_targets=40),
        protocol="daemon",
        daemon=replace(
            _FAULT_DAEMON,
            faults=FaultSpec(
                nat_fraction=0.25,
                base_loss_rate=0.01,
                probe_timeout_ms=250.0,
                deadline_ms=5000.0,
            ),
        ),
        n_queries=150,
        seed=94,
        description="25% of hosts NAT-ed: probes relay and bill the detour",
    )
)

#: Regional partitions: two scheduled outage windows cut cluster regions
#: off mid-run; probes crossing the cut are dropped until the window
#: ends, queries ride it out through retransmits and whole-plan retries.
#: Clocks drift a few percent on top.
DAEMON_PARTITION = register_scenario(
    Scenario(
        name="daemon-partition",
        topology=_FAULT_WORLD,
        sampling=SamplingSpec(n_targets=40),
        protocol="daemon",
        daemon=replace(
            _FAULT_DAEMON,
            faults=FaultSpec(
                base_loss_rate=0.01,
                outages=(
                    # Longer than the full retransmit span (250+500+1000
                    # ms), so probes cut off early in the window exhaust
                    # every attempt and the query-level retry path runs.
                    (400.0, 2600.0, (0, 1)),
                    (3500.0, 4300.0, (3,)),
                ),
                clock_skew=0.05,
                probe_timeout_ms=250.0,
                max_retransmits=2,
                query_retry_ms=150.0,
                deadline_ms=6000.0,
            ),
        ),
        n_queries=150,
        seed=95,
        description="two regional outage windows + 5% clock skew",
    )
)

#: Long-running service mode: one built algorithm survives three operating
#: regimes back to back — steady flux, an arrival surge, then a drain —
#: with warm restarts (the index carries across phase boundaries) and one
#: DaemonTrialRecord per phase.
SERVICE_MODE_RESTARTS = register_scenario(
    Scenario(
        name="service-mode-restarts",
        topology=ClusteredConfig(n_clusters=6, end_networks_per_cluster=20, delta=0.2),
        sampling=SamplingSpec(n_targets=40),
        protocol="daemon",
        phases=(
            ServicePhase(
                "steady",
                churn_spec(
                    initial_fraction=0.6,
                    arrival_rate=0.5,
                    departure_rate=0.5,
                    session_length_ms=100 * CHURN_STEP_MS,
                    warmup_ms=10 * CHURN_STEP_MS,
                ),
                n_queries=60,
            ),
            ServicePhase(
                "surge",
                churn_spec(
                    arrival_rate=2.5,
                    departure_rate=0.2,
                    warmup_ms=5 * CHURN_STEP_MS,
                ),
                n_queries=60,
            ),
            ServicePhase(
                "drain",
                churn_spec(
                    arrival_rate=0.1,
                    departure_rate=1.8,
                    warmup_ms=5 * CHURN_STEP_MS,
                ),
                n_queries=60,
            ),
        ),
        seed=82,
        description="steady -> surge -> drain phases on one live algorithm",
    )
)
