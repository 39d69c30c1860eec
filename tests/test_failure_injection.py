"""Failure-injection tests: the system under churn, loss and noise.

A deployable nearest-peer service must tolerate DHT node crashes,
widespread measurement refusal, heavy probe noise — and, on the query
daemon's simulated network path, packet loss with
timeouts and retransmits, NAT-ed peers reachable only through relays,
regional partitions and clock skew; these tests inject each failure and
assert graceful degradation rather than collapse.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.compare import rank_by_time_to_answer
from repro.dht.chord import ChordRing
from repro.dht.hashing import hash_key
from repro.dht.kvstore import DhtKeyValueStore
from repro.harness import DaemonSpec, FaultSpec, QueryEngine, SamplingSpec
from repro.latency.builder import build_clustered_oracle
from repro.mechanisms.ucl import UclMap, compute_ucl
from repro.meridian.overlay import MeridianConfig
from repro.netsim.network import FaultModel
from repro.topology.clustered import ClusteredConfig
from repro.topology.oracle import MatrixOracle, NoisyOracle
from repro.util.errors import ConfigurationError


class TestDhtChurn:
    def test_ucl_map_survives_storage_node_crashes(self, small_internet):
        """Replication keeps the UCL mapping usable through DHT churn."""
        by_en = {}
        for peer in small_internet.peer_ids:
            by_en.setdefault(small_internet.host(peer).en_id, []).append(peer)
        mate, joiner = next(v[:2] for v in by_en.values() if len(v) >= 2)

        ring = ChordRing.build(list(range(24)))
        store = DhtKeyValueStore(ring, replicas=3, seed=1)
        ucl_map = UclMap(small_internet, backend=store)
        ucl = compute_ucl(small_internet, mate, seed=mate)
        ucl_map.insert_peer(mate, ucl)

        # Crash the owner of every key the mate is stored under.
        for entry in ucl:
            owner, _ = ring.lookup(ring.node_ids[0], hash_key(entry.router_id))
            if owner in ring.node_ids and ring.size > 4:
                store.handle_node_loss(owner)

        found, _latency, _stats = ucl_map.find_nearest(
            joiner, compute_ucl(small_internet, joiner, seed=joiner), seed=3
        )
        assert found == mate

    def test_mass_crash_loses_data_but_not_service(self):
        """Crashing beyond the replication factor loses values, not uptime."""
        ring = ChordRing.build(list(range(12)))
        store = DhtKeyValueStore(ring, replicas=2, seed=2)
        store.put("key", "value")
        for node in list(ring.node_ids)[:8]:
            store.handle_node_loss(node)
        # The store still answers (possibly with an empty set).
        assert isinstance(store.get("key"), set)
        assert ring.size == 4


class TestMeasurementRefusal:
    def test_pipeline_handles_total_tcp_refusal(self):
        from repro.measurement.azureus_pipeline import AzureusStudy
        from repro.topology.internet import InternetConfig, SyntheticInternet

        internet = SyntheticInternet.generate(
            InternetConfig(
                n_isps=2,
                pops_per_isp_low=2,
                pops_per_isp_high=3,
                en_per_pop_low=6,
                en_per_pop_high=16,
                tcp_response_rate=0.0,
                traceroute_response_rate=0.0,
            ),
            seed=9,
        )
        result = AzureusStudy(internet, seed=9).run()
        assert result.peers_retained == 0
        assert result.unpruned_clusters == []


class TestHeavyProbeNoise:
    def test_meridian_accuracy_degrades_gracefully(self):
        """50% probe noise halves accuracy-ish; it must not zero it in a
        benign world nor crash."""
        from repro.algorithms import MeridianSearch

        world = build_clustered_oracle(
            ClusteredConfig(n_clusters=6, end_networks_per_cluster=10), seed=11
        )

        def trial(probe_oracle=None):
            return QueryEngine().run_world_trial(
                world,
                MeridianSearch(),
                sampling=SamplingSpec(n_targets=40),
                n_queries=150,
                seed=11,
                probe_oracle=probe_oracle,
            )

        clean = trial()
        noisy = trial(NoisyOracle(world.oracle, sigma=0.5, seed=11))
        assert noisy.exact_rate <= clean.exact_rate + 0.05
        assert noisy.cluster_rate > 0.3

    def test_query_terminates_under_adversarial_noise(self, uniform_matrix):
        from repro.algorithms import MeridianSearch

        oracle = MatrixOracle(uniform_matrix)
        wild = NoisyOracle(oracle, sigma=1.5, additive_ms=5.0, seed=12)
        search = MeridianSearch()
        search.build(oracle, np.arange(60), seed=12, probe_oracle=wild)
        result = search.query(80, seed=12)
        assert result.hops <= MeridianConfig().max_hops


# -- the daemon's broken network path ---------------------------------------

FAULT_TOPOLOGY = ClusteredConfig(n_clusters=6, end_networks_per_cluster=20, delta=0.2)

FAULT_DAEMON = DaemonSpec(
    mean_interarrival_ms=40.0,
    per_node_concurrency=2,
    initial_fraction=0.7,
    min_members=32,
    mean_event_interval_ms=400.0,
    arrival_rate=0.3,
    departure_rate=0.3,
)


@pytest.fixture(scope="module")
def fault_world():
    return build_clustered_oracle(FAULT_TOPOLOGY, seed=99)


def run_fault_daemon(world, factory, spec, n_queries=30, seed=5, **kwargs):
    """One daemon trial; every query ends by its deadline, so it drains."""
    kwargs.setdefault("sampling", SamplingSpec(n_targets=30))
    return QueryEngine().run_daemon_trial(
        world, factory(), spec, n_queries=n_queries, seed=seed, **kwargs
    )


class TestFaultModelExactness:
    """Unit-level bills: FaultModel.apply charges exactly what it says."""

    def _fanout(self, world):
        """A cross-cluster fan-out: cluster-0 probers, one cluster-1 target."""
        hc = world.topology.host_cluster
        srcs = np.flatnonzero(hc == 0)[:6]
        dst = int(np.flatnonzero(hc == 1)[0])
        dsts = np.full(srcs.size, dst)
        base = np.array(
            [world.oracle.latency_ms(int(s), dst) for s in srcs]
        )
        return hc, srcs, dsts, base

    def test_total_outage_bills_exact_timeout_ladder(self, fault_world):
        hc, srcs, dsts, base = self._fanout(fault_world)
        fm = FaultModel(
            hc,
            outages=((0.0, 1e9, (0,)),),
            probe_timeout_ms=100.0,
            max_retransmits=2,
            retransmit_backoff=2.0,
        )
        delays, answered, stats = fm.apply(
            np.random.default_rng(0), fault_world.oracle, srcs, dsts, base, 0.0
        )
        # Every attempt crosses the partition: the probe exhausts waits of
        # 100 + 200 + 400 ms and reports no measurement.
        assert not answered.any()
        assert np.array_equal(delays, np.full(srcs.size, 700.0))
        assert stats["dropped"] == 3 * srcs.size
        assert stats["retransmitted"] == 2 * srcs.size
        assert stats["timed_out"] == srcs.size

    def test_retransmits_ride_out_a_short_outage(self, fault_world):
        hc, srcs, dsts, base = self._fanout(fault_world)
        # The outage ends before the second retransmit (sent at +300 ms).
        fm = FaultModel(
            hc,
            outages=((0.0, 250.0, (0,)),),
            probe_timeout_ms=100.0,
            max_retransmits=2,
        )
        delays, answered, stats = fm.apply(
            np.random.default_rng(0), fault_world.oracle, srcs, dsts, base, 0.0
        )
        assert answered.all()
        assert np.allclose(delays, 300.0 + base)
        assert stats["timed_out"] == 0
        assert stats["dropped"] == stats["retransmitted"] == 2 * srcs.size

    def test_nat_relay_bills_detour_exactly(self, fault_world):
        hc, srcs, dsts, base = self._fanout(fault_world)
        dst = int(dsts[0])
        relay = int(np.flatnonzero(hc == 1)[1])
        natted = np.zeros(hc.size, dtype=bool)
        natted[dst] = True
        relay_of = np.arange(hc.size)
        relay_of[dst] = relay
        fm = FaultModel(hc, natted=natted, relay_of=relay_of)
        delays, answered, stats = fm.apply(
            np.random.default_rng(0), fault_world.oracle, srcs, dsts, base, 0.0
        )
        oracle = fault_world.oracle
        expected_extra = np.array(
            [
                max(
                    0.0,
                    oracle.latency_ms(int(s), relay)
                    + oracle.latency_ms(relay, dst)
                    - oracle.latency_ms(int(s), dst),
                )
                for s in srcs
            ]
        )
        assert answered.all()
        assert np.allclose(delays, base + expected_extra)
        assert stats["relayed"] == srcs.size
        assert stats["relay_extra_ms"] == pytest.approx(expected_extra.sum())

    def test_clock_skew_scales_the_timeout_ladder(self, fault_world):
        hc, srcs, dsts, base = self._fanout(fault_world)
        skew = np.ones(hc.size)
        skew[srcs] = 2.0
        fm = FaultModel(
            hc,
            outages=((0.0, 1e9, (0,)),),
            skew=skew,
            probe_timeout_ms=100.0,
            max_retransmits=2,
        )
        delays, answered, _stats = fm.apply(
            np.random.default_rng(0), fault_world.oracle, srcs, dsts, base, 0.0
        )
        # Waits are armed on the prober's fast-running clock: 2x the ladder.
        assert not answered.any()
        assert np.array_equal(delays, np.full(srcs.size, 1400.0))

    def test_drop_bill_decomposes_into_retransmits_plus_timeouts(
        self, fault_world
    ):
        hc = fault_world.topology.host_cluster
        rng = np.random.default_rng(7)
        srcs = rng.choice(hc.size, size=200)
        dsts = rng.choice(hc.size, size=200)
        fm = FaultModel(
            hc,
            loss_matrix=np.full((6, 6), 0.4),
            probe_timeout_ms=50.0,
            max_retransmits=1,
        )
        _delays, _answered, stats = fm.apply(
            rng, fault_world.oracle, srcs, dsts, np.ones(200), 0.0
        )
        assert stats["dropped"] > 0
        assert stats["dropped"] == stats["retransmitted"] + stats["timed_out"]

    @pytest.mark.parametrize("cluster", [7, -1])
    def test_outage_cluster_outside_the_world_rejected(self, cluster):
        """A model built directly, not through FaultSpec, must not go
        active over a cluster it cannot cut."""
        with pytest.raises(ConfigurationError, match="2-cluster world"):
            FaultModel(
                np.array([0, 0, 1, 1]), outages=((0.0, 1e9, (cluster,)),)
            )


class TestDaemonLossyFanout:
    """Per-link loss: rounds complete on answers *or* timeouts, honestly billed."""

    SPEC = dataclasses.replace(
        FAULT_DAEMON,
        faults=FaultSpec(
            base_loss_rate=0.05,
            cross_cluster_loss_rate=0.15,
            probe_timeout_ms=250.0,
            deadline_ms=5000.0,
        ),
    )

    def test_answers_from_survivors_with_honest_bills(self, fault_world):
        from repro.algorithms import RandomProbeSearch

        def factory():
            return RandomProbeSearch(budget=8)

        clean = run_fault_daemon(fault_world, factory, FAULT_DAEMON)
        lossy = run_fault_daemon(fault_world, factory, self.SPEC)
        # Every query still gets an answer (no sentinel escapes the daemon).
        assert (lossy.found >= 0).all()
        # The dedicated fault stream leaves the workload untouched: same
        # arrivals, same targets as the fault-free run (common random
        # numbers across schemes and fault configs).
        assert np.array_equal(lossy.arrival_ms, clean.arrival_ms)
        assert np.array_equal(lossy.targets, clean.targets)
        # Loss really happened and was billed coherently: every dropped
        # attempt is either a retransmit or part of a final timeout.
        assert lossy.total_probe_drops > 0
        assert lossy.total_probe_drops == (
            lossy.total_probe_retransmits + lossy.total_probe_timeouts
        )
        # Timeout waits push time-to-answer up, never down.
        assert lossy.tta_mean_ms > clean.tta_mean_ms
        assert 0.0 <= lossy.availability <= 1.0


class TestDaemonNatRelay:
    """NAT-ed targets: probes detour through relays, billing the long path."""

    def test_same_answers_slower_clock(self, fault_world):
        from repro.algorithms import MeridianSearch

        spec = dataclasses.replace(
            FAULT_DAEMON, faults=FaultSpec(nat_fraction=0.3)
        )
        clean = run_fault_daemon(fault_world, MeridianSearch, FAULT_DAEMON)
        natted = run_fault_daemon(fault_world, MeridianSearch, spec)
        # No loss: every probe is answered (via its relay), the *measured*
        # value stays the direct RTT, so the scheme's decisions — and its
        # answers — are identical; only the clock pays the detour.
        assert np.array_equal(natted.found, clean.found)
        assert natted.total_probe_timeouts == 0
        assert natted.total_relayed_probes > 0
        assert natted.relay_extra_ms > 0.0
        assert natted.tta_mean_ms >= clean.tta_mean_ms

    def test_all_natted_spec_rejected_at_construction(self):
        # Every host NAT-ed leaves no relay; fail before any build runs.
        with pytest.raises(ConfigurationError, match="nat_fraction"):
            FaultSpec(nat_fraction=1.0)

    @pytest.mark.parametrize("value", [0.5, float("nan")])
    @pytest.mark.parametrize("name", ["retransmit_backoff", "query_retry_backoff"])
    def test_backoff_below_one_rejected_at_construction(self, name, value):
        with pytest.raises(ConfigurationError, match="backoff"):
            FaultSpec(**{name: value})


class TestDaemonPartition:
    """A mid-run regional outage: queries ride it out and still answer."""

    @pytest.mark.parametrize(
        "window",
        [
            (0.0, 100.0),
            5,
            (0.0, 100.0, (0,), 1),
            (0.0, 100.0, 2),
            (0.0, 100.0, ()),
            (0.0, 100.0, []),
            (0.0, 100.0, (0, -1)),
            (0.0, 100.0, (0.5,)),
            (0.0, 100.0, "01"),
            (0.0, 100.0, ((0, 1),)),
        ],
        ids=[
            "pair", "int", "quad", "int-clusters", "empty", "empty-list",
            "negative", "float", "str", "nested",
        ],
    )
    def test_malformed_outage_window_rejected(self, window):
        with pytest.raises(ConfigurationError, match="outage window"):
            FaultSpec(outages=(window,), deadline_ms=5000.0)

    @pytest.mark.parametrize("cluster", [6, 99])
    def test_outage_cluster_outside_the_world_rejected(
        self, fault_world, cluster
    ):
        """An outage over a cluster the world lacks would cut nothing; it
        fails when the model is built, before any query is served."""
        from repro.algorithms import RandomProbeSearch

        faults = FaultSpec(
            outages=((0.0, 100.0, (0, cluster)),), deadline_ms=5000.0
        )
        with pytest.raises(ConfigurationError, match="6-cluster world"):
            faults.build_model(
                fault_world.topology.host_cluster, np.random.default_rng(0)
            )
        with pytest.raises(ConfigurationError, match="6-cluster world"):
            run_fault_daemon(
                fault_world,
                RandomProbeSearch,
                dataclasses.replace(FAULT_DAEMON, faults=faults),
            )

    #: Cluster 0 dark for 1.5 s under an 800 ms deadline: a probe across
    #: the cut exhausts its 100 + 200 + 400 ms ladder at +700 ms, so a
    #: fully cut plan's first retry would start at +800 ms — the deadline.
    OUTAGE = dataclasses.replace(
        FAULT_DAEMON,
        faults=FaultSpec(
            outages=((0.0, 1500.0, (0,)),),
            probe_timeout_ms=100.0,
            max_retransmits=2,
            query_retry_ms=100.0,
            deadline_ms=800.0,
        ),
    )

    @staticmethod
    def _karger_ruhl():
        from repro.algorithms import KargerRuhlSearch

        return KargerRuhlSearch(samples_per_scale=4, max_rounds=12)

    def test_outage_times_out_retries_and_recovers(self, fault_world):
        """Plans cut off by the outage end failed at their deadline; the
        rest answer from the survivors of their fan-outs."""
        record = run_fault_daemon(fault_world, self._karger_ruhl, self.OUTAGE)
        failed = record.found < 0
        assert failed.any() and not failed.all()
        # Every fully cut plan timed out at +700 ms; its retry would have
        # started at the deadline, so none started and the query ended.
        assert record.total_query_retries == 0
        assert np.allclose(record.time_to_answer_ms[failed], 700.0)
        assert (record.probe_timeouts[failed] > 0).all()
        # Answered queries rode out timeouts on some of their probes.
        assert (record.probe_timeouts[~failed] > 0).any()
        # A failed query ended before its deadline yet is unavailable, and
        # it scores as a miss with no hub latency.
        on_time = record.time_to_answer_ms <= 800.0
        assert on_time[failed].all()
        assert record.availability == (on_time & ~failed).mean()
        assert 0.0 < record.availability < 1.0
        assert not (record.exact_hit[failed] | record.cluster_hit[failed]).any()
        assert np.isnan(record.found_hub_latency_ms[failed]).all()
        # The 9 cut queries ended at a failure time, not an answer, so the
        # tta summaries are taken over the answered queries alone.
        assert failed.sum() == 9
        answered = record.time_to_answer_ms[~failed]
        assert record.tta_mean_ms == answered.mean()
        for q, value in (
            (50, record.tta_median_ms),
            (95, record.tta_p95_ms),
            (99, record.tta_p99_ms),
        ):
            assert value == np.percentile(answered, q)
        assert record.tta_median_ms != np.percentile(record.time_to_answer_ms, 50)
        # A record that answered nothing has no time to answer and ranks
        # after every record that did.
        silent = dataclasses.replace(record, found=np.full_like(record.found, -1))
        assert np.isnan(silent.tta_median_ms) and np.isnan(silent.tta_mean_ms)
        ranked = rank_by_time_to_answer([silent, record])
        assert ranked[0] is record and ranked[1] is silent

    def test_retry_starting_at_the_deadline_is_cut(self, fault_world):
        """Query 0 fails its first attempt at arrival + 700 ms; its retry
        would start at exactly arrival + 800 ms and is cut.  One ulp more
        deadline and the same retry starts and answers."""
        record = run_fault_daemon(fault_world, self._karger_ruhl, self.OUTAGE)
        assert record.finish_ms[0] + 100.0 == record.arrival_ms[0] + 800.0
        assert record.found[0] == -1
        assert record.query_retries[0] == 0
        later = dataclasses.replace(
            self.OUTAGE,
            faults=dataclasses.replace(
                self.OUTAGE.faults, deadline_ms=float(np.nextafter(800.0, 1e9))
            ),
        )
        record = run_fault_daemon(fault_world, self._karger_ruhl, later)
        assert record.query_retries[0] == 1
        assert record.found[0] >= 0

    def test_failed_attempts_carry_their_probes(self):
        """A retried query's bill includes every failed attempt's probes:
        a one-probe plan that retried ``r`` times sent ``1 + r`` probes."""
        from repro.algorithms import RandomProbeSearch
        from repro.harness import get_scenario

        scenario = get_scenario("daemon-partition")
        record = QueryEngine().run_trial(
            scenario,
            lambda: RandomProbeSearch(budget=1),
            scenario.world_seeds()[0],
        )
        assert record.total_query_retries > 0
        assert np.array_equal(record.probes, 1 + record.query_retries)


class TestDeadlineEndsAQuery:
    """The deadline is the one rule that ends a query: a retry that would
    start at or after it does not start, so every valid spec drains."""

    def test_near_total_loss_drains_with_counted_failures(self):
        """Loss 0.999 on every link of a 40-host world: every query either
        answers or ends failed, with no retry started at its deadline."""
        from repro.algorithms import RandomProbeSearch
        from repro.harness import TraceSpec, get_scenario

        lossy = get_scenario("daemon-lossy")
        faults = dataclasses.replace(
            lossy.daemon.faults,
            base_loss_rate=0.999,
            cross_cluster_loss_rate=0.999,
            deadline_ms=5000.0,
        )
        spec = dataclasses.replace(
            lossy.daemon, min_members=8, faults=faults, trace=TraceSpec()
        )
        world = build_clustered_oracle(
            ClusteredConfig(n_clusters=2, end_networks_per_cluster=10, delta=0.2),
            seed=lossy.seed,
        )
        assert world.topology.n_nodes == 40
        algorithm = RandomProbeSearch(budget=8)
        record = QueryEngine().run_daemon_trial(
            world,
            algorithm,
            spec,
            sampling=SamplingSpec(n_targets=10),
            n_queries=20,
            seed=lossy.seed,
        )
        failed = record.found < 0
        assert failed.any()
        # A failed query carries the no-answer id, never another negative.
        assert (record.found[failed] == -1).all()
        assert record.availability == (~failed).mean()
        deadline = record.arrival_ms + faults.deadline_ms
        # Every retry that ran started before its query's deadline, one
        # plan_retry span per counted retry.
        retry_starts = {}
        for span in record.spans:
            if span.name == "plan_retry":
                retry_starts.setdefault(span.query, []).append(span.end_ms)
        assert sorted(retry_starts) == sorted(
            np.flatnonzero(record.query_retries).tolist()
        )
        for query, starts in retry_starts.items():
            assert len(starts) == record.query_retries[query]
            assert max(starts) < deadline[query]
        # A failed query's next retry would have started at or after it.
        gap = faults.query_retry_ms * faults.query_retry_backoff ** (
            record.query_retries[failed]
        )
        assert (record.finish_ms[failed] + gap >= deadline[failed]).all()
        assert record.total_query_retries > 0
        # The bills still add up: ledger conservation and, per query,
        # drops = retransmits + timeouts.
        assert record.total_maintenance_probes == (
            algorithm.maintenance_probes_total
        )
        assert np.array_equal(
            record.probe_drops, record.probe_retransmits + record.probe_timeouts
        )
        assert record.loop_pending_at_drain == 0

    @pytest.mark.parametrize(
        "faults",
        [
            dict(base_loss_rate=0.01),
            dict(intra_cluster_loss_rate=0.01),
            dict(cross_cluster_loss_rate=0.01),
            dict(outages=((0.0, 100.0, (0,)),)),
        ],
        ids=["base", "intra", "cross", "outage"],
    )
    def test_droppy_spec_without_a_deadline_rejected(self, faults):
        with pytest.raises(ConfigurationError, match="finite deadline_ms"):
            FaultSpec(**faults)
        FaultSpec(**faults, deadline_ms=1000.0)

    def test_spec_that_cannot_drop_may_keep_an_infinite_deadline(self):
        for faults in (
            FaultSpec(),
            FaultSpec(nat_fraction=0.3),
            FaultSpec(clock_skew=0.05),
            # The overrides zero every link class the base rate reached.
            FaultSpec(
                base_loss_rate=0.1,
                intra_cluster_loss_rate=0.0,
                cross_cluster_loss_rate=0.0,
            ),
        ):
            assert not faults.drops_probes
            assert faults.deadline_ms == float("inf")

    @pytest.mark.parametrize(
        "faults",
        [
            FaultSpec(base_loss_rate=0.1, deadline_ms=1000.0),
            FaultSpec(nat_fraction=0.3),
            FaultSpec(),
        ],
        ids=["lossy", "natted", "inert"],
    )
    def test_zero_delay_daemon_with_faults_rejected(self, faults):
        with pytest.raises(ConfigurationError, match="zero_delay"):
            DaemonSpec(zero_delay=True, faults=faults)

    def test_record_with_failed_queries(self):
        """Failed queries carry no hub latency, are never available and
        stay out of the wrong-answer hub median."""
        from repro.harness.results import DaemonTrialRecord

        n = 5
        record = DaemonTrialRecord(
            scheme="stub",
            world_seed=None,
            targets=np.arange(n),
            found=np.array([3, -1, 5, 7, -1]),
            found_latency_ms=np.array([1.0, np.inf, 2.0, 3.0, np.inf]),
            probes=np.ones(n, dtype=int),
            aux_probes=np.zeros(n, dtype=int),
            hops=np.zeros(n, dtype=int),
            exact_hit=np.array([False, False, True, False, False]),
            cluster_hit=np.array([True, False, True, False, False]),
            found_hub_latency_ms=np.array([10.0, np.nan, 30.0, 20.0, np.nan]),
            membership_size=np.full(n, 8),
            arrival_ms=np.zeros(n),
            start_ms=np.zeros(n),
            finish_ms=np.array([100.0, 200.0, 300.0, 900.0, 1200.0]),
            probe_rounds=np.ones(n, dtype=int),
            probe_drops=np.zeros(n, dtype=int),
            probe_retransmits=np.zeros(n, dtype=int),
            probe_timeouts=np.zeros(n, dtype=int),
            relayed_probes=np.zeros(n, dtype=int),
            query_retries=np.zeros(n, dtype=int),
            deadline_ms=800.0,
        )
        # Misses with an answer: hub latencies 10 and 20.
        assert record.median_wrong_hub_latency_ms == 15.0
        # Answered within 800 ms: queries 0 and 2 (query 1 ended on time
        # but failed; query 3 answered late).
        assert record.availability == 2 / 5


class TestDaemonClockSkew:
    """Per-node clock skew: deterministic, and it moves the timeout bills."""

    def test_skew_is_deterministic_and_shifts_timelines(self, fault_world):
        from repro.algorithms import MeridianSearch

        lossy = FaultSpec(
            base_loss_rate=0.10, probe_timeout_ms=200.0, deadline_ms=60_000.0
        )
        skewed = dataclasses.replace(lossy, clock_skew=0.3)
        spec = dataclasses.replace(FAULT_DAEMON, faults=skewed)
        once = run_fault_daemon(fault_world, MeridianSearch, spec)
        twice = run_fault_daemon(fault_world, MeridianSearch, spec)
        assert np.array_equal(once.finish_ms, twice.finish_ms)
        assert np.array_equal(once.found, twice.found)
        # Skew scales retransmit waits on the prober's clock, so the
        # same losses land at different instants than with true clocks.
        true_clocks = run_fault_daemon(
            fault_world,
            MeridianSearch,
            dataclasses.replace(FAULT_DAEMON, faults=lossy),
        )
        assert not np.array_equal(once.finish_ms, true_clocks.finish_ms)


class TestZeroFaultIdentity:
    """An inert fault model is *free*: timelines bit-identical to PR 6."""

    def test_all_zero_faultspec_is_bit_identical(self, fault_world):
        from repro.algorithms import MeridianSearch

        inert = dataclasses.replace(FAULT_DAEMON, faults=FaultSpec())
        a = run_fault_daemon(fault_world, MeridianSearch, FAULT_DAEMON)
        b = run_fault_daemon(fault_world, MeridianSearch, inert)
        for field in dataclasses.fields(a):
            va, vb = getattr(a, field.name), getattr(b, field.name)
            if isinstance(va, np.ndarray):
                assert np.array_equal(va, vb), field.name
            else:
                assert va == vb, field.name

    def test_fault_outcomes_replay_at_fixed_seed(self, fault_world):
        from repro.algorithms import MeridianSearch

        spec = dataclasses.replace(
            FAULT_DAEMON,
            faults=FaultSpec(
                base_loss_rate=0.05,
                nat_fraction=0.2,
                clock_skew=0.05,
                probe_timeout_ms=250.0,
                deadline_ms=60_000.0,
            ),
        )
        one = run_fault_daemon(fault_world, MeridianSearch, spec)
        two = run_fault_daemon(fault_world, MeridianSearch, spec)
        assert np.array_equal(one.found, two.found)
        assert np.array_equal(one.finish_ms, two.finish_ms)
        assert np.array_equal(one.probe_drops, two.probe_drops)
        assert np.array_equal(one.probe_timeouts, two.probe_timeouts)
        assert np.array_equal(one.relayed_probes, two.relayed_probes)
        assert np.array_equal(one.query_retries, two.query_retries)
        assert one.relay_extra_ms == two.relay_extra_ms
