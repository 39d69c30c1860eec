"""Tests for the deferred-maintenance disciplines, ring repair, the
membership diff log and long-running service mode.

The disciplines' three guarantees:

* ``eager`` is the default and is bit-identical to the pre-scheduler code
  (every draw, probe and result unchanged);
* ``coalesce(k)`` / ``lazy`` defer honestly — events buffer at zero cost
  and the whole bill lands on the flush that applies them (coalesce: one
  counted application per window; lazy: on the next query), with
  incremental schemes paying the same probes within tolerance and
  rebuild schemes paying a window's worth less;
* queries stay well-defined while the index is stale (coalesce answers
  from the indexed membership; scoring counts a departed answer as a
  miss).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms import (
    BeaconSearch,
    KargerRuhlSearch,
    MeridianSearch,
    RandomProbeSearch,
    TapestrySearch,
)
from repro.harness import (
    MembershipLog,
    QueryEngine,
    SamplingSpec,
    Scenario,
    ServicePhase,
    churn_spec,
    get_scenario,
    score_epochs,
)
from repro.harness.scenario import CHURN_STEP_MS
from repro.topology.clustered import ClusteredConfig
from repro.topology.oracle import MatrixOracle
from repro.util.errors import ConfigurationError, DataError

SMALL = ClusteredConfig(n_clusters=4, end_networks_per_cluster=8, delta=0.2)


@pytest.fixture(scope="module")
def oracle(uniform_matrix):
    return MatrixOracle(uniform_matrix)


class TestSchedulerSpec:
    def test_from_spec_parsing(self):
        for spec, discipline in [
            (None, "eager"),
            ("eager", "eager"),
            ("lazy", "lazy"),
            ("lazy-partial", "lazy-partial"),
            ("coalesce", "coalesce"),
            ("coalesce:5", "coalesce"),
        ]:
            algorithm = KargerRuhlSearch(maintenance=spec)
            assert algorithm.maintenance_discipline == discipline, spec

    def test_bad_specs_rejected(self):
        for spec in ("sloppy", "lazy:4", "coalesce:zero", "coalesce:0", 7):
            with pytest.raises(ConfigurationError):
                KargerRuhlSearch(maintenance=spec)

    def test_every_algorithm_accepts_the_knob(self, oracle):
        for cls in (
            BeaconSearch,
            KargerRuhlSearch,
            MeridianSearch,
            RandomProbeSearch,
            TapestrySearch,
        ):
            algorithm = cls(maintenance="lazy")
            assert algorithm.maintenance_discipline == "lazy"


class TestEagerBitIdentity:
    """Explicit ``eager`` must match the default discipline exactly —
    which the PR 3 golden tests pin to the pre-scheduler behaviour."""

    def test_eager_churn_trial_matches_default(self):
        scenario = Scenario(
            name="test-eager-identity",
            topology=SMALL,
            sampling=SamplingSpec(n_targets=10),
            protocol="daemon",
            daemon=churn_spec(
                initial_fraction=0.6,
                arrival_rate=0.8,
                departure_rate=0.8,
                session_length_ms=30 * CHURN_STEP_MS,
                warmup_ms=8 * CHURN_STEP_MS,
                min_members=16,
            ),
            n_queries=40,
            seed=23,
        )
        for factory in (
            lambda m: BeaconSearch(n_beacons=5, maintenance=m),
            lambda m: KargerRuhlSearch(maintenance=m),
        ):
            default = QueryEngine().run_trial(
                scenario, lambda: factory(None), 123
            )
            eager = QueryEngine().run_trial(
                scenario, lambda: factory("eager"), 123
            )
            assert (default.found == eager.found).all()
            assert (
                default.maintenance_by_event == eager.maintenance_by_event
            ).all()
            assert (
                default.total_maintenance_probes
                == eager.total_maintenance_probes
            )


class TestDeferredSemantics:
    def test_lazy_defers_whole_bill_to_next_query(self, oracle):
        algorithm = BeaconSearch(n_beacons=6, maintenance="lazy")
        algorithm.build(oracle, np.arange(80), seed=7)
        assert algorithm.join(np.arange(80, 100), seed=1) == 0
        assert algorithm.leave(np.arange(0, 10), seed=2) == 0
        assert algorithm.has_pending_maintenance
        assert algorithm.pending_maintenance_events == 2
        assert algorithm.maintenance_probes_total == 0
        algorithm.query(150, seed=3)
        spent = algorithm.maintenance_probes_total
        assert spent > 0
        assert not algorithm.has_pending_maintenance
        # The query's flush is billed to the two buffered events.
        assert algorithm.maintenance_by_event.size == 2
        assert int(algorithm.maintenance_by_event.sum()) == spent
        # Already applied: the next quiet query spends nothing.
        algorithm.query(151, seed=4)
        assert algorithm.maintenance_probes_total == spent

    def test_coalesce_flushes_on_window(self, oracle):
        algorithm = KargerRuhlSearch(maintenance="coalesce:3")
        algorithm.build(oracle, np.arange(60), seed=7)
        assert algorithm.join([60, 61], seed=1) == 0
        assert algorithm.join([62], seed=2) == 0
        # Third event fills the window: one counted rebuild over the
        # current 64 members covers all three buffered events.
        spent = algorithm.join([63], seed=3)
        assert spent == 64 * 64
        assert algorithm.rebuild_count == 1
        assert not algorithm.has_pending_maintenance

    def test_flush_maintenance_is_explicit_and_idempotent(self, oracle):
        algorithm = BeaconSearch(n_beacons=6, maintenance="lazy")
        algorithm.build(oracle, np.arange(80), seed=7)
        algorithm.join(np.arange(80, 90), seed=1)
        spent = algorithm.flush_maintenance(seed=2)
        assert spent == 6 * 10  # beacons x net arrivals
        assert algorithm.flush_maintenance(seed=3) == 0

    def test_net_effect_join_then_leave_is_free(self, oracle):
        """A node that joins and leaves inside the buffer window never
        touches the index: the flush nets it out."""
        algorithm = BeaconSearch(n_beacons=6, maintenance="lazy")
        algorithm.build(oracle, np.arange(80), seed=7)
        algorithm.join(np.arange(80, 90), seed=1)
        algorithm.leave(np.arange(80, 90), seed=2)
        assert algorithm.flush_maintenance(seed=3) == 0

    def test_net_effect_skips_rebuild_entirely(self, oracle):
        """A rebuild scheme whose buffered events net out pays nothing —
        the whole point of coalescing join-then-leave churn."""
        algorithm = KargerRuhlSearch(maintenance="lazy")
        algorithm.build(oracle, np.arange(60), seed=7)
        algorithm.join([60, 61], seed=1)
        algorithm.leave([60, 61], seed=2)
        assert algorithm.flush_maintenance(seed=3) == 0
        assert algorithm.rebuild_count == 0

    def test_net_effect_leave_then_rejoin_keeps_index_entries(self, oracle):
        algorithm = BeaconSearch(n_beacons=6, maintenance="lazy")
        algorithm.build(oracle, np.arange(80), seed=7)
        algorithm.leave(np.arange(10, 20), seed=1)
        algorithm.join(np.arange(10, 20), seed=2)
        assert algorithm.flush_maintenance(seed=3) == 0
        # The index still answers over the full membership.
        result = algorithm.query(150, seed=4)
        assert result.found in set(int(m) for m in algorithm.members)

    def test_members_update_eagerly_while_index_defers(self, oracle):
        algorithm = BeaconSearch(n_beacons=6, maintenance="lazy")
        algorithm.build(oracle, np.arange(80), seed=7)
        algorithm.join([80, 81], seed=1)
        assert {80, 81} <= set(int(m) for m in algorithm.members)
        algorithm.leave([0, 1], seed=2)
        assert not {0, 1} & set(int(m) for m in algorithm.members)

    def test_coalesce_query_answers_from_stale_view(self, oracle):
        """Between flushes a coalescing index serves the membership it
        indexed — arrivals invisible, recent departures still eligible."""
        algorithm = RandomProbeSearch(budget=60, maintenance="coalesce:50")
        algorithm.build(oracle, np.arange(60), seed=7)
        algorithm.join(np.arange(60, 120), seed=1)
        result = algorithm.query(150, seed=2)
        assert algorithm.has_pending_maintenance  # window not reached
        assert result.found < 60  # only indexed members answered

    def test_build_resets_pending_state(self, oracle):
        algorithm = BeaconSearch(n_beacons=6, maintenance="lazy")
        algorithm.build(oracle, np.arange(80), seed=7)
        algorithm.join([80, 81], seed=1)
        algorithm.build(oracle, np.arange(80), seed=7)
        assert not algorithm.has_pending_maintenance
        assert algorithm.pending_maintenance_events == 0


class TestDeferredAccounting:
    """Defer-then-bill must sum to the eager bill within tolerance for
    incremental schemes, and to a window's worth *less* for rebuild
    schemes (that saving is the scheduler's purpose)."""

    EVENTS = [
        ("join", np.arange(80, 90)),
        ("leave", np.arange(0, 8)),
        ("join", np.arange(90, 100)),
        ("leave", np.arange(8, 16)),
        ("join", np.arange(100, 110)),
        ("leave", np.arange(16, 24)),
    ]

    def _run(self, factory, discipline):
        algorithm = factory(discipline)
        algorithm.build(
            MatrixOracle(self._matrix), np.arange(80), seed=7
        )
        for i, (kind, ids) in enumerate(self.EVENTS):
            getattr(algorithm, kind)(ids, seed=100 + i)
        algorithm.query(150, seed=5)  # lazy pays here
        algorithm.flush_maintenance(seed=6)  # coalesce pays any remainder
        return algorithm.maintenance_probes_total

    @pytest.fixture(autouse=True)
    def _world(self, uniform_matrix):
        self._matrix = uniform_matrix

    @pytest.mark.parametrize(
        "factory",
        [
            lambda m: BeaconSearch(n_beacons=6, maintenance=m),
            lambda m: MeridianSearch(maintenance=m),
        ],
    )
    def test_incremental_totals_within_tolerance(self, factory):
        eager = self._run(factory, "eager")
        for discipline in ("coalesce:3", "lazy"):
            deferred = self._run(factory, discipline)
            # Deferred application sees slightly different membership
            # sizes (and nets out intra-window churn), but the per-node
            # work is the same: declared tolerance is 40%.
            assert deferred <= eager * 1.4
            assert deferred >= eager * 0.3

    @pytest.mark.parametrize(
        "algorithm_class", [KargerRuhlSearch, TapestrySearch]
    )
    def test_rebuild_coalescing_saves_a_window_factor(self, algorithm_class):
        eager = self._run(lambda m: algorithm_class(maintenance=m), "eager")
        coalesced = self._run(
            lambda m: algorithm_class(maintenance=m), "coalesce:3"
        )
        # 6 events -> 6 rebuilds eager, 2 coalesced: ~3x fewer probes.
        assert coalesced < eager / 2


class TestStaleScoring:
    def test_departed_found_scores_as_miss(self, three_host_world):
        # Epoch 1: node 1 has left; a stale index returned it anyway.
        log = MembershipLog(np.array([1, 2]))
        log.append_event([], [1])
        exact, cluster = score_epochs(
            three_host_world,
            log,
            np.array([0, 1]),
            np.array([0, 0]),
            np.array([1, 1]),
            host_cluster=three_host_world.host_cluster,
        )
        assert exact.tolist() == [True, False]
        assert cluster.tolist() == [True, False]


class TestMeridianRingRepair:
    def _drained(self, uniform_matrix, ring_repair):
        oracle = MatrixOracle(uniform_matrix)
        algorithm = MeridianSearch(ring_repair=ring_repair)
        algorithm.build(oracle, np.arange(100), seed=7)
        # Mass departure: 70 of 100 members leave in waves.
        algorithm.leave(np.arange(0, 30), seed=1)
        algorithm.leave(np.arange(30, 55), seed=2)
        algorithm.leave(np.arange(55, 70), seed=3)
        return algorithm

    def test_repair_restores_ring_occupancy(self, uniform_matrix):
        repaired = self._drained(uniform_matrix, ring_repair=True)
        bare = self._drained(uniform_matrix, ring_repair=False)
        counts = lambda a: [  # noqa: E731
            a._overlay.nodes[int(m)].member_count() for m in a.members
        ]
        assert np.mean(counts(repaired)) > np.mean(counts(bare))

        # Repair pulls underfull nodes back to their per-node floor (half
        # their own peak occupancy, bounded by the live population).  A
        # single exchange round cannot *guarantee* it — replies overlap
        # and ring caps can evict — so near-universal recovery is the
        # contract.
        def at_floor(algorithm):
            n = algorithm.members.size
            ok = []
            for m in algorithm.members:
                node = algorithm._overlay.nodes[int(m)]
                floor = max(1, min(node.peak_occupancy, n - 1) // 2)
                ok.append(node.member_count() >= floor)
            return float(np.mean(ok))

        assert at_floor(repaired) >= 0.9
        # Without repair the drain leaves most nodes under their floor.
        assert at_floor(bare) < 0.5

    def test_repair_is_billed_as_maintenance(self, uniform_matrix):
        repaired = self._drained(uniform_matrix, ring_repair=True)
        bare = self._drained(uniform_matrix, ring_repair=False)
        assert bare.maintenance_probes_total == 0  # eviction is free
        assert repaired.maintenance_probes_total > 0

    def test_repaired_rings_hold_only_live_members(self, uniform_matrix):
        repaired = self._drained(uniform_matrix, ring_repair=True)
        live = set(int(m) for m in repaired.members)
        for node in repaired._overlay.nodes.values():
            assert set(node.all_members()) <= live

    def test_repair_helps_post_drain_accuracy(self, uniform_matrix):
        repaired = self._drained(uniform_matrix, ring_repair=True)
        members = repaired.members
        hits = 0
        for target in range(120, 150):
            result = repaired.query(target, seed=target)
            row = uniform_matrix[target, members]
            hits += uniform_matrix[target, result.found] <= np.median(row)
        assert hits >= 0.7 * 30


class TestMembershipLog:
    def test_reconstruction_matches_snapshots(self):
        rng = np.random.default_rng(3)
        members = np.arange(50)
        log = MembershipLog(members)
        snapshots = [members.copy()]
        for _ in range(40):
            leavers = rng.choice(members, size=rng.integers(0, 4), replace=False)
            members = members[~np.isin(members, leavers)]
            pool = np.setdiff1d(np.arange(120), members)
            joiners = np.sort(
                rng.choice(pool, size=rng.integers(0, 4), replace=False)
            )
            members = np.concatenate([members, joiners])
            log.append_event(joiners, leavers)
            snapshots.append(members.copy())
        assert log.n_epochs == len(snapshots)
        for epoch in range(len(snapshots)):
            assert (log.membership(epoch) == snapshots[epoch]).all()
        with pytest.raises(DataError):
            log.membership(len(snapshots))

    def test_snapshot_cost_is_events_plus_changes(self):
        """Regression for the churn-epoch memory hotspot: recording an
        event must cost O(changes), not O(|M|).  With 500 events of ~2
        changes each over 10k members, the old per-event array copies
        stored ~5M ids; the diff log must store exactly
        |initial| + total changes."""
        n_members, n_events = 10_000, 500
        log = MembershipLog(np.arange(n_members))
        total_changes = 0
        for event in range(n_events):
            joined = [n_members + event]
            left = [event]
            log.append_event(joined, left)
            total_changes += len(joined) + len(left)
        assert log.stored_entries == n_members + total_changes
        # The forbidden regime: anything proportional to events x |M|.
        assert log.stored_entries < n_events * n_members / 100


class TestServiceMode:
    """Service mode: a phased daemon scenario on one warm algorithm."""

    @pytest.fixture(scope="class")
    def service_scenario(self):
        return get_scenario("service-mode-restarts").with_(
            topology=SMALL,
            sampling=SamplingSpec(n_targets=10),
            phases=tuple(
                ServicePhase(p.name, p.daemon, n_queries=20)
                for p in get_scenario("service-mode-restarts").phases
            ),
        )

    def test_one_record_per_phase(self, service_scenario):
        result = QueryEngine().run_scenario(
            service_scenario, lambda: BeaconSearch(n_beacons=5)
        )
        assert [r.phase for r in result.records] == ["steady", "surge", "drain"]
        for record in result.records:
            assert record.n_queries == 20
            assert record.scheme == "beaconing"

    def test_warm_restart_carries_membership_across_phases(
        self, service_scenario
    ):
        records = QueryEngine().run_scenario(
            service_scenario, lambda: BeaconSearch(n_beacons=5)
        ).records
        # The surge phase grows the population the steady phase left;
        # the drain phase shrinks what the surge built.
        assert records[1].membership_size[-1] > records[0].membership_size[-1]
        assert records[2].membership_size[-1] < records[1].membership_size[-1]
        # Each phase starts from the membership the previous one left.
        assert records[1].membership_size[0] != records[0].membership_size[0]

    def test_no_rebuild_between_phases(self, service_scenario):
        """Warm restarts: the index survives phase boundaries."""
        algorithm = BeaconSearch(n_beacons=5)
        QueryEngine().run_scenario(service_scenario, lambda: algorithm)
        assert algorithm.rebuild_count == 0

    def test_service_trial_is_deterministic(self, service_scenario):
        run = lambda: QueryEngine().run_scenario(  # noqa: E731
            service_scenario, lambda: RandomProbeSearch(budget=8)
        )
        a, b = run(), run()
        for ra, rb in zip(a.records, b.records):
            assert (ra.targets == rb.targets).all()
            assert (ra.found == rb.found).all()
            assert (ra.membership_size == rb.membership_size).all()

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: BeaconSearch(n_beacons=5),
            lambda: KargerRuhlSearch(maintenance="coalesce:8"),
            MeridianSearch,
        ],
        ids=["beaconing", "karger-ruhl-coalesce", "meridian"],
    )
    def test_phase_records_conserve_maintenance(self, service_scenario, factory):
        """Each phase's record holds exactly its slice of the ledger, so
        the phase totals add up to the algorithm's maintenance counter:
        the boundary drain keeps a coalesce window from leaking a bill
        past its phase, and the first phase's warmup is on its books."""
        algorithms = []

        def build():
            algorithms.append(factory())
            return algorithms[-1]

        result = QueryEngine().run_scenario(
            service_scenario.with_(
                phases=tuple(
                    ServicePhase(
                        p.name,
                        replace(p.daemon, ring_repair_period_ms=30.0),
                        n_queries=p.n_queries,
                    )
                    for p in service_scenario.phases
                )
            ),
            build,
        )
        for record in result.records:
            assert record.n_churn_events > 0
            assert record.maintenance_by_event.shape == (record.n_churn_events,)
        n_phases = len(service_scenario.phases)
        assert len(result.records) == n_phases * len(algorithms)
        assert service_scenario.phases[0].daemon.warmup_ms > 0
        for index, algorithm in enumerate(algorithms):
            phases = result.records[index * n_phases:(index + 1) * n_phases]
            assert algorithm.maintenance_probes_total > 0
            assert (
                sum(r.total_maintenance_probes for r in phases)
                == algorithm.maintenance_probes_total
            )

    def test_session_timers_carry_across_phases(self, service_scenario):
        """Sessions opened in one phase expire in the next, even when the
        next phase has no random departures and opens no sessions."""
        steady, _, _ = service_scenario.phases
        quiet = churn_spec(arrival_rate=0.0, departure_rate=0.0, min_members=2)
        scenario = service_scenario.with_(
            phases=(
                ServicePhase("open", steady.daemon, n_queries=20),
                ServicePhase("expire", quiet, n_queries=60),
            )
        )
        first, second = QueryEngine().run_scenario(
            scenario, lambda: RandomProbeSearch(budget=8)
        ).records
        assert first.n_churn_events > 0
        # Only expiries can shrink the quiet phase's membership.
        assert second.n_churn_events > 0
        assert second.membership_size[-1] < second.membership_size[0]

    def test_run_trial_rejects_service_protocol(self, service_scenario):
        with pytest.raises(ConfigurationError, match="per phase"):
            QueryEngine().run_trial(
                service_scenario, lambda: RandomProbeSearch(), 1
            )

    def test_compare_rejects_service_protocol(self, service_scenario):
        with pytest.raises(ConfigurationError, match="service"):
            QueryEngine().compare(service_scenario, [RandomProbeSearch])

    def test_service_scenario_validation(self, service_scenario):
        with pytest.raises(ConfigurationError, match="phase"):
            Scenario(name="bad-service", topology=SMALL, protocol="daemon")
        with pytest.raises(ConfigurationError, match="not both"):
            service_scenario.with_(daemon=churn_spec())
        with pytest.raises(ConfigurationError, match="empty"):
            service_scenario.with_(phases=())
        with pytest.raises(ConfigurationError, match="phases"):
            Scenario(
                name="bad-static-phases",
                topology=SMALL,
                protocol="sampled",
                phases=(ServicePhase("p", churn_spec()),),
            )
        with pytest.raises(ConfigurationError, match="member pool"):
            service_scenario.with_(
                phases=(ServicePhase("p", churn_spec(min_members=500)),)
            )
        with pytest.raises(ConfigurationError):
            ServicePhase("", churn_spec())
        with pytest.raises(ConfigurationError):
            ServicePhase("p", churn_spec(), n_queries=0)


class TestMaintenanceLedger:
    """Every maintenance probe has an exact cause: sum(bills) + background
    equals ``maintenance_probes_total`` at any flush boundary, under every
    discipline."""

    def test_eager_bills_each_event_on_its_own_id(self, oracle):
        algorithm = BeaconSearch(n_beacons=6, maintenance="eager")
        algorithm.build(oracle, np.arange(80), seed=7)
        spent_join = algorithm.join(np.arange(80, 90), seed=1)
        spent_leave = algorithm.leave(np.arange(0, 5), seed=2)
        bills = algorithm.maintenance_by_event
        assert bills.tolist() == [spent_join, spent_leave]
        assert algorithm.maintenance_background_probes == 0
        assert bills.sum() == algorithm.maintenance_probes_total

    def test_empty_events_allocate_no_ids(self, oracle):
        algorithm = BeaconSearch(n_beacons=6, maintenance="eager")
        algorithm.build(oracle, np.arange(80), seed=7)
        algorithm.join(np.array([], dtype=int), seed=1)
        algorithm.leave(np.array([], dtype=int), seed=2)
        assert algorithm.maintenance_by_event.size == 0

    def test_lazy_flush_spreads_bill_over_buffered_events(self, oracle):
        algorithm = KargerRuhlSearch(maintenance="lazy")
        algorithm.build(oracle, np.arange(60), seed=7)
        algorithm.join([60, 61], seed=1)
        algorithm.leave([0], seed=2)
        algorithm.join([62], seed=3)
        assert algorithm.maintenance_by_event.tolist() == [0, 0, 0]
        algorithm.query(150, seed=4)  # lazy pays here
        bills = algorithm.maintenance_by_event
        assert bills.size == 3
        assert (bills > 0).all()
        # The deterministic floor split: shares differ by at most one,
        # with the remainder on the earliest ids.
        assert bills.max() - bills.min() <= 1
        assert np.all(np.diff(bills) <= 0)
        assert bills.sum() == algorithm.maintenance_probes_total

    def test_ledger_invariant_across_disciplines(self, oracle):
        for discipline in ("eager", "coalesce:3", "lazy", "lazy-partial"):
            algorithm = TapestrySearch(maintenance=discipline)
            algorithm.build(oracle, np.arange(60), seed=7)
            for i, (kind, ids) in enumerate(
                [("join", [60, 61]), ("leave", [0, 1]), ("join", [62])]
            ):
                getattr(algorithm, kind)(ids, seed=10 + i)
            algorithm.query(150, seed=20)
            algorithm.flush_maintenance(seed=21)
            bills = algorithm.maintenance_by_event
            assert bills.size == 3, discipline
            assert (
                bills.sum() + algorithm.maintenance_background_probes
                == algorithm.maintenance_probes_total
            ), discipline

    def test_departure_triggered_repair_bills_the_event(self, uniform_matrix):
        """Repair run from a leave has a membership cause: its probes land
        on the departure event's own bill, not on background."""
        algorithm = MeridianSearch(ring_repair=True)
        algorithm.build(MatrixOracle(uniform_matrix), np.arange(100), seed=7)
        algorithm.leave(np.arange(0, 30), seed=1)
        assert algorithm.maintenance_probes_total > 0
        assert algorithm.maintenance_background_probes == 0
        assert (
            algorithm.maintenance_by_event.sum()
            == algorithm.maintenance_probes_total
        )

    def test_periodic_repair_bills_the_background_bucket(self, uniform_matrix):
        """A periodic pass (the daemon's repair timer) has no membership
        cause: its probes accrue on the ledger's background bucket."""
        algorithm = MeridianSearch(ring_repair=False)
        algorithm.build(MatrixOracle(uniform_matrix), np.arange(100), seed=7)
        algorithm.leave(np.arange(0, 30), seed=1)  # eviction only, free
        assert algorithm.maintenance_probes_total == 0
        _, spent = algorithm.repair_rings(seed=2)
        assert spent > 0
        assert algorithm.maintenance_background_probes == spent
        assert algorithm.maintenance_by_event.sum() == 0
        assert algorithm.maintenance_probes_total == spent

    def test_build_resets_ledger(self, oracle):
        algorithm = BeaconSearch(n_beacons=6, maintenance="eager")
        algorithm.build(oracle, np.arange(80), seed=7)
        algorithm.join(np.arange(80, 90), seed=1)
        algorithm.build(oracle, np.arange(80), seed=7)
        assert algorithm.maintenance_by_event.size == 0
        assert algorithm.maintenance_background_probes == 0

    def test_charge_floor_split_unit(self):
        from repro.algorithms.base import MaintenanceLedger

        ledger = MaintenanceLedger()
        ids = [ledger.new_event() for _ in range(3)]
        ledger.charge(ids, 10)
        assert ledger.bills().tolist() == [4, 3, 3]
        ledger.charge([], 5)  # no cause on the books -> background
        assert ledger.background == 5
        assert ledger.total == 15


class TestPartialFreshness:
    """``lazy-partial`` answers must be bit-identical to ``lazy`` while
    paying a fraction of the maintenance probes on touch-sparse reads."""

    EVENTS = [
        ("join", np.arange(120, 125)),
        ("leave", np.arange(0, 5)),
        ("join", np.arange(125, 130)),
        ("leave", np.arange(5, 10)),
    ]

    def _run(self, oracle, factory, discipline):
        algorithm = factory(discipline)
        algorithm.build(oracle, np.arange(120), seed=7)
        answers = []
        seed = 100
        for kind, ids in self.EVENTS:
            getattr(algorithm, kind)(ids, seed=seed)
            seed += 1
            for q in range(2):
                result = algorithm.query(150 + q, seed=seed)
                seed += 1
                answers.append(
                    (result.found, result.found_latency_ms, result.probes)
                )
        # Drain what partial left pending, then one fully-flushed query:
        # the two disciplines must converge on the identical index.
        algorithm.flush_maintenance(seed=seed)
        result = algorithm.query(155, seed=seed + 1)
        answers.append((result.found, result.found_latency_ms, result.probes))
        return algorithm, answers

    @pytest.mark.parametrize(
        "factory",
        [
            lambda m: KargerRuhlSearch(maintenance=m),
            lambda m: TapestrySearch(maintenance=m),
        ],
        ids=["karger-ruhl", "tapestry"],
    )
    def test_partial_is_bit_identical_and_far_cheaper(self, oracle, factory):
        full, full_answers = self._run(oracle, factory, "lazy")
        partial, partial_answers = self._run(oracle, factory, "lazy-partial")
        assert full_answers == partial_answers
        assert full.rebuild_count > 0
        assert partial.rebuild_count == 0
        assert (
            partial.maintenance_probes_total
            < full.maintenance_probes_total / 3
        )
        # Both ledgers bill the same four events, exactly.
        assert partial.maintenance_by_event.size == len(self.EVENTS)
        assert (
            partial.maintenance_by_event.sum()
            == partial.maintenance_probes_total
        )

    def test_non_supporting_scheme_falls_back_to_full_flush(self, oracle):
        """A scheme without a region index under ``lazy-partial`` behaves
        exactly like ``lazy``."""
        lazy, lazy_answers = self._run(
            oracle, lambda m: BeaconSearch(n_beacons=6, maintenance=m), "lazy"
        )
        fallback, fallback_answers = self._run(
            oracle,
            lambda m: BeaconSearch(n_beacons=6, maintenance=m),
            "lazy-partial",
        )
        assert lazy_answers == fallback_answers
        assert (
            lazy.maintenance_probes_total == fallback.maintenance_probes_total
        )
        assert not fallback.has_pending_maintenance
        # The fallback is decided once, at construction.
        assert fallback.maintenance_discipline == "lazy"

    def test_touch_region_refreshes_only_touched_regions(self, oracle):
        algorithm = KargerRuhlSearch(maintenance="lazy-partial")
        algorithm.build(oracle, np.arange(60), seed=7)
        algorithm.join([60, 61], seed=1)
        touched = [3, 4, 5]
        spent = sum(algorithm.touch_region(node) for node in touched)
        assert spent == 3 * 62  # one region-sized refresh per touch
        # Touched regions are fresh; a second touch is free.
        assert sum(algorithm.touch_region(node) for node in touched) == 0
        # Untouched regions still pend: the buffer has not drained.
        assert algorithm.has_pending_maintenance
        assert algorithm.maintenance_probes_total == spent
        assert algorithm.maintenance_by_event.sum() == spent

    def test_touch_region_is_free_outside_partial_mode(self, oracle):
        algorithm = KargerRuhlSearch(maintenance="lazy")
        algorithm.build(oracle, np.arange(60), seed=7)
        algorithm.join([60, 61], seed=1)
        assert algorithm.touch_region(3) == 0
        assert algorithm.has_pending_maintenance
        spent = algorithm.flush_maintenance(seed=2)
        assert spent == 62 * 62  # one full counted rebuild
        assert not algorithm.has_pending_maintenance
        assert algorithm.flush_maintenance(seed=3) == 0

    def test_partial_mode_answers_see_live_membership(self, oracle):
        """Under partial freshness queries answer from the live members —
        unlike coalesce, which serves the stale indexed view."""
        algorithm = TapestrySearch(maintenance="lazy-partial")
        algorithm.build(oracle, np.arange(60), seed=7)
        algorithm.leave(np.arange(0, 30), seed=1)
        for q in range(5):
            result = algorithm.query(150, seed=2 + q)
            assert result.found >= 30


class TestEventsPerQuery:
    def test_events_per_query_validation(self):
        with pytest.raises(ConfigurationError):
            churn_spec(events_per_query=0)

    def test_registered_lazy_index_scenario_runs(self):
        scenario = get_scenario("churn-lazy-index").with_(
            topology=SMALL, n_queries=12, sampling=SamplingSpec(n_targets=10)
        )
        record = QueryEngine().run_trial(
            scenario, lambda: RandomProbeSearch(budget=8), 7
        )
        assert record.n_queries == 12
        # ~8 membership ticks per query: far more events than queries.
        assert record.n_churn_events > record.n_queries

    def test_lazy_beats_eager_on_sparse_queries(self):
        """The scenario's reason to exist: under ~8 events/query, lazy and
        coalesce-8 apply a fraction of eager's rebuilds."""
        scenario = get_scenario("churn-lazy-index").with_(
            topology=SMALL, n_queries=12, sampling=SamplingSpec(n_targets=10)
        )
        totals = {}
        for discipline in ("eager", "lazy"):
            record = QueryEngine().run_trial(
                scenario,
                lambda: KargerRuhlSearch(maintenance=discipline),
                7,
            )
            totals[discipline] = record.total_maintenance_probes
        assert totals["lazy"] < totals["eager"] / 3
