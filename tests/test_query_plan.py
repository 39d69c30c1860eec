"""Tests for the stepwise (sans-io) query-plan protocol.

The contract under test: driving :meth:`query_plan` to exhaustion with
instantaneous delivery and eager maintenance is **bit-identical** to the
blocking :meth:`query` — same rng draws, same probes, same result — for
every scheme.
"""

import numpy as np
import pytest

from repro.algorithms import (
    BeaconSearch,
    KargerRuhlSearch,
    MeridianSearch,
    PicSearch,
    RandomProbeSearch,
    TapestrySearch,
    TiersSearch,
)
from repro.harness import NoiseSpec
from repro.util.errors import ConfigurationError

#: Every scheme in the library.
SCHEMES = [
    lambda: RandomProbeSearch(budget=8),
    lambda: KargerRuhlSearch(samples_per_scale=4, max_rounds=12),
    lambda: TapestrySearch(id_digits=4, probe_budget_per_level=8),
    lambda: TiersSearch(branching=8),
    MeridianSearch,
    lambda: BeaconSearch(n_beacons=6, probe_budget=8),
    PicSearch,
]

IDS = [
    "random-probe", "karger-ruhl", "tapestry", "tiers",
    "meridian", "beaconing", "pic",
]


def drain_plan(plan):
    """Drive a plan to completion with zero delay; return (result, rounds)."""
    rounds = []
    try:
        while True:
            rounds.append(plan.send(None))
    except StopIteration as stop:
        return stop.value, rounds


def build_pair(factory, world, seed=31, n_members=90, noise=None):
    """Two identically-built twins of one scheme on the same world."""
    members = np.arange(n_members)
    pair = []
    for _ in range(2):
        algorithm = factory()
        probe_oracle = (
            noise.wrap(world.oracle, seed) if noise is not None else None
        )
        algorithm.build(
            world.oracle, members, seed=seed, probe_oracle=probe_oracle
        )
        pair.append(algorithm)
    return pair


def assert_results_identical(blocking, planned):
    assert planned.target == blocking.target
    assert planned.found == blocking.found
    assert planned.found_latency_ms == blocking.found_latency_ms
    assert planned.probes == blocking.probes
    assert planned.aux_probes == blocking.aux_probes
    assert planned.hops == blocking.hops
    assert planned.path == blocking.path


class TestZeroDelayEquivalence:
    @pytest.mark.parametrize("factory", SCHEMES, ids=IDS)
    def test_plan_reproduces_query_bit_identically(self, clustered_world, factory):
        direct, stepped = build_pair(factory, clustered_world)
        target = clustered_world.topology.n_nodes - 1
        for query_seed in (7, 8):
            blocking = direct.query(target, seed=query_seed)
            planned, rounds = drain_plan(
                stepped.query_plan(target, seed=query_seed)
            )
            assert_results_identical(blocking, planned)
            assert sum(len(r) for r in rounds) == planned.probes + planned.aux_probes

    @pytest.mark.parametrize("factory", SCHEMES, ids=IDS)
    def test_native_plans_match_under_noise(self, clustered_world, factory):
        """A stateful noisy oracle is consumed identically by both paths."""
        noise = NoiseSpec(sigma=0.08, additive_ms=0.2, seed=5)
        direct, stepped = build_pair(factory, clustered_world, noise=noise)
        target = clustered_world.topology.n_nodes - 2
        blocking = direct.query(target, seed=3)
        planned, _ = drain_plan(stepped.query_plan(target, seed=3))
        assert_results_identical(blocking, planned)

    def test_shared_rng_stream_equivalence(self, clustered_world):
        """Threading one generator through many queries matches both paths."""
        direct, stepped = build_pair(MeridianSearch, clustered_world)
        rng_a = np.random.default_rng(44)
        rng_b = np.random.default_rng(44)
        target = clustered_world.topology.n_nodes - 3
        for _ in range(4):
            blocking = direct.query(target, seed=rng_a)
            planned, _ = drain_plan(stepped.query_plan(target, seed=rng_b))
            assert_results_identical(blocking, planned)


class TestPlanStructure:
    def test_rounds_are_probe_op_batches(self, clustered_world):
        algorithm = MeridianSearch()
        # Members spread over every cluster, so ring bands are populated.
        target = clustered_world.topology.n_nodes - 1
        algorithm.build(clustered_world.oracle, np.arange(target), seed=1)
        multi_round = 0
        for seed in range(6):
            result, rounds = drain_plan(algorithm.query_plan(target, seed=seed))
            multi_round += len(rounds) >= 2
            for batch in rounds:
                assert batch, "plans must not yield empty rounds"
                assert batch.srcs.shape == batch.dsts.shape == (len(batch),)
                assert batch.rtts_ms.shape == (len(batch),)
                assert (batch.dsts == target).all()
                assert (batch.rtts_ms > 0).all()
            # The first round is the start node's own probe.
            assert len(rounds[0]) == 1
            assert rounds[0].srcs[0] == result.path[0]
        # The descent yields a ring sweep beyond the start probe for at
        # least some start nodes.
        assert multi_round >= 1

    def test_beaconing_round_boundaries(self, clustered_world):
        """Beaconing: beacon sweep then shortlist fan-out."""
        algorithm = BeaconSearch(n_beacons=6, probe_budget=8)
        algorithm.build(clustered_world.oracle, np.arange(80), seed=1)
        target = clustered_world.topology.n_nodes - 1
        result, rounds = drain_plan(algorithm.query_plan(target, seed=2))
        assert len(rounds) >= 2
        assert len(rounds[0]) == 6  # one probe per beacon
        assert result.found in np.arange(80)

    def test_query_plan_before_build_raises(self):
        with pytest.raises(ConfigurationError):
            RandomProbeSearch().query_plan(0)

    def test_concurrent_plans_keep_private_probe_bills(self, clustered_world):
        """Interleaving two plans on one algorithm cannot mix their bills."""
        algorithm = KargerRuhlSearch(samples_per_scale=4, max_rounds=12)
        algorithm.build(clustered_world.oracle, np.arange(90), seed=31)
        twin = KargerRuhlSearch(samples_per_scale=4, max_rounds=12)
        twin.build(clustered_world.oracle, np.arange(90), seed=31)
        n = clustered_world.topology.n_nodes
        # Serial references from an identically-seeded twin.
        ref_a = twin.query(n - 1, seed=11)
        ref_b = twin.query(n - 2, seed=11)
        plan_a = algorithm.query_plan(n - 1, seed=11)
        plan_b = algorithm.query_plan(n - 2, seed=11)
        done_a = done_b = False
        result_a = result_b = None
        while not (done_a and done_b):  # strict alternation
            if not done_a:
                try:
                    plan_a.send(None)
                except StopIteration as stop:
                    result_a, done_a = stop.value, True
            if not done_b:
                try:
                    plan_b.send(None)
                except StopIteration as stop:
                    result_b, done_b = stop.value, True
        assert result_a.probes == ref_a.probes
        assert result_b.probes == ref_b.probes
        assert result_a.found == ref_a.found
        assert result_b.found == ref_b.found


class TestLazyMaintenanceThroughPlans:
    def test_lazy_flush_bills_the_plan(self, clustered_world):
        """A stale lazy index flushes when the plan starts, as query() does."""
        pair = []
        for _ in range(2):
            algorithm = KargerRuhlSearch(
                samples_per_scale=4, max_rounds=12, maintenance="lazy"
            )
            algorithm.build(clustered_world.oracle, np.arange(80), seed=9)
            algorithm.join(np.arange(80, 90), seed=10)
            pair.append(algorithm)
        direct, stepped = pair
        assert stepped.has_pending_maintenance
        target = clustered_world.topology.n_nodes - 1
        blocking = direct.query(target, seed=12)
        plan = stepped.query_plan(target, seed=12)
        assert stepped.has_pending_maintenance  # flush waits for plan start
        planned, _ = drain_plan(plan)
        assert not stepped.has_pending_maintenance
        # The plan-start flush is billed to the buffered event, exactly as
        # the blocking query's flush is.
        assert (
            stepped.maintenance_probes_total
            == direct.maintenance_probes_total
            > 0
        )
        assert (
            stepped.maintenance_by_event.tolist()
            == direct.maintenance_by_event.tolist()
        )
        assert_results_identical(blocking, planned)

    def test_coalesce_plan_answers_from_stale_view(self, clustered_world):
        """Under coalesce the plan sees the indexed (stale) member view."""
        pair = []
        for _ in range(2):
            algorithm = RandomProbeSearch(budget=60, maintenance="coalesce:64")
            algorithm.build(clustered_world.oracle, np.arange(60), seed=9)
            algorithm.join(np.arange(60, 100), seed=10)
            pair.append(algorithm)
        direct, stepped = pair
        target = clustered_world.topology.n_nodes - 1
        blocking = direct.query(target, seed=12)
        planned, rounds = drain_plan(stepped.query_plan(target, seed=12))
        assert_results_identical(blocking, planned)
        probed = {int(src) for batch in rounds for src in batch.srcs}
        assert probed <= set(range(60))  # arrivals not yet indexed
