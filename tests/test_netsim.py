"""Tests for the discrete-event engine and the daemon's network wire."""

import numpy as np
import pytest

from repro.netsim.engine import EventLoop
from repro.netsim.network import FaultModel, Network
from repro.topology.oracle import MatrixOracle
from repro.util.errors import SimulationError


class TestEventLoop:
    def test_events_fire_in_time_order(self):
        loop = EventLoop()
        fired = []
        loop.schedule(5.0, fired.append, "b")
        loop.schedule(1.0, fired.append, "a")
        loop.schedule(9.0, fired.append, "c")
        loop.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self):
        loop = EventLoop()
        fired = []
        for tag in range(5):
            loop.schedule(1.0, fired.append, tag)
        loop.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_clock_advances(self):
        loop = EventLoop()
        times = []
        loop.schedule(2.5, lambda: times.append(loop.now))
        loop.run()
        assert times == [2.5]
        assert loop.now == 2.5

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventLoop().schedule(-1.0, lambda: None)

    def test_cancellation(self):
        loop = EventLoop()
        fired = []
        handle = loop.schedule(1.0, fired.append, "x")
        handle.cancel()
        loop.run()
        assert fired == []

    def test_events_scheduled_during_run(self):
        loop = EventLoop()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                loop.schedule(1.0, chain, n + 1)

        loop.schedule(0.0, chain, 0)
        loop.run()
        assert fired == [0, 1, 2, 3]
        assert loop.processed == 4

    def test_max_events_bound(self):
        loop = EventLoop()

        def rescheduling():
            loop.schedule(1.0, rescheduling)

        loop.schedule(0.0, rescheduling)
        loop.run(max_events=10)
        assert loop.processed == 10

    def test_cancelled_events_do_not_consume_max_events_budget(self):
        """Regression: a drained cancellation storm must not starve real
        events — only events that actually fire count toward the budget."""
        loop = EventLoop()
        fired = []
        handles = [loop.schedule(1.0, fired.append, i) for i in range(50)]
        for handle in handles:
            handle.cancel()
        for i in range(5):
            loop.schedule(2.0, fired.append, 100 + i)
        loop.run(max_events=5)
        assert fired == [100, 101, 102, 103, 104]
        assert loop.processed == 5

    def test_cancelled_events_still_drain_from_queue(self):
        loop = EventLoop()
        handle = loop.schedule(1.0, lambda: None)
        handle.cancel()
        loop.schedule(2.0, lambda: None)
        loop.run(max_events=1)
        assert loop.pending == 0

    def test_pending_excludes_cancelled_events(self):
        """Regression: ``pending`` used to count cancelled entries."""
        loop = EventLoop()
        handles = [loop.schedule(1.0, lambda: None) for _ in range(10)]
        assert loop.pending == 10
        for handle in handles[:7]:
            handle.cancel()
        assert loop.pending == 3
        # Double-cancel and cancel-after-fire must not corrupt the count.
        handles[0].cancel()
        assert loop.pending == 3
        loop.run()
        assert loop.pending == 0
        assert loop.processed == 3
        for handle in handles:
            handle.cancel()  # all fired or cancelled: no-ops
        assert loop.pending == 0

    def test_compaction_shrinks_the_heap(self):
        loop = EventLoop()
        fired = []
        keepers = [loop.schedule(float(i), fired.append, i) for i in range(5)]
        storm = [loop.schedule(10.0, fired.append, -1) for _ in range(500)]
        assert loop.queue_size == 505
        for handle in storm:
            handle.cancel()
        # The cancellation storm crossed the compaction threshold: dead
        # entries were swept, so the heap carries at most one threshold's
        # worth of them (the post-compaction stragglers) — not all 500.
        assert loop.pending == 5
        assert loop.queue_size - loop.pending < 64
        loop.run()
        assert fired == [0, 1, 2, 3, 4]
        assert all(not h.active for h in keepers)

    def test_compaction_preserves_firing_order(self):
        loop = EventLoop()
        fired = []
        # Interleave keepers and victims at identical times, so only the
        # (time, sequence) keys can order the survivors.
        victims = []
        for i in range(200):
            if i % 2:
                victims.append(loop.schedule(5.0, fired.append, i))
            else:
                loop.schedule(5.0, fired.append, i)
        for handle in victims:
            handle.cancel()
        loop.run()
        assert fired == [i for i in range(200) if i % 2 == 0]

    def test_handle_active_property(self):
        loop = EventLoop()
        handle = loop.schedule(1.0, lambda: None)
        assert handle.active
        loop.run()
        assert not handle.active
        other = loop.schedule(1.0, lambda: None)
        other.cancel()
        assert not other.active


class TestNetwork:
    """The daemon's wire: path RTTs and the fault layer's relay total."""

    def test_path_rtts_are_one_oracle_row(self, uniform_matrix):
        net = Network(EventLoop(), MatrixOracle(uniform_matrix))
        dsts = [3, 9, 1]
        assert np.array_equal(net.path_rtts(0, dsts), uniform_matrix[0, dsts])

    def test_apply_faults_books_relay_detours(self, uniform_matrix):
        n = uniform_matrix.shape[0]
        natted = np.zeros(n, dtype=bool)
        natted[5] = True
        relay_of = np.arange(n)
        relay_of[5] = 40
        model = FaultModel(np.zeros(n), natted=natted, relay_of=relay_of)
        net = Network(EventLoop(), MatrixOracle(uniform_matrix), model)
        srcs = np.array([0, 1, 2])
        dsts = np.array([5, 5, 7])
        base = uniform_matrix[srcs, dsts]
        rng = np.random.default_rng(0)
        _, answered, stats = net.apply_faults(rng, srcs, dsts, base)
        assert answered.all()
        assert stats["relayed"] == 2
        assert net.relay_extra_ms == stats["relay_extra_ms"] > 0.0
        net.apply_faults(rng, srcs, dsts, base)
        assert net.relay_extra_ms == 2 * stats["relay_extra_ms"]
