"""Tests for the discrete-event engine and latency-faithful network."""

import numpy as np
import pytest

from repro.netsim.engine import EventLoop
from repro.netsim.network import Message, Network, SimNode
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

    def test_run_until_stops_at_boundary(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, fired.append, "early")
        loop.schedule(10.0, fired.append, "late")
        loop.run_until(5.0)
        assert fired == ["early"]
        assert loop.now == 5.0
        loop.run()
        assert fired == ["early", "late"]

    def test_run_until_backwards_rejected(self):
        loop = EventLoop()
        loop.run_until(5.0)
        with pytest.raises(SimulationError):
            loop.run_until(1.0)

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


class _Echo(SimNode):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = []

    def on_message(self, message: Message):
        self.received.append((message.kind, self.network.loop.now))
        if message.kind == "ping":
            self.send(message.src, "pong")


def two_node_net(latency_ms=10.0, loss=0.0):
    loop = EventLoop()
    oracle = MatrixOracle(np.array([[0.0, latency_ms], [latency_ms, 0.0]]))
    net = Network(loop, oracle, loss_rate=loss, seed=0)
    nodes = [_Echo(0), _Echo(1)]
    for node in nodes:
        net.attach(node)
    return loop, net, nodes


class TestNetwork:
    def test_one_way_delay_is_half_rtt(self):
        loop, net, nodes = two_node_net(latency_ms=10.0)
        nodes[0].send(1, "ping")
        loop.run()
        assert nodes[1].received[0] == ("ping", 5.0)
        # Reply arrives after a full RTT at the originator.
        assert nodes[0].received[0] == ("pong", 10.0)

    def test_duplicate_node_rejected(self):
        loop, net, nodes = two_node_net()
        with pytest.raises(SimulationError):
            net.attach(_Echo(0))

    def test_unknown_destination(self):
        loop, net, nodes = two_node_net()
        with pytest.raises(SimulationError):
            nodes[0].send(99, "ping")

    def test_loss_drops_messages(self):
        loop, net, nodes = two_node_net(loss=0.999)
        for _ in range(50):
            nodes[0].send(1, "ping")
        loop.run()
        assert net.messages_lost > 40

    def test_timers_bypass_loss(self):
        loop, net, nodes = two_node_net(loss=0.999)
        nodes[0].set_timer(3.0, "tick")
        loop.run()
        assert nodes[0].received == [("tick", 3.0)]

    def test_detached_node_cannot_send(self):
        node = _Echo(7)
        with pytest.raises(SimulationError):
            node.send(0, "ping")

    def test_counters(self):
        loop, net, nodes = two_node_net()
        nodes[0].send(1, "ping")
        loop.run()
        assert net.messages_sent == 2  # ping + pong
        assert net.messages_delivered == 2


def fan_out_net(n=8, loss=0.0, seed=0):
    rng = np.random.default_rng(42)
    matrix = rng.uniform(5.0, 50.0, size=(n, n))
    matrix = (matrix + matrix.T) / 2.0
    np.fill_diagonal(matrix, 0.0)
    loop = EventLoop()
    net = Network(loop, MatrixOracle(matrix), loss_rate=loss, seed=seed)
    nodes = [_Echo(i) for i in range(n)]
    for node in nodes:
        net.attach(node)
    return loop, net, nodes


class TestSendMany:
    def test_matches_scalar_sends_bit_for_bit(self):
        """Same seed: identical delivery times and loss pattern as a loop."""
        for loss in (0.0, 0.4):
            loop_a, net_a, nodes_a = fan_out_net(loss=loss, seed=7)
            loop_b, net_b, nodes_b = fan_out_net(loss=loss, seed=7)
            dsts = list(range(1, 8))
            for dst in dsts:
                nodes_a[0].send(dst, "probe")
            net_b.send_many(0, dsts, "probe")
            loop_a.run()
            loop_b.run()
            assert net_a.messages_sent == net_b.messages_sent
            assert net_a.messages_lost == net_b.messages_lost
            for a, b in zip(nodes_a[1:], nodes_b[1:]):
                assert a.received == b.received

    def test_payloads_follow_their_destinations_through_loss(self):
        class _Recorder(SimNode):
            def __init__(self, node_id):
                super().__init__(node_id)
                self.payloads = []

            def on_message(self, message):
                self.payloads.append(message.payload)

        rng = np.random.default_rng(42)
        matrix = rng.uniform(5.0, 50.0, size=(8, 8))
        matrix = (matrix + matrix.T) / 2.0
        np.fill_diagonal(matrix, 0.0)
        loop = EventLoop()
        net = Network(loop, MatrixOracle(matrix), loss_rate=0.5, seed=3)
        nodes = [_Recorder(i) for i in range(8)]
        for node in nodes:
            net.attach(node)
        dsts = list(range(1, 8))
        net.send_many(0, dsts, "tag", payloads=[f"p{d}" for d in dsts])
        loop.run()
        assert net.messages_lost > 0  # loss actually exercised the filter
        for dst in dsts:
            # Either lost, or delivered with *its own* payload.
            assert nodes[dst].payloads in ([], [f"p{dst}"])
        assert sum(len(n.payloads) for n in nodes) + net.messages_lost == 7

    def test_rejects_unknown_destination_and_bad_payloads(self):
        loop, net, nodes = fan_out_net()
        with pytest.raises(SimulationError):
            net.send_many(0, [1, 99], "x")
        with pytest.raises(SimulationError):
            net.send_many(0, [1, 2], "x", payloads=["only-one"])

    def test_empty_fan_out_is_a_no_op(self):
        loop, net, nodes = fan_out_net()
        net.send_many(0, [], "x")
        assert net.messages_sent == 0
        assert loop.pending == 0
