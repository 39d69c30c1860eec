"""Tests for the observability layer: spans, metrics, export, CLI.

The load-bearing property is **passivity**: turning ``DaemonSpec.trace``
on must be bit-identical — answers, per-query timelines, fault bills and
maintenance ledgers — for every scheme and under faults, because the
tracer reads only the event loop's clock and counters the daemon
already keeps (zero rng draws; statically pinned by the
``obs-passivity`` lint rule, pinned at runtime here).

The second property is **exact tiling**: within one query the non-root
spans partition ``[arrival, finish]`` — every simulated millisecond of
time-to-answer is attributed to exactly one phase — which is what makes
the ``repro-trace`` critical-path view an accounting identity rather
than an approximation.
"""

import dataclasses
import json

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
from repro.harness import DaemonSpec, FaultSpec, QueryEngine, SamplingSpec
from repro.harness.scenario import TraceSpec
from repro.latency.builder import build_clustered_oracle
from repro.obs.cli import main as trace_main
from repro.obs.cli import render_summary, render_timeline, slowest_query
from repro.obs.export import (
    TraceDump,
    check_nesting,
    dump_trace_jsonl,
    load_trace_jsonl,
    validate_trace,
)
from repro.obs.metrics import (
    PROBE_COUNT_EDGES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    populate_span_histograms,
    sample_times,
)
from repro.obs.trace import Span, Tracer, spans_by_query
from repro.topology.clustered import ClusteredConfig
from repro.util.errors import ConfigurationError, SimulationError

SMALL = ClusteredConfig(n_clusters=6, end_networks_per_cluster=20, delta=0.2)

SCHEMES = [
    ("random-probe", lambda: RandomProbeSearch(budget=8)),
    ("karger-ruhl", lambda: KargerRuhlSearch(samples_per_scale=4, max_rounds=12)),
    ("tapestry", lambda: TapestrySearch(id_digits=4, probe_budget_per_level=8)),
    ("tiers", lambda: TiersSearch(branching=8)),
    ("meridian", MeridianSearch),
    ("beaconing", lambda: BeaconSearch(n_beacons=6, probe_budget=8)),
    ("pic", PicSearch),
]

CHURN_SPEC = DaemonSpec(
    mean_interarrival_ms=30.0,
    per_node_concurrency=2,
    initial_fraction=0.7,
    min_members=32,
    mean_event_interval_ms=120.0,
    departure_rate=0.6,
    arrival_rate=0.6,
)

TRACED_SPEC = dataclasses.replace(CHURN_SPEC, trace=TraceSpec())

#: A genuinely broken network (same shape as ``examples/trace_a_query.py``):
#: enough loss, NAT and outage to exhaust retransmit ladders, force
#: whole-plan retries and relay detours — every fault tag appears.  The
#: deadline sits past the example's 800 ms: a plan the outage cuts off
#: fails at +700 ms and retries at +800 ms, and a retry starting at the
#: deadline would not start, so the retry chains need the later deadline.
FAULT_SPEC = DaemonSpec(
    mean_interarrival_ms=40.0,
    per_node_concurrency=2,
    initial_fraction=0.7,
    min_members=32,
    mean_event_interval_ms=400.0,
    arrival_rate=0.3,
    departure_rate=0.3,
    faults=FaultSpec(
        base_loss_rate=0.1,
        nat_fraction=0.3,
        outages=((0.0, 1500.0, (0,)),),
        probe_timeout_ms=100.0,
        max_retransmits=2,
        query_retry_ms=100.0,
        deadline_ms=1000.0,
    ),
    trace=TraceSpec(),
)


@pytest.fixture(scope="module")
def small_world():
    return build_clustered_oracle(SMALL, seed=99)


def run_daemon(world, factory, spec, n_queries=25, seed=5, **kwargs):
    return QueryEngine().run_daemon_trial(
        world,
        factory(),
        spec,
        sampling=SamplingSpec(n_targets=30),
        n_queries=n_queries,
        seed=seed,
        **kwargs,
    )


def run_fault_daemon(world, trace):
    spec = FAULT_SPEC if trace else dataclasses.replace(FAULT_SPEC, trace=None)
    return run_daemon(
        world,
        lambda: KargerRuhlSearch(samples_per_scale=4, max_rounds=12),
        spec,
        n_queries=30,
    )


def assert_records_identical(base, other):
    """Bit-identity of everything the run *computes* (not what it reports)."""
    assert np.array_equal(base.targets, other.targets)
    assert np.array_equal(base.found, other.found)
    assert np.array_equal(base.probes, other.probes)
    assert np.array_equal(base.arrival_ms, other.arrival_ms)
    assert np.array_equal(base.start_ms, other.start_ms)
    assert np.array_equal(base.finish_ms, other.finish_ms)
    assert np.array_equal(base.probe_rounds, other.probe_rounds)
    assert base.makespan_ms == other.makespan_ms
    assert base.n_churn_events == other.n_churn_events
    assert base.total_maintenance_probes == other.total_maintenance_probes
    for name in ("maintenance_by_event", "probe_retransmits", "relayed_probes",
                 "probe_timeouts", "probe_drops", "query_retries"):
        left, right = getattr(base, name), getattr(other, name)
        if left is None or right is None:
            assert left is None and right is None, name
        else:
            assert np.array_equal(left, right), name


def assert_span_streams_equal(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert (a.name, a.query, a.seq, a.parent) == (b.name, b.query, b.seq, b.parent)
        assert a.start_ms == b.start_ms and a.end_ms == b.end_ms
        assert a.attrs == b.attrs


def assert_exact_tiling(spans):
    """Non-root child spans tile each query's [arrival, finish] exactly."""
    grouped = spans_by_query(spans)
    assert grouped, "trace holds no query spans"
    for query, group in sorted(grouped.items()):
        root = next(s for s in group if s.seq == 0)
        children = [s for s in group if s.seq != 0 and s.name != "dispatch"]
        assert children[0].start_ms == root.start_ms, query
        assert children[-1].end_ms == root.end_ms, query
        covered = sum(s.duration_ms for s in children)
        assert abs(covered - root.duration_ms) < 1e-9, query


# -- tracer / span-stream unit behaviour -------------------------------------


class TestTracer:
    def test_open_twice_is_an_error(self):
        tracer = Tracer()
        tracer.open(0, "probe_round", 1.0)
        with pytest.raises(SimulationError, match="already has an open"):
            tracer.open(0, "plan_retry", 2.0)

    def test_close_without_open_is_a_noop(self):
        tracer = Tracer()
        tracer.close(0, 5.0)
        assert tracer.spans == []

    def test_root_with_open_span_is_an_error(self):
        tracer = Tracer()
        tracer.open(3, "probe_round", 1.0)
        with pytest.raises(SimulationError, match="finished with an open"):
            tracer.root(3, 0.0, 9.0)

    def test_sorted_spans_rejects_dangling_opens(self):
        tracer = Tracer()
        tracer.open(7, "probe_round", 1.0)
        with pytest.raises(SimulationError, match="still open"):
            tracer.sorted_spans()

    def test_seq_numbering_and_canonical_order(self):
        tracer = Tracer()
        tracer.emit("queue_wait", 1, 10.0, 12.0)
        tracer.emit("probe_round", 1, 12.0, 20.0)
        tracer.emit("queue_wait", 0, 10.0, 10.0)
        tracer.maintenance(10.0, 10.0, event_ids=[0], probes=4, kind="eager")
        tracer.root(1, 10.0, 20.0)
        tracer.root(0, 10.0, 10.0)
        stream = tracer.sorted_spans()
        # Equal start times: maintenance (query None) first, then query
        # order, then per-query seq (root 0 before children).
        assert [(s.name, s.query, s.seq) for s in stream] == [
            ("maintenance_flush", None, 0),
            ("query", 0, 0),
            ("queue_wait", 0, 1),
            ("query", 1, 0),
            ("queue_wait", 1, 1),
            ("probe_round", 1, 2),
        ]

# -- metrics registry unit behaviour -----------------------------------------


class TestMetrics:
    def test_counter_totals_and_series(self):
        counter = Counter()
        counter.inc(10.0)
        counter.inc(30.0, by=3)
        assert counter.total == 4
        assert counter.series_at(np.array([0.0, 10.0, 20.0, 30.0])).tolist() == [
            0, 1, 1, 4,
        ]

    def test_counter_rejects_negative_increments(self):
        with pytest.raises(ConfigurationError, match=">= 0"):
            Counter().inc(0.0, by=-1)

    def test_empty_series_samples_to_zero(self):
        assert Gauge().series_at(np.array([0.0, 5.0])).tolist() == [0, 0]

    def test_gauge_tracks_level_changes(self):
        gauge = Gauge()
        gauge.add(1.0, +2)
        gauge.add(2.0, -1)
        assert gauge.series_at(np.array([0.5, 1.0, 3.0])).tolist() == [0, 2, 1]

    def test_series_is_tie_order_independent(self):
        # Two breakpoint streams with tied timestamps in opposite orders
        # sample identically.
        forward, backward = Gauge(), Gauge()
        forward.extend(np.array([5.0, 5.0]), np.array([+3, -1]))
        backward.extend(np.array([5.0, 5.0]), np.array([-1, +3]))
        grid = np.array([4.0, 5.0, 6.0])
        assert np.array_equal(forward.series_at(grid), backward.series_at(grid))

    def test_histogram_buckets_and_overflow(self):
        hist = Histogram([1.0, 2.0, 4.0])
        hist.observe_many([0.5, 1.0, 3.0, 100.0])
        assert hist.counts.tolist() == [1, 1, 1, 1]
        assert hist.total == 4

    def test_histogram_rejects_bad_edges(self):
        with pytest.raises(ConfigurationError, match="increasing"):
            Histogram([2.0, 1.0])

    def test_sample_times_grid(self):
        assert sample_times(250.0, 100.0).tolist() == [0.0, 100.0, 200.0]
        with pytest.raises(ConfigurationError, match="positive"):
            sample_times(100.0, 0.0)

    def test_sample_block_is_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("drops").inc(1.0)
        registry.histogram("sizes", PROBE_COUNT_EDGES).observe(3.0)
        block = registry.sample(np.array([0.0, 2.0]))
        payload = json.dumps(block.to_dict())
        assert json.loads(payload)["series"]["drops"] == [0, 1]


# -- passivity: tracing changes nothing --------------------------------------


class TestTracePassivity:
    @pytest.mark.parametrize("name,factory", SCHEMES, ids=[s[0] for s in SCHEMES])
    def test_trace_is_bit_identical_per_scheme(self, small_world, name, factory):
        plain = run_daemon(small_world, factory, CHURN_SPEC)
        traced = run_daemon(small_world, factory, TRACED_SPEC)
        assert_records_identical(plain, traced)
        assert plain.spans is None and plain.timeseries is None
        assert traced.spans is not None and traced.timeseries is not None

    def test_trace_off_allocates_no_tracer(self, small_world, monkeypatch):
        # Zero overhead by default means zero: with tracing off the hot
        # path must never even construct a Tracer.
        import repro.obs.trace as trace_mod

        def boom(self):
            raise AssertionError("Tracer allocated with tracing disabled")

        monkeypatch.setattr(trace_mod.Tracer, "__init__", boom)
        record = run_daemon(
            small_world, lambda: RandomProbeSearch(budget=8), CHURN_SPEC
        )
        assert record.spans is None

    def test_trace_is_bit_identical_under_faults(self, small_world):
        plain = run_fault_daemon(small_world, trace=False)
        traced = run_fault_daemon(small_world, trace=True)
        assert_records_identical(plain, traced)
        assert plain.availability == traced.availability

# -- replay: one canonical stream per seed -----------------------------------


class TestStreamReplay:
    def test_same_seed_replays_the_stream(self, small_world):
        factory = lambda: TiersSearch(branching=8)  # noqa: E731
        base, other = (
            run_daemon(small_world, factory, TRACED_SPEC, n_queries=30, seed=23)
            for _ in range(2)
        )
        assert_records_identical(base, other)
        assert_span_streams_equal(list(base.spans), list(other.spans))
        assert np.array_equal(base.timeseries.times_ms, other.timeseries.times_ms)
        for name in base.timeseries.series:
            assert np.array_equal(
                base.timeseries.series[name], other.timeseries.series[name]
            ), name
        for name, hist in base.timeseries.histograms.items():
            assert np.array_equal(
                hist["counts"], other.timeseries.histograms[name]["counts"]
            ), name


# -- structure: nesting, tiling and the phase decomposition ------------------


class TestSpanStructure:
    @pytest.fixture(scope="class")
    def churn_record(self, small_world):
        return run_daemon(
            small_world,
            lambda: KargerRuhlSearch(samples_per_scale=4, max_rounds=12),
            TRACED_SPEC,
        )

    @pytest.fixture(scope="class")
    def fault_record(self, small_world):
        return run_fault_daemon(small_world, trace=True)

    def test_streams_nest_cleanly(self, churn_record, fault_record):
        assert check_nesting(list(churn_record.spans)) == []
        assert check_nesting(list(fault_record.spans)) == []

    def test_children_tile_every_query_exactly(self, churn_record, fault_record):
        assert_exact_tiling(list(churn_record.spans))
        assert_exact_tiling(list(fault_record.spans))

    def test_every_query_has_wait_and_dispatch(self, churn_record):
        for query, group in sorted(spans_by_query(list(churn_record.spans)).items()):
            names = [s.name for s in group]
            assert names[0] == "query", query
            assert names[1] == "queue_wait", query
            assert names[2] == "dispatch", query
            root = group[0]
            assert group[1].start_ms == root.start_ms
            assert group[2].duration_ms == 0.0
            assert "probe_round" in names[3:], query

    def test_root_attrs_match_record_arrays(self, churn_record):
        grouped = spans_by_query(list(churn_record.spans))
        assert set(grouped) == set(range(churn_record.n_queries))
        for query, group in sorted(grouped.items()):
            root = group[0]
            assert root.start_ms == churn_record.arrival_ms[query]
            assert root.end_ms == churn_record.finish_ms[query]
            assert root.attrs["probes"] == churn_record.probes[query]
            assert root.attrs["found"] == churn_record.found[query]
            rounds = [s for s in group if s.name == "probe_round"]
            assert len(rounds) == churn_record.probe_rounds[query]

    def test_probe_round_spans_sum_to_probe_bill(self, churn_record):
        by_query = {q: 0 for q in range(churn_record.n_queries)}
        for span in churn_record.spans:
            if span.name == "probe_round":
                by_query[span.query] += span.attrs["probes"]
        # Root probes include the algorithm's own accounting (aux reads
        # etc.); the per-round fan-outs are exactly the timed probes.
        totals = np.array([by_query[q] for q in range(churn_record.n_queries)])
        assert np.array_equal(totals, churn_record.probes)

    def test_maintenance_spans_carry_ledger_event_ids(self, churn_record):
        ledger = churn_record.maintenance_by_event
        flushes = [s for s in churn_record.spans if s.name == "maintenance_flush"]
        assert flushes, "churned traced run must repair its index"
        seen: list[int] = []
        for span in flushes:
            assert span.query is None
            assert span.attrs["kind"] == "eager"
            ids = list(span.attrs["event_ids"])
            assert ids, "flush span without ledger events"
            seen.extend(ids)
            assert span.attrs["probes"] == int(ledger[ids].sum())
        assert seen == sorted(seen)
        assert len(seen) == len(set(seen))
        assert max(seen) < ledger.size

    def test_deferred_flush_spans_tag_their_kind(self, small_world):
        record = run_daemon(
            small_world,
            lambda: KargerRuhlSearch(
                samples_per_scale=4, max_rounds=12, maintenance="lazy"
            ),
            TRACED_SPEC,
        )
        flushes = [s for s in record.spans if s.name == "maintenance_flush"]
        assert flushes, "lazy discipline must flush on query touches"
        assert {s.attrs["kind"] for s in flushes} <= {"flush", "partial"}
        assert all(s.attrs["event_ids"] for s in flushes)


# -- golden fault trace: every tag appears -----------------------------------


class TestGoldenFaultTrace:
    @pytest.fixture(scope="class")
    def record(self, small_world):
        return run_fault_daemon(small_world, trace=True)

    def test_retry_chain_is_traced(self, record):
        assert record.total_query_retries > 0
        retries = [s for s in record.spans if s.name == "plan_retry"]
        assert len(retries) == record.total_query_retries
        for span in retries:
            assert span.attrs["attempt"] >= 1
            assert span.duration_ms > 0

    def test_fault_tags_cover_the_bill(self, record):
        tags = {"retransmitted": 0, "relayed": 0, "timed_out": 0, "dropped": 0}
        for span in record.spans:
            if span.name == "probe_round":
                for key in tags:
                    tags[key] += span.attrs.get(key, 0)
        assert tags["retransmitted"] == record.total_probe_retransmits > 0
        assert tags["relayed"] == record.total_relayed_probes > 0
        assert tags["timed_out"] == record.total_probe_timeouts > 0
        assert tags["dropped"] == record.total_probe_drops > 0

    def test_fault_counters_feed_the_timeseries(self, record):
        series = record.timeseries.series
        for name, total in (
            ("probes_retransmitted", record.total_probe_retransmits),
            ("probes_relayed", record.total_relayed_probes),
            ("probes_timed_out", record.total_probe_timeouts),
            ("probes_dropped", record.total_probe_drops),
        ):
            assert name in series
            assert int(series[name][-1]) == total
            assert np.all(np.diff(series[name]) >= 0), name

    def test_round_histogram_counts_every_round(self, record):
        hist = record.timeseries.histograms["round_probes"]
        assert int(np.sum(hist["counts"])) == int(record.probe_rounds.sum())

    def test_gauges_are_sampled(self, record):
        series = record.timeseries.series
        # Probes stay in flight across many 100 ms sample instants under
        # the timeout ladder; both gauges are bounded by the exact peaks
        # the breakpoint integrals already report.
        assert int(series["in_flight_probes"].max()) >= 1
        assert int(series["in_flight_probes"].max()) <= record.in_flight_probes_max
        assert int(series["queue_depth"].max()) <= record.queue_depth_max
        assert int(series["queue_depth"][0]) == 0
        assert int(series["in_flight_probes"][0]) == 0


# -- export + CLI -------------------------------------------------------------


class TestExportAndCli:
    @pytest.fixture(scope="class")
    def record(self, small_world):
        return run_fault_daemon(small_world, trace=True)

    @pytest.fixture()
    def trace_file(self, record, tmp_path):
        path = tmp_path / "trace.jsonl"
        dump_trace_jsonl(
            path,
            list(record.spans),
            {"scheme": record.scheme, "n_queries": record.n_queries,
             "makespan_ms": record.makespan_ms},
        )
        return path

    def test_round_trip_preserves_the_stream(self, record, trace_file):
        (dump,) = load_trace_jsonl(trace_file)
        assert dump.meta["scheme"] == record.scheme
        assert_span_streams_equal(list(record.spans), dump.spans)

    def test_validate_accepts_the_dump(self, trace_file):
        assert validate_trace(trace_file) == []

    def test_validate_rejects_corruption(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            json.dumps({"type": "meta", "version": 99}) + "\n"
            + json.dumps({
                "type": "span", "name": "teleport", "query": 0, "seq": 0,
                "parent": None, "start_ms": 5.0, "end_ms": 1.0, "attrs": {},
            }) + "\n"
        )
        problems = validate_trace(bad)
        assert any("version" in p for p in problems)
        assert any("unknown span name" in p for p in problems)
        assert any("bad interval" in p for p in problems)

    def test_validate_flags_span_before_meta(self, tmp_path):
        orphan = tmp_path / "orphan.jsonl"
        orphan.write_text(json.dumps({"type": "span", "name": "query"}) + "\n")
        assert validate_trace(orphan) == [
            f"unreadable trace: {orphan}:1: span before any meta header"
        ]

    def test_append_mode_builds_multi_block_artifacts(self, record, tmp_path):
        path = tmp_path / "multi.jsonl"
        for scheme in ("a", "b"):
            dump_trace_jsonl(
                path, list(record.spans),
                {"scheme": scheme, "n_queries": record.n_queries},
                mode="a",
            )
        dumps = load_trace_jsonl(path)
        assert [d.meta["scheme"] for d in dumps] == ["a", "b"]

    def test_timeline_is_an_accounting_identity(self, record, trace_file):
        (dump,) = load_trace_jsonl(trace_file)
        rendered = render_timeline(dump, query=slowest_query(dump))
        assert "exact tiling" in rendered
        assert "probe_round #1" in rendered
        assert "<-- slowest round" in rendered

    def test_timeline_annotates_retry_chains(self, record, trace_file):
        (dump,) = load_trace_jsonl(trace_file)
        retried = next(
            s.query for s in dump.spans if s.name == "plan_retry"
        )
        rendered = render_timeline(dump, query=retried)
        assert "plan_retry" in rendered
        assert "attempt=" in rendered
        assert "retx=" in rendered or "tmo=" in rendered

    def test_timeline_marks_queries_the_deadline_ended(self, small_world):
        """At the example's 800 ms deadline the cut-off plans end
        unanswered; their spans still tile [arrival, end] exactly."""
        faults = dataclasses.replace(FAULT_SPEC.faults, deadline_ms=800.0)
        record = run_daemon(
            small_world,
            lambda: KargerRuhlSearch(samples_per_scale=4, max_rounds=12),
            dataclasses.replace(FAULT_SPEC, faults=faults),
            n_queries=30,
        )
        failed = np.flatnonzero(record.found < 0)
        assert failed.size > 0
        dump = TraceDump(meta={"scheme": record.scheme}, spans=list(record.spans))
        for query in failed:
            rendered = render_timeline(dump, query=int(query))
            assert rendered.splitlines()[0].endswith("· unanswered")
            assert "exact tiling" in rendered
        answered = int(np.flatnonzero(record.found >= 0)[0])
        assert "unanswered" not in render_timeline(dump, query=answered)
        summary = render_summary([dump])
        assert (
            f"{failed.size} of {record.n_queries} queries unanswered" in summary
        )

    def test_summary_decomposes_every_phase(self, trace_file):
        dumps = load_trace_jsonl(trace_file)
        table = render_summary(dumps)
        for phase in ("queue_wait", "probe_round", "plan_retry", "tta"):
            assert phase in table
        assert "100%" in table

    def test_cli_default_and_summary_views(self, trace_file, capsys):
        assert trace_main([str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "exact tiling" in out
        assert trace_main([str(trace_file), "--summary"]) == 0
        assert "p99 (ms)" in capsys.readouterr().out

    def test_cli_validate_gate(self, trace_file, tmp_path, capsys):
        assert trace_main([str(trace_file), "--validate"]) == 0
        assert "OK" in capsys.readouterr().out
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"type": "meta", "version": 99}) + "\n")
        assert trace_main([str(bad), "--validate"]) == 1


# -- satellite: loop diagnostics on the record --------------------------------


class TestLoopDiagnostics:
    def test_unsharded_loop_stats(self, small_world):
        record = run_daemon(
            small_world, lambda: RandomProbeSearch(budget=8), CHURN_SPEC
        )
        assert record.loop_events > 0
        assert record.loop_queue_peak >= 1
        assert record.loop_pending_at_drain == 0
        assert record.loop_cancelled_events >= 0

    def test_fault_runs_cancel_timeout_timers(self, small_world):
        record = run_fault_daemon(small_world, trace=False)
        # Retransmit/timeout timers that lost the race get cancelled.
        assert record.loop_cancelled_events > 0


# -- satellite: comparison table columns -------------------------------------


class TestTableColumns:
    def test_daemon_rows_show_availability_and_retx(self, small_world):
        from repro.analysis.compare import format_trial_records

        record = run_fault_daemon(small_world, trace=False)
        table = format_trial_records([record])
        assert "availability" in table and "retx/query" in table
        row = table.splitlines()[-1]
        assert f"{record.availability:.3f}" in row
        assert f"{record.total_probe_retransmits / record.n_queries:.2f}" in row

    def test_untimed_rows_degrade_to_dashes(self, small_world):
        from repro.analysis.compare import format_trial_records

        timed = run_daemon(
            small_world, lambda: RandomProbeSearch(budget=8), CHURN_SPEC
        )
        static = QueryEngine().run_world_trial(
            small_world,
            RandomProbeSearch(budget=8),
            sampling=SamplingSpec(n_targets=10),
            n_queries=10,
            seed=3,
        )
        table = format_trial_records([timed, static])
        static_row = table.splitlines()[-1]
        assert static_row.rstrip().endswith("-")
        assert static_row.count("-") >= 5


# -- histogram population is post-merge --------------------------------------


class TestPopulateHistograms:
    def test_populates_from_stream(self):
        registry = MetricsRegistry()
        spans = [
            Span("probe_round", 0.0, 1.0, query=0, seq=1, parent=0,
                 attrs={"probes": 8}),
            Span("probe_round", 1.0, 2.0, query=0, seq=2, parent=0,
                 attrs={"probes": 3}),
            Span("maintenance_flush", 0.5, 0.5, attrs={"probes": 100}),
            Span("queue_wait", 0.0, 0.0, query=0, seq=3, parent=0),
        ]
        populate_span_histograms(registry, spans)
        rounds = registry.histogram("round_probes", PROBE_COUNT_EDGES)
        flushes = registry.histogram("flush_probes", PROBE_COUNT_EDGES)
        assert rounds.total == 2
        assert flushes.total == 1
        # 100 lands in the (64, 128] bucket: index of edge 128.
        assert flushes.counts[int(np.searchsorted(np.array(PROBE_COUNT_EDGES), 100.0, side="right"))] == 1
