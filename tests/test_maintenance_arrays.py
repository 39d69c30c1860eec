"""The maintenance hot loops as array operations: same tables, same bills,
same rng draws as the per-node loops they replace.

* Tapestry's ``_build_region`` equals the per-digit reference loop kept
  here, ties included (distance, then member position);
* PIC and Vivaldi-greedy prune departed neighbours off the liveness mask
  exactly as the per-member ``np.isin`` loop kept here did, re-draws
  included, on the eager and the deferred (flush) paths;
* a full Karger–Ruhl or Tapestry rebuild reads one ``|M| × |M|`` block,
  billed ``|M|²``, and keeps no block once it returns or raises.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    KargerRuhlSearch,
    PicSearch,
    TapestrySearch,
    VivaldiGreedySearch,
)
from repro.algorithms.pic import _CoordinateGreedyBase
from repro.coords.gnp import GnpConfig
from repro.topology.oracle import MatrixOracle
from repro.util.errors import ConfigurationError

# -- Tapestry: the table equals the per-digit loop -----------------------------


def reference_table(members, ids, node_id, distances, node, n_levels, k):
    """The per-digit construction: for each level and hex digit, the
    eligible members with that digit, stable-sorted by distance, first
    ``k`` kept."""
    not_self = members != node
    shared = np.cumprod(ids == node_id, axis=1).sum(axis=1)
    levels = []
    for level in range(n_levels):
        eligible = not_self & (shared >= level)
        digits_here = ids[:, level]
        chosen: list[int] = []
        for digit in range(16):
            idx = np.flatnonzero(eligible & (digits_here == digit))
            if idx.size == 0:
                continue
            order = np.argsort(distances[idx], kind="stable")
            chosen.extend(int(members[i]) for i in idx[order[:k]])
        levels.append(np.asarray(chosen, dtype=int))
        if not chosen:
            break
    return levels


def assert_tables_equal(got, want):
    assert len(got) == len(want)
    for level, (g, w) in enumerate(zip(got, want)):
        assert g.dtype == w.dtype, level
        np.testing.assert_array_equal(g, w, err_msg=f"level {level}")


@st.composite
def tapestry_cases(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n_members = draw(st.integers(2, 600))
    return (
        seed,
        n_members,
        draw(st.integers(n_members, n_members + 40)),  # oracle id space
        draw(st.integers(1, 4)),  # neighbors_per_entry
        draw(st.integers(1, 8)),  # id digits
        draw(st.sampled_from([2, 3, 16])),  # id alphabet: small forces depth
        draw(st.integers(1, 6)),  # distance levels: few force ties
    )


class TestTapestryTable:
    @settings(max_examples=40, deadline=None)
    @given(tapestry_cases())
    def test_region_equals_per_digit_loop(self, case):
        seed, n_members, n_nodes, k, n_digits, alphabet, n_levels = case
        rng = np.random.default_rng(seed)
        quantised = rng.integers(0, n_levels, size=(n_nodes, n_nodes))
        matrix = (quantised + quantised.T).astype(float)
        np.fill_diagonal(matrix, 0.0)
        members = rng.permutation(n_nodes)[:n_members]
        algorithm = TapestrySearch(id_digits=n_digits, neighbors_per_entry=k)
        algorithm.build(MatrixOracle(matrix), members, seed=seed)
        # Random ids over a small alphabet share long prefixes.
        algorithm._ids = {
            int(m): tuple(int(d) for d in rng.integers(0, alphabet, n_digits))
            for m in members
        }
        algorithm._id_matrix_for = None
        algorithm._build(rng)  # a full rebuild over the new ids
        ids = algorithm._ids_matrix(algorithm.members)
        for node in rng.choice(members, size=min(8, n_members), replace=False):
            node = int(node)
            want = reference_table(
                algorithm.members,
                ids,
                np.asarray(algorithm._ids[node], dtype=np.int8),
                matrix[node, algorithm.members],
                node,
                n_digits,
                k,
            )
            assert_tables_equal(algorithm._index[node], want)  # block row
            assert_tables_equal(algorithm._build_region(node), want)  # one row

    @pytest.mark.parametrize("k", [0, -1])
    def test_entry_width_must_be_positive(self, k):
        # The per-digit loop read a negative width as "all but the last".
        with pytest.raises(ConfigurationError, match="neighbors_per_entry"):
            TapestrySearch(neighbors_per_entry=k)


# -- PIC / Vivaldi-greedy: leave pruning equals the np.isin loop ----------------


def isin_leave(self, left, kept_mask, rng):
    """``_CoordinateGreedyBase._leave`` as a per-member ``np.isin`` loop."""
    for node in left:
        node = int(node)
        self._positions.pop(node, None)
        self._neighbors.pop(node, None)
    members = self.members
    for node, neighbours in self._neighbors.items():
        pruned = neighbours[~np.isin(neighbours, left)]
        if pruned.size == 0:
            others = members[members != node]
            count = min(self._neighbors_per_node, others.size)
            pruned = rng.choice(others, size=count, replace=False)
        self._neighbors[node] = pruned


COORDINATE_SCHEMES = [
    lambda m: PicSearch(
        gnp_config=GnpConfig(n_landmarks=8, dimensions=2),
        neighbors_per_node=3,
        maintenance=m,
    ),
    lambda m: VivaldiGreedySearch(
        vivaldi_rounds=4, neighbors_per_node=3, maintenance=m
    ),
]


def orphaning_leave(algorithm):
    """A leave holding every out-neighbour of one (staying) node, plus
    two more members: its re-draw path must run."""
    node, out = next(iter(algorithm._neighbors.items()))
    left = set(out.tolist())
    for m in algorithm.members.tolist():
        if len(left) >= out.size + 2:
            break
        if m != node:
            left.add(m)
    return node, sorted(left)


def run_events(algorithm, oracle):
    """Build, then an orphaning leave and a mixed batch; returns the
    orphaned node, the orphaning leave, and every neighbour list after
    each step."""
    algorithm.build(oracle, np.arange(60), seed=3)
    orphan, left = orphaning_leave(algorithm)
    snapshots = []

    def snap():
        snapshots.append(
            {n: nb.tolist() for n, nb in algorithm._neighbors.items()}
        )

    algorithm.leave(left, seed=11)
    snap()
    # Join-then-leave nets out, leave-then-rejoin keeps its entries, and
    # the flush (deferred disciplines) prunes the rest in one pass.
    a, b, c = [m for m in range(60) if m not in left and m != orphan][:3]
    algorithm.join([60, 61], seed=12)
    algorithm.leave([61, a, b], seed=13)
    algorithm.leave([c], seed=14)
    algorithm.join([c], seed=15)
    algorithm.flush_maintenance(seed=16)
    snap()
    return orphan, left, snapshots


class TestLeavePruning:
    @pytest.mark.parametrize("factory", COORDINATE_SCHEMES, ids=["pic", "vivaldi"])
    @pytest.mark.parametrize("discipline", ["eager", "coalesce:2", "lazy"])
    def test_neighbours_equal_isin_loop(
        self, uniform_matrix, monkeypatch, factory, discipline
    ):
        oracle = MatrixOracle(uniform_matrix)
        orphan, left, got = run_events(factory(discipline), oracle)
        monkeypatch.setattr(_CoordinateGreedyBase, "_leave", isin_leave)
        _, _, want = run_events(factory(discipline), oracle)
        assert got == want
        # The orphaned out-list was re-drawn from the survivors.
        assert len(got[-1][orphan]) >= 3
        assert not set(got[-1][orphan]) & set(left)


# -- Karger–Ruhl / Tapestry: one block per full rebuild --------------------------


class BlockLog:
    """A matrix oracle that logs the shape of every ``latency_block``."""

    def __init__(self, matrix: np.ndarray) -> None:
        self._inner = MatrixOracle(matrix)
        self.shapes: list[tuple[int, int]] = []
        self.last_block = None

    @property
    def n_nodes(self) -> int:
        return self._inner.n_nodes

    def latency_ms(self, a, b):
        return self._inner.latency_ms(a, b)

    def latencies_from(self, a, members=None):
        return self._inner.latencies_from(a, members)

    def latency_block(self, rows, cols):
        block = self._inner.latency_block(rows, cols)
        self.shapes.append(block.shape)
        self.last_block = weakref.ref(block)
        return block


REGION_SCHEMES = [
    lambda m: KargerRuhlSearch(maintenance=m),
    lambda m: TapestrySearch(maintenance=m),
]
REGION_IDS = ["karger-ruhl", "tapestry"]


def assert_ledger_conserved(algorithm):
    assert (
        algorithm.maintenance_by_event.sum()
        + algorithm.maintenance_background_probes
        == algorithm.maintenance_probes_total
    )


def assert_regions_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


class TestOneBlockPerRebuild:
    @pytest.mark.parametrize("factory", REGION_SCHEMES, ids=REGION_IDS)
    def test_eager_rebuild_reads_one_block(self, uniform_matrix, factory):
        oracle = BlockLog(uniform_matrix)
        algorithm = factory("eager")
        algorithm.build(oracle, np.arange(60), seed=7)
        assert oracle.shapes == [(60, 60)]
        assert algorithm._rebuild_rows is None
        oracle.shapes.clear()
        assert algorithm.join([60, 61], seed=1) == 62 * 62
        assert algorithm.leave([0, 1, 2], seed=2) == 59 * 59
        assert oracle.shapes == [(62, 62), (59, 59)]
        assert algorithm.maintenance_by_event.tolist() == [62 * 62, 59 * 59]
        assert_ledger_conserved(algorithm)

    @pytest.mark.parametrize("factory", REGION_SCHEMES, ids=REGION_IDS)
    def test_lazy_flush_reads_one_block(self, uniform_matrix, factory):
        oracle = BlockLog(uniform_matrix)
        algorithm = factory("lazy")
        algorithm.build(
            oracle, np.arange(60), seed=7, probe_oracle=MatrixOracle(uniform_matrix)
        )
        oracle.shapes.clear()
        algorithm.join([60, 61], seed=1)
        algorithm.leave([0], seed=2)
        assert oracle.shapes == []
        algorithm.query(150, seed=3)  # lazy pays here, in one block
        assert oracle.shapes == [(61, 61)]
        assert algorithm.maintenance_probes_total == 61 * 61
        assert_ledger_conserved(algorithm)

    @pytest.mark.parametrize("factory", REGION_SCHEMES, ids=REGION_IDS)
    def test_partial_touch_reads_one_row(self, uniform_matrix, factory):
        events = [("join", [60, 61], 1), ("leave", [0, 5], 2)]
        oracle = BlockLog(uniform_matrix)
        partial = factory("lazy-partial")
        full = factory("lazy")
        for algorithm in (partial, full):
            algorithm.build(oracle, np.arange(60), seed=7)
            for kind, ids, seed in events:
                getattr(algorithm, kind)(ids, seed=seed)
        oracle.shapes.clear()
        assert partial.touch_region(7) == 60
        assert oracle.shapes == [(1, 60)]
        assert_ledger_conserved(partial)
        full.flush_maintenance(seed=3)
        assert oracle.shapes == [(1, 60), (60, 60)]
        assert_regions_equal(partial._index[7], full._index[7])

    @pytest.mark.parametrize("factory", REGION_SCHEMES, ids=REGION_IDS)
    def test_no_block_survives_a_failed_rebuild(
        self, uniform_matrix, monkeypatch, factory
    ):
        oracle = BlockLog(uniform_matrix)
        algorithm = factory("eager")
        algorithm.build(oracle, np.arange(60), seed=7)
        built = type(algorithm)._build_region
        calls = []

        def failing(self, node):
            calls.append(node)
            if len(calls) == 3:
                raise RuntimeError("region build failed")
            return built(self, node)

        monkeypatch.setattr(type(algorithm), "_build_region", failing)
        with pytest.raises(RuntimeError, match="region build failed"):
            algorithm.join([60], seed=1)
        assert algorithm._rebuild_rows is None
        gc.collect()
        assert oracle.last_block() is None
