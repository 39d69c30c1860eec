"""Vectorised exact-hit / cluster-hit scoring.

The paper's success metrics per query: did the scheme return a member tying
the true minimum latency to the target ("correct closest peer", end-network
mates count as ties), and did it land in the target's cluster?  The
scorers answer both for a whole query batch at once; :func:`score_single`
is the scalar reference implementation the tests pin them against.

The true minimum comes from one of two ground truths:

* a :class:`~repro.topology.clustered.GroundTruthIndex`, when ``matrix`` is
  a :class:`~repro.topology.clustered.ClusteredTopology` that passes the
  separation guard (:attr:`~repro.topology.clustered.ClusteredTopology.en_separated`:
  an end-network mate is never farther than a cross-network host).  The
  index reads the minimum off per-cluster minimum hub latencies in
  O(clusters) per target, bit-identical to a full row scan, so sparse
  million-peer worlds score without touching their members;
* otherwise a member block: the row minimum of ``matrix[targets][:,
  members]``.  ``matrix`` is then a dense array or any matrix-free object
  exposing ``latency_block(rows, cols)`` and ``latency_pairs(a, b)``.  A
  clustered world failing the guard (hubs near zero, as at ``delta`` = 1)
  falls back to this path through its own ``latency_block``.
"""

from __future__ import annotations

import numpy as np

from repro.topology.clustered import ClusteredTopology, GroundTruthIndex
from repro.util.errors import DataError


def _pairs(matrix, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``matrix[a, b]`` (elementwise) for dense or matrix-free ground truth."""
    if hasattr(matrix, "latency_pairs"):
        return matrix.latency_pairs(a, b)
    return matrix[a, b]

#: Latency tie tolerance: members within this of the true minimum count as
#: correct (end-network mates are mutually ~100 us from the target).
TIE_EPS = 1e-12


class _MemberBlock:
    """Ground truth of one membership by a (targets x members) row scan."""

    def __init__(self, matrix, members: np.ndarray) -> None:
        self.matrix = matrix
        self.members = np.asarray(members, dtype=int)

    def nearest_rtt(self, targets: np.ndarray) -> np.ndarray:
        if hasattr(self.matrix, "latency_block"):
            # The scorer is the omniscient judge: it reads ground truth to
            # grade answers after the fact, so nothing is billed to any scheme.
            block = self.matrix.latency_block(targets, self.members)  # repro-lint: allow(counted-probes)
        else:
            block = self.matrix[np.ix_(targets, self.members)]
        return block.min(axis=1)

    def is_live(self, hosts: np.ndarray) -> np.ndarray:
        return np.isin(hosts, self.members)


def _truth(matrix, members: np.ndarray):
    """The exact ground truth of one membership: the index when it applies."""
    if isinstance(matrix, ClusteredTopology):
        index = matrix.truth_index(members)
        if index is not None:
            return index
    return _MemberBlock(matrix, members)


def _epoch_truths(matrix, memberships, epochs: np.ndarray):
    """Yield the ground truth of each of the ascending ``epochs`` in turn.

    A :class:`~repro.harness.results.MembershipLog` on an indexed world is
    replayed diff by diff into one index; each yielded truth is valid
    until the next one is drawn.
    """
    from repro.harness.results import MembershipLog

    if not isinstance(memberships, MembershipLog):
        for epoch in epochs:
            yield _truth(matrix, memberships[int(epoch)])
        return
    index = _truth(matrix, memberships.initial)
    if not isinstance(index, GroundTruthIndex):
        for members in memberships.walk(epochs):
            yield _MemberBlock(matrix, members)
        return
    if epochs.size and not 0 <= epochs[0] <= epochs[-1] < memberships.n_epochs:
        raise DataError(
            f"epochs {epochs[0]}..{epochs[-1]} out of range "
            f"[0, {memberships.n_epochs})"
        )
    diffs = memberships.diffs()
    cursor = 0
    for epoch in epochs:
        while cursor < epoch:
            index.apply(*next(diffs))
            cursor += 1
        yield index


def score_batch(
    matrix: np.ndarray,
    members: np.ndarray,
    targets: np.ndarray,
    found: np.ndarray,
    host_cluster: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Score a query batch against ground truth, vectorised.

    ``matrix`` is the ground truth (see the module docstring), ``members``
    the member id set, ``targets``/``found`` the parallel per-query arrays.
    Returns boolean ``(exact_hit, cluster_hit)`` arrays; ``cluster_hit`` is
    all False when ``host_cluster`` (host id -> cluster id) is not given.
    """
    targets = np.asarray(targets, dtype=int)
    found = np.asarray(found, dtype=int)
    if targets.shape != found.shape:
        raise DataError(
            f"targets {targets.shape} and found {found.shape} must be parallel"
        )
    if targets.size == 0:
        empty = np.zeros(0, dtype=bool)
        return empty, empty.copy()
    # Targets repeat in sampled-query batches: one minimum per unique target.
    unique, inverse = np.unique(targets, return_inverse=True)
    best = _truth(matrix, members).nearest_rtt(unique)
    exact_hit = _pairs(matrix, targets, found) <= best[inverse] + TIE_EPS
    if host_cluster is None:
        cluster_hit = np.zeros(targets.size, dtype=bool)
    else:
        cluster_hit = host_cluster[found] == host_cluster[targets]
    return exact_hit, cluster_hit


def score_epochs(
    matrix: np.ndarray,
    memberships,
    epoch_of_query: np.ndarray,
    targets: np.ndarray,
    found: np.ndarray,
    host_cluster: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Churn-aware scoring: each query judged against *its* membership.

    ``memberships`` holds the membership of every epoch (the intervals
    between churn events) — either a list with one member-id array per
    epoch, or a :class:`~repro.harness.results.MembershipLog` of diffs.
    ``epoch_of_query[i]`` names the epoch query ``i`` ran under, so
    "correct closest peer" means closest among the members alive at query
    time — a peer that had already left is neither a valid answer nor part
    of the ground-truth minimum.  Accordingly a ``found`` id outside its
    epoch's membership (a stale answer from a deferred-maintenance index)
    scores as a miss on both metrics.

    Queries are grouped by epoch with one stable argsort.  On a clustered
    world that passes the separation guard, a log is replayed in one
    forward pass through a
    :class:`~repro.topology.clustered.GroundTruthIndex`: each diff
    rescans only the clusters it touches, each epoch group's minimum costs
    O(clusters) per unique target, and liveness is a mask lookup.  Any
    other ground truth scores each group against a (targets x members)
    block of its epoch's reconstructed membership.  Both paths give the
    same bits.
    """
    epoch_of_query = np.asarray(epoch_of_query, dtype=int)
    targets = np.asarray(targets, dtype=int)
    found = np.asarray(found, dtype=int)
    if epoch_of_query.shape != targets.shape:
        raise DataError(
            f"epoch_of_query {epoch_of_query.shape} and targets "
            f"{targets.shape} must be parallel"
        )
    if targets.shape != found.shape:
        raise DataError(
            f"targets {targets.shape} and found {found.shape} must be parallel"
        )
    exact_hit = np.zeros(targets.size, dtype=bool)
    cluster_hit = np.zeros(targets.size, dtype=bool)
    if targets.size == 0:
        return exact_hit, cluster_hit
    order = np.argsort(epoch_of_query, kind="stable")
    epochs, starts = np.unique(epoch_of_query[order], return_index=True)
    groups = np.split(order, starts[1:])
    rtt = _pairs(matrix, targets, found)
    if host_cluster is None:
        same_cluster = np.zeros(targets.size, dtype=bool)
    else:
        same_cluster = host_cluster[found] == host_cluster[targets]
    for truth, group in zip(_epoch_truths(matrix, memberships, epochs), groups):
        unique, inverse = np.unique(targets[group], return_inverse=True)
        live = truth.is_live(found[group])
        best = truth.nearest_rtt(unique)[inverse]
        exact_hit[group] = (rtt[group] <= best + TIE_EPS) & live
        cluster_hit[group] = same_cluster[group] & live
    return exact_hit, cluster_hit


def score_single(
    matrix: np.ndarray,
    members: np.ndarray,
    target: int,
    found: int,
    host_cluster: np.ndarray | None = None,
) -> tuple[bool, bool]:
    """Scalar reference scorer (one per-target row scan, as the old loops)."""
    row = matrix[target, np.asarray(members, dtype=int)]
    exact = bool(matrix[target, found] <= row.min() + TIE_EPS)
    cluster = (
        bool(host_cluster[found] == host_cluster[target])
        if host_cluster is not None
        else False
    )
    return exact, cluster
