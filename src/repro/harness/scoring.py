"""Vectorised exact-hit / cluster-hit scoring.

The paper's success metrics per query: did the scheme return a member tying
the true minimum latency to the target ("correct closest peer", end-network
mates count as ties), and did it land in the target's cluster?
:func:`score_epochs` answers both for a whole query batch at once, reading
the true minimum off a :class:`~repro.topology.clustered.GroundTruthIndex`
— bit-identical to a full row scan, in O(clusters) per target, so sparse
million-peer worlds score without touching their members.  A static trial
is a one-epoch :class:`~repro.harness.results.MembershipLog`.
:func:`score_single` is the scalar dense-matrix reference the tests pin it
against.
"""

from __future__ import annotations

import numpy as np

from repro.harness.results import MembershipLog
from repro.topology.clustered import ClusteredTopology, GroundTruthIndex
from repro.util.errors import DataError

#: Latency tie tolerance: members within this of the true minimum count as
#: correct (end-network mates are mutually ~100 us from the target).
TIE_EPS = 1e-12


def _epoch_truths(
    topology: ClusteredTopology, memberships: MembershipLog, epochs: np.ndarray
):
    """Yield the ground truth of each of the ascending ``epochs`` in turn.

    The log is replayed diff by diff into one index; each yielded truth is
    valid until the next one is drawn.
    """
    if epochs.size and not 0 <= epochs[0] <= epochs[-1] < memberships.n_epochs:
        raise DataError(
            f"epochs {epochs[0]}..{epochs[-1]} out of range "
            f"[0, {memberships.n_epochs})"
        )
    index = GroundTruthIndex(topology, memberships.initial)
    diffs = memberships.diffs()
    cursor = 0
    for epoch in epochs:
        while cursor < epoch:
            index.apply(*next(diffs))
            cursor += 1
        yield index


def score_epochs(
    topology: ClusteredTopology,
    memberships: MembershipLog,
    epoch_of_query: np.ndarray,
    targets: np.ndarray,
    found: np.ndarray,
    host_cluster: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Churn-aware scoring: each query judged against *its* membership.

    ``memberships`` is the :class:`~repro.harness.results.MembershipLog` of
    every epoch (the intervals between churn events).
    ``epoch_of_query[i]`` names the epoch query ``i`` ran under, so
    "correct closest peer" means closest among the members alive at query
    time — a peer that had already left is neither a valid answer nor part
    of the ground-truth minimum.  Accordingly a ``found`` id outside its
    epoch's membership (a stale answer from a deferred-maintenance index,
    or the no-answer id -1) scores as a miss on both metrics.
    ``cluster_hit`` is all False when ``host_cluster`` (host id -> cluster
    id) is not given.

    Queries are grouped by epoch with one stable argsort and the log is
    replayed in one forward pass through a
    :class:`~repro.topology.clustered.GroundTruthIndex`: each diff rescans
    only the clusters it touches, each epoch group's minimum costs
    O(clusters) per unique target, and liveness is a mask lookup.
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
    rtt = topology.latency_pairs(targets, found)
    if host_cluster is None:
        same_cluster = np.zeros(targets.size, dtype=bool)
    else:
        same_cluster = host_cluster[found] == host_cluster[targets]
    for truth, group in zip(_epoch_truths(topology, memberships, epochs), groups):
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
    if found < 0:
        return False, False
    row = matrix[target, np.asarray(members, dtype=int)]
    exact = bool(matrix[target, found] <= row.min() + TIE_EPS)
    cluster = (
        bool(host_cluster[found] == host_cluster[target])
        if host_cluster is not None
        else False
    )
    return exact, cluster
