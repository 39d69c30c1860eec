"""The IP-prefix heuristic and its Fig 11 error analysis.

Peers are keyed by a fixed-length prefix of their IP address; a joining
peer retrieves everyone sharing its prefix and probes them.  The paper
finds "no clear sweet-spot": short prefixes drown the peer in false
positives, long prefixes miss most genuinely close peers.
:func:`prefix_error_rates` reproduces that trade-off exactly as defined in
the paper:

* per-peer **false-positive rate** — peers sharing the prefix but farther
  than the threshold, over all peers farther than the threshold;
* per-peer **false-negative rate** — peers *not* sharing the prefix but
  closer than the threshold, over all peers closer than the threshold
  (computed only for peers that have at least one close peer);
* the figure plots the medians across peers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mechanisms.ucl import DictBackend, city_pair_latencies, probe_nearest
from repro.topology.internet import SyntheticInternet
from repro.topology.ip import prefixes_array
from repro.util.errors import DataError
from repro.util.rng import make_rng


class PrefixMap:
    """prefix-value -> peers key-value mapping (the deployable heuristic)."""

    def __init__(
        self, internet: SyntheticInternet, prefix_length: int = 24, backend=None
    ) -> None:
        if not 0 < prefix_length <= 32:
            raise DataError(f"prefix_length must be in (0, 32], got {prefix_length}")
        self._internet = internet
        self._prefix_length = prefix_length
        self._backend = backend if backend is not None else DictBackend()

    def _key(self, peer_id: int) -> int:
        ip = self._internet.host(peer_id).ip
        return int(prefixes_array(np.array([ip]), self._prefix_length)[0])

    def insert_peer(self, peer_id: int) -> None:
        self._backend.put(self._key(peer_id), peer_id)

    def candidates(self, peer_id: int) -> set[int]:
        """Peers sharing the prefix (excluding the peer itself)."""
        found = set(self._backend.get(self._key(peer_id)))
        found.discard(peer_id)
        return found

    def find_nearest(
        self,
        new_peer: int,
        probe_budget: int | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> tuple[int | None, float | None, int]:
        """Probe prefix-mates; returns (peer, latency, probes_used).

        Unlike the UCL map there is no latency annotation to pre-filter
        with, so every retrieved candidate costs a probe — the
        false-positive cost the paper highlights.  Probes run over the P2P
        protocol itself (participating peers are mutually reachable).
        """
        rng = make_rng(seed)
        candidates = list(self.candidates(new_peer))
        rng.shuffle(candidates)
        if probe_budget is not None:
            candidates = candidates[:probe_budget]
        best_peer, best_latency = probe_nearest(
            self._internet, new_peer, candidates, rng
        )
        return best_peer, best_latency, len(candidates)


@dataclass(frozen=True)
class PrefixErrorRates:
    """Fig 11's y values for one prefix length."""

    prefix_length: int
    median_false_positive_rate: float
    median_false_negative_rate: float
    peers_evaluated: int
    peers_with_close_peer: int


def prefix_error_rates(
    ips: np.ndarray,
    close_pairs: "np.ndarray | set[tuple[int, int]]",
    prefix_lengths: list[int],
) -> list[PrefixErrorRates]:
    """Evaluate the heuristic over a peer population.

    ``ips[i]`` is peer i's address; ``close_pairs`` holds index pairs
    ``(i, j)`` (a ``(k, 2)`` array or a set of tuples) whose latency is
    under the threshold (10 ms in the paper).  Closeness is symmetric and
    each pair counts once; all other pairs count as far.  Each prefix
    length is one array pass: peers per prefix group, and close neighbours
    sharing the prefix, counted with ``bincount`` — no all-pairs scan.
    """
    n = ips.shape[0]
    if n < 2:
        raise DataError("need at least two peers")
    if not isinstance(close_pairs, np.ndarray):
        close_pairs = list(close_pairs)
    pairs = np.asarray(close_pairs, dtype=np.int64).reshape(-1, 2)
    low, high = pairs.min(axis=1), pairs.max(axis=1)
    bad = (low < 0) | (high >= n) | (low == high)
    if bad.any():
        i, j = pairs[int(np.argmax(bad))]
        raise DataError(f"bad close pair ({i}, {j})")
    low, high = np.divmod(np.unique(low * n + high), n)
    n_close = np.bincount(low, minlength=n) + np.bincount(high, minlength=n)
    far_total = (n - 1) - n_close
    has_far = far_total > 0
    has_close = n_close > 0

    results = []
    for length in prefix_lengths:
        prefixes = prefixes_array(ips, length)
        # Peers (other than self) sharing each peer's prefix.
        _, inverse, counts = np.unique(
            prefixes, return_inverse=True, return_counts=True
        )
        sharing = counts[inverse] - 1
        same = prefixes[low] == prefixes[high]
        close_sharing = np.bincount(low[same], minlength=n) + np.bincount(
            high[same], minlength=n
        )
        false_positive_rates = (sharing - close_sharing)[has_far] / far_total[has_far]
        false_negative_rates = (n_close - close_sharing)[has_close] / n_close[has_close]
        results.append(
            PrefixErrorRates(
                prefix_length=length,
                median_false_positive_rate=float(np.median(false_positive_rates)),
                median_false_negative_rate=(
                    float(np.median(false_negative_rates))
                    if false_negative_rates.size
                    else 0.0
                ),
                peers_evaluated=n,
                peers_with_close_peer=int(has_close.sum()),
            )
        )
    return results


def close_pairs_from_internet(
    internet: SyntheticInternet,
    peer_ids: list[int],
    threshold_ms: float = 10.0,
    max_pairs_per_city: int = 200_000,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Index pairs ``(i, j), i < j`` (into ``peer_ids``) closer than ``threshold_ms``.

    A ``(k, 2)`` array from the per-city enumeration of
    :func:`~repro.mechanisms.ucl.city_pair_latencies`.
    """
    close = [
        np.column_stack([i, j])[latency < threshold_ms]
        for i, j, latency in city_pair_latencies(
            internet, peer_ids, max_pairs_per_city, make_rng(seed)
        )
    ]
    return np.concatenate([np.empty((0, 2), dtype=int), *close])
