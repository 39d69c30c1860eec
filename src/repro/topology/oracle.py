"""Latency oracles: the ground-truth answer to "what is the RTT between a and b?".

Every nearest-peer algorithm in the library consumes a
:class:`LatencyOracle`, never a raw matrix, so the same algorithm code runs
against a dense matrix (Meridian simulations), the routed router-level
topology (measurement studies), or noisy/counting wrappers (probe accounting
— the paper's core cost metric is the number of latency probes).

The oracle contract
-------------------

Simulated probes are the repository's hot path: Meridian overlay
construction issues O(n·k) of them, ring selection O(k²) more per node.
So the contract has four required members, two of them vectorised:

* ``latency_ms(a, b)`` — one RTT;
* ``n_nodes`` — the id space ``0..n_nodes-1``;
* ``latencies_from(a, members=None)`` — RTTs from ``a`` to each id in
  ``members`` (or the full row when ``members`` is ``None``);
* ``latency_block(rows, cols)`` — the dense ``len(rows) × len(cols)``
  RTT block, element order row-major.

Batch methods accept any integer sequence and return float arrays whose
elements equal the scalar ``latency_ms`` loop (for :class:`NoisyOracle`,
when ``additive_ms == 0``).  Callers use them directly;
:meth:`~repro.algorithms.base.NearestPeerAlgorithm.build` rejects an
oracle missing any member with a typed error (see
:func:`missing_oracle_members`).
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.util.errors import DataError
from repro.util.rng import make_rng


@runtime_checkable
class LatencyOracle(Protocol):
    """Interface: round-trip latencies in milliseconds between node ids."""

    def latency_ms(self, a: int, b: int) -> float:
        """Return the RTT between nodes ``a`` and ``b`` in milliseconds."""
        ...

    @property
    def n_nodes(self) -> int:
        """Number of nodes the oracle knows about (ids are 0..n_nodes-1)."""
        ...

    def latencies_from(
        self, a: int, members: np.ndarray | None = None
    ) -> np.ndarray:
        """RTTs from ``a`` to ``members`` (full row when ``members is None``)."""
        ...

    def latency_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The ``len(rows) × len(cols)`` RTT block."""
        ...


#: The members of :class:`LatencyOracle`, in declaration order.
_ORACLE_MEMBERS = ("latency_ms", "n_nodes", "latencies_from", "latency_block")


def missing_oracle_members(oracle: object) -> list[str]:
    """The :class:`LatencyOracle` members ``oracle`` lacks (empty: conforms).

    Members are looked up dynamically, so a pass-through proxy that
    delegates through ``__getattr__`` conforms on every Python version
    (``isinstance`` against a runtime-checkable protocol stopped
    consulting ``__getattr__`` in 3.12).
    """
    return [name for name in _ORACLE_MEMBERS if not hasattr(oracle, name)]


#: The one measurement callable the index substrates take (the Meridian
#: overlay and ring repair, the GNP embedding): ``measure(rows, cols)``
#: returns the ``len(rows) × len(cols)`` RTT block, row-major.  A
#: standalone caller passes ``oracle.latency_block``; an algorithm passes
#: its counted index channel
#: (:meth:`~repro.algorithms.base.NearestPeerAlgorithm.offline_probe_block`),
#: so the same substrate code bills its probes as maintenance when it
#: re-runs under churn.
Measure = Callable[[np.ndarray, np.ndarray], np.ndarray]


class MatrixOracle:
    """Oracle backed by a dense symmetric latency matrix."""

    def __init__(self, matrix: np.ndarray) -> None:
        arr = np.asarray(matrix, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DataError(f"latency matrix must be square, got {arr.shape}")
        self._matrix = arr

    @property
    def n_nodes(self) -> int:
        return self._matrix.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """The underlying matrix (read-only by convention)."""
        return self._matrix

    def latency_ms(self, a: int, b: int) -> float:
        return float(self._matrix[a, b])

    def latencies_from(
        self, a: int, members: np.ndarray | None = None
    ) -> np.ndarray:
        """The latency row for node ``a``, optionally sliced to ``members``."""
        row = self._matrix[a]
        if members is None:
            return row
        return row[np.asarray(members, dtype=int)]

    def latency_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Dense block — one fancy-indexing call, no Python loop."""
        return self._matrix[
            np.ix_(np.asarray(rows, dtype=int), np.asarray(cols, dtype=int))
        ]


class CountingOracle:
    """Wrapper that counts probes, deduplicating repeat measurements.

    The paper's lower bound is about *distinct* latency probes ("for a peer
    to tell if it is the closest peer to A2, it has to first measure its
    latency to A2"); repeated queries for a cached pair are counted
    separately so both metrics are available.

    Batched calls count exactly like the equivalent scalar loop: one total
    probe per element, one unique probe per previously unseen unordered
    pair.
    """

    def __init__(self, inner: LatencyOracle) -> None:
        self._inner = inner
        self.total_probes = 0
        self.unique_probes = 0
        self._seen: set[tuple[int, int]] = set()

    @property
    def n_nodes(self) -> int:
        return self._inner.n_nodes

    def latency_ms(self, a: int, b: int) -> float:
        self.total_probes += 1
        key = (a, b) if a <= b else (b, a)
        if key not in self._seen:
            self._seen.add(key)
            self.unique_probes += 1
        return self._inner.latency_ms(a, b)

    def _count_batch(self, a_ids: np.ndarray, b_ids: np.ndarray) -> None:
        """Advance both counters for element-aligned id arrays."""
        lo = np.minimum(a_ids, b_ids)
        hi = np.maximum(a_ids, b_ids)
        self.total_probes += int(lo.size)
        before = len(self._seen)
        self._seen.update(zip(lo.tolist(), hi.tolist()))
        self.unique_probes += len(self._seen) - before

    def latencies_from(
        self, a: int, members: np.ndarray | None = None
    ) -> np.ndarray:
        if members is None:
            members = np.arange(self.n_nodes)
        members = np.asarray(members, dtype=int)
        self._count_batch(np.full(members.size, int(a)), members)
        return self._inner.latencies_from(a, members)

    def latency_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        self._count_batch(np.repeat(rows, cols.size), np.tile(cols, rows.size))
        return self._inner.latency_block(rows, cols)

    def reset(self) -> None:
        """Zero the counters (e.g. between queries)."""
        self.total_probes = 0
        self.unique_probes = 0
        self._seen.clear()


class NoisyOracle:
    """Wrapper adding multiplicative measurement noise to each probe.

    Real probes (ping, TCP-ping, King) never return the true RTT; modelling
    that here lets algorithm evaluations distinguish "fails because of the
    clustering condition" from "fails because of measurement noise".
    Noise is lognormal with median 1, i.e. ``measured = true * exp(sigma*Z)``.

    **Batch stream semantics.** Batched calls draw from the same generator
    as scalar calls.  A batch of ``k`` probes draws ``k`` lognormal factors
    in one vectorised call (element order: ``members`` order for
    ``latencies_from``, row-major for ``latency_block``) and then — only
    when ``additive_ms > 0`` — ``k`` additive lags in a second vectorised
    call.  numpy generators produce bit-identical variates for ``size=k``
    and ``k`` scalar draws, so with ``additive_ms == 0`` a batch is
    bit-identical to the equivalent scalar loop.  With ``additive_ms > 0``
    the scalar loop interleaves factor/lag draws per probe while the batch
    draws all factors first, so the streams diverge (same distribution,
    different variates).
    """

    def __init__(
        self,
        inner: LatencyOracle,
        sigma: float = 0.05,
        additive_ms: float = 0.0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if sigma < 0:
            raise DataError(f"sigma must be >= 0, got {sigma}")
        if additive_ms < 0:
            raise DataError(f"additive_ms must be >= 0, got {additive_ms}")
        self._inner = inner
        self._sigma = sigma
        self._additive_ms = additive_ms
        self._rng = make_rng(seed)

    @property
    def n_nodes(self) -> int:
        return self._inner.n_nodes

    def latency_ms(self, a: int, b: int) -> float:
        true = self._inner.latency_ms(a, b)
        noisy = true * float(np.exp(self._rng.normal(0.0, self._sigma)))
        if self._additive_ms:
            noisy += float(self._rng.exponential(self._additive_ms))
        return noisy

    def _noisy_batch(self, true: np.ndarray) -> np.ndarray:
        """Apply one batch of noise draws (see class docstring for order)."""
        true = np.asarray(true, dtype=float)
        noisy = true * np.exp(self._rng.normal(0.0, self._sigma, size=true.shape))
        if self._additive_ms:
            noisy = noisy + self._rng.exponential(self._additive_ms, size=true.shape)
        return noisy

    def latencies_from(
        self, a: int, members: np.ndarray | None = None
    ) -> np.ndarray:
        if members is None:
            members = np.arange(self.n_nodes)
        return self._noisy_batch(self._inner.latencies_from(a, members))

    def latency_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self._noisy_batch(self._inner.latency_block(rows, cols))
