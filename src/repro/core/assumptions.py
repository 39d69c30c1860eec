"""Quantifying the geometric assumptions of Section 2.2.

Three measurable quantities, each paired with the paper's argument for why
the clustering condition breaks it:

* **growth ratios** ``|B(p, 2l)| / |B(p, l)|`` — growth-constrained metrics
  (Karger-Ruhl, Tapestry) need this bounded; around a clustered peer it
  explodes at the hub scale ("a small number of peers at very small
  latencies ... immediately followed by a well-populated region").
* **doubling constant** — the number of radius-``r/2`` balls needed to
  cover a radius-``r`` ball (Meridian's assumption); at the cluster scale
  each half-ball covers one end-network, so the constant reaches the
  number of end-networks.
* **intrinsic (correlation) dimension** — the slope of ``log N(r)`` vs
  ``log r``; embedding-based schemes (PIC, Vivaldi, GNP) need it small,
  but the cluster's latency structure needs "a number of dimensions on
  the order of the number of end-networks".
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import DataError
from repro.util.rng import make_rng


def growth_ratios(
    matrix: np.ndarray,
    radii_ms: list[float],
    sample_size: int = 200,
    seed: int | np.random.Generator | None = None,
) -> dict[float, np.ndarray]:
    """``|B(2l)| / |B(l)|`` per sampled peer, for each radius ``l``.

    Peers with an empty ``B(l)`` (beyond themselves) are skipped for that
    radius.
    """
    arr = np.asarray(matrix, dtype=float)
    n = arr.shape[0]
    rng = make_rng(seed)
    picks = rng.choice(n, size=min(sample_size, n), replace=False)
    out: dict[float, np.ndarray] = {}
    for radius in radii_ms:
        ratios = []
        for p in picks:
            row = arr[p]
            inner = int(np.count_nonzero(row <= radius)) - 1  # exclude self
            if inner <= 0:
                continue
            outer = int(np.count_nonzero(row <= 2 * radius)) - 1
            ratios.append(outer / inner)
        out[radius] = np.asarray(ratios)
    return out


def doubling_constant(
    matrix: np.ndarray,
    radius_ms: float,
    sample_size: int = 50,
    seed: int | np.random.Generator | None = None,
) -> float:
    """Empirical doubling constant at one scale (greedy half-ball cover).

    For sampled centers ``p``: cover ``B(p, r)`` greedily with balls of
    radius ``r/2`` centered at members; report the maximum cover size.
    Greedy covering overshoots the optimum by at most a log factor, which
    is fine for the violation-vs-satisfaction contrast the tests assert.
    """
    arr = np.asarray(matrix, dtype=float)
    n = arr.shape[0]
    if n == 0:
        raise DataError("empty matrix")
    rng = make_rng(seed)
    picks = rng.choice(n, size=min(sample_size, n), replace=False)
    worst = 0
    for p in picks:
        ball = np.flatnonzero(arr[p] <= radius_ms)
        if ball.size <= 1:
            continue
        uncovered = set(int(x) for x in ball)
        covers = 0
        while uncovered:
            # Greedy: the member covering the most uncovered points.
            best_center, best_cover = None, None
            for candidate in list(uncovered)[:64]:  # bounded scan
                covered = {
                    q for q in uncovered if arr[candidate, q] <= radius_ms / 2.0
                }
                if best_cover is None or len(covered) > len(best_cover):
                    best_center, best_cover = candidate, covered
            uncovered -= best_cover if best_cover else {next(iter(uncovered))}
            covers += 1
        worst = max(worst, covers)
    return float(worst)


def intrinsic_dimension(
    matrix: np.ndarray,
    r_low_ms: float,
    r_high_ms: float,
    seed: int | np.random.Generator | None = None,
    sample_pairs: int = 20000,
) -> float:
    """Correlation-dimension estimate over the scale range [r_low, r_high].

    ``dim ≈ (log C(r_high) - log C(r_low)) / (log r_high - log r_low)``
    where ``C(r)`` is the fraction of sampled pairs within latency ``r``.
    """
    if not 0 < r_low_ms < r_high_ms:
        raise DataError("need 0 < r_low < r_high")
    arr = np.asarray(matrix, dtype=float)
    n = arr.shape[0]
    rng = make_rng(seed)
    a = rng.integers(0, n, size=sample_pairs)
    b = rng.integers(0, n, size=sample_pairs)
    keep = a != b
    sample = arr[a[keep], b[keep]]
    c_low = float(np.mean(sample <= r_low_ms))
    c_high = float(np.mean(sample <= r_high_ms))
    if c_low <= 0 or c_high <= 0:
        raise DataError("no pairs inside the requested radii — widen the range")
    return float(
        (np.log(c_high) - np.log(c_low)) / (np.log(r_high_ms) - np.log(r_low_ms))
    )
