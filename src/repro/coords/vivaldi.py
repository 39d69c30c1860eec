"""Vivaldi network coordinates (Dabek, Cox, Kaashoek, Morris — SIGCOMM 2004).

Each node holds a Euclidean coordinate (optionally with a non-Euclidean
"height" modelling access-link delay) and a confidence-weighted error
estimate.  Processing a latency sample pulls/pushes the node along the unit
vector toward its neighbour with an adaptive timestep:

    w      = e_i / (e_i + e_j)
    es     = |‖x_i - x_j‖ - rtt| / rtt
    e_i    = es * ce * w + e_i * (1 - ce * w)
    delta  = cc * w
    x_i   += delta * (rtt - ‖x_i - x_j‖) * u(x_i - x_j)

This is the standard formulation with the paper's recommended constants
``cc = ce = 0.25``.

The rule lives in one place, :meth:`VivaldiSystem._update`, which both
:meth:`~VivaldiSystem.observe` (one sample) and :meth:`~VivaldiSystem.run`
(the simulation driver) call.  ``run`` reads each node's partner RTTs of a
round as one ``measure(rows, cols)`` block and keeps errors and heights as
Python floats while it runs; the floats and the rng draws are the same as
one ``observe`` per sample.  Every norm is ``math.sqrt(v.dot(v))``, which
is exactly what ``np.linalg.norm`` computes for a 1-D real vector.  It must
stay on ``ndarray.dot``: the BLAS dot may fuse multiply-adds, so a Python
float loop or a row-wise ``norm(axis=1)`` can round differently in the
last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.topology.oracle import Measure
from repro.util.errors import DataError
from repro.util.rng import make_rng
from repro.util.validate import require_in_range, require_positive


@dataclass(frozen=True)
class VivaldiConfig:
    """Vivaldi constants and driver parameters."""

    dimensions: int = 3
    cc: float = 0.25  # timestep constant
    ce: float = 0.25  # error-adaptation constant
    use_height: bool = True
    initial_error: float = 1.0
    min_height: float = 0.1

    def __post_init__(self) -> None:
        require_positive(self.dimensions, "dimensions")
        require_in_range(self.cc, "cc", 0.0, 1.0)
        require_in_range(self.ce, "ce", 0.0, 1.0)


def _random_unit(rng: np.random.Generator, dimensions: int) -> np.ndarray:
    """A unit vector in a random direction (one ``normal`` draw)."""
    direction = rng.normal(size=dimensions)
    direction /= math.sqrt(direction.dot(direction))
    return direction


class VivaldiSystem:
    """Coordinates and errors for a set of nodes, updated sample by sample."""

    def __init__(
        self,
        node_ids: np.ndarray | list[int],
        config: VivaldiConfig | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.config = config or VivaldiConfig()
        self.node_ids = np.asarray(node_ids, dtype=int)
        if self.node_ids.size < 2:
            raise DataError("Vivaldi needs at least two nodes")
        rng = make_rng(seed)
        self._index = {int(n): i for i, n in enumerate(self.node_ids)}
        n = self.node_ids.size
        # Tiny random placement breaks symmetry (all-zero coordinates would
        # make the unit vector undefined).
        self.positions = rng.normal(0.0, 0.01, size=(n, self.config.dimensions))
        self.heights = np.full(n, self.config.min_height)
        self.errors = np.full(n, self.config.initial_error)
        self._rng = rng
        self.samples_processed = 0

    # -- geometry -----------------------------------------------------------

    def _row(self, node_id: int) -> int:
        try:
            return self._index[int(node_id)]
        except KeyError as exc:
            raise DataError(f"unknown Vivaldi node {node_id}") from exc

    def coordinate_distance(self, a: int, b: int) -> float:
        """Predicted RTT between two nodes from their coordinates."""
        ia, ib = self._row(a), self._row(b)
        euclid = float(np.linalg.norm(self.positions[ia] - self.positions[ib]))
        if self.config.use_height:
            return euclid + float(self.heights[ia] + self.heights[ib])
        return euclid

    # -- learning ------------------------------------------------------------

    def _update(self, ia: int, ib: int, rtt_ms: float, errors, heights) -> None:
        """The Vivaldi rule: move row ``ia`` by one RTT sample to row ``ib``.

        ``errors`` and ``heights`` are the per-row values being updated:
        the arrays themselves for a single :meth:`observe`, Python float
        lists for the length of a :meth:`run`.  Either way every operation
        is the same IEEE double operation in the same order.
        """
        if rtt_ms <= 0:
            return
        cfg = self.config
        positions = self.positions
        delta_vec = positions[ia] - positions[ib]
        euclid = math.sqrt(delta_vec.dot(delta_vec))  # == np.linalg.norm
        predicted = euclid + (heights[ia] + heights[ib] if cfg.use_height else 0.0)
        if euclid < 1e-9:
            euclid_dir = _random_unit(self._rng, cfg.dimensions)
        else:
            euclid_dir = delta_vec / euclid

        error = errors[ia]
        w = error / (error + errors[ib] + 1e-12)
        relative_error = abs(predicted - rtt_ms) / rtt_ms
        error = relative_error * cfg.ce * w + error * (1.0 - cfg.ce * w)
        errors[ia] = min(max(error, 0.01), 5.0)

        force = cfg.cc * w * (rtt_ms - predicted)
        positions[ia] += force * euclid_dir
        if cfg.use_height and euclid > 1e-9:
            heights[ia] = max(
                cfg.min_height, heights[ia] + force * (heights[ia] / predicted)
            )
        self.samples_processed += 1

    def observe(self, a: int, b: int, rtt_ms: float) -> None:
        """Update node ``a``'s coordinate from one RTT sample to ``b``."""
        self._update(self._row(a), self._row(b), rtt_ms, self.errors, self.heights)

    def run(
        self,
        measure: Measure,
        rounds: int = 30,
        neighbors_per_round: int = 8,
    ) -> None:
        """Drive the system with random-neighbour sampling.

        Each round, every node observes RTTs to ``neighbors_per_round``
        random peers — the standard simulation discipline for Vivaldi
        convergence studies.  A population smaller than that draws every
        row instead.  Each node's samples of a round are one
        ``measure(rows, cols)`` block read (its own row is dropped from
        the draw before the read): a standalone caller passes
        ``oracle.latency_block``, a search scheme its counted index
        channel.
        """
        n = self.node_ids.size
        size = min(neighbors_per_round, n)
        node_ids = self.node_ids
        errors, heights = self.errors.tolist(), self.heights.tolist()
        for _ in range(rounds):
            order = self._rng.permutation(n)
            for row in order.tolist():
                partners = self._rng.choice(n, size=size, replace=False)
                partners = partners[partners != row]
                if not partners.size:
                    continue
                rtts = measure(node_ids[row : row + 1], node_ids[partners])[0]
                for partner, rtt in zip(partners.tolist(), rtts.tolist()):
                    self._update(row, partner, rtt, errors, heights)
        self.errors[:] = errors
        self.heights[:] = heights

    # -- placement of outside nodes -----------------------------------------

    def place_external(
        self,
        rtts: dict[int, float],
        iterations: int = 64,
    ) -> tuple[np.ndarray, float]:
        """Fit a coordinate for a node outside the system.

        ``rtts`` maps member node ids to measured RTTs.  Runs the same
        spring relaxation against the fixed member coordinates (how PIC and
        Vivaldi place newly joining nodes).  Returns (position, height).
        """
        if not rtts:
            raise DataError("need at least one RTT sample to place a node")
        cfg = self.config
        position = np.mean(
            [self.positions[self._row(m)] for m in rtts], axis=0
        ) + self._rng.normal(0.0, 0.01, size=cfg.dimensions)
        height = cfg.min_height
        error = cfg.initial_error
        members = list(rtts)
        for _ in range(iterations):
            m = members[int(self._rng.integers(len(members)))]
            rtt = rtts[m]
            if rtt <= 0:
                continue
            im = self._row(m)
            delta_vec = position - self.positions[im]
            euclid = math.sqrt(delta_vec.dot(delta_vec))
            predicted = euclid + (
                height + float(self.heights[im]) if cfg.use_height else 0.0
            )
            direction = (
                delta_vec / euclid
                if euclid > 1e-9
                else _random_unit(self._rng, cfg.dimensions)
            )
            w = error / (error + float(self.errors[im]) + 1e-12)
            relative_error = abs(predicted - rtt) / rtt
            error = min(
                max(relative_error * cfg.ce * w + error * (1 - cfg.ce * w), 0.01), 5.0
            )
            force = cfg.cc * w * (rtt - predicted)
            position = position + force * direction
        return position, height
