"""GNP-style landmark coordinates (Ng & Zhang, INFOCOM 2002).

A small set of landmarks measure each other and solve a global embedding;
every other node then measures the landmarks and solves its own coordinate
against the fixed landmark positions.  Both solves are plain least squares
on relative error, via the in-house Levenberg-Marquardt loop below rather
than scipy's MINPACK wrappers: both ``leastsq`` and
``least_squares(method="lm")`` can return *different* minima for
byte-identical inputs depending on process heap state (observed directly:
same ``x0``, same residuals, two distinct fixed points across allocator
histories), and a single ULP of drift in a landmark solve cascades through
every dependent coordinate into different greedy-walk answers — which
breaks the repo's fixed-seed replay guarantee.  The loop here is ordinary
numpy on value-identical arrays with a fixed damping schedule, so its
result is a pure function of the inputs.

PIC's "fixed-point" placement strategy is the same computation with peers
as landmarks, so :class:`GnpEmbedding` doubles as PIC's embedding engine in
:mod:`repro.algorithms.pic`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.topology.oracle import Measure
from repro.util.errors import DataError
from repro.util.rng import make_rng
from repro.util.validate import require_positive


@dataclass(frozen=True)
class GnpConfig:
    """Embedding parameters."""

    dimensions: int = 5
    n_landmarks: int = 12

    def __post_init__(self) -> None:
        require_positive(self.dimensions, "dimensions")
        if self.n_landmarks <= self.dimensions:
            raise DataError(
                f"need more landmarks ({self.n_landmarks}) than dimensions "
                f"({self.dimensions})"
            )


def _lm_least_squares(
    residual_fn,
    jacobian_fn,
    x0: np.ndarray,
    max_iter: int,
) -> np.ndarray:
    """Deterministic Levenberg-Marquardt: minimise ``sum(residual_fn(x)**2)``.

    Fixed damping schedule, analytic Jacobian, no black-box solver state:
    for identical input values the iterate sequence — and therefore the
    returned point — is bit-identical whatever the allocator has been
    doing, which is the property the fixed-seed replay tests pin.
    """
    x = np.array(x0, dtype=float)
    residual = residual_fn(x)
    cost = float(residual @ residual)
    lam = 1e-3
    for _ in range(max_iter):
        jacobian = jacobian_fn(x)
        gradient = jacobian.T @ residual
        if float(np.max(np.abs(gradient), initial=0.0)) < 1e-12:
            break
        hessian = jacobian.T @ jacobian
        diag = np.diag_indices_from(hessian)
        improved = False
        relative_drop = 0.0
        while lam <= 1e12:
            damped = hessian.copy()
            damped[diag] += lam * np.maximum(hessian[diag], 1e-12)
            try:
                step = np.linalg.solve(damped, -gradient)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            candidate = x + step
            candidate_residual = residual_fn(candidate)
            candidate_cost = float(candidate_residual @ candidate_residual)
            if candidate_cost < cost:
                relative_drop = (cost - candidate_cost) / max(cost, 1e-300)
                x, residual, cost = candidate, candidate_residual, candidate_cost
                lam = max(lam * 0.3, 1e-12)
                improved = True
                break
            lam *= 10.0
        if not improved or relative_drop < 1e-12:
            break
    return x


def _solve_point(
    anchors: np.ndarray, rtts: np.ndarray, x0: np.ndarray
) -> np.ndarray:
    """Least-squares position of one point given distances to anchors."""
    weights = np.maximum(rtts, 1e-3)

    def residuals(x: np.ndarray) -> np.ndarray:
        predicted = np.linalg.norm(anchors - x[None, :], axis=1)
        return (predicted - rtts) / weights

    def jacobian(x: np.ndarray) -> np.ndarray:
        offsets = x[None, :] - anchors
        distances = np.maximum(
            np.linalg.norm(offsets, axis=1), 1e-12
        )
        return offsets / (distances * weights)[:, None]

    return _lm_least_squares(residuals, jacobian, x0, max_iter=50)


class GnpEmbedding:
    """Landmark-based coordinates for a set of member nodes."""

    def __init__(
        self,
        config: GnpConfig,
        landmark_ids: np.ndarray,
        landmark_positions: np.ndarray,
        positions: dict[int, np.ndarray],
    ) -> None:
        self.config = config
        self.landmark_ids = landmark_ids
        self.landmark_positions = landmark_positions
        self._positions = positions

    @classmethod
    def build(
        cls,
        measure: Measure,
        member_ids: np.ndarray | list[int],
        config: GnpConfig | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> "GnpEmbedding":
        """Embed all ``member_ids`` (landmarks drawn from among them).

        Measures two ``measure(rows, cols)`` RTT blocks: landmarks ×
        landmarks, then the other members × landmarks.  A standalone
        caller passes ``oracle.latency_block``; PIC passes its counted
        index channel, so a re-embedding under churn is billed exactly.
        """
        config = config or GnpConfig()
        rng = make_rng(seed)
        members = np.asarray(member_ids, dtype=int)
        if members.size < config.n_landmarks:
            raise DataError(
                f"population {members.size} smaller than landmark count "
                f"{config.n_landmarks}"
            )
        landmarks = rng.choice(members, size=config.n_landmarks, replace=False)

        # Stage 1: landmark-landmark embedding (joint least squares).
        lm_rtts = np.asarray(measure(landmarks, landmarks), dtype=float)
        L, d = config.n_landmarks, config.dimensions
        x0 = rng.normal(0.0, np.median(lm_rtts) / 2.0 + 1e-3, size=L * d)

        iu = np.triu_indices(L, k=1)

        actual = lm_rtts[iu]
        weights = np.maximum(actual, 1e-3)
        pair_index = np.arange(iu[0].size)

        def landmark_residuals(flat: np.ndarray) -> np.ndarray:
            pos = flat.reshape(L, d)
            diff = pos[iu[0]] - pos[iu[1]]
            predicted = np.linalg.norm(diff, axis=1)
            return (predicted - actual) / weights

        def landmark_jacobian(flat: np.ndarray) -> np.ndarray:
            pos = flat.reshape(L, d)
            diff = pos[iu[0]] - pos[iu[1]]
            distances = np.maximum(np.linalg.norm(diff, axis=1), 1e-12)
            grad = diff / (distances * weights)[:, None]
            jacobian = np.zeros((iu[0].size, L * d))
            for axis in range(d):
                jacobian[pair_index, iu[0] * d + axis] = grad[:, axis]
                jacobian[pair_index, iu[1] * d + axis] = -grad[:, axis]
            return jacobian

        lm_positions = _lm_least_squares(
            landmark_residuals, landmark_jacobian, x0, max_iter=200
        ).reshape(L, d)

        # Stage 2: every other member against the fixed landmarks.
        positions: dict[int, np.ndarray] = {}
        for i, lm in enumerate(landmarks):
            positions[int(lm)] = lm_positions[i]
        centroid = lm_positions.mean(axis=0)
        others = members[~np.isin(members, landmarks)]
        rtts = np.asarray(measure(others, landmarks), dtype=float)
        for node, row in zip(others.tolist(), rtts):
            positions[node] = _solve_point(lm_positions, row, centroid)
        return cls(
            config=config,
            landmark_ids=landmarks,
            landmark_positions=lm_positions,
            positions=positions,
        )

    # -- queries -------------------------------------------------------------

    def position(self, node_id: int) -> np.ndarray:
        try:
            return self._positions[int(node_id)]
        except KeyError as exc:
            raise DataError(f"node {node_id} was not embedded") from exc

    def coordinate_distance(self, a: int, b: int) -> float:
        """Predicted RTT between two embedded nodes."""
        return float(np.linalg.norm(self.position(a) - self.position(b)))

    def place_external(self, rtts_to_landmarks: np.ndarray) -> np.ndarray:
        """Embed an outside node from its measured landmark RTTs.

        ``rtts_to_landmarks`` is parallel to :attr:`landmark_ids` — which
        may hold fewer than ``config.n_landmarks`` entries after departed
        landmarks were trimmed under membership churn.
        """
        rtts = np.asarray(rtts_to_landmarks, dtype=float)
        if rtts.shape != (len(self.landmark_ids),):
            raise DataError(
                f"expected {len(self.landmark_ids)} landmark RTTs, got {rtts.shape}"
            )
        return _solve_point(
            self.landmark_positions, rtts, self.landmark_positions.mean(axis=0)
        )
