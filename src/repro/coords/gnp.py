"""GNP-style landmark coordinates (Ng & Zhang, INFOCOM 2002).

A small set of landmarks measure each other and solve a global embedding;
every other node then measures the landmarks and solves its own coordinate
against the fixed landmark positions.  Both solves are plain least squares
on relative error, via the in-house Levenberg-Marquardt (LM) loop below
rather than scipy's MINPACK wrappers: both ``leastsq`` and
``least_squares(method="lm")`` can return *different* minima for
byte-identical inputs depending on process heap state (observed directly:
same ``x0``, same residuals, two distinct fixed points across allocator
histories), and a single ULP of drift in a landmark solve cascades through
every dependent coordinate into different greedy-walk answers — which
breaks the repo's fixed-seed replay guarantee.

There is one LM solver, :func:`_lockstep_lm`, and every solve goes through
it: the joint landmark fit (one point of ``L * d`` unknowns), the
non-landmark members (all of them in one stack) and each external
placement (a stack of one).  It steps a stack of independent points in
lockstep, each with its own damping, accept/reject decision, stop rule and
iteration budget, and drops a point from the stack when it stops.  Its
result stays a pure function of each point's own inputs: the stacked
``matmul`` (gradient, Hessian, cost) and ``linalg.solve`` calls give every
item the same floats as the per-point calls (``einsum`` does not, so it is
not used), a singular damped system is redone point by point so it fails
only its own point, and the damping schedule is fixed.
``tests/test_coords.py`` keeps the point-by-point solver as the reference
and pins both the identity and the platform properties it rests on.

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


#: Every row of the stack: the solver's index while no point has stopped.
_ALL = slice(None)


def _sum_squares(residual: np.ndarray) -> np.ndarray:
    """Per-row ``r @ r`` of a ``(k, R)`` stack (stacked matmul: same dot)."""
    return np.matmul(residual[:, None, :], residual[:, :, None])[:, 0, 0]


def _solve_each(
    damped: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """Solve ``damped[i] @ step[i] = rhs[i]``; returns (steps, solvable mask).

    ``rhs`` is a ``(m, n, 1)`` stack of column vectors.  One stacked LAPACK
    call per damping try; a stacked solve raises if any item is singular,
    so that try is redone point by point: the singular points fail alone
    (mask ``False``) and every other point gets the step it would have got
    by itself.  The mask is ``None`` when every point solved.
    """
    try:
        return np.linalg.solve(damped, rhs)[:, :, 0], None
    except np.linalg.LinAlgError:
        steps = np.zeros(rhs.shape[:2])
        solvable = np.ones(rhs.shape[0], dtype=bool)
        for i in range(rhs.shape[0]):
            try:
                steps[i] = np.linalg.solve(damped[i], rhs[i, :, 0])
            except np.linalg.LinAlgError:
                solvable[i] = False
        return steps, solvable


def _lockstep_lm(
    residual_fn, jacobian_fn, x0: np.ndarray, max_iter: int
) -> np.ndarray:
    """Deterministic Levenberg-Marquardt over a stack of independent points.

    Minimises ``sum(residual**2)`` for each row of ``x0`` (shape ``(k, n)``)
    separately.  ``residual_fn(x, rows)`` evaluates the points ``rows`` of
    the stack (an index array, or :data:`_ALL`) at positions ``x`` and
    returns ``(residuals, parts)``: a ``(m, R)`` residual stack plus the
    intermediate arrays ``jacobian_fn(parts, rows)`` turns into the
    ``(m, R, n)`` Jacobian, so an accepted candidate's evaluation is reused
    rather than recomputed.  Every point keeps its own damping ``lam``,
    accept/reject decision, stop rule (gradient below 1e-12 or relative
    drop below 1e-12) and ``max_iter`` budget, and leaves the active set
    when it stops.  While every active point takes part in a step the
    arrays are used whole, so ``k = 1`` pays no indexing.
    """
    solved = np.array(x0, dtype=float)
    n = solved.shape[1]
    index = np.arange(solved.shape[0])  # active point -> stack row
    if not index.size:
        return solved
    rows = _ALL
    x = solved
    residual, parts = residual_fn(x, rows)
    cost = _sum_squares(residual)
    lam = np.full(index.size, 1e-3)
    for _ in range(max_iter):
        jacobian = jacobian_fn(parts, rows)
        jacobian_t = jacobian.transpose(0, 2, 1)
        gradient = np.matmul(jacobian_t, residual[:, :, None])  # (m, n, 1)
        hessian = np.matmul(jacobian_t, jacobian)
        largest = np.abs(gradient).max(axis=(1, 2), initial=0.0)
        # Every active point was accepted last step (so lam <= 3e11): each
        # point whose gradient is not yet negligible tries at least once.
        # ``min() >= 1e-12`` is False on a NaN, which takes the masked way.
        if largest.min() >= 1e-12:
            pick = _ALL
        else:
            pick = np.flatnonzero(~(largest < 1e-12))
        improved = None  # accepted points: None (no one yet), _ALL, or a mask
        while pick is _ALL or pick.size:
            damped = hessian.copy() if pick is _ALL else hessian[pick]
            diagonal = damped.reshape(damped.shape[0], n * n)[:, :: n + 1]
            diagonal += lam[pick, None] * np.maximum(diagonal, 1e-12)
            step, solvable = _solve_each(damped, -gradient[pick])
            failed = None
            if solvable is not None:
                pick = np.arange(index.size)[pick]
                failed = pick[~solvable]
                pick, step = pick[solvable], step[solvable]
            candidate = x[pick] + step
            candidate_residual, candidate_parts = residual_fn(
                candidate, rows if pick is _ALL else index[pick]
            )
            candidate_cost = _sum_squares(candidate_residual)
            better = candidate_cost < cost[pick]
            if pick is _ALL and better.all():
                relative_drop = (cost - candidate_cost) / np.maximum(cost, 1e-300)
                x, residual, cost, parts = (
                    candidate, candidate_residual, candidate_cost, candidate_parts
                )
                lam = np.maximum(lam * 0.3, 1e-12)
                improved = _ALL
                break
            if better.any():
                if improved is None:
                    improved = np.zeros(index.size, dtype=bool)
                    relative_drop = np.zeros(index.size)
                pick = np.arange(index.size)[pick]
                won = pick[better]
                relative_drop[won] = (cost[won] - candidate_cost[better]) / (
                    np.maximum(cost[won], 1e-300)
                )
                x[won] = candidate[better]
                residual[won] = candidate_residual[better]
                cost[won] = candidate_cost[better]
                for part, new in zip(parts, candidate_parts):
                    part[won] = new[better]
                lam[won] = np.maximum(lam[won] * 0.3, 1e-12)
                improved[won] = True
                pick = pick[~better]
            if failed is not None:
                pick = np.sort(np.concatenate([pick, failed]))
            lam[pick] *= 10.0
            if pick is not _ALL:
                pick = pick[lam[pick] <= 1e12]
            elif not lam.max() <= 1e12:
                pick = np.flatnonzero(lam <= 1e12)
        if improved is None:
            break
        if improved is _ALL:
            if relative_drop.min() >= 1e-12:
                continue
            go_on = ~(relative_drop < 1e-12)
        else:
            go_on = improved & ~(relative_drop < 1e-12)
        solved[index[~go_on]] = x[~go_on]
        if not go_on.any():
            return solved
        index, x, residual, cost, lam = (
            index[go_on], x[go_on], residual[go_on], cost[go_on], lam[go_on]
        )
        parts = tuple(part[go_on] for part in parts)
        rows = index
    solved[index] = x
    return solved


def _solve_points(
    anchors: np.ndarray, rtts: np.ndarray, x0: np.ndarray
) -> np.ndarray:
    """Least-squares positions of ``k`` points from their anchor distances.

    ``rtts`` is ``(k, L)``, row ``i`` point ``i``'s measured distances to
    the ``L`` ``anchors``; every point starts from ``x0``.  Returns ``(k, d)``.
    """
    weights = np.maximum(rtts, 1e-3)

    def residuals(x: np.ndarray, rows) -> tuple[np.ndarray, tuple]:
        # x - a is exactly -(a - x), so one offset stack serves the distance
        # and the Jacobian; sqrt(add.reduce(o * o)) is numpy's own
        # ``norm(o, axis=-1)`` for real input, minus its call overhead.
        offsets = x[:, None, :] - anchors
        predicted = np.sqrt(np.add.reduce(offsets * offsets, axis=-1))
        return (predicted - rtts[rows]) / weights[rows], (offsets, predicted)

    def jacobian(parts: tuple, rows) -> np.ndarray:
        offsets, predicted = parts
        distances = np.maximum(predicted, 1e-12)
        return offsets / (distances * weights[rows])[:, :, None]

    x0 = np.broadcast_to(x0, (rtts.shape[0], anchors.shape[1]))
    return _lockstep_lm(residuals, jacobian, x0, max_iter=50)


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

        def landmark_residuals(
            flat: np.ndarray, rows
        ) -> tuple[np.ndarray, tuple]:
            pos = flat.reshape(-1, L, d)
            diff = pos[:, iu[0]] - pos[:, iu[1]]
            predicted = np.linalg.norm(diff, axis=-1)
            return (predicted - actual) / weights, (diff, predicted)

        def landmark_jacobian(parts: tuple, rows) -> np.ndarray:
            diff, predicted = parts
            distances = np.maximum(predicted, 1e-12)
            grad = diff / (distances * weights)[:, :, None]
            jacobian = np.zeros((diff.shape[0], iu[0].size, L * d))
            for axis in range(d):
                jacobian[:, pair_index, iu[0] * d + axis] = grad[:, :, axis]
                jacobian[:, pair_index, iu[1] * d + axis] = -grad[:, :, axis]
            return jacobian

        lm_positions = _lockstep_lm(
            landmark_residuals, landmark_jacobian, x0[None, :], max_iter=200
        ).reshape(L, d)

        # Stage 2: every other member against the fixed landmarks, in one
        # lockstep solve.
        positions: dict[int, np.ndarray] = {}
        for i, lm in enumerate(landmarks):
            positions[int(lm)] = lm_positions[i]
        others = members[~np.isin(members, landmarks)]
        rtts = np.asarray(measure(others, landmarks), dtype=float)
        solved = _solve_points(lm_positions, rtts, lm_positions.mean(axis=0))
        positions.update(zip(others.tolist(), solved))
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
        anchors = self.landmark_positions
        return _solve_points(anchors, rtts[None, :], anchors.mean(axis=0))[0]
