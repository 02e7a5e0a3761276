"""Iterative refinement: robust almost-linear least squares.

Maximizing the joint ring likelihood over the unit sphere is equivalent to
an almost-linear least-squares problem (paper Section II): ignoring the
unit-norm constraint, the optimum of ``sum_j w_j (c_j . s - eta_j)^2``
solves the 3x3 normal equations ``(sum_j w_j c_j c_j^T) s = sum_j w_j
eta_j c_j``; re-normalizing and iterating converges rapidly because the
constraint surface is locally flat.

Robustness against background / mis-reconstructed rings follows the
paper's scheme: each iteration keeps only the rings whose residual at the
current estimate is within a chi gate of their ``d eta``, then re-solves on
that subset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.reconstruction.rings import RingSet


@dataclass(frozen=True)
class RefinementConfig:
    """Refinement parameters.

    Attributes:
        gate_sigma: Keep rings with ``|residual| <= gate_sigma * d eta``.
        min_rings: If gating keeps fewer than this, the ``min_rings`` rings
            with smallest normalized residual are used instead (the
            estimate must never run on an empty set).
        max_iterations: Cap on gate-and-solve rounds.
        tol_deg: Convergence threshold on the angular update.
        ridge: Tikhonov regularization added to the normal matrix (scaled
            by its trace) to keep near-degenerate geometries solvable.
    """

    gate_sigma: float = 3.0
    min_rings: int = 5
    max_iterations: int = 30
    tol_deg: float = 0.05
    ridge: float = 1e-9


@dataclass
class RefinementResult:
    """Outcome of refinement.

    Attributes:
        direction: ``(3,)`` refined unit source direction.
        used: ``(m,)`` mask of rings included in the final solve.
        iterations: Gate-and-solve rounds executed.
        converged: Whether the angular update fell below tolerance.
    """

    direction: np.ndarray
    used: np.ndarray
    iterations: int
    converged: bool


def _solve_weighted(
    axis: np.ndarray,
    axis_w: np.ndarray,
    axis_w_eta: np.ndarray,
    mask: np.ndarray,
    ridge: float,
) -> np.ndarray | None:
    """One weighted least-squares solve over the masked rings.

    ``axis_w`` and ``axis_w_eta`` are the per-ring rows ``w c`` and
    ``w eta c`` (``w = 1 / d eta^2``), computed once per refinement;
    selecting their rows gives the same normal equations as weighting
    the masked rings afresh.
    """
    a = axis_w[mask].T @ axis[mask]
    b = axis_w_eta[mask].sum(axis=0)
    a += np.eye(3) * (ridge * max(np.trace(a), 1.0))
    try:
        s = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return None
    norm = np.linalg.norm(s)
    if norm == 0.0 or not np.all(np.isfinite(s)):
        return None
    return s / norm


def refine_source(
    rings: RingSet,
    initial: np.ndarray,
    config: RefinementConfig | None = None,
) -> RefinementResult:
    """Refine a source estimate with robust iterative least squares.

    Args:
        rings: All rings available to localization.
        initial: ``(3,)`` starting unit direction (from approximation or a
            previous pipeline stage).
        config: Refinement parameters.

    Returns:
        A :class:`RefinementResult`; if every solve fails the initial
        direction is returned unconverged.
    """
    cfg = config or RefinementConfig()
    s = np.asarray(initial, dtype=np.float64)
    s = s / np.linalg.norm(s)
    m = rings.num_rings
    used = np.ones(m, dtype=bool)
    if m == 0:
        return RefinementResult(direction=s, used=used, iterations=0, converged=False)

    # Loop invariants: the weighted rows of the normal equations.  The
    # solve is a pure function of the gate mask, so an unchanged mask
    # reuses the previous solution instead of re-solving.
    w = 1.0 / rings.deta**2  # reprolint: disable=NUM002 -- deta >= DETA_FLOOR > 0 (reconstruction.error_propagation)
    axis_w = rings.axis * w[:, None]
    axis_w_eta = rings.axis * (w * rings.eta)[:, None]
    solved_gate = None
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        normalized = np.abs(rings.residuals(s)) / rings.deta  # reprolint: disable=NUM002 -- deta >= DETA_FLOOR > 0 (reconstruction.error_propagation)
        gate = normalized <= cfg.gate_sigma
        if gate.sum() < min(cfg.min_rings, m):
            order = np.argsort(normalized)
            gate = np.zeros(m, dtype=bool)
            gate[order[: min(cfg.min_rings, m)]] = True
        if solved_gate is None or not np.array_equal(gate, solved_gate):
            s_new = _solve_weighted(
                rings.axis, axis_w, axis_w_eta, gate, cfg.ridge
            )
            solved_gate = gate
        if s_new is None:
            break
        used = gate
        step = np.degrees(np.arccos(np.clip(np.dot(s, s_new), -1.0, 1.0)))
        s = s_new
        if step < cfg.tol_deg:
            converged = True
            break
    return RefinementResult(
        direction=s, used=used, iterations=iterations, converged=converged
    )
