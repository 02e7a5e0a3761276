"""Scoring, percentiles, memory and outcome comparison."""

from __future__ import annotations

import math
import resource

import numpy as np

#: An answer further than this from the truth (or none at all) is a miss.
MISS_DEG = 10.0

#: Error charged to an operation that produced no direction.
NO_DIRECTION_DEG = 180.0


class BenchmarkError(RuntimeError):
    """An output failed its correctness check; no figures are reported."""


def angle_deg(direction, truth) -> float:
    """Angle between an answer and the truth, degrees (180 for no answer)."""
    if direction is None:
        return NO_DIRECTION_DEG
    d = np.asarray(direction, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    cos = float(np.dot(d, t) / (np.linalg.norm(d) * np.linalg.norm(t)))
    return math.degrees(math.acos(min(1.0, max(-1.0, cos))))


def nearest_rank(values, q: float) -> float:
    """Nearest-rank ``q`` quantile (``0 < q <= 1``) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


#: Quantile reported as ``latency_tail_ms``.  The 90th leaves a tenth of
#: the samples beyond it; the highest percentile with only 10 beyond
#: (p95.5 of an ``alert-stream`` run) spread by 0.24 of its median
#: across seeds on a shared 2-core host, too close to its 0.25 bound.
TAIL_Q = 0.9


def tail(values) -> tuple[float, float]:
    """Nearest-rank ``TAIL_Q`` quantile of ``values``.

    Returns:
        ``(value, percentile)``: the percentile is ``100 x rank / n``
        of the sample taken, at or just above 90.
    """
    ordered = sorted(values)
    rank = max(1, math.ceil(TAIL_Q * len(ordered)))
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def accuracy(errors_deg) -> tuple[float, float]:
    """``(median error, miss share)`` over every attempted operation."""
    errors = np.asarray(errors_deg, dtype=np.float64)
    return float(np.median(errors)), float(np.mean(errors > MISS_DEG))


def peak_rss_mb(n_workers: int = 0) -> float:
    """Peak resident memory of this process plus its worker processes.

    Linux reports the peak of the largest reaped child, so the workers
    (all running the same code) are counted as ``n_workers`` times it.
    Call after the workers have been joined.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + n_workers * child) / 1024.0


def _same_array(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(np.asarray(a), np.asarray(b))


#: Tolerance between a batched and a per-event answer.  Rows evaluated
#: inside a larger gathered block can differ from per-event evaluation
#: in the last bits (BLAS picks kernels by shape; see
#: ``docs/inference.md``).  Measured: below 1e-12 relative on sky-map
#: probabilities and below 1e-15 on direction components, far inside
#: these bounds; every count must still match exactly.
BATCHED_RTOL = 1e-9
BATCHED_ATOL = 1e-12


def _close_array(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.allclose(
        a, b, rtol=BATCHED_RTOL, atol=BATCHED_ATOL
    )


def same_outcome(a, b, exact: bool = True) -> bool:
    """Equality of two ``MLPipelineOutcome`` objects.

    Args:
        a, b: The outcomes.
        exact: Bitwise (True), or every count equal and every float
            within :data:`BATCHED_RTOL` / :data:`BATCHED_ATOL` (False).
    """
    same = _same_array if exact else _close_array
    if not (
        same(a.direction, b.direction)
        and a.iterations == b.iterations
        and a.converged == b.converged
        and a.rings_in == b.rings_in
        and a.rings_kept == b.rings_kept
        and a.background_removed_correct == b.background_removed_correct
        and len(a.intermediate_directions) == len(b.intermediate_directions)
        and all(
            same(x, y)
            for x, y in zip(a.intermediate_directions, b.intermediate_directions)
        )
    ):
        return False
    if a.sky is None or b.sky is None:
        return a.sky is None and b.sky is None
    return (
        same(a.sky.probability, b.sky.probability)
        and same(a.sky.log_likelihood, b.sky.log_likelihood)
        and same(a.sky.grid.directions, b.sky.grid.directions)
    )


def check_answer(outcome) -> None:
    """Raise unless ``outcome`` is a well-formed answer."""
    if outcome.direction is not None:
        norm = float(np.linalg.norm(outcome.direction))
        if not (np.all(np.isfinite(outcome.direction)) and abs(norm - 1) < 1e-9):
            raise BenchmarkError(f"direction is not a unit vector: {outcome.direction}")
    if outcome.sky is not None:
        total = float(np.sum(outcome.sky.probability))
        if not abs(total - 1.0) < 1e-9:
            raise BenchmarkError(f"sky map probability sums to {total}")
