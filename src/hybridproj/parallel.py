"""Deterministic data-parallel candidate evaluation.

Each solver phase evaluates a family of candidate points and selects the one
furthest from a reference point. The family is split into contiguous index
chunks; a family larger than one chunk runs on the worker threads, one
chunk per task. Every candidate value and distance is computed elementwise,
so it does not depend on the chunk layout. The reduction walks chunks in
index order and keeps a strictly greater maximum, which reproduces a global
first-occurrence argmax. Results are therefore identical for any worker
count, including 1.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Furthest", "chunk_ranges", "furthest_candidate", "squared_distances"]

# Batch evaluator contract: evaluate(lo, hi) returns the candidate points for
# members lo..lo+k-1 as an array of shape (k, d) with k <= hi - lo. Members
# lo+k..hi-1 map the evaluation point to itself, so a full chunk would hold
# that point in each of their rows; k < hi - lo needs the caller to pass
# that point to furthest_candidate. The returned array is owned by the
# caller and may be mutated.
ChunkEvaluator = Callable[[int, int], np.ndarray]

# Cap on rows per chunk. Keeping chunk temporaries a few megabytes large lets
# the allocator reuse them instead of remapping fresh pages every pass, which
# costs several times the arithmetic at multi-million-member scale.
TARGET_CHUNK_ROWS = 262_144


@dataclass(frozen=True)
class Furthest:
    """Winning candidate of a phase: first index attaining the max distance."""

    index: int
    point: np.ndarray
    dist2: float

    @property
    def distance(self) -> float:
        return float(np.sqrt(self.dist2))


def chunk_ranges(count: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(count)`` into at most ``parts`` contiguous chunks."""
    if count <= 0:
        return []
    parts = max(1, min(parts, count))
    bounds = np.linspace(0, count, parts + 1, dtype=np.int64)
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def squared_distances(points: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Squared distance of each row of ``points`` to ``x``.

    One temporary, squared in place; the coordinate sum runs only when there
    is more than one coordinate.
    """
    dist2 = points - x
    np.square(dist2, out=dist2)
    return dist2.sum(axis=1) if x.size > 1 else dist2.reshape(-1)


def _chunk_best(
    evaluate: ChunkEvaluator, lo: int, hi: int, x: np.ndarray,
    fixed: np.ndarray | None = None,
) -> Furthest:
    points = np.asarray(evaluate(lo, hi), dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != x.size or points.shape[0] > hi - lo:
        raise ValueError(
            f"evaluator returned shape {points.shape}, expected {(hi - lo, x.size)}"
        )
    k = points.shape[0]
    if k < hi - lo and fixed is None:
        raise ValueError(
            f"evaluator returned {k} of {hi - lo} rows and no fixed point was given"
        )
    best = None
    if k > 0:
        dist2 = squared_distances(points, x)
        i = int(np.argmax(dist2))
        d2 = float(dist2[i])
        # argmax returns the first NaN, so one check at the winner catches
        # a non-finite candidate anywhere in the head.
        if not math.isfinite(d2):
            raise ValueError(
                f"member {lo + i} gave a candidate at non-finite squared distance {d2}"
            )
        best = Furthest(index=lo + i, point=np.array(points[i]), dist2=d2)
    if k < hi - lo:
        # Every tail row equals ``fixed``: its first index is the tail's
        # argmax, and it must beat the head strictly to keep ties earlier.
        tail2 = float(squared_distances(fixed[np.newaxis], x)[0])
        if best is None or tail2 > best.dist2:
            best = Furthest(index=lo + k, point=np.array(fixed), dist2=tail2)
    return best


def furthest_candidate(
    evaluate: ChunkEvaluator,
    count: int,
    x: np.ndarray,
    fixed: np.ndarray | None = None,
    pool: ThreadPoolExecutor | None = None,
    workers: int = 1,
) -> Furthest:
    """Evaluate ``count`` candidates and return the furthest one from ``x``.

    Ties break toward the smallest index. When a pool is given the chunks run
    on its threads; the reduction order stays fixed either way. ``fixed`` is
    the point the evaluator's members are applied to: an evaluator may then
    stop a chunk early, and each member it leaves out counts as the
    candidate ``fixed``. Without it every chunk must come back full. A
    candidate at a non-finite distance from ``x`` raises ``ValueError``
    naming its member.
    """
    if count <= 0:
        raise ValueError("candidate family must be nonempty")
    if fixed is not None:
        fixed = np.asarray(fixed, dtype=np.float64)
        if fixed.shape != x.shape:
            raise ValueError(f"fixed point has shape {fixed.shape}, expected {x.shape}")
    parts = -(-count // TARGET_CHUNK_ROWS)
    # A family that fits in one chunk stays on the calling thread: pool
    # dispatch costs more than splitting it saves.
    if pool is not None and parts > 1:
        parts = max(parts, workers)
    ranges = chunk_ranges(count, parts)
    if pool is None or len(ranges) == 1:
        results = [_chunk_best(evaluate, lo, hi, x, fixed) for lo, hi in ranges]
    else:
        futures = [
            pool.submit(_chunk_best, evaluate, lo, hi, x, fixed) for lo, hi in ranges
        ]
        results = [f.result() for f in futures]
    best = results[0]
    for candidate in results[1:]:
        if candidate.dist2 > best.dist2:
            best = candidate
    return best
