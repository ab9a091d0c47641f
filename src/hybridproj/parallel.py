"""Deterministic data-parallel candidate evaluation.

Each solver phase evaluates a family of candidate points and selects the one
furthest from a reference point. Only the moved prefix of the family is
evaluated: every member past it leaves the evaluation point unchanged, so
that point stands for all of them as one candidate at the prefix's end. The
prefix is walked in blocks of at most ``TARGET_CHUNK_ROWS`` rows; with a
worker pool it is first split into one contiguous share per worker, but
into no more shares than it has blocks. Every
candidate value and distance is computed elementwise, so it does not depend
on the block layout. The reduction walks blocks in index order and keeps a
strictly greater maximum, which reproduces a global first-occurrence argmax.
Results are therefore identical for any worker count, including 1.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Furthest", "chunk_ranges", "furthest_candidate", "squared_distances"]

# Batch evaluator contract: evaluate(lo, hi) returns the candidate points for
# members lo..hi-1 as an array of shape (hi - lo, d). It is called only for
# members of the moved prefix. The returned array is owned by the caller and
# may be mutated.
ChunkEvaluator = Callable[[int, int], np.ndarray]

# Cap on rows per block. A float64 temporary of 32,768 rows is 256 KiB, so a
# block's temporaries stay in a 2 MiB L2 cache. A 700k-member section4
# resolvent pass took 3.0 ms with these blocks, 6.2 ms with 262,144-row
# blocks (2 MiB each) and 3.7 ms with 8,192-row blocks, where the per-block
# Python cost outweighs the cache gain (2-vCPU x86-64 host, 2 MiB L2 per
# core, numpy 2.4).
TARGET_CHUNK_ROWS = 32_768


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


def _chunk_best(evaluate: ChunkEvaluator, lo: int, hi: int, x: np.ndarray) -> Furthest:
    best = None
    for start in range(lo, hi, TARGET_CHUNK_ROWS):
        stop = min(start + TARGET_CHUNK_ROWS, hi)
        points = np.asarray(evaluate(start, stop), dtype=np.float64)
        if points.shape != (stop - start, x.size):
            raise ValueError(f"evaluator returned shape {points.shape}, "
                             f"expected {(stop - start, x.size)}")
        dist2 = squared_distances(points, x)
        i = int(np.argmax(dist2))
        d2 = float(dist2[i])
        # argmax returns the first NaN, so one check at the winner catches
        # a non-finite candidate anywhere in the block.
        if not math.isfinite(d2):
            raise ValueError(f"member {start + i} gave a candidate at non-finite "
                             f"squared distance {d2}")
        if best is None or d2 > best.dist2:
            best = Furthest(index=start + i, point=np.array(points[i]), dist2=d2)
    return best


def furthest_candidate(
    evaluate: ChunkEvaluator,
    count: int,
    x: np.ndarray,
    fixed: np.ndarray | None = None,
    pool: ThreadPoolExecutor | None = None,
    workers: int = 1,
    moved: int | None = None,
) -> Furthest:
    """Return the furthest from ``x`` of ``count`` candidates.

    Only members ``0..moved-1`` are evaluated (all ``count`` by default).
    Each member from ``moved`` on counts as the candidate ``fixed``, the
    point the members are applied to; it is scored once, at index ``moved``.
    Ties break toward the smallest index. With a pool the prefix runs as
    one contiguous share per worker, but no more shares than blocks, the
    first on the calling thread; the reduction order stays fixed either way.
    A candidate at a non-finite distance from ``x`` raises ``ValueError``
    naming its member.
    """
    if count <= 0:
        raise ValueError("candidate family must be nonempty")
    moved = count if moved is None else moved
    if not 0 <= moved <= count:
        raise ValueError(f"moved prefix {moved} lies outside 0..{count}")
    if moved < count:
        if fixed is None:
            raise ValueError(f"{count - moved} members left out without a fixed point")
        fixed = np.asarray(fixed, dtype=np.float64)
        if fixed.shape != x.shape:
            raise ValueError(f"fixed point has shape {fixed.shape}, expected {x.shape}")
    # No more shares than blocks: a one-block prefix never touches the pool,
    # and a large worker count does not submit shares smaller than a block.
    parts = 1 if pool is None else min(workers, math.ceil(moved / TARGET_CHUNK_ROWS))
    shares = chunk_ranges(moved, parts)
    futures = [pool.submit(_chunk_best, evaluate, *share, x) for share in shares[1:]]
    try:
        results = [_chunk_best(evaluate, *share, x) for share in shares[:1]]
    finally:
        # No share outlives the call, even when the first one raises.
        wait(futures)
    results += [f.result() for f in futures]
    if moved < count:
        # Every left-out member's candidate is ``fixed``: its first index is
        # ``moved``, and it must beat the prefix strictly to keep ties earlier.
        tail2 = float(squared_distances(fixed[np.newaxis], x)[0])
        results.append(Furthest(index=moved, point=np.array(fixed), dist2=tail2))
    best = results[0]
    for candidate in results[1:]:
        if candidate.dist2 > best.dist2:
            best = candidate
    return best
