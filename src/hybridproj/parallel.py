"""Deterministic data-parallel candidate evaluation.

Each solver phase evaluates a family of candidate points and selects the one
furthest from a reference point. Only the moved prefix of the family is
evaluated: every member past it leaves the evaluation point unchanged, so
that point stands for all of them as one candidate at the prefix's end.

The prefix lies on one global grid of blocks that depends on the prefix
length alone, never on the worker count. A family may bound its blocks: for
each one, an upper bound on the float squared distance of its rows to the
reference point. Blocks are visited in descending bound order, index order
among equal bounds, and the walk stops at the first block whose bound is
strictly below the best distance found: none of its rows can beat or tie
that best. A family without bounds gets infinite ones, so every block is
visited in index order, and its grid is ``[b*R, min((b+1)*R, moved))`` with
``R = TARGET_CHUNK_ROWS``; a prefix of one block computes no bounds. A
bounded prefix of more than one block starts with finer blocks of
``LEADING_BLOCK_ROWS``, twice that, and so on up to ``R`` rows, then goes on
in blocks of ``R``: when the winner sits near the start, pruning leaves a
small block to evaluate. The highest-bound block runs on the calling
thread, alone unless its bound is infinite. With a pool the blocks that
survive pruning then go out ``workers`` at a time, one on the calling
thread, and each round's merged best prunes the next.

A row replaces the best only at a strictly greater distance, or at an equal
one and a smaller index, so the winner is the global first-index argmax for
any visiting order. Every candidate value and distance is computed
elementwise, so it does not depend on the block it falls in. Results are
therefore identical for any worker count, including 1.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Furthest", "furthest_candidate", "squared_distances"]

# Batch evaluator contract: evaluate(lo, hi) returns the candidate points for
# members lo..hi-1 as an array of shape (hi - lo, d). It is called only for
# members of the moved prefix. The returned array is owned by the caller and
# may be mutated. A row may be the evaluation point itself for a member that
# the evaluator proves strictly nearer to it than another row of the same
# block; _chunk_best reads only the block's furthest row, which keeps its bits.
ChunkEvaluator = Callable[[int, int], np.ndarray]

# Block bound contract: bound(lo, hi) takes the start and stop arrays of the
# prefix's blocks and returns, per block, an upper bound on the float
# squared distance of any of its rows to the reference point.
BlockBound = Callable[[np.ndarray, np.ndarray], np.ndarray]

# Cap on rows per block. A float64 temporary of 32,768 rows is 256 KiB, so a
# block's temporaries stay in a 2 MiB L2 cache. A 700k-member section4
# resolvent pass took 3.0 ms with these blocks, 6.2 ms with 262,144-row
# blocks (2 MiB each) and 3.7 ms with 8,192-row blocks, where the per-block
# Python cost outweighs the cache gain (2-vCPU x86-64 host, 2 MiB L2 per
# core, numpy 2.4). That holds for a scan of every block; a bounded scan
# that prunes all but the leading blocks evaluates only those, which is why
# its grid starts finer.
TARGET_CHUNK_ROWS = 32_768

# First block of a bounded grid; the leading blocks double from it up to
# TARGET_CHUNK_ROWS. Their sizes 64, 128, ..., 16,384 add up to one block
# less 64 rows, so the bound hook sees about nine more blocks at 32,768 rows.
LEADING_BLOCK_ROWS = 64


@dataclass(frozen=True)
class Furthest:
    """Winning candidate of a phase: first index attaining the max distance."""

    index: int
    point: np.ndarray
    dist2: float
    # Blocks of the moved prefix evaluated to find it.
    blocks: int = 0

    @property
    def distance(self) -> float:
        return float(np.sqrt(self.dist2))

    def beats(self, other: Furthest | None) -> bool:
        """The winner rule: strictly further, or as far at a smaller index."""
        return (other is None or self.dist2 > other.dist2
                or (self.dist2 == other.dist2 and self.index < other.index))


def squared_distances(points: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Squared distance of each row of ``points`` to ``x``.

    One temporary, squared in place; the coordinate sum runs only when there
    is more than one coordinate.
    """
    dist2 = points - x
    np.square(dist2, out=dist2)
    return dist2.sum(axis=1) if x.size > 1 else dist2.reshape(-1)


def _chunk_best(evaluate: ChunkEvaluator, lo: int, hi: int, x: np.ndarray) -> Furthest:
    """The first-index furthest row of the block ``lo..hi-1``."""
    points = np.asarray(evaluate(lo, hi), dtype=np.float64)
    if points.shape != (hi - lo, x.size):
        raise ValueError(f"evaluator returned shape {points.shape}, "
                         f"expected {(hi - lo, x.size)}")
    dist2 = squared_distances(points, x)
    i = int(np.argmax(dist2))
    d2 = float(dist2[i])
    # argmax returns the first NaN, so one check at the winner catches a
    # non-finite candidate anywhere in the block.
    if not math.isfinite(d2):
        raise ValueError(f"member {lo + i} gave a candidate at non-finite "
                         f"squared distance {d2}")
    return Furthest(index=lo + i, point=np.array(points[i]), dist2=d2)


def _block_bounds(bound: BlockBound, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    bounds = np.asarray(bound(starts, stops), dtype=np.float64)
    if bounds.shape != starts.shape:
        raise ValueError(f"block bound returned shape {bounds.shape}, "
                         f"expected {starts.shape}")
    nan = np.flatnonzero(np.isnan(bounds))
    if nan.size:
        # A NaN sorts last and compares false: it would skip its block silently.
        b = int(nan[0])
        raise ValueError(f"block {b} (members {starts[b]}..{stops[b] - 1}) "
                         f"has a NaN bound")
    return bounds


def _leading_grid(moved: int) -> tuple[np.ndarray, np.ndarray]:
    """Block starts and stops of a bounded prefix longer than one block.

    Leading blocks of ``LEADING_BLOCK_ROWS`` rows, doubling while below
    ``TARGET_CHUNK_ROWS``, then blocks of ``TARGET_CHUNK_ROWS`` rows; the
    last block stops at ``moved``. Every leading block starts below
    ``TARGET_CHUNK_ROWS``, so each one lies in the prefix.
    """
    lead, edge, size = [], 0, LEADING_BLOCK_ROWS
    while size < TARGET_CHUNK_ROWS:
        lead.append(edge)
        edge += size
        size *= 2
    starts = np.concatenate((np.array(lead, dtype=np.int64),
                             np.arange(edge, moved, TARGET_CHUNK_ROWS)))
    return starts, np.append(starts[1:], moved)


def furthest_candidate(
    evaluate: ChunkEvaluator,
    count: int,
    x: np.ndarray,
    fixed: np.ndarray | None = None,
    pool: ThreadPoolExecutor | None = None,
    workers: int = 1,
    moved: int | None = None,
    bound: BlockBound | None = None,
) -> Furthest:
    """Return the furthest from ``x`` of ``count`` candidates.

    Only members ``0..moved-1`` are evaluated (all ``count`` by default),
    block by block, and only the blocks whose ``bound`` can reach the best
    found (every block without one). Each member from ``moved`` on counts as
    the candidate ``fixed``, the point the members are applied to; it is
    scored once, at index ``moved``. Ties break toward the smallest index.
    A candidate at a non-finite distance from ``x`` raises ``ValueError``
    naming its member, and a NaN bound one naming its block.
    """
    if count <= 0:
        raise ValueError("candidate family must be nonempty")
    moved = count if moved is None else moved
    if isinstance(moved, bool) or not isinstance(moved, (int, np.integer)):
        raise ValueError(f"moved prefix {moved!r} is not an integer")
    moved = int(moved)
    if not 0 <= moved <= count:
        raise ValueError(f"moved prefix {moved} lies outside 0..{count}")
    if moved < count:
        if fixed is None:
            raise ValueError(f"{count - moved} members left out without a fixed point")
        fixed = np.asarray(fixed, dtype=np.float64)
        if fixed.shape != x.shape:
            raise ValueError(f"fixed point has shape {fixed.shape}, expected {x.shape}")
    if bound is None or moved <= TARGET_CHUNK_ROWS:
        starts = np.arange(0, moved, TARGET_CHUNK_ROWS)
        stops = np.minimum(starts + TARGET_CHUNK_ROWS, moved)
        # Equal (infinite) bounds: the visiting order is the index order.
        bounds = [math.inf] * len(starts)
        order = list(range(len(starts)))
    else:
        starts, stops = _leading_grid(moved)
        block_bounds = _block_bounds(bound, starts, stops)
        # Descending bounds; the sort is stable, so equal bounds keep index
        # order.
        order = np.argsort(-block_bounds, kind="stable").tolist()
        bounds = block_bounds.tolist()
    spans = list(zip(starts.tolist(), stops.tolist()))
    width = 1 if pool is None else workers
    best = None
    done = 0
    while done < len(order) and (best is None or bounds[order[done]] >= best.dist2):
        # A block joins the round only if the best so far cannot prune it;
        # before the first block, only an infinite bound is sure of that.
        floor = math.inf if best is None else best.dist2
        batch = order[done:done + 1] + [b for b in order[done + 1:done + width]
                                        if bounds[b] >= floor]
        futures = [pool.submit(_chunk_best, evaluate, *spans[b], x) for b in batch[1:]]
        try:
            found = [_chunk_best(evaluate, *spans[batch[0]], x)]
        finally:
            # No block outlives the call, even when the calling thread's raises.
            if futures:
                wait(futures)
        found += [f.result() for f in futures]
        for candidate in found:
            if candidate.beats(best):
                best = candidate
        done += len(batch)
    if moved < count:
        # Every left-out member's candidate is ``fixed``: its first index is
        # ``moved``, past the prefix, so it wins only when strictly further.
        tail2 = float(squared_distances(fixed[np.newaxis], x)[0])
        if best is None or tail2 > best.dist2:
            return Furthest(index=moved, point=np.array(fixed), dist2=tail2, blocks=done)
    return Furthest(index=best.index, point=best.point, dist2=best.dist2, blocks=done)
