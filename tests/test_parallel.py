import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from hybridproj.parallel import (
    TARGET_CHUNK_ROWS,
    _chunk_best,
    furthest_candidate,
)
from hybridproj.problems import build_section4
from hybridproj.solver import resolvent_phase
from oracles import full_chunk, select_furthest


def grid(moved, rows):
    """The global block grid of a moved prefix: ``rows`` rows a block."""
    return [(lo, min(lo + rows, moved)) for lo in range(0, moved, rows)]


def test_matches_sequential_selection(monkeypatch):
    # Small chunks, so that the pooled run splits the family across threads.
    monkeypatch.setattr("hybridproj.parallel.TARGET_CHUNK_ROWS", 64)
    rng = np.random.default_rng(23)
    points = rng.uniform(-1, 1, size=(501, 3))
    x = rng.uniform(-1, 1, 3)
    evaluate = lambda lo, hi: points[lo:hi].copy()  # noqa: E731
    expected_i, expected_v = select_furthest(x, list(points))
    got = furthest_candidate(evaluate, len(points), x)
    assert got.index == expected_i
    np.testing.assert_array_equal(got.point, expected_v)
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = furthest_candidate(evaluate, len(points), x, pool=pool, workers=4)
    assert parallel.index == got.index
    assert parallel.dist2 == got.dist2
    np.testing.assert_array_equal(parallel.point, got.point)


def test_identical_across_worker_counts(monkeypatch):
    monkeypatch.setattr("hybridproj.parallel.TARGET_CHUNK_ROWS", 1000)
    rng = np.random.default_rng(29)
    points = rng.uniform(-5, 5, size=(10_000, 2))
    x = np.zeros(2)
    evaluate = lambda lo, hi: points[lo:hi].copy()  # noqa: E731
    baseline = furthest_candidate(evaluate, len(points), x)
    for workers in (2, 3, 8):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            result = furthest_candidate(
                evaluate, len(points), x, pool=pool, workers=workers
            )
        assert result.index == baseline.index
        assert result.dist2 == baseline.dist2


def test_tie_breaks_to_first_index():
    points = np.array([[1.0], [-1.0], [1.0]])
    result = furthest_candidate(lambda lo, hi: points[lo:hi].copy(), 3, np.zeros(1))
    assert result.index == 0


def test_empty_family_rejected():
    with pytest.raises(ValueError):
        furthest_candidate(lambda lo, hi: np.empty((0, 1)), 0, np.zeros(1))


def test_bad_evaluator_shape():
    with pytest.raises(ValueError):
        furthest_candidate(lambda lo, hi: np.zeros((hi - lo, 2)), 5, np.zeros(1))


@pytest.mark.parametrize("d", [1, 3])
def test_chunk_best_matches_oracle(d):
    rng = np.random.default_rng(31 + d)
    points = rng.uniform(-1, 1, size=(300, d))
    x = rng.uniform(-1, 1, d)
    lo, hi = 40, 260
    got = _chunk_best(lambda a, b: points[a:b].copy(), lo, hi, x)
    expected_i, expected_v = select_furthest(x, list(points[lo:hi]))
    assert got.index == lo + expected_i
    np.testing.assert_array_equal(got.point, expected_v)
    assert got.dist2 == pytest.approx(float(np.sum((expected_v - x) ** 2)), rel=1e-15)


@pytest.mark.parametrize("count", [1000, TARGET_CHUNK_ROWS])
def test_single_chunk_family_stays_on_calling_thread(count):
    points = np.random.default_rng(37).uniform(-1, 1, size=(count, 1))
    x = np.zeros(1)
    calls = []

    def evaluate(lo, hi):
        calls.append((lo, hi))
        return points[lo:hi].copy()

    serial = furthest_candidate(evaluate, count, x)
    calls.clear()
    with ThreadPoolExecutor(max_workers=2) as pool:
        pooled = furthest_candidate(evaluate, count, x, pool=pool, workers=2)
    assert calls == [(0, count)]
    assert (pooled.index, pooled.dist2) == (serial.index, serial.dist2)
    np.testing.assert_array_equal(pooled.point, serial.point)


def test_large_family_splits_across_workers():
    # Without bounds, the two blocks of the global grid form one round: the
    # first on the calling thread, the second on a pool thread.
    count = TARGET_CHUNK_ROWS + 1
    calls, threads = [], set()

    def evaluate(lo, hi):
        calls.append((lo, hi))
        threads.add(threading.get_ident())
        return np.zeros((hi - lo, 1))

    with ThreadPoolExecutor(max_workers=2) as pool:
        got = furthest_candidate(evaluate, count, np.zeros(1), pool=pool, workers=2)
    assert sorted(calls) == grid(count, TARGET_CHUNK_ROWS)
    assert len(threads) == 2
    assert got.blocks == 2


def test_shares_split_only_the_moved_prefix(monkeypatch):
    monkeypatch.setattr("hybridproj.parallel.TARGET_CHUNK_ROWS", 100)
    count, moved = 10_000, 450
    calls = []

    def evaluate(lo, hi):
        calls.append((lo, hi))
        return np.zeros((hi - lo, 1))

    with ThreadPoolExecutor(max_workers=2) as pool:
        furthest_candidate(evaluate, count, np.zeros(1), fixed=np.zeros(1),
                           pool=pool, workers=2, moved=moved)
    # The grid over [0, 450) only, each block evaluated once.
    assert sorted(calls) == [(0, 100), (100, 200), (200, 300),
                             (300, 400), (400, 450)]


def moved_evaluator(points, calls=None):
    """Evaluator over the rows of ``points``; logs each call in ``calls``."""

    def evaluate(lo, hi):
        if calls is not None:
            calls.append((lo, hi))
        return points[lo:hi].copy()

    return evaluate


class CountingPool:
    """Pool stand-in that runs each submission on the calling thread."""

    def __init__(self):
        self.submitted = 0

    def submit(self, fn, *args):
        self.submitted += 1
        future = Future()
        future.set_result(fn(*args))
        return future


def test_no_more_shares_than_blocks(monkeypatch):
    # A 3-block prefix under 64 workers makes 2 submissions, not 64.
    monkeypatch.setattr("hybridproj.parallel.TARGET_CHUNK_ROWS", 100)
    points = np.random.default_rng(3).uniform(-1.0, 1.0, size=(250, 2))
    calls = []
    pool = CountingPool()
    got = furthest_candidate(moved_evaluator(points, calls), 250, np.zeros(2),
                             pool=pool, workers=64)
    assert pool.submitted == 2  # the first block runs on the calling thread
    assert sorted(calls) == grid(250, 100)
    serial = furthest_candidate(moved_evaluator(points), 250, np.zeros(2))
    assert (got.index, got.dist2) == (serial.index, serial.dist2)
    np.testing.assert_array_equal(got.point, serial.point)


def test_empty_head_tail_wins_at_lo():
    # An empty moved prefix: the fixed point stands for every member and
    # wins at the first index of the family.
    x = np.array([0.5, -0.25])
    fixed = np.array([2.0, 1.0])
    got = furthest_candidate(moved_evaluator(np.empty((0, 2))), 4, x,
                             fixed=fixed, moved=0)
    assert got.index == 0
    np.testing.assert_array_equal(got.point, fixed)
    assert got.dist2 == float(np.sum((fixed - x) ** 2))


@pytest.mark.parametrize("workers", [1, 2])
def test_zero_moved_never_calls_evaluator(workers):
    calls = []
    x, fixed = np.zeros(1), np.array([0.0])
    with ThreadPoolExecutor(max_workers=workers) as pool:
        got = furthest_candidate(moved_evaluator(np.zeros((0, 1)), calls),
                                 TARGET_CHUNK_ROWS * 3, x, fixed=fixed,
                                 pool=pool, workers=workers, moved=0)
    assert calls == []
    assert (got.index, got.dist2) == (0, 0.0)
    np.testing.assert_array_equal(got.point, fixed)


@pytest.mark.parametrize("moved", [1, 63, 64, 65, 300])
@pytest.mark.parametrize("workers", [1, 2, 8])
def test_no_evaluator_call_reaches_moved(monkeypatch, moved, workers):
    monkeypatch.setattr("hybridproj.parallel.TARGET_CHUNK_ROWS", 64)
    points = np.random.default_rng(47).uniform(-1, 1, size=(moved, 1))
    calls = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        furthest_candidate(moved_evaluator(points, calls), 1000, np.zeros(1),
                           fixed=np.zeros(1), pool=pool, workers=workers,
                           moved=moved)
    assert max(hi for _, hi in calls) == moved
    assert sorted(calls)[0][0] == 0
    # Every member of the prefix is evaluated exactly once.
    assert sum(hi - lo for lo, hi in calls) == moved
    assert all(0 < hi - lo <= 64 for lo, hi in calls)


@pytest.mark.parametrize(
    "tail, expected_index",
    [(0.25, 1), (-3.0, 3), (-2.0, 1)],
    ids=["tail_loses", "tail_wins", "tie_keeps_head"],
)
def test_partial_head_matches_full_chunk(tail, expected_index):
    # x = 0 and the prefix's furthest row is 2.0 at index 1, so a tail of
    # -2.0 ties and must lose to the earlier row.
    count = 10
    head = np.array([[1.0], [2.0], [-1.5]])
    x, fixed = np.zeros(1), np.array([tail])
    got = furthest_candidate(moved_evaluator(head), count, x, fixed=fixed, moved=3)
    full = full_chunk(head, count, fixed)
    expected_i, expected_v = select_furthest(x, list(full))
    assert got.index == expected_i == expected_index
    np.testing.assert_array_equal(got.point, expected_v)
    whole = furthest_candidate(moved_evaluator(full), count, x)
    assert (got.index, got.dist2) == (whole.index, whole.dist2)


@pytest.mark.parametrize("d", [1, 3])
def test_tail_loses_ties_and_wins_strictly_greater(d):
    rng = np.random.default_rng(53 + d)
    x = rng.uniform(-1, 1, d)
    head = x + rng.uniform(-1, 1, size=(5, d))
    far = 2
    head[far] = x + np.full(d, 3.0)
    # A tail equal to the furthest row ties it and loses to the earlier row.
    for fixed, expected in ((head[far].copy(), far), (x + np.full(d, 3.5), 5)):
        got = furthest_candidate(moved_evaluator(head), 9, x, fixed=fixed, moved=5)
        assert got.index == expected
        np.testing.assert_array_equal(got.point, head[far] if expected == far else fixed)


@pytest.mark.parametrize("k", [0, 1, 17, 40])
def test_short_chunk_bitwise_equal_to_full_chunk_d3(k):
    rng = np.random.default_rng(41 + k)
    count = 40
    x = rng.uniform(-1, 1, 3)
    for scale in (0.1, 10.0):  # tail loses, tail wins
        head = rng.uniform(-1, 1, size=(k, 3))
        fixed = x + scale * rng.uniform(-1, 1, 3)
        full = full_chunk(head, count, fixed)
        short = furthest_candidate(moved_evaluator(head), count, x, fixed=fixed,
                                   moved=k)
        whole = furthest_candidate(moved_evaluator(full), count, x)
        assert short.index == whole.index
        assert short.dist2 == whole.dist2
        np.testing.assert_array_equal(short.point, whole.point)


def test_short_chunks_identical_across_worker_counts(monkeypatch):
    # One share serially, 2 or 8 with a pool, each walked in 400-row
    # blocks: the layout moves with the worker count, the selected member
    # must not.
    monkeypatch.setattr("hybridproj.parallel.TARGET_CHUNK_ROWS", 400)
    rng = np.random.default_rng(43)
    count, moved = 3000, 1700
    points = rng.uniform(-2, 2, size=(moved, 2))
    x, fixed = np.array([0.1, -0.2]), np.array([1.9, 0.4])
    evaluate = moved_evaluator(points)
    expected_i, expected_v = select_furthest(x, list(full_chunk(points, count, fixed)))
    baseline = furthest_candidate(evaluate, count, x, fixed=fixed, moved=moved)
    assert baseline.index == expected_i
    np.testing.assert_array_equal(baseline.point, expected_v)
    for workers in (2, 8):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            result = furthest_candidate(
                evaluate, count, x, fixed=fixed, pool=pool, workers=workers,
                moved=moved,
            )
        assert (result.index, result.dist2) == (baseline.index, baseline.dist2)
        np.testing.assert_array_equal(result.point, baseline.point)


@pytest.mark.parametrize(
    "rows, d, fixed, moved",
    [(3, 1, None, 3), (6, 1, np.zeros(1), 5), (3, 2, np.zeros(1), 3),
     (3, 1, np.zeros(2), 3), (2, 1, np.zeros(1), 3), (3, 1, np.zeros(1), 6),
     (3, 1, np.zeros(1), -1), (3, 1, np.zeros(1), 3.5), (4, 1, np.zeros(1), 4.0),
     (1, 1, np.zeros(1), True)],
    ids=["short_without_fixed", "too_many_rows", "wrong_d", "fixed_wrong_d",
         "too_few_rows", "moved_past_count", "negative_moved", "fractional_moved",
         "float_moved", "bool_moved"],
)
def test_malformed_chunk_rejected(rows, d, fixed, moved):
    with pytest.raises(ValueError):
        furthest_candidate(
            lambda lo, hi: np.zeros((rows, d)), 5, np.zeros(1), fixed=fixed,
            moved=moved,
        )


def test_a_family_moved_prefix_must_be_an_integer():
    family, _, _ = build_section4(4, 4)
    x = np.array([0.9])
    for moved in (3.5, 4.0, True):
        broken = replace(family, gep_moved=lambda r, v: moved)
        with pytest.raises(ValueError, match=f"moved prefix {moved!r} is not an integer"):
            resolvent_phase(broken, 1.0, x)
    # A numpy integer is a prefix; the winner's index is a plain int, whether
    # it lies in the prefix (0.9 moves every member) or past it (-0.9 none).
    numpy_int = replace(family, gep_moved=lambda r, v: np.int64(family.gep_moved(r, v)))
    for point in (0.9, -0.9):
        v = np.array([point])
        got, expected = resolvent_phase(numpy_int, 1.0, v), resolvent_phase(family, 1.0, v)
        assert type(got.index) is int and got.index == expected.index


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("at", [0, 5, 9])
def test_non_finite_candidate_names_its_member(bad, at):
    rng = np.random.default_rng(97)
    points = rng.uniform(-1, 1, size=(10, 2))
    points[at, 1] = bad
    lo = 20
    evaluate = lambda a, b: points[a - lo:b - lo].copy()  # noqa: E731
    with pytest.raises(ValueError, match=f"member {lo + at} "):
        _chunk_best(evaluate, lo, lo + 10, np.zeros(2))


def test_nan_after_inf_is_named():
    # argmax ranks a NaN above an inf, so the first NaN is the member named.
    points = np.array([[0.0], [np.inf], [1.0], [np.nan], [np.nan]])
    with pytest.raises(ValueError, match="member 3 "):
        furthest_candidate(lambda lo, hi: points[lo:hi].copy(), 5, np.zeros(1))


def test_non_finite_candidate_raises_on_pooled_chunks(monkeypatch):
    monkeypatch.setattr("hybridproj.parallel.TARGET_CHUNK_ROWS", 64)
    points = np.zeros((500, 1))
    points[321, 0] = np.nan
    evaluate = lambda lo, hi: points[lo:hi].copy()  # noqa: E731
    with ThreadPoolExecutor(max_workers=2) as pool:
        with pytest.raises(ValueError, match="member 321 "):
            furthest_candidate(evaluate, 500, np.ones(1), pool=pool, workers=2)


def test_no_share_outlives_a_failing_first_share(monkeypatch):
    monkeypatch.setattr("hybridproj.parallel.TARGET_CHUNK_ROWS", 64)
    points = np.zeros((500, 1))
    points[3, 0] = np.nan
    done = []

    def evaluate(lo, hi):
        if lo > 0:
            time.sleep(0.01)
            done.append(lo)
        return points[lo:hi].copy()

    with ThreadPoolExecutor(max_workers=2) as pool:
        with pytest.raises(ValueError, match="member 3 "):
            furthest_candidate(evaluate, 500, np.ones(1), pool=pool, workers=2)
        # The first round is blocks 0 (calling thread) and 1 (pool): block 1
        # finishes before the error leaves, and no later round starts.
        assert done == [64]



def block_maxima(points, x):
    """A block bound that is each block's exact largest squared distance."""
    d2 = ((points - x) ** 2).sum(axis=1)
    return lambda lo, hi: np.array([d2[a:b].max() for a, b in zip(lo, hi)])


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_bounds_prune_without_changing_the_winner(monkeypatch, workers):
    # Rows fall with the index except two equal peaks, in blocks 1 and 3.
    # Block 3's bound is loose, so it is visited first; block 1 still holds
    # the first index of the maximum, and its exact bound ties the best.
    monkeypatch.setattr("hybridproj.parallel.TARGET_CHUNK_ROWS", 64)
    points = np.linspace(1.0, 0.0, 400).reshape(-1, 1)
    points[[100, 220]] = 5.0
    x = np.zeros(1)
    exact = block_maxima(points, x)

    def bound(lo, hi):
        b = exact(lo, hi)
        b[3] += 1.0
        return b

    calls = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        got = furthest_candidate(moved_evaluator(points, calls), 400, x, pool=pool,
                                 workers=workers, bound=bound)
    full = furthest_candidate(moved_evaluator(points), 400, x)
    assert (got.index, got.dist2) == (full.index, full.dist2) == (100, 25.0)
    np.testing.assert_array_equal(got.point, full.point)
    assert full.blocks == 7
    assert got.blocks == len(calls) == 2
    assert sorted(calls) == [(64, 128), (192, 256)]


@pytest.mark.parametrize("at", [0, 2, 4])
def test_nan_bound_names_its_block(monkeypatch, at):
    monkeypatch.setattr("hybridproj.parallel.TARGET_CHUNK_ROWS", 64)
    points = np.zeros((300, 1))
    bounds = np.arange(5.0)
    bounds[at] = np.nan
    with pytest.raises(ValueError, match=f"block {at} .*NaN bound"):
        furthest_candidate(moved_evaluator(points), 300, np.zeros(1),
                           bound=lambda lo, hi: bounds)


def test_bound_of_the_wrong_shape_rejected(monkeypatch):
    monkeypatch.setattr("hybridproj.parallel.TARGET_CHUNK_ROWS", 64)
    with pytest.raises(ValueError, match="block bound returned shape"):
        furthest_candidate(moved_evaluator(np.zeros((300, 1))), 300, np.zeros(1),
                           bound=lambda lo, hi: np.zeros(2))


@pytest.mark.parametrize("moved", [0, 1, 64])
def test_one_block_prefix_computes_no_bound(monkeypatch, moved):
    monkeypatch.setattr("hybridproj.parallel.TARGET_CHUNK_ROWS", 64)
    calls = []

    def bound(lo, hi):
        calls.append((lo, hi))
        return np.full(len(lo), np.inf)

    got = furthest_candidate(moved_evaluator(np.ones((moved, 1))), 100, np.zeros(1),
                             fixed=np.zeros(1), moved=moved, bound=bound)
    assert calls == []
    assert got.blocks == (1 if moved else 0)


def leading_grid(moved, rows):
    """The grid of a bounded prefix: blocks of 64, 128, ... rows up to
    ``rows``, then ``rows`` rows a block."""
    spans, lo, size = [], 0, 64
    while lo < moved:
        spans.append((lo, min(lo + size, moved)))
        lo += size
        size = min(2 * size, rows)
    return spans


def recorded_spans(rows, moved, workers, bound):
    """The blocks one reduction evaluates, in call order."""
    calls = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        got = furthest_candidate(moved_evaluator(np.ones((moved, 1)), calls), moved + 7,
                                 np.zeros(1), fixed=np.zeros(1), pool=pool,
                                 workers=workers, moved=moved, bound=bound)
    assert got.blocks == len(calls)
    return calls


@pytest.mark.parametrize("rows, moved", [
    (1024, 1025), (1024, 5000), (1024, 20_000),
    (TARGET_CHUNK_ROWS, 3 * TARGET_CHUNK_ROWS + 5),
])
def test_bounded_prefix_starts_with_finer_blocks(monkeypatch, rows, moved):
    monkeypatch.setattr("hybridproj.parallel.TARGET_CHUNK_ROWS", rows)
    expected = leading_grid(moved, rows)
    assert [hi - lo for lo, hi in expected][:3] == [64, 128, 256]
    hooked = []

    def bound(lo, hi):
        hooked.append(list(zip(lo.tolist(), hi.tolist())))
        return np.full(len(lo), np.inf)  # every block is visited

    for workers in (1, 2, 8):
        # Infinite bounds visit the blocks in index order, some on the pool.
        assert sorted(recorded_spans(rows, moved, workers, bound)) == expected
        assert hooked.pop() == expected
        # Without a bound the grid is the plain one.
        assert sorted(recorded_spans(rows, moved, workers, None)) == grid(moved, rows)


@pytest.mark.parametrize("moved", [1, 1000, 1024])
def test_bounded_prefix_of_one_block_keeps_the_plain_grid(monkeypatch, moved):
    monkeypatch.setattr("hybridproj.parallel.TARGET_CHUNK_ROWS", 1024)

    def bound(lo, hi):
        raise AssertionError("a one-block prefix computes no bound")

    assert recorded_spans(1024, moved, 2, bound) == [(0, moved)]
