from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hybridproj.parallel import (
    TARGET_CHUNK_ROWS,
    _chunk_best,
    chunk_ranges,
    furthest_candidate,
)
from oracles import full_chunk, select_furthest


def test_chunk_ranges_cover_everything():
    for count in (1, 2, 7, 100, 1000):
        for parts in (1, 2, 3, 8, 200):
            ranges = chunk_ranges(count, parts)
            assert ranges[0][0] == 0 and ranges[-1][1] == count
            for (_, a), (b, _) in zip(ranges, ranges[1:]):
                assert a == b
            assert all(hi > lo for lo, hi in ranges)


def test_chunk_ranges_empty():
    assert chunk_ranges(0, 4) == []


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
    count = TARGET_CHUNK_ROWS + 1
    calls = []

    def evaluate(lo, hi):
        calls.append((lo, hi))
        return np.zeros((hi - lo, 1))

    with ThreadPoolExecutor(max_workers=2) as pool:
        furthest_candidate(evaluate, count, np.zeros(1), pool=pool, workers=2)
    assert sorted(calls) == chunk_ranges(count, 2)


def short_evaluator(points, moving, fixed):
    """Evaluator for members ``points[i]`` where ``moving[i]``, ``fixed``
    elsewhere: each chunk stops after its last moving member."""

    def evaluate(lo, hi):
        last = np.flatnonzero(moving[lo:hi])
        k = int(last[-1]) + 1 if last.size else 0
        return np.where(moving[lo:lo + k, None], points[lo:lo + k], fixed)

    return evaluate


def test_empty_head_tail_wins_at_lo():
    x = np.array([0.5, -0.25])
    fixed = np.array([2.0, 1.0])
    got = _chunk_best(lambda lo, hi: np.empty((0, 2)), 5, 9, x, fixed)
    assert got.index == 5
    np.testing.assert_array_equal(got.point, fixed)
    assert got.dist2 == float(np.sum((fixed - x) ** 2))


@pytest.mark.parametrize(
    "tail, expected_index",
    [(0.25, 11), (-3.0, 13), (-2.0, 11)],
    ids=["tail_loses", "tail_wins", "tie_keeps_head"],
)
def test_partial_head_matches_full_chunk(tail, expected_index):
    # x = 0 and the head's furthest row is 2.0 at index 11, so a tail of
    # -2.0 ties and must lose to the earlier head row.
    lo, hi = 10, 20
    head = np.array([[1.0], [2.0], [-1.5]])
    x, fixed = np.zeros(1), np.array([tail])
    got = _chunk_best(lambda a, b: head.copy(), lo, hi, x, fixed)
    full = full_chunk(head, hi - lo, fixed)
    expected_i, expected_v = select_furthest(x, list(full))
    assert got.index == lo + expected_i == expected_index
    np.testing.assert_array_equal(got.point, expected_v)
    whole = _chunk_best(lambda a, b: full.copy(), lo, hi, x)
    assert (got.index, got.dist2) == (whole.index, whole.dist2)


@pytest.mark.parametrize("k", [0, 1, 17, 40])
def test_short_chunk_bitwise_equal_to_full_chunk_d3(k):
    rng = np.random.default_rng(41 + k)
    lo, hi = 100, 140
    x = rng.uniform(-1, 1, 3)
    for scale in (0.1, 10.0):  # tail loses, tail wins
        head = rng.uniform(-1, 1, size=(k, 3))
        fixed = x + scale * rng.uniform(-1, 1, 3)
        full = full_chunk(head, hi - lo, fixed)
        short = _chunk_best(lambda a, b: head.copy(), lo, hi, x, fixed)
        whole = _chunk_best(lambda a, b: full.copy(), lo, hi, x)
        assert short.index == whole.index
        assert short.dist2 == whole.dist2
        np.testing.assert_array_equal(short.point, whole.point)


def test_short_chunks_identical_across_worker_counts(monkeypatch):
    # 3 chunks serially, 8 with 8 workers: the short chunks move with the
    # layout, the selected member must not.
    monkeypatch.setattr("hybridproj.parallel.TARGET_CHUNK_ROWS", 400)
    rng = np.random.default_rng(43)
    count = 1000
    points = rng.uniform(-2, 2, size=(count, 2))
    moving = rng.uniform(size=count) < 0.3
    moving[600:] = False
    x, fixed = np.array([0.1, -0.2]), np.array([1.9, 0.4])
    evaluate = short_evaluator(points, moving, fixed)
    full = np.where(moving[:, None], points, fixed)
    expected_i, expected_v = select_furthest(x, list(full))
    baseline = furthest_candidate(evaluate, count, x, fixed=fixed)
    assert baseline.index == expected_i
    np.testing.assert_array_equal(baseline.point, expected_v)
    for workers in (2, 8):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            result = furthest_candidate(
                evaluate, count, x, fixed=fixed, pool=pool, workers=workers
            )
        assert (result.index, result.dist2) == (baseline.index, baseline.dist2)
        np.testing.assert_array_equal(result.point, baseline.point)


@pytest.mark.parametrize(
    "rows, d, fixed",
    [(3, 1, None), (6, 1, np.zeros(1)), (3, 2, np.zeros(1)), (3, 1, np.zeros(2))],
    ids=["short_without_fixed", "too_many_rows", "wrong_d", "fixed_wrong_d"],
)
def test_malformed_chunk_rejected(rows, d, fixed):
    with pytest.raises(ValueError):
        furthest_candidate(
            lambda lo, hi: np.zeros((rows, d)), 5, np.zeros(1), fixed=fixed
        )


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
