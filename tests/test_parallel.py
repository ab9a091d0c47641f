from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hybridproj.parallel import (
    TARGET_CHUNK_ROWS,
    _chunk_best,
    chunk_ranges,
    furthest_candidate,
)
from oracles import select_furthest


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
