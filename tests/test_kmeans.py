"""Centralized Lloyd baseline and its node-count-invariant parallel twin."""

import itertools
import math

import numpy as np
import pytest

from parclust.comm import CommWorld
from parclust.core import (DataSet, Partition, adjusted_rand_index,
                           generate_blobs, sse_objective)
from parclust.kmeans import KMeansParams, kmeans_centralized, pkm


def _run_parallel(p, X, params, init_centers=None):
    world = CommWorld(p)
    try:
        return pkm(world, X, params, init_centers=init_centers)
    finally:
        world.shutdown()


def _best_two_partition_oracle(values):
    """Exhaustive minimum of J over every assignment into two clusters."""
    best = math.inf
    pts = [float(v) for v in values]
    for assign in itertools.product((0, 1), repeat=len(pts)):
        groups = [[p for p, a in zip(pts, assign) if a == g] for g in (0, 1)]
        if any(not g for g in groups):
            continue
        j = sum(sum((p - sum(g) / len(g)) ** 2 for p in g) for g in groups)
        best = min(best, j)
    return best


def test_two_cluster_line_matches_enumeration_oracle():
    X = DataSet.from_points([[0.0], [1.0], [9.0], [10.0]])
    cents, part, j, _ = kmeans_centralized(
        X, KMeansParams(k=2), init_centers=[[0.0], [10.0]])
    assert sorted(cents.centers[:, 0].tolist()) == [0.5, 9.5]
    assert j == 1.0
    assert j == _best_two_partition_oracle([0, 1, 9, 10])
    assert part.labels.tolist() == [0, 0, 1, 1]


def test_k_equals_n_zero_objective():
    X = DataSet.from_points([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
    cents, part, j, _ = kmeans_centralized(X, KMeansParams(k=3, seed=2))
    assert j == 0.0
    assert part.k == 3
    assert sorted(map(tuple, cents.centers.tolist())) == sorted(
        map(tuple, X.points.tolist()))


def test_true_center_init_recovers_blobs():
    spread = 0.5
    X, truth = generate_blobs(seed=1, k=3, per_cluster=50, d=2,
                              spread=spread, separation=20 * spread)
    centers = np.vstack([X.points[truth.labels == i].mean(axis=0)
                         for i in range(3)])
    _, part, _, _ = kmeans_centralized(X, KMeansParams(k=3),
                                       init_centers=centers)
    assert adjusted_rand_index(part, truth) == 1.0


def test_k_larger_than_n_rejected():
    X = DataSet.from_points([[0.0], [1.0]])
    with pytest.raises(ValueError):
        kmeans_centralized(X, KMeansParams(k=3))
    with pytest.raises(ValueError):
        _run_parallel(1, X, KMeansParams(k=3))


def test_converged_run_reports_consistent_objective():
    X, _ = generate_blobs(seed=6, k=2, per_cluster=30, d=2)
    cents, part, j, _ = kmeans_centralized(X, KMeansParams(k=2, seed=1))
    assert sse_objective(X, part, cents) == j


def test_objective_trace_is_non_increasing():
    # determinism makes max_iter prefixes a window onto the J trajectory
    X, _ = generate_blobs(seed=8, k=3, per_cluster=25, d=3,
                          spread=2.0, separation=6.0)
    full = kmeans_centralized(X, KMeansParams(k=3, seed=5))
    trace = [kmeans_centralized(X, KMeansParams(k=3, seed=5, max_iter=t))[2]
             for t in range(1, full[3] + 1)]
    assert all(a >= b for a, b in zip(trace, trace[1:]))


def test_parallel_single_node_is_bitwise_centralized():
    X, _ = generate_blobs(seed=2, k=3, per_cluster=40, d=2)
    params = KMeansParams(k=3, seed=9)
    cents, part, j, iters = kmeans_centralized(X, params)
    rep = _run_parallel(1, X, params)
    assert np.array_equal(rep.labels, part.labels)
    assert np.array_equal(rep.centroids, cents.centers)
    assert rep.j == j and rep.iterations == iters


@pytest.mark.parametrize("p", [2, 3, 4])
def test_parallel_matches_centralized_exactly(p):
    X, _ = generate_blobs(seed=2, k=3, per_cluster=40, d=2)
    params = KMeansParams(k=3, seed=9)
    cents, part, j, iters = kmeans_centralized(X, params)
    rep = _run_parallel(p, X, params)
    assert np.array_equal(rep.labels, part.labels)
    assert np.array_equal(rep.centroids, cents.centers)
    assert rep.j == j
    assert rep.iterations == iters


def test_parallel_two_nodes_line_example():
    X = DataSet.from_points([[0.0], [1.0], [9.0], [10.0]])
    rep = _run_parallel(2, X, KMeansParams(k=2),
                        init_centers=[[0.0], [10.0]])
    assert sorted(rep.centroids[:, 0].tolist()) == [0.5, 9.5]
    assert rep.j == 1.0


def test_empty_cluster_repair_keeps_k_and_stays_invariant():
    # third init centroid sits far from all data, so its cluster starts empty
    X = DataSet.from_points([[0.0], [0.5], [1.0], [10.0], [10.5], [11.0]])
    init = [[0.0], [10.0], [100.0]]
    params = KMeansParams(k=3)
    cents, part, j, _ = kmeans_centralized(X, params, init_centers=init)
    assert part.k == 3  # the empty cluster was repopulated
    for p in (2, 3):
        rep = _run_parallel(p, X, params, init_centers=init)
        assert np.array_equal(rep.labels, part.labels)
        assert np.array_equal(rep.centroids, cents.centers)
        assert rep.j == j


@pytest.mark.parametrize("p", [1, 2])
def test_more_clusters_than_distinct_rows_raises(p):
    # any repair candidate already sits on a centroid, so a kept empty
    # cluster would be reported as a k-cluster answer
    X = DataSet.from_points([[0.0, 0.0]] * 3 + [[1.0, 1.0]])
    with pytest.raises(ValueError, match="k=3 but the data has only 2 distinct"):
        _run_parallel(p, X, KMeansParams(k=3))


def test_params_validation():
    for bad in (dict(k=0), dict(k=1, max_iter=0), dict(k=1, tol=-1.0)):
        with pytest.raises(ValueError):
            KMeansParams(**bad)


def test_report_carries_timings_and_shape():
    X, _ = generate_blobs(seed=3, k=2, per_cluster=20, d=2)
    rep = _run_parallel(2, X, KMeansParams(k=2, seed=4))
    assert rep.algo == "pkm" and rep.p == 2
    assert rep.n == X.n and rep.d == X.d
    assert set(rep.timings_ms) == {"split", "compute", "comm"}
    assert rep.timings_ms["comm"] > 0.0
    assert len(rep.labels) == X.n
