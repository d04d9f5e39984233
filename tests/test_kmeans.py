"""Centralized Lloyd baseline and its node-count-invariant parallel twin."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parclust.comm import CommWorld
from parclust.core import (DataSet, Partition, adjusted_rand_index,
                           generate_blobs, squared_distances, sse_objective)
from parclust.exactsum import (fixed_to_float, fixed_to_floats,
                               grouped_sums_fixed, sum_fixed)
from parclust.kmeans import (KMeansParams, _init_centers, kmeans_centralized,
                             pkm)


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
    for bad in (dict(k=0), dict(k=1, max_iter=0), dict(k=1, tol=-1.0),
                dict(k=1, tol=float("nan")), dict(k=1, tol=float("inf"))):
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


# -- the incremental step against the full recompute ---------------------------


def _lloyd_full(X, params, init_centers=None):
    """The full-recompute Lloyd step on one node, as the body ran before it
    became incremental: every trip scores every center, sums every row and
    recomputes every center. Returns (centers, labels, j, iterations)."""
    k, d = params.k, X.d
    if init_centers is None:
        centers = _init_centers(X, k, params.seed)
    else:
        centers = np.array(init_centers, dtype=np.float64)
    j_prev = None
    for t in range(1, params.max_iter + 1):
        d2 = squared_distances(X.points, centers)
        labels = np.argmin(d2, axis=1)
        d2min = d2[np.arange(X.n), labels]
        sums = grouped_sums_fixed(X.points, labels, k)
        counts = np.bincount(labels, minlength=k).tolist()
        j = fixed_to_float(sum_fixed(d2min))
        if j_prev is not None and j_prev - j <= params.tol:
            break
        j_prev = j
        centers = centers.copy()
        empty = []
        for i in range(k):
            if counts[i]:
                centers[i] = fixed_to_floats(sums[i * d:(i + 1) * d], counts[i])
            else:
                empty.append(i)
        used = set()
        for i in empty:
            # the farthest row not yet picked, ties to the lowest row
            row = next(r for r in np.argsort(-d2min, kind="stable").tolist()
                       if r not in used)
            if d2min[row] <= 0:
                raise ValueError("cannot repair an empty cluster")
            centers[i] = X.points[row]
            used.add(row)
    return centers, labels, j, t


@st.composite
def lloyd_cases(draw):
    """Rows on a coarse grid, so duplicates and rows equidistant from two
    centers are common, k up to n, and starts that may sit far from every
    row, so that a cluster empties and is repaired."""
    d = draw(st.integers(1, 3))
    coord = st.integers(-3, 3).map(float)
    rows = draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                         min_size=3, max_size=14))
    rows += draw(st.lists(st.sampled_from(rows), max_size=4))  # duplicates
    k = draw(st.integers(1, len(rows)))
    params = KMeansParams(k=k, max_iter=draw(st.integers(1, 4)),
                          tol=draw(st.sampled_from([0.0, 1e-9, 0.5])),
                          seed=draw(st.integers(0, 2**16)))
    init = None
    if draw(st.booleans()):
        far = st.lists(st.sampled_from([-40.0, 40.0]), min_size=d, max_size=d)
        init = draw(st.lists(st.one_of(st.sampled_from(rows), far),
                             min_size=k, max_size=k))
    return DataSet.from_points(rows), params, init


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _outcome(run):
    """What a run returns, or "cannot repair" when it refuses to repair."""
    try:
        return run()
    except ValueError as exc:
        if "cannot repair" not in str(exc):
            raise
        return "cannot repair"


@given(lloyd_cases())
# three equal starts: two clusters empty on trip 1, one on trip 2, and on
# trip 3 only rows that sit on a centroid are left to repair with
@example((DataSet.from_points([[1.0], [0.0], [0.0]]),
          KMeansParams(k=3, max_iter=2), [[1.0]] * 3))
@example((DataSet.from_points([[1.0], [0.0], [0.0]]),
          KMeansParams(k=3, max_iter=3), [[1.0]] * 3))
@settings(deadline=None, max_examples=150)
def test_incremental_body_equals_the_full_recompute(case):
    X, params, init = case
    want = _outcome(lambda: _lloyd_full(X, params, init))
    got = _outcome(lambda: kmeans_centralized(X, params, init))
    if isinstance(want, str):
        assert got == want
    else:
        cents, part, j, iters = got
        assert _same_bits(cents.centers, want[0])
        assert _same_bits(part.labels, want[1])
        assert (j, iters) == want[2:]
    for p in (1, 2, 3):
        rep = _outcome(lambda: _run_parallel(p, X, params, init))
        if isinstance(want, str):
            assert rep == want
            continue
        assert _same_bits(rep.centroids, want[0])
        assert _same_bits(rep.labels, want[1])
        assert (rep.j, rep.iterations) == want[2:]


def test_a_run_makes_one_allreduce_per_iteration(count_collectives):
    X, _ = generate_blobs(seed=2, k=3, per_cluster=40, d=2)
    world = CommWorld(2)
    try:
        rep = pkm(world, X, KMeansParams(k=3, seed=9))
    finally:
        world.shutdown()
    assert rep.iterations > 1
    assert count_collectives[world] == {"gather": 1,
                                        "allreduce_sum": rep.iterations}


@pytest.mark.parametrize("p", [1, 2, 3])
def test_the_empty_cluster_refusal_counts_distinct_rows_over_all_blocks(p):
    # at P=3 every block holds both rows, so per-block counts would add to 6
    X = DataSet.from_points([[0.0, 0.0], [1.0, 1.0]] * 3)
    with pytest.raises(ValueError) as exc:
        _run_parallel(p, X, KMeansParams(k=3))
    assert str(exc.value) == ("cannot repair an empty cluster: k=3 but the "
                              "data has only 2 distinct rows")


def test_a_bad_start_is_refused_before_the_world_runs(count_collectives):
    X, _ = generate_blobs(seed=2, k=3, per_cluster=10, d=2)
    world = CommWorld(2)
    try:
        with pytest.raises(ValueError, match="init_centers must have shape"):
            pkm(world, X, KMeansParams(k=3), init_centers=X.points[:2])
        assert not count_collectives[world]
        assert pkm(world, X, KMeansParams(k=3)).p == 2  # the world still runs
    finally:
        world.shutdown()
