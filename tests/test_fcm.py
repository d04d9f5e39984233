"""Fuzzy memberships, weighted centroids, and the soft objective."""

import math

import numpy as np
import pytest

from parclust.comm import CommWorld, split_blocks
from parclust.core import (DataSet, adjusted_rand_index, generate_blobs,
                           squared_distances, sse_objective, Partition,
                           CentroidSet)
from parclust.fcm import (FcmParams, centroid_update, fcm_objective,
                          initial_membership, membership_update, pfcm)


def _run(p, X, params):
    world = CommWorld(p)
    try:
        return pfcm(world, X, params)
    finally:
        world.shutdown()


def _run_node_fn(p, fn, points):
    """Rank 0's result of the body fn(ctx, points) run over the rows
    `points` on a p-node world."""
    world = CommWorld(p)
    try:
        return world.run(fn, DataSet.from_points(points))[0]
    finally:
        world.shutdown()


# -- membership update -----------------------------------------------------


def test_membership_equidistant_point_splits_evenly():
    pts = np.array([[0.0]])
    centers = np.array([[-1.0], [1.0]])
    u = membership_update(squared_distances(pts, centers), m=2.0)
    assert u[0].tolist() == [0.5, 0.5]


def test_membership_at_centroid_is_crisp():
    pts = np.array([[2.0, 3.0]])
    centers = np.array([[2.0, 3.0], [9.0, 9.0], [0.0, 0.0]])
    u = membership_update(squared_distances(pts, centers), m=2.0)
    assert u[0].tolist() == [1.0, 0.0, 0.0]


def test_membership_coincident_centroids_pick_lowest_index():
    pts = np.array([[1.0]])
    centers = np.array([[5.0], [1.0], [1.0]])
    u = membership_update(squared_distances(pts, centers), m=2.0)
    assert u[0].tolist() == [0.0, 1.0, 0.0]


def test_membership_inverse_distance_scalar_case():
    # point 1 vs centroids {0, 3}: distances (1, 2), so for m = 2 the
    # weights are (1/1, 1/4) and u = (0.8, 0.2)
    pts = np.array([[1.0]])
    centers = np.array([[0.0], [3.0]])
    u = membership_update(squared_distances(pts, centers), m=2.0)
    assert u[0, 0] == pytest.approx((1 / 1) / (1 / 1 + 1 / 4))
    assert u[0].tolist() == pytest.approx([0.8, 0.2])


def test_membership_one_to_three_distance_ratio():
    # distances (1, 3) -> (1/1)/((1/1) + (1/9)) = 0.9
    pts = np.array([[1.0]])
    centers = np.array([[0.0], [4.0]])
    u = membership_update(squared_distances(pts, centers), m=2.0)
    assert u[0].tolist() == pytest.approx([0.9, 0.1])


def test_membership_rows_sum_to_one():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(40, 3))
    centers = rng.normal(size=(4, 3))
    u = membership_update(squared_distances(pts, centers), m=1.7)
    assert np.allclose(u.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(u >= 0)


# -- centroid update -------------------------------------------------------


def test_crisp_memberships_reduce_to_cluster_means():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 10.0]])
    u = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    async def fn(ctx, points):
        return await centroid_update(ctx, points, u, m=2.0)

    centers = _run_node_fn(1, fn, pts)
    assert np.array_equal(centers, [[1.0, 0.0], [10.0, 10.0]])


def test_single_point_owns_every_cluster_with_weight():
    pts = np.array([[3.0, 4.0]])
    u = np.array([[0.3, 0.7]])

    async def fn(ctx, points):
        return await centroid_update(ctx, points, u, m=2.0)

    centers = _run_node_fn(1, fn, pts)
    assert np.allclose(centers, [[3.0, 4.0], [3.0, 4.0]])


def test_centroids_bit_identical_across_node_counts():
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(48, 3))
    u_full = initial_membership(48, 3, seed=9)

    async def fn(ctx, points):
        return await centroid_update(
            ctx, points, u_full[ctx.start:ctx.start + len(points)], m=2.0)

    ref = _run_node_fn(1, fn, pts)
    for p in (2, 4):
        got = _run_node_fn(p, fn, pts)
        assert np.array_equal(got, ref)


def test_degenerate_membership_column_raises():
    pts = np.array([[0.0], [1.0]])
    u = np.array([[1.0, 0.0], [1.0, 0.0]])  # column 1 carries no weight

    async def fn(ctx, points):
        return await centroid_update(ctx, points, u, m=2.0)

    with pytest.raises(ValueError, match="degenerate membership column 1"):
        _run_node_fn(1, fn, pts)


# -- objective -------------------------------------------------------------


def test_crisp_objective_equals_sse():
    X, _ = generate_blobs(seed=3, k=2, per_cluster=15, d=2)
    labels = (np.arange(X.n) % 2).astype(np.int64)
    u = np.zeros((X.n, 2))
    u[np.arange(X.n), labels] = 1.0
    centers = np.array([[0.0, 0.0], [1.0, 1.0]])

    async def fn(ctx, _):
        return await fcm_objective(ctx, u, squared_distances(X.points, centers),
                                   m=2.0)

    got = _run_node_fn(1, fn, X.points)
    want = sse_objective(X, Partition(labels), CentroidSet(centers))
    assert got == want  # m-power of crisp weights changes nothing


def test_objective_zero_when_each_point_sits_on_its_centroid():
    pts = np.array([[1.0], [2.0]])
    u = np.array([[1.0, 0.0], [0.0, 1.0]])
    centers = np.array([[1.0], [2.0]])

    async def fn(ctx, _):
        return await fcm_objective(ctx, u, squared_distances(pts, centers),
                                   m=2.0)

    assert _run_node_fn(1, fn, pts) == 0.0


def test_objective_matches_double_loop_oracle():
    rng = np.random.default_rng(17)
    pts = rng.normal(size=(12, 2))
    centers = rng.normal(size=(3, 2))
    u = initial_membership(12, 3, seed=1)
    m = 2.0

    async def fn(ctx, _):
        return await fcm_objective(ctx, u, squared_distances(pts, centers), m)

    got = _run_node_fn(1, fn, pts)
    oracle = math.fsum(
        (u[i, c] ** m) * float(np.sum((pts[i] - centers[c]) ** 2))
        for i in range(12) for c in range(3))
    assert got == pytest.approx(oracle, rel=1e-12)


# -- full runs -------------------------------------------------------------


def test_initial_membership_is_row_stochastic_and_rowwise_stable():
    u = initial_membership(30, 4, seed=2)
    assert np.allclose(u.sum(axis=1), 1.0, atol=1e-12)
    again = initial_membership(30, 4, seed=2)
    assert np.array_equal(u, again)


@pytest.mark.parametrize("p", [1, 2, 3, 97])
def test_each_block_draws_its_rows_of_the_full_draw(p):
    # every rank draws only its own block; the rows are the full draw's
    n, k = 97, 4
    full = initial_membership(n, k, seed=5)
    start = 0
    for block in split_blocks(DataSet.from_points(np.zeros((n, 1))), p):
        stop = start + len(block)
        u = initial_membership(n, k, 5, start, stop)
        assert u.tobytes() == full[start:stop].tobytes()
        start = stop


def test_a_block_outside_the_rows_is_refused():
    with pytest.raises(ValueError, match="not a block"):
        initial_membership(10, 3, 0, 4, 11)
    with pytest.raises(ValueError, match="not a block"):
        initial_membership(10, 3, 0, 5, 4)


@pytest.mark.parametrize("p", [2, 4])
def test_parallel_run_is_invariant_to_node_count(p):
    X, _ = generate_blobs(seed=7, k=3, per_cluster=32, d=2)
    params = FcmParams(k=3, seed=4)
    base = _run(1, X, params)
    rep = _run(p, X, params)
    assert np.array_equal(rep.labels, base.labels)
    assert rep.j == base.j  # bit-identical, not approx
    assert rep.iterations == base.iterations
    assert np.array_equal(rep.centroids, base.centroids)


def test_each_iteration_scores_one_distance_matrix(count_distance_cells):
    # the membership update and the objective share the iteration's matrix
    X, _ = generate_blobs(seed=3, k=3, per_cluster=40, d=4)
    rep = _run(1, X, FcmParams(k=3, max_iter=30, seed=1))
    assert rep.iterations > 1
    assert count_distance_cells["cells"] == rep.iterations * X.n * 3
    assert count_distance_cells["fcm"] == count_distance_cells["cells"]


def test_two_blobs_defuzzify_to_ground_truth():
    spread = 0.5
    X, truth = generate_blobs(seed=2, k=2, per_cluster=50, d=2,
                              spread=spread, separation=20 * spread)
    rep = _run(1, X, FcmParams(k=2, seed=3))
    assert adjusted_rand_index(rep.partition, truth) == 1.0


def test_objective_trace_non_increasing_with_slack():
    X, _ = generate_blobs(seed=19, k=3, per_cluster=20, d=2,
                          spread=1.5, separation=5.0)
    full = _run(1, X, FcmParams(k=3, seed=6))
    trace = [_run(1, X, FcmParams(k=3, seed=6, max_iter=t)).j
             for t in range(1, full.iterations + 1)]
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def test_params_validation():
    for bad in (dict(k=0), dict(k=2, m=1.0), dict(k=2, m=float("nan")),
                dict(k=2, m=float("inf")), dict(k=2, max_iter=0),
                dict(k=2, tol=-0.1), dict(k=2, tol=float("nan")),
                dict(k=2, tol=float("inf"))):
        with pytest.raises(ValueError):
            FcmParams(**bad)
    X = DataSet.from_points([[0.0], [1.0]])
    with pytest.raises(ValueError):
        _run(1, X, FcmParams(k=5))
