"""Fuzzy memberships, weighted centroids, and the soft objective."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from parclust.comm import CommWorld, NodeCtx, split_blocks
from parclust.core import (DataSet, adjusted_rand_index, generate_blobs,
                           squared_distances, sse_objective, Partition,
                           CentroidSet)
from parclust.exactsum import (fixed_ratios, fixed_to_float,
                               grouped_sums_fixed, sum_fixed)
from parclust.fcm import (FcmParams, _converged, _pfcm_node, _weighted_means,
                          _weighted_sums, initial_membership,
                          membership_update, pfcm)


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


def _masked_membership(d2, m):
    """The masked form of the update, rows on a centroid set apart first:
    the oracle of `membership_update`."""
    u = np.zeros_like(d2)
    zero_rows = (d2 == 0.0).any(axis=1)
    hit = np.argmax(d2[zero_rows] == 0.0, axis=1)
    u[np.nonzero(zero_rows)[0], hit] = 1.0
    reg = ~zero_rows
    w = d2[reg] ** (-1.0 / (m - 1.0))
    u[reg] = w / w.sum(axis=1, keepdims=True)
    return u


@pytest.mark.parametrize("on_centroid", [False, True])
@pytest.mark.parametrize("m", [1.1, 1.7, 2.0, 3.5])
def test_membership_equals_the_masked_update_bit_for_bit(m, on_centroid):
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(300, 4)) * 10.0 ** rng.integers(-3, 4, size=(300, 1))
    centers = rng.normal(size=(5, 4))
    if on_centroid:  # rows 3 and 200 sit on centroids, one on two of them
        centers[1] = centers[4] = pts[3]
        centers[2] = pts[200]
    d2 = squared_distances(pts, centers)
    assert (d2 == 0.0).any() == on_centroid
    want = _masked_membership(d2, m)
    got = membership_update(d2, m)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [3, 8, 12, 40])
def test_membership_rows_add_their_weights_in_index_order_in_any_layout(k):
    # numpy sums a C-ordered row of 8 or more pairwise but adds the columns
    # of a column-major array one by one; the update adds them in index
    # order for both, so pfcm's transposed block gives the same bits
    rng = np.random.default_rng(k)
    pts = rng.normal(size=(500, 3)) * 10.0 ** rng.integers(-3, 4, size=(500, 1))
    centers = rng.normal(size=(k, 3))
    centers[1] = pts[7]
    d2 = squared_distances(pts, centers)
    with np.errstate(divide="ignore"):
        w = d2 ** -1.0
    w[7] = 0.0
    w[7, 1] = 1.0
    total = w[:, 0].copy()
    for column in w.T[1:]:
        total += column
    want = w / total[:, None]
    for layout in (d2, np.asfortranarray(d2), squared_distances(centers, pts).T):
        got = membership_update(layout, 2.0)
        assert got.tobytes(order="C") == want.tobytes()


# -- centroid update -------------------------------------------------------


def _means(pts, u, m=2.0):
    """The centroids from one block's weighted sums of the rows `pts` with
    memberships `u`."""
    pt = np.ascontiguousarray(pts.T)
    return _weighted_means(_weighted_sums(pt, u ** m), u.shape[1],
                           pts.shape[1])


def test_crisp_memberships_reduce_to_cluster_means():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 10.0]])
    u = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(_means(pts, u), [[1.0, 0.0], [10.0, 10.0]])


def test_single_point_owns_every_cluster_with_weight():
    pts = np.array([[3.0, 4.0]])
    u = np.array([[0.3, 0.7]])
    assert np.allclose(_means(pts, u), [[3.0, 4.0], [3.0, 4.0]])


def test_the_weighted_sums_hold_numerators_then_denominators():
    pts = np.array([[1.0, 2.0], [3.0, 5.0]])
    w = np.array([[0.5, 0.25], [1.0, 2.0]])
    got = _weighted_sums(np.ascontiguousarray(pts.T), np.asfortranarray(w))
    want = (grouped_sums_fixed(pts * w[:, :1]) + grouped_sums_fixed(pts * w[:, 1:])
            + grouped_sums_fixed(w))
    assert got == want
    assert _weighted_means(got + [7], 2, 2).tolist() == [
        [3.5 / 1.5, 6.0 / 1.5], [6.25 / 2.25, 10.5 / 2.25]]


def test_centroids_bit_identical_across_node_counts():
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(48, 3))
    w_full = initial_membership(48, 3, seed=9) ** 2.0

    async def fn(ctx, points):
        w = w_full[ctx.start:ctx.start + len(points)]
        g = await ctx.allreduce_sum(
            _weighted_sums(np.ascontiguousarray(points.T), w))
        return _weighted_means(g, 3, 3)

    ref = _run_node_fn(1, fn, pts)
    for p in (2, 4):
        got = _run_node_fn(p, fn, pts)
        assert np.array_equal(got, ref)


def test_degenerate_membership_column_raises():
    pts = np.array([[0.0], [1.0]])
    u = np.array([[1.0, 0.0], [1.0, 0.0]])  # column 1 carries no weight
    with pytest.raises(ValueError, match="degenerate membership column 1"):
        _means(pts, u)


# -- objective -------------------------------------------------------------
# A run of one trip reports the objective of the memberships and distances
# of the centroids of the start memberships.


def test_crisp_objective_equals_sse():
    # one cluster: every weight is 1, so the objective is the SSE
    X, _ = generate_blobs(seed=3, k=2, per_cluster=15, d=2)
    rep = _run(1, X, FcmParams(k=1, max_iter=1))
    want = sse_objective(X, Partition(np.zeros(X.n, dtype=np.int64)),
                         CentroidSet(rep.centroids))
    assert rep.j == want  # m-power of crisp weights changes nothing


def test_objective_zero_when_each_point_sits_on_its_centroid():
    X = DataSet.from_points([[2.0], [2.0], [2.0]])
    rep = _run(1, X, FcmParams(k=2, max_iter=1))
    assert rep.centroids.tolist() == [[2.0], [2.0]]
    assert rep.j == 0.0


def test_objective_matches_double_loop_oracle():
    rng = np.random.default_rng(17)
    pts = rng.normal(size=(12, 2))
    m = 2.0
    rep = _run(1, DataSet.from_points(pts), FcmParams(k=3, m=m, max_iter=1))
    centers = rep.centroids
    u = membership_update(squared_distances(pts, centers), m)
    oracle = math.fsum(
        (u[i, c] ** m) * float(np.sum((pts[i] - centers[c]) ** 2))
        for i in range(12) for c in range(3))
    assert rep.j == pytest.approx(oracle, rel=1e-12)


# -- the fused loop against the two-allreduce loop -------------------------


async def _oracle_centroid_update(ctx, points, u, m):
    """Weighted means of every rank's rows from one global reduction: the
    k x d numerators, then the k denominators."""
    k = u.shape[1]
    d = points.shape[1]
    w = u ** m
    local = []
    pt = np.ascontiguousarray(points.T)
    buf = np.empty_like(pt)
    for i in range(k):
        local += grouped_sums_fixed(np.multiply(pt, w[:, i], out=buf).T)
    local += grouped_sums_fixed(w)
    g = await ctx.allreduce_sum(local)
    dens = g[k * d:]
    centers = np.empty((k, d), dtype=np.float64)
    for i in range(k):
        if dens[i] == 0:
            raise ValueError("degenerate membership column %d: all weights zero" % i)
        centers[i] = fixed_ratios(g[i * d:(i + 1) * d], dens[i])
    return centers


async def _oracle_objective(ctx, u, d2, m):
    total = await ctx.allreduce_sum([sum_fixed((u ** m) * d2)])
    return fixed_to_float(total[0])


async def _two_allreduce_node(ctx: NodeCtx, points, params):
    """pfcm as one loop of two allreduces a trip, the centroids and then
    the objective, over the rows-major distance matrix: the oracle of the
    fused loop."""
    u = initial_membership(ctx.start + len(points), params.k, params.seed,
                           ctx.start)
    trace = []
    for _ in range(params.max_iter):
        centers = await _oracle_centroid_update(ctx, points, u, params.m)
        d2 = squared_distances(points, centers)
        u = membership_update(d2, params.m)
        trace.append(await _oracle_objective(ctx, u, d2, params.m))
        if _converged(trace, params.tol):
            break
    labels = np.argmax(u, axis=1).astype(np.int64)
    return await ctx.gather_rows(labels), centers, trace


@st.composite
def _fused_cases(draw):
    """Blobs cut into P in {1, 2, 3} blocks, unevenly and with one empty
    block when P > 1, and the parameters of a run: k up to 9 (past the
    8 columns where numpy starts to sum a C row pairwise), max_iter 1, 2
    or 8, and a tol from 0 to one that ends the run early."""
    p = draw(st.sampled_from([1, 2, 3]))
    k = draw(st.integers(1, 9))
    d = draw(st.integers(1, 4))
    X, _ = generate_blobs(draw(st.integers(0, 100)), 3,
                          draw(st.integers(4, 12)), d, spread=2.0,
                          separation=4.0)
    edges = [0, *sorted(draw(st.lists(st.integers(0, X.n), min_size=p - 1,
                                      max_size=p - 1))), X.n]
    if p > 1:  # block b left empty
        b = draw(st.integers(0, p - 1))
        if b < p - 1:
            edges[b + 1] = edges[b]
        else:
            edges[b] = X.n
    blocks = [X.points[a:z] for a, z in zip(edges, edges[1:])]
    params = FcmParams(k=k, m=draw(st.sampled_from([1.5, 2.0, 3.0])),
                       max_iter=draw(st.sampled_from([1, 2, 8])),
                       tol=draw(st.sampled_from([0.0, 1e-6, 1e-2, 10.0])),
                       seed=draw(st.integers(0, 10)))
    return blocks, params


def _world_result(fn, blocks, params):
    """(result or error message, world) of fn over `blocks`."""
    world = CommWorld(len(blocks))
    try:
        return world.run(fn, blocks, params)[0], world
    except ValueError as exc:
        return str(exc), world
    finally:
        world.shutdown()


@given(_fused_cases())
@settings(deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_the_fused_loop_equals_the_two_allreduce_loop(count_collectives, case):
    blocks, params = case
    assert len(blocks) == 1 or min(map(len, blocks)) == 0
    got, world = _world_result(_pfcm_node, blocks, params)
    want, oracle_world = _world_result(_two_allreduce_node, blocks, params)
    if isinstance(want, str):
        assert got == want
        return
    (labels, centers, trace), (want_labels, want_centers, want_trace) = got, want
    assert labels.tobytes() == want_labels.tobytes()
    assert centers.tobytes() == want_centers.tobytes()
    assert np.array(trace).tobytes() == np.array(want_trace).tobytes()
    # one allreduce before the loop and one a trip, then the label gather
    assert count_collectives[world] == {"allreduce_sum": len(trace) + 1,
                                        "decide": 1}
    assert count_collectives[oracle_world]["allreduce_sum"] == 2 * len(trace)


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


@pytest.mark.parametrize("p", [2, 3])
def test_a_run_of_many_clusters_is_invariant_to_node_count(p):
    # ten clusters, where a row's weights are added in index order on every
    # rank, not summed pairwise as numpy sums a C-ordered row of 8 or more
    X, _ = generate_blobs(seed=1, k=4, per_cluster=100, d=5)
    params = FcmParams(k=10, seed=1)
    base = _run(1, X, params).to_json_dict()
    rep = _run(p, X, params).to_json_dict()
    for doc in (base, rep):
        doc.pop("timings_ms")
        doc.pop("p")
    assert rep == base


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
