"""Divisive principal-direction splitting and the hybrid seeding flow."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from parclust.comm import CommWorld
from parclust.core import DataSet, adjusted_rand_index, generate_blobs
from parclust.exactsum import fixed_to_float, sum_fixed
from parclust.pca import exact_covariance, exact_means, principal_axes
from parclust.pddp import pddp_km, pddp_report


def _run(p, fn, X, height, **kw):
    world = CommWorld(p)
    try:
        return fn(world, X, height, **kw)
    finally:
        world.shutdown()


# -- single splits -----------------------------------------------------------


def test_line_splits_on_projection_sign():
    X = DataSet.from_points([[-2.0], [-1.0], [1.0], [2.0]])
    rep = _run(1, pddp_report, X, 1)
    assert rep.labels.tolist() == [1, 1, 0, 0]  # the non-negative side is first
    assert rep.centroids.tolist() == [[1.5], [-1.5]]


def test_symmetric_cloud_splits_evenly():
    rng = np.random.default_rng(2)
    half = rng.normal(size=(30, 2)) * 0.1 + np.array([5.0, 0.0])
    X = DataSet.from_points(np.vstack([half, -half]))
    rep = _run(1, pddp_report, X, 1)
    assert np.bincount(rep.labels).tolist() == [30, 30]


def test_singleton_input_passes_through():
    X = DataSet.from_points([[1.0, 2.0]])
    rep = _run(1, pddp_report, X, 3)
    assert rep.labels.tolist() == [0]
    assert rep.centroids.tolist() == [[1.0, 2.0]]
    assert rep.j == 0.0


def test_identical_points_never_split():
    X = DataSet.from_points(np.ones((8, 2)))
    rep = _run(2, pddp_report, X, 2)
    assert np.all(rep.labels == 0)
    assert rep.centroids.tolist() == [[1.0, 1.0]]


# -- leaves ------------------------------------------------------------------


def test_children_partition_their_parent():
    # each leaf one level deeper lies inside one leaf, and the children of
    # a leaf come before those of the next: leaves are labeled left to right
    X, _ = generate_blobs(seed=11, k=3, per_cluster=40, d=3, spread=1.0)
    parents = _run(2, pddp_report, X, 2).labels
    children = _run(2, pddp_report, X, 3).labels
    k = int(children.max()) + 1
    assert np.array_equal(np.unique(children), np.arange(k))
    assert k <= 2 ** 3
    parent_of = {}
    for child, parent in zip(children.tolist(), parents.tolist()):
        assert parent_of.setdefault(child, parent) == parent
    order = [parent_of[c] for c in range(k)]
    assert order == sorted(order)
    assert all(1 <= order.count(par) <= 2 for par in set(order))


async def _mean_node(ctx, points):
    return (await exact_means(ctx, [points]))[0]


async def _direction_node(ctx, points):
    [(_, _, C)] = await exact_covariance(ctx, [points])
    return principal_axes(C)[1][0]


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("height", [1, 2, 5])
def test_each_centroid_is_the_exact_mean_of_its_leaf(p, height):
    # height 5 leaves singletons and leaves that reach the last level unsplit
    X, _ = generate_blobs(seed=11, k=3, per_cluster=8, d=3, spread=1.0)
    rep = _run(p, pddp_report, X, height)
    assert rep.centroids.shape == (int(rep.labels.max()) + 1, 3)
    for leaf, centroid in enumerate(rep.centroids):
        rows = X.points[rep.labels == leaf]
        _, want = CommWorld(1).run(_mean_node, DataSet.from_points(rows))[0]
        assert np.array_equal(centroid, want)


def test_height_one_is_a_single_split():
    X, _ = generate_blobs(seed=12, k=2, per_cluster=30, d=2)
    rep = _run(1, pddp_report, X, 1)
    assert rep.centroids.shape[0] == 2
    assert rep.partition.k == 2


def test_height_validation():
    X = DataSet.from_points([[0.0], [1.0]])
    world = CommWorld(2)
    try:
        for fn in (pddp_report, pddp_km):
            with pytest.raises(ValueError, match="height"):
                fn(world, X, 0)
            assert fn(world, X, 1).labels.tolist() == [1, 0]  # still runs
    finally:
        world.shutdown()


# -- recovery and node-count independence -------------------------------------


def test_four_blobs_fall_out_of_two_levels():
    X, truth = generate_blobs(seed=41, k=4, per_cluster=50, d=2,
                              spread=0.5, separation=15.0)
    reports = {}
    for p in (1, 4):
        world = CommWorld(p)
        try:
            reports[p] = pddp_report(world, X, height=2)
        finally:
            world.shutdown()
        assert adjusted_rand_index(reports[p].partition, truth) == 1.0
        assert reports[p].centroids.shape == (4, 2)
    assert np.array_equal(reports[1].labels, reports[4].labels)
    assert reports[1].j == reports[4].j  # exact reduction: bitwise equal


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e100, 1e150])
def test_huge_coordinates_still_split(scale):
    # squared norms of the covariance products pass the float64 range here
    X0, truth = generate_blobs(seed=4, k=4, per_cluster=20, d=3)
    X = DataSet(X0.points * scale)
    reports = []
    for p in (1, 2, 3):
        world = CommWorld(p)
        try:
            reports.append(pddp_report(world, X, height=2))
        finally:
            world.shutdown()
    assert np.bincount(reports[0].labels).tolist() == [20] * 4
    assert adjusted_rand_index(reports[0].partition, truth) == 1.0
    for rep in reports[1:]:
        assert np.array_equal(rep.labels, reports[0].labels)
        assert rep.j == reports[0].j


@pytest.mark.parametrize("p", [1, 2, 3])
def test_tiny_eigengap_splits_along_the_leading_eigenvector(p):
    # 11 x 11 grid, one axis stretched by 1 + 1e-6, rotated by pi/7
    g = np.arange(11.0)
    pts = np.array([[x * (1.0 + 1e-6), y] for x in g for y in g])
    t = np.pi / 7
    pts = pts @ np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
    centered = pts - pts.mean(axis=0)
    leading = np.linalg.eigh(centered.T @ centered / len(pts))[1][:, -1]
    world = CommWorld(p)
    try:
        u = world.run(_direction_node, DataSet.from_points(pts))[0]
    finally:
        world.shutdown()
    # the sine of the angle between the two lines, resolved below 1.49e-8
    assert np.arcsin(np.linalg.norm(u - (u @ leading) * leading)) <= 1e-8


def test_trees_agree_across_node_counts():
    X, _ = generate_blobs(seed=11, k=3, per_cluster=40, d=3, spread=1.0)
    for fn in (pddp_report, pddp_km):
        one, four = _run(1, fn, X, 2), _run(4, fn, X, 2)
        assert np.array_equal(one.labels, four.labels)
        assert np.array_equal(one.centroids, four.centroids)
        assert (one.j, one.seed_j) == (four.j, four.seed_j)


@st.composite
def _symmetric_sets(draw):
    """Rows +-i*a and +-j*s*b for an integer vector a, an integer vector b
    orthogonal to it and a small scale s. The mean is exactly 0, a leads
    the covariance, and the rows along b project to within rounding of 0."""
    d = draw(st.integers(2, 5), label="d")
    vec = st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any)
    a, c = np.array(draw(vec, label="a")), np.array(draw(vec, label="c"))
    b = (a @ a) * c - (a @ c) * a  # c without its part along a
    assume(b.any())
    scale = draw(st.sampled_from([0.1, 0.01, 0.3]), label="s")
    major = draw(st.sets(st.integers(1, 3), min_size=1), label="i")
    minor = draw(st.sets(st.integers(1, 3), min_size=1), label="j")
    rows = [sign * i * a for i in sorted(major) for sign in (1, -1)]
    rows += [sign * j * scale * b for j in sorted(minor) for sign in (1, -1)]
    order = draw(st.permutations(range(len(rows))), label="order")
    return np.array([rows[i] for i in order], dtype=np.float64)


@given(_symmetric_sets(), st.integers(1, 3))
@settings(deadline=None, max_examples=40)
def test_splits_of_symmetric_sets_agree_across_node_counts(points, height):
    X = DataSet.from_points(points)
    for fn in (pddp_report, pddp_km):
        reports = [_run(p, fn, X, height) for p in (1, 2, 3, X.n)]
        for rep in reports[1:]:
            assert np.array_equal(rep.labels, reports[0].labels)
            assert np.array_equal(rep.centroids, reports[0].centroids)
            assert (rep.j, rep.seed_j) == (reports[0].j, reports[0].seed_j)


# -- hybrid seeding -----------------------------------------------------------


def _seed_objective_oracle(points, means):
    """Each row's squared distance to its nearest leaf mean, summed exactly."""
    d2 = [min(float(np.sum((x - c) * (x - c))) for c in means) for x in points]
    return fixed_to_float(sum_fixed(np.array(d2)))


def test_clean_blobs_need_no_refinement():
    X, truth = generate_blobs(seed=41, k=4, per_cluster=50, d=2,
                              spread=0.5, separation=15.0)
    world = CommWorld(2)
    try:
        rep = pddp_km(world, X, height=2)
    finally:
        world.shutdown()
    assert adjusted_rand_index(rep.partition, truth) == 1.0
    assert rep.j == rep.seed_j  # seed assignment is already optimal
    assert rep.iterations <= 2
    assert rep.params["k"] == 4


@pytest.mark.parametrize("seed", [101, 102, 103])
def test_refinement_never_worsens_the_seed(seed):
    X, _ = generate_blobs(seed=seed, k=4, per_cluster=50, d=2,
                          spread=1.0, separation=8.0)
    world = CommWorld(2)
    try:
        rep = pddp_km(world, X, height=2)
        means = pddp_report(world, X, height=2).centroids
    finally:
        world.shutdown()
    assert rep.j < rep.seed_j  # these draws do gain from refinement
    assert rep.seed_j == _seed_objective_oracle(X.points, means)
    assert rep.algo == "pddp-km"


@pytest.mark.parametrize("bad", [{"max_iter": 0}, {"tol": math.nan},
                                 {"tol": -1.0}])
def test_a_bad_max_iter_or_tol_is_refused_before_the_world_runs(
        bad, count_collectives):
    X, _ = generate_blobs(seed=41, k=4, per_cluster=10, d=2)
    world = CommWorld(2)
    try:
        with pytest.raises(ValueError, match="max_iter|tol"):
            pddp_km(world, X, 2, **bad)
        assert not count_collectives[world]  # no split ran
        assert pddp_km(world, X, 2).params["k"] == 4  # the world still runs
    finally:
        world.shutdown()


@given(st.data())
@settings(deadline=None, max_examples=40)
def test_seed_objective_is_the_nearest_leaf_mean_objective(data):
    # rows drawn from a small pool, so most draws hold duplicate rows
    d = data.draw(st.integers(1, 3), label="d")
    pool = data.draw(st.lists(
        st.lists(st.integers(-4, 4).map(lambda v: v * 0.5), min_size=d,
                 max_size=d), min_size=1, max_size=6), label="pool")
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=3,
                               max_size=24), label="rows")
    height = data.draw(st.integers(1, 3), label="height")
    X = DataSet.from_points(np.array([pool[i] for i in picks]))
    for p in (1, 2, 3):
        means = _run(p, pddp_report, X, height).centroids
        try:
            rep = _run(p, pddp_km, X, height, max_iter=2)
        except ValueError as exc:  # too few distinct rows for the leaf count
            assert "cannot repair an empty cluster" in str(exc)
            continue
        assert rep.params["k"] == len(means)
        assert rep.seed_j == _seed_objective_oracle(X.points, means)


def test_a_cluster_that_cannot_split_is_not_tried_again(count_collectives):
    X = DataSet.from_points(np.ones((12, 2)))
    world = CommWorld(2)
    try:
        rep = pddp_report(world, X, 5)
    finally:
        world.shutdown()
    assert rep.labels.tolist() == [0] * 12
    # the exact mean and the cross-products once, then the leaf means
    assert count_collectives[world] == {"gather": 1, "allreduce_sum": 3}


@pytest.mark.parametrize("height", [1, 2, 10**6])
def test_a_split_that_puts_every_row_on_one_side_keeps_them_whole(
        height, count_collectives):
    # the mean of the first two rows rounds to 1e16, so neither projects
    # below 0; that split leaves an empty leaf, dropped at the end, and the
    # same two rows again, final at the next level
    X = DataSet.from_points([[1e16], [1e16 + 2.0], [5.0], [7.0]])
    world = CommWorld(2)
    try:
        rep = pddp_report(world, X, height)
    finally:
        world.shutdown()
    if height == 1:
        assert rep.labels.tolist() == [0, 0, 1, 1]
        assert rep.centroids.tolist() == [[1e16], [6.0]]
    else:
        assert rep.labels.tolist() == [0, 0, 2, 1]
        assert rep.centroids.tolist() == [[1e16], [7.0], [5.0]]
    levels = {1: 1, 2: 2, 10**6: 3}[height]
    assert count_collectives[world] == {"gather": 1,
                                        "allreduce_sum": 2 * levels + 1}


def test_a_huge_height_stops_when_every_cluster_is_final(count_collectives):
    X, _ = generate_blobs(seed=7, k=3, per_cluster=100, d=2)
    world = CommWorld(2)
    try:
        runs = [None]  # runs[h]: the allreduces and the report at height h
        while len(runs) < 3 or runs[-1][0] != runs[-2][0]:
            rep = pddp_report(world, X, len(runs))
            runs.append((count_collectives[world].pop("allreduce_sum"), rep))
        deep = pddp_report(world, X, 10**6)
    finally:
        world.shutdown()
    # the first height at which every cluster is final: one level more
    # makes no more allreduces
    final = len(runs) - 2
    allreduces, rep = runs[final]
    assert final > 5 and allreduces == 2 * final + 1
    assert count_collectives[world]["allreduce_sum"] == allreduces
    assert np.array_equal(deep.labels, rep.labels)
    assert np.array_equal(deep.centroids, rep.centroids)
    assert deep.j == rep.j


def test_pddp_km_makes_one_run_of_few_collectives(count_collectives,
                                                  monkeypatch):
    runs = []
    real = CommWorld.run

    def counted(world, fn, *args):
        runs.append(world)
        return real(world, fn, *args)

    monkeypatch.setattr(CommWorld, "run", counted)
    X, _ = generate_blobs(seed=41, k=4, per_cluster=50, d=2,
                          spread=0.5, separation=15.0)
    world = CommWorld(2)
    try:
        rep = pddp_km(world, X, height=2)
        km = dict(count_collectives[world])
        count_collectives[world].clear()
        tree = pddp_report(world, X, height=2)
    finally:
        world.shutdown()
    assert rep.params["k"] == 4  # both levels split every cluster
    levels = 2
    # per level: the exact means and the cross-products of every live
    # cluster at once; then one allreduce of the leaf means
    assert km == {"gather": 1,
                  "allreduce_sum": 2 * levels + 1 + rep.iterations}
    assert count_collectives[world] == {"gather": 1,
                                        "allreduce_sum": 2 * levels + 1}
    assert tree.centroids.shape[0] == rep.params["k"]
    # one run on the world per driver call, and none nested
    assert runs == [world, world]
