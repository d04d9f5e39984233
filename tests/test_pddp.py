"""Divisive principal-direction splitting and the hybrid seeding flow."""

import numpy as np
import pytest

from parclust.comm import CommWorld
from parclust.core import DataSet, adjusted_rand_index, generate_blobs
from parclust.pddp import pddp, pddp_km, pddp_report


def _run_pddp(p, X, height, **kw):
    world = CommWorld(p)
    try:
        return pddp(world, X, height, **kw)
    finally:
        world.shutdown()


def _walk(node, visit):
    visit(node)
    if node.left is not None:
        _walk(node.left, visit)
        _walk(node.right, visit)


# -- single splits -----------------------------------------------------------


def test_line_splits_on_projection_sign():
    X = DataSet.from_points([[-2.0], [-1.0], [1.0], [2.0]])
    tree, part = _run_pddp(1, X, height=1)
    assert tree.root.left.ids.tolist() == [2, 3]  # non-negative side
    assert tree.root.right.ids.tolist() == [0, 1]
    assert part.labels.tolist() == [1, 1, 0, 0]


def test_symmetric_cloud_splits_evenly():
    rng = np.random.default_rng(2)
    half = rng.normal(size=(30, 2)) * 0.1 + np.array([5.0, 0.0])
    X = DataSet.from_points(np.vstack([half, -half]))
    tree, _ = _run_pddp(1, X, height=1)
    assert tree.root.left.size == tree.root.right.size == 30


def test_singleton_input_passes_through():
    X = DataSet.from_points([[1.0, 2.0]])
    tree, part = _run_pddp(1, X, height=3)
    assert tree.root.is_leaf
    assert part.labels.tolist() == [0]


def test_identical_points_never_split():
    X = DataSet.from_points(np.ones((8, 2)))
    tree, part = _run_pddp(2, X, height=2)
    assert tree.root.is_leaf
    assert np.all(part.labels == 0)
    assert np.allclose(tree.root.mean, [1.0, 1.0])


# -- tree structure ----------------------------------------------------------


def test_children_partition_their_parent():
    X, _ = generate_blobs(seed=11, k=3, per_cluster=40, d=3, spread=1.0)
    tree, part = _run_pddp(2, X, height=3)

    def check(node):
        if node.left is not None:
            merged = np.sort(np.concatenate([node.left.ids, node.right.ids]))
            assert np.array_equal(merged, node.ids)
            assert node.left.size + node.right.size == node.size

    _walk(tree.root, check)
    leaves = tree.leaves()
    assert len(leaves) <= 2 ** tree.height
    all_ids = np.sort(np.concatenate([leaf.ids for leaf in leaves]))
    assert np.array_equal(all_ids, np.arange(X.n))
    # left-to-right leaf order is the label order
    for idx, leaf in enumerate(leaves):
        assert np.all(part.labels[leaf.ids] == idx)


def test_height_one_is_a_single_split():
    X, _ = generate_blobs(seed=12, k=2, per_cluster=30, d=2)
    tree, part = _run_pddp(1, X, height=1)
    assert len(tree.leaves()) == 2
    assert part.k == 2


def test_height_validation():
    X = DataSet.from_points([[0.0], [1.0]])
    world = CommWorld(1)
    try:
        with pytest.raises(ValueError, match="height"):
            pddp(world, X, height=0)
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
    X = DataSet(X0.points * scale, X0.ids)
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
    tree, _ = _run_pddp(p, DataSet.from_points(pts), height=1)
    u = tree.root.direction
    # the sine of the angle between the two lines, resolved below 1.49e-8
    assert np.arcsin(np.linalg.norm(u - (u @ leading) * leading)) <= 1e-8


def test_trees_agree_across_node_counts():
    X, _ = generate_blobs(seed=11, k=3, per_cluster=40, d=3, spread=1.0)
    tree1, part1 = _run_pddp(1, X, height=2)
    tree4, part4 = _run_pddp(4, X, height=2)
    assert np.array_equal(part1.labels, part4.labels)
    for a, b in zip(tree1.leaves(), tree4.leaves()):
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.mean, b.mean)


# -- hybrid seeding -----------------------------------------------------------


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
    finally:
        world.shutdown()
    assert rep.j <= rep.seed_j
    assert rep.algo == "pddp-km"
    assert rep.seed_j is not None
