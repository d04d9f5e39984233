"""The exact covariance kernel, the direct eigensolver, truncated bases,
and PCA-guided distributed clustering."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from parclust.comm import CommWorld, split_blocks
from parclust.core import DataSet, Partition, adjusted_rand_index, generate_blobs
from parclust.pca import (DbscanLocal, KMeansLocal, PrincipalBasis,
                          _maximin_init, _merge_sketches, _pca_of_points,
                          cpca, cpca_cluster, exact_covariance, local_pca,
                          principal_axes)


def _max_principal_angle(A, B):
    """Largest angle between the row spaces of two orthonormal bases.

    The singular values of the part of B outside A's row space are the
    sines of the principal angles. Their arcsin resolves small angles,
    which arccos of a cosine within 1 ulp of 1.0 (1.49e-8 rad) cannot.
    """
    s = np.linalg.svd(B - (B @ A.T) @ A, compute_uv=False)
    return float(np.arcsin(min(1.0, np.max(s))))


def _rank2_embedded(seed, n=400, d=6, scales=(3.0, 1.5)):
    rng = np.random.default_rng(seed)
    latent = rng.normal(size=(n, 2)) * np.asarray(scales)
    Q, _ = np.linalg.qr(rng.normal(size=(d, 2)))
    return latent @ Q.T + rng.normal(size=d), Q.T  # (points, true 2xd basis)


# -- exact covariance ----------------------------------------------------------


@st.composite
def _spread_rows(draw, d):
    """Rows with duplicates, constant columns, all-equal rows, and column
    scales from 1e-150 to 1e150."""
    distinct = draw(st.lists(
        st.lists(st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
                 min_size=d, max_size=d), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1,
                          max_size=12))
    rows = np.array([distinct[i] for i in picks], dtype=np.float64)
    if draw(st.booleans()):
        rows[:, draw(st.integers(0, d - 1))] = draw(st.floats(-1e3, 1e3))
    scales = draw(st.lists(st.integers(-150, 150), min_size=d, max_size=d))
    return rows * np.array([10.0 ** e for e in scales])


@st.composite
def _row_sets(draw):
    """One to three sets of `_spread_rows` of one width d (d = 1 too), one
    of which may be empty or one row repeated."""
    d = draw(st.integers(1, 4))
    sets = draw(st.lists(_spread_rows(d), min_size=1, max_size=3))
    odd = draw(st.sampled_from([None, "empty", "constant"]))
    if odd is not None:
        i = draw(st.integers(0, len(sets) - 1))
        sets[i] = (np.empty((0, d)) if odd == "empty"
                   else np.repeat(sets[i][:1], len(sets[i]), axis=0))
    return sets


def _covariance_oracle(rows):
    """(n, mean, C): each mean and each cross-product mean as the exact
    rational sum, rounded once; None for C when every cross-product sums
    to 0, and for the mean too when there are no rows."""
    n, d = rows.shape
    if n == 0:
        return 0, None, None
    mean = np.array([float(sum(Fraction(v) for v in rows[:, j]) / n)
                     for j in range(d)])
    centered = rows - mean
    sums = {(a, b): sum(map(Fraction, centered[:, a] * centered[:, b]))
            for a in range(d) for b in range(a, d)}
    if not any(sums.values()):
        return n, mean, None
    C = np.empty((d, d))
    for (a, b), total in sums.items():
        C[a, b] = C[b, a] = float(total / n)
    return n, mean, C


def _kernel_over(p, sets):
    """Every rank's exact covariances of the sets, in rank order, each set
    split by np.array_split (a block may be empty), and the world."""
    async def body(ctx, _points, pieces):  # the sets come as `pieces`
        return await ctx.gather(await exact_covariance(ctx, pieces[ctx.rank]))

    pieces = list(zip(*(np.array_split(rows, p) for rows in sets)))
    world = CommWorld(p)
    try:
        return world.run(body, [np.empty((0, 1))] * p, pieces)[0], world
    finally:
        world.shutdown()


def _same(got, want):
    """Equal bits, or both None."""
    if want is None:
        return got is None
    return got is not None and got.tobytes() == want.tobytes()


@given(sets=_row_sets())
@settings(deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_exact_covariance_is_the_rational_sum_rounded_once_at_any_p(
        sets, count_collectives):
    oracle = [_covariance_oracle(rows) for rows in sets]
    for p in (1, 2, 3):
        ranks, world = _kernel_over(p, sets)
        # two allreduces whatever the number of sets, and the test's gather
        assert count_collectives[world] == {"allreduce_sum": 2, "gather": 1}
        for stats in ranks:
            assert len(stats) == len(sets)
            for got, want in zip(stats, oracle):
                assert got[0] == want[0]
                assert _same(got[1], want[1]) and _same(got[2], want[2])


def test_cpca_of_no_rows_is_refused():
    world = CommWorld(2)
    try:
        with pytest.raises(ValueError, match="no rows"):
            cpca(world, [np.empty((0, 3))] * 2, 0.9)
    finally:
        world.shutdown()


# -- eigenpairs --------------------------------------------------------------

_LINE = np.array([[t, t] for t in (-2.0, -1.0, 0.0, 1.0, 2.0)])


@pytest.mark.parametrize("C, values, first", [
    (np.diag([5.0, 1.0]), [5.0, 1.0], [1.0, 0.0]),
    # variances add along the diagonal
    (_LINE.T @ _LINE / len(_LINE), [4.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5)]),
    (np.zeros((3, 3)), [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
], ids=["diagonal", "line", "zero"])
def test_principal_axes_descending_and_signed(C, values, first):
    evals, axes = principal_axes(C)
    assert evals == pytest.approx(values, abs=1e-12)
    assert np.all(np.diff(evals) <= 0.0)
    assert np.allclose(axes[0], first)
    assert np.allclose(axes @ axes.T, np.eye(len(values)))
    assert np.allclose(C @ axes.T, axes.T * evals)
    for axis in axes:
        assert axis[np.flatnonzero(axis)[0]] > 0.0


# -- truncated basis -------------------------------------------------------


def test_rank_two_data_needs_exactly_two_components():
    pts, true_basis = _rank2_embedded(17)
    basis = _pca_of_points(pts, 0.999)
    assert basis.r == 2
    assert _max_principal_angle(basis.components, true_basis) <= 1e-8
    proj = (pts - basis.mean) @ basis.components.T
    recon = basis.mean + proj @ basis.components
    assert float(np.max(np.abs(recon - pts))) <= 1e-6


def test_tiny_fraction_keeps_single_component():
    pts, _ = _rank2_embedded(18)
    assert _pca_of_points(pts, 1e-9).r == 1


def test_constant_rows_fall_back_to_first_axis():
    basis = _pca_of_points(np.ones((5, 3)), 0.9)
    assert basis.r == 1
    assert basis.eigenvalues[0] == 0.0
    assert np.allclose(basis.components[0], [1.0, 0.0, 0.0])


def test_tiny_eigengap_gives_the_leading_eigenvector():
    # 11 x 11 grid, one axis stretched by 1 + 1e-6, rotated by pi/7: the two
    # covariance eigenvalues differ by a relative 2e-6
    g = np.arange(11.0)
    pts = np.array([[x * (1.0 + 1e-6), y] for x in g for y in g])
    t = np.pi / 7
    pts = pts @ np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
    centered = pts - pts.mean(axis=0)
    leading = np.linalg.eigh(centered.T @ centered / len(pts))[1][:, -1]
    basis = _pca_of_points(pts, 0.999)
    assert _max_principal_angle(basis.components[:1], leading[None, :]) <= 1e-8


def test_fraction_out_of_range_rejected():
    with pytest.raises(ValueError):
        _pca_of_points(np.ones((4, 2)), 0.0)
    with pytest.raises(ValueError):
        _pca_of_points(np.ones((4, 2)), 1.5)


def test_basis_requires_orthonormal_components():
    with pytest.raises(ValueError):
        PrincipalBasis(np.zeros(2), np.array([[1.0, 1.0]]), np.ones(1))


def test_local_basis_needs_two_rows():
    world = CommWorld(1)
    try:
        [block] = split_blocks(DataSet.from_points([[0.0, 0.0]]), 1)
    finally:
        world.shutdown()
    with pytest.raises(ValueError, match="at least 2 rows"):
        local_pca(block, 0.9)


# -- collective basis ------------------------------------------------------


def test_collective_basis_recovers_plane_across_nodes(count_collectives):
    pts, true_basis = _rank2_embedded(17, d=5)
    X = DataSet.from_points(pts)
    central = _pca_of_points(pts, 0.999)
    assert central.r == 2
    assert _max_principal_angle(central.components, true_basis) <= 1e-6
    for p in (1, 2, 3, 8):
        world = CommWorld(p)
        try:
            basis = cpca(world, split_blocks(X, p), 0.999)
        finally:
            world.shutdown()
        assert np.array_equal(basis.mean, central.mean)
        assert np.array_equal(basis.components, central.components)
        assert np.array_equal(basis.eigenvalues, central.eigenvalues)
        # the exact mean and the cross-products, at every node count
        assert count_collectives[world] == {"allreduce_sum": 2}


def test_identical_blocks_reproduce_the_local_basis():
    pts, _ = _rank2_embedded(4, n=100, d=4)
    X = DataSet.from_points(np.vstack([pts, pts]))
    world = CommWorld(2)
    try:
        blocks = split_blocks(X, 2)
        local_basis, _ = local_pca(blocks[0], 0.999)
        merged = cpca(world, blocks, 0.999)
    finally:
        world.shutdown()
    assert _max_principal_angle(merged.components, local_basis.components) <= 1e-8


# -- facilitator-side merge helpers ----------------------------------------


def test_maximin_starts_heavy_then_spreads():
    pts = np.arange(10.0)[:, None]
    wts = np.zeros(10)
    wts[3] = 5.0
    centers = _maximin_init(pts, wts, 3)
    assert centers[:, 0].tolist() == [3.0, 9.0, 0.0]


def test_weighted_kmeans_groups_paired_points():
    pts = np.array([[0.0], [0.1], [5.0], [5.1]])
    counts = np.array([1, 2, 3, 1])
    labels = _merge_sketches(pts, counts, 2)
    assert labels.tolist() == [1, 1, 0, 0]  # the heaviest sketch seeds group 0


# -- distributed clustering through the shared basis ------------------------


def _noisy_shuffled_blobs():
    blobs, truth = generate_blobs(seed=31, k=3, per_cluster=80, d=2,
                                  spread=0.6, separation=12.0)
    rng = np.random.default_rng(31)
    noise = rng.normal(scale=0.5, size=(blobs.n, 4))
    order = rng.permutation(blobs.n)
    X = DataSet.from_points(np.hstack([blobs.points, noise])[order])
    return X, Partition(truth.labels[order])


def test_blobs_with_noise_dimensions_recovered():
    X, truth = _noisy_shuffled_blobs()
    for p in (1, 4):
        world = CommWorld(p)
        try:
            rep = cpca_cluster(world, split_blocks(X, p), KMeansLocal(seed=7),
                               k=3, variance_fraction=0.9, seed=7)
        finally:
            world.shutdown()
        assert rep.n == X.n and rep.labels.shape == (X.n,)
        assert adjusted_rand_index(rep.partition, truth) >= 0.95


def test_density_plugin_ignores_k_and_still_merges():
    X, truth = generate_blobs(seed=8, k=3, per_cluster=50, d=2,
                              spread=0.3, separation=9.0)
    world = CommWorld(2)
    try:
        rep = cpca_cluster(world, split_blocks(X, 2),
                           DbscanLocal(eps=0.9, min_pts=4), k=3,
                           variance_fraction=0.999, seed=1)
    finally:
        world.shutdown()
    assert rep.partition.k == 3
    assert adjusted_rand_index(rep.partition, truth) == 1.0


def test_more_groups_than_sketches_rejected():
    X, _ = generate_blobs(seed=2, k=1, per_cluster=40, d=2, spread=0.2)
    world = CommWorld(1)
    try:
        with pytest.raises(ValueError, match="cluster sketches"):
            cpca_cluster(world, split_blocks(X, 1),
                         DbscanLocal(eps=1.0, min_pts=3), k=3,
                         variance_fraction=0.999)
    finally:
        world.shutdown()


def _cpca_over_doubled_blobs(k):
    """cpca-cluster at P=2 over two identical copies of two blobs: each
    node holds the same rows and sends the same two sketches."""
    B, _ = generate_blobs(seed=3, k=2, per_cluster=30, d=2, spread=0.3,
                          separation=10.0)
    X = DataSet.from_points(np.vstack([B.points, B.points]))
    world = CommWorld(2)
    try:
        return cpca_cluster(world, split_blocks(X, 2),
                            DbscanLocal(eps=1.0, min_pts=3), k=k,
                            variance_fraction=0.999)
    finally:
        world.shutdown()


@pytest.mark.parametrize("k", [3, 4])
def test_more_groups_than_distinct_sketches_rejected(k):
    # four sketches, two distinct: k=3 would split one blob by node and
    # k=4 would return three clusters
    with pytest.raises(ValueError, match="k=%d exceeds the 2 distinct "
                       "cluster sketches" % k):
        _cpca_over_doubled_blobs(k)


def test_coincident_sketches_merge_into_one_group():
    rep = _cpca_over_doubled_blobs(2)
    assert rep.model["sketches"] == 4
    assert rep.labels[:60].tolist() == rep.labels[60:].tolist()
    assert rep.partition.k == 2


def test_parameter_validation():
    X, _ = generate_blobs(seed=2, k=1, per_cluster=10, d=2)
    world = CommWorld(1)
    try:
        with pytest.raises(ValueError):
            cpca_cluster(world, split_blocks(X, 1), KMeansLocal(), k=0)
        with pytest.raises(ValueError):
            cpca_cluster(world, split_blocks(X, 1), KMeansLocal(), k=1,
                         reps_per_cluster=0)
    finally:
        world.shutdown()


@pytest.mark.parametrize("fraction", [0.0, 1.5, float("nan")])
def test_a_rejected_variance_fraction_leaves_the_world_running(fraction):
    X, _ = generate_blobs(seed=2, k=2, per_cluster=20, d=3)
    world = CommWorld(2)
    try:
        shards = split_blocks(X, 2)
        with pytest.raises(ValueError, match="variance_fraction"):
            cpca(world, shards, fraction)
        with pytest.raises(ValueError, match="variance_fraction"):
            cpca_cluster(world, shards, KMeansLocal(), k=2,
                         variance_fraction=fraction)
        assert cpca(world, shards, 0.9).r >= 1
        assert cpca_cluster(world, shards, KMeansLocal(), k=2).n == X.n
    finally:
        world.shutdown()
