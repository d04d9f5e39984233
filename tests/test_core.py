import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parclust import core as core_module
from parclust.core import (DISTANCE_BLOCK_CELLS, NOISE, CentroidSet, DataSet,
                           Partition, adjusted_rand_index, column_midrange,
                           components, generate_blobs, lifted_rows, load_csv,
                           nearest_centers, product_margin,
                           row_squared_distances, sse_objective,
                           squared_distances, squared_euclidean,
                           within_squared_distance, write_csv)
from parclust.comm import CommWorld
from parclust.fcm import FcmParams, pfcm
from parclust.kmeans import KMeansParams, kmeans_centralized, pkm
from parclust.pddp import pddp_km


# -- distances and the objective -----------------------------------------


def test_squared_euclidean_345_triangle():
    assert squared_euclidean((0, 0), (3, 4)) == 25.0


def test_squared_euclidean_identity():
    x = np.array([2.5, -1.0, 7.0])
    assert squared_euclidean(x, x) == 0.0


def test_squared_euclidean_componentwise():
    assert squared_euclidean((1, 2, 3), (4, 6, 3)) == 25.0


def test_squared_euclidean_dimension_mismatch():
    with pytest.raises(ValueError):
        squared_euclidean((1, 2), (1, 2, 3))


def test_sse_zero_when_points_sit_on_centroids():
    X = DataSet.from_points([[1.0, 1.0], [2.0, 2.0]])
    part = Partition(np.array([0, 1]))
    cents = CentroidSet(np.array([[1.0, 1.0], [2.0, 2.0]]))
    assert sse_objective(X, part, cents) == 0.0


def test_sse_one_cluster_around_midpoint():
    X = DataSet.from_points([[0.0], [2.0]])
    assert sse_objective(X, Partition(np.zeros(2, dtype=int)),
                         CentroidSet(np.array([[1.0]]))) == 2.0


def test_sse_matches_per_point_loop_oracle():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(20, 2))
    labels = rng.integers(0, 3, size=20)
    cents = rng.normal(size=(3, 2))
    X = DataSet.from_points(pts)
    got = sse_objective(X, Partition(labels), CentroidSet(cents))
    oracle = math.fsum(squared_euclidean(pts[i], cents[labels[i]])
                       for i in range(20))
    assert got == oracle  # both routes round the exact sum exactly once


def test_sse_skips_noise_rows():
    X = DataSet.from_points([[0.0], [100.0]])
    part = Partition(np.array([0, NOISE]))
    assert sse_objective(X, part, CentroidSet(np.array([[0.0]]))) == 0.0


def test_sse_rejects_out_of_range_labels():
    X = DataSet.from_points([[0.0], [1.0]])
    with pytest.raises(ValueError):
        sse_objective(X, Partition(np.array([0, 5])),
                      CentroidSet(np.array([[0.0]])))


def _per_center_distances(points, centers):
    """The reference: per center, each row's squared differences added in
    coordinate order, as the last of their running sums (an accumulate is
    sequential by definition)."""
    d2 = np.empty((points.shape[0], centers.shape[0]))
    for i in range(centers.shape[0]):
        diff = points - centers[i]
        d2[:, i] = np.cumsum(diff * diff, axis=1)[:, -1]
    return d2


@st.composite
def distance_cases(draw):
    """Rows and centers whose coordinates span magnitudes from ones whose
    squares underflow to ones whose squares overflow; some centers copy a row
    (zero distances). The center count falls on either side of the
    few-center switch, both block sizes are drawn, and the row count sits at
    or next to a boundary of the blocks it is scored in, or below k."""
    few = core_module._FEW_CENTERS
    d = draw(st.sampled_from(list(range(1, 10)) + [16, 17, 128, 129, 200]))
    k = draw(st.one_of(st.integers(1, few), st.integers(few + 1, 80)))
    cells = draw(st.sampled_from([1, 64, 1000, DISTANCE_BLOCK_CELLS]))
    tile = draw(st.sampled_from([1, 64, 1000,
                                 core_module._FEW_CENTER_TILE_CELLS]))
    step = max(1, (tile if k <= few else cells) // k)
    n = draw(st.sampled_from([0, 1, k - 1, step - 1, step, step + 1,
                              2 * step + 1]).filter(lambda v: 0 <= v <= 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    exponents = rng.choice([-170, -3, 0, 3, 160], size=(n + k, 1),
                           p=[0.1, 0.2, 0.4, 0.2, 0.1])  # one per row
    values = rng.normal(size=(n + k, d)) * 10.0 ** (
        exponents + rng.uniform(-2.0, 2.0, size=(n + k, d)))
    values[rng.random((n + k, d)) < 0.05] = 0.0
    points, centers = values[:n], values[n:]
    if n and draw(st.booleans()):
        copies = rng.choice(k, size=max(1, k // 4), replace=False)
        centers[copies] = points[rng.integers(0, n, size=copies.size)]
    return points, centers, cells, tile


@given(distance_cases())
@settings(deadline=None, max_examples=300)
def test_squared_distances_are_bit_equal_to_per_center_sums(case):
    points, centers, cells, tile = case
    with np.errstate(over="ignore", under="ignore"), \
            mock.patch.object(core_module, "DISTANCE_BLOCK_CELLS", cells), \
            mock.patch.object(core_module, "_FEW_CENTER_TILE_CELLS", tile):
        got = squared_distances(points, centers)
        want = _per_center_distances(points, centers)
    # callers assign whole columns of the result in place
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert got.shape == want.shape == (len(points), len(centers))
    assert got.tobytes() == want.tobytes()


def test_squared_distances_cross_the_default_block_boundary():
    rng = np.random.default_rng(5)
    k = 80
    step = DISTANCE_BLOCK_CELLS // k
    points = rng.normal(size=(2 * step + 1, 17)) * 1e3
    centers = rng.normal(size=(k, 17))
    got = squared_distances(points, centers)
    assert got.tobytes() == _per_center_distances(points, centers).tobytes()


def test_squared_distances_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        squared_distances(np.zeros((2, 3)), np.zeros((1, 2)))


# -- the eps filter ------------------------------------------------------------


@st.composite
def filter_cases(draw):
    """Rows and centers for `within_squared_distance`: a common offset of 0,
    1e8 or 1e15 with a small spread, magnitudes of 1e150 to 1e160 whose
    squared norms overflow, or rows of subnormal or nearly underflowing
    coordinates among ordinary ones; some centers copy a row. eps2 is the
    exact distance of a drawn pair, or one float step either side of it."""
    d = draw(st.sampled_from([1, 2, 8, 40]))
    n, k = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["offset", "huge", "tiny"]))
    noise = rng.normal(size=(n + k, d))
    if kind == "offset":
        offset = draw(st.sampled_from([0.0, 1e8, 1e15]))
        values = offset + draw(st.sampled_from([1e-6, 1.0, 1e3])) * noise
    elif kind == "huge":
        # near-parallel rows too, whose products overflow before their norms
        shape = draw(st.sampled_from([0.0, 1.0])) + draw(
            st.sampled_from([1e-3, 0.5, 1.0])) * noise
        values = shape * 10.0 ** rng.uniform(150.0, 160.0, size=(n + k, 1))
    else:
        values = noise * 10.0 ** rng.choice([-322, -310, -160, -154, 0],
                                            size=(n + k, 1))
    points, centers = values[:n], values[n:]
    if n and k and draw(st.booleans()):
        centers[rng.integers(0, k)] = points[rng.integers(0, n)]
    with np.errstate(over="ignore"):
        finite = squared_distances(points, centers)
    finite = finite[np.isfinite(finite)]
    if finite.size:
        dist = finite[draw(st.integers(0, finite.size - 1))]
        eps2 = draw(st.sampled_from([dist, np.nextafter(dist, np.inf),
                                     np.nextafter(dist, -np.inf)]))
    else:
        eps2 = draw(st.floats(0.0, 1e308))
    return points, centers, float(eps2)


@given(filter_cases(), st.integers(0, 23))
@settings(deadline=None, max_examples=400)
def test_the_eps_filter_equals_the_exact_test(case, origin_row):
    points, centers, eps2 = case
    with np.errstate(over="ignore"):
        want = squared_distances(points, centers) <= eps2
    n, d = points.shape
    zero = np.zeros(d)
    got = within_squared_distance(points, centers, eps2,
                                  lifted_rows(points, zero)[0],
                                  lifted_rows(centers, zero)[1])
    assert got.dtype == bool and got.shape == want.shape
    assert np.array_equal(got, want)
    # lifts of a larger stack about one of its rows, sliced, as the sweep
    # passes them
    stack = np.vstack([points, centers])
    origin = stack[origin_row % len(stack)] if len(stack) else zero
    lhs, rhs = lifted_rows(stack, origin)
    assert np.array_equal(within_squared_distance(
        points, centers, eps2, lhs[:n], rhs[n:]), want)
    # the product is within the docstring's bound of the exact distances
    with np.errstate(over="ignore"):
        norms = lhs[:n, d].max(initial=0.0) + rhs[n:, d + 1].max(initial=0.0)
        exact = squared_distances(points, centers)
    if norms <= core_module._FILTER_MAX_NORMS:
        bound = 6.4 * (d + 2) * 2.0 ** -53 * norms + (d + 2) * 2.0 ** -1070
        assert np.all(np.abs(lhs[:n] @ rhs[n:].T - exact) <= bound)


def test_the_eps_filter_scores_only_rows_within_rounding_of_eps(monkeypatch):
    # rows 1 and 2 lie exactly eps and one float step past eps from the
    # center, which no product bound can settle; rows 0 and 3 are far
    # inside and far outside, and the product decides them alone
    scored = []
    original = core_module.squared_distances

    def counted(points, centers):
        scored.append(len(points))
        return original(points, centers)

    monkeypatch.setattr(core_module, "squared_distances", counted)
    points = np.array([[0.5, 0.0], [3.0, 4.0], [3.0, np.nextafter(4.0, 5.0)],
                       [30.0, 0.0]])
    center, origin = np.zeros((1, 2)), np.zeros(2)
    got = within_squared_distance(points, center, 25.0,
                                  lifted_rows(points, origin)[0],
                                  lifted_rows(center, origin)[1])
    assert got.ravel().tolist() == [True, True, False, False]
    assert scored == [2]


# -- the nearest-center kernel ------------------------------------------------


@st.composite
def nearest_cases(draw):
    """Rows and 17 to 80 centers for `nearest_centers`: integer grids with
    some centers copied, so that equal distances are common, or normal
    draws, each offset by up to 1e12; or magnitudes whose norms pass
    _FILTER_MAX_NORMS. Returns (points, centers, huge)."""
    d = draw(st.sampled_from([1, 2, 3, 8, 9, 17]))
    n, k = draw(st.integers(0, 60)), draw(st.integers(17, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["grid", "normal", "huge"]))
    if kind == "huge":
        values = rng.normal(size=(n + k, d)) * 10.0 ** rng.uniform(
            152.0, 160.0, size=(n + k, 1))
    else:
        if kind == "grid":
            values = rng.integers(-2, 3, size=(n + k, d)) * draw(
                st.sampled_from([1.0, 0.5, 3e-7]))
        else:
            values = rng.normal(size=(n + k, d)) * draw(
                st.sampled_from([1e-3, 1.0, 1e3]))
        values = values + draw(st.sampled_from([0.0, 1e3, 1e8, 1e12]))
    points, centers = values[:n], values[n:]
    if draw(st.booleans()):
        centers[rng.integers(0, k, size=k // 3)] = centers[
            rng.integers(0, k, size=k // 3)]
    return points, centers, kind == "huge"


@given(nearest_cases())
@settings(deadline=None, max_examples=300)
def test_nearest_centers_equal_the_argmin_of_the_exact_distances(case):
    points, centers, huge = case
    origin = column_midrange(points)
    lhs, rhs = lifted_rows(points, origin)[0], lifted_rows(centers, origin)[1]
    scored = []

    def counted(rows, c):
        scored.append(len(rows))
        return squared_distances(rows, c)

    with np.errstate(over="ignore"):  # huge rows square to infinity
        with mock.patch.object(core_module, "squared_distances", counted):
            labels, d2min = nearest_centers(points, centers, lhs, rhs)
        exact = squared_distances(points, centers)
    want = np.argmin(exact, axis=1)  # ties to the lowest index
    assert labels.tolist() == want.tolist()
    assert d2min.tobytes() == exact[np.arange(len(points)), want].tobytes()
    if huge:  # no margin: every row takes the exact path
        assert product_margin(lhs, rhs) is None
        assert sum(scored) == len(points)


def test_nearest_centers_rescore_only_rows_with_a_near_tie(monkeypatch):
    # row 0 lies exactly between centers 3 and 4, and row 1 one float step
    # nearer to 4, which no product bound can tell; row 2 is near center 5
    # alone, and the product decides it
    scored = []
    original = core_module.squared_distances

    def counted(points, centers):
        scored.append(len(points))
        return original(points, centers)

    monkeypatch.setattr(core_module, "squared_distances", counted)
    centers = np.arange(20.0)[:, None] * 10.0
    points = np.array([[35.0], [np.nextafter(35.0, 40.0)], [50.5]])
    origin = column_midrange(points)
    labels, d2min = nearest_centers(points, centers,
                                    lifted_rows(points, origin)[0],
                                    lifted_rows(centers, origin)[1])
    assert labels.tolist() == [3, 4, 5]
    assert d2min.tolist() == [25.0, (40.0 - points[1, 0]) ** 2, 0.25]
    assert scored == [2]


@pytest.mark.parametrize("d", list(range(1, 10)) + [17, 129, 300])
def test_row_distances_equal_the_distance_matrix(d):
    rng = np.random.default_rng(d)
    points = rng.normal(size=(40, d)) * 10.0 ** rng.uniform(-3, 3, (40, d))
    centers = rng.normal(size=(20, d))
    X = DataSet.from_points(points)
    for k in (5, 20):  # the few-center tiles and the row blocks
        exact = squared_distances(points, centers[:k])
        pick = rng.integers(0, k, size=40)
        want = exact[np.arange(40), pick]
        got = row_squared_distances(points, centers[pick])
        assert got.tobytes() == want.tobytes()
        pairs = [squared_euclidean(p, centers[c]) for p, c in zip(points, pick)]
        assert np.array(pairs).tobytes() == want.tobytes()
        # the terms sse_objective sums exactly
        with mock.patch.object(core_module, "sum_fixed",
                               wraps=core_module.sum_fixed) as summed:
            sse_objective(X, Partition(pick), CentroidSet(centers[:k]))
        assert summed.call_args.args[0].tobytes() == want.tobytes()


def test_lloyd_reports_at_d9_are_bit_equal_at_one_two_three_nodes():
    # at d >= 8 coordinate order and numpy's pairwise order part ways, and
    # columns that span four decades make the order show in the last bits
    X, _ = generate_blobs(seed=3, k=4, per_cluster=60, d=9)
    X = DataSet.from_points(X.points * np.logspace(-2, 2, 9))
    runs = {
        "pkm": lambda w: pkm(w, X, KMeansParams(k=4, seed=11)),
        "pfcm": lambda w: pfcm(w, X, FcmParams(k=4, seed=11)),
        "pddp-km": lambda w: pddp_km(w, X, height=2),
    }
    for name, run in runs.items():
        reports = []
        for p in (1, 2, 3):
            world = CommWorld(p)
            try:
                reports.append(run(world))
            finally:
                world.shutdown()
        ref = reports[0]
        for rep in reports[1:]:
            assert rep.labels.tobytes() == ref.labels.tobytes(), name
            assert rep.centroids.tobytes() == ref.centroids.tobytes(), name
            assert np.float64(rep.j).tobytes() == np.float64(ref.j).tobytes()


# -- connected components ----------------------------------------------------


def _bfs_components(n, edges):
    """Each node's smallest component member: a breadth-first search from
    every unreached node in ascending order."""
    adjacent = [[] for _ in range(n)]
    for a, b in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    label = [-1] * n
    for start in range(n):
        if label[start] != -1:
            continue
        label[start] = start
        queue = [start]
        for node in queue:
            for other in adjacent[node]:
                if label[other] == -1:
                    label[other] = start
                    queue.append(other)
    return label


def _both_ways(edges):
    u = [a for a, _ in edges] + [b for _, b in edges]
    v = [b for _, b in edges] + [a for a, _ in edges]
    return np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)


@st.composite
def edge_lists(draw):
    """A node count (0 and 1 included) and edges among its nodes, with
    self-loops, repeated edges and isolated nodes, listed in any order."""
    n = draw(st.integers(0, 30))
    if n == 0:
        return 0, []
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=60))
    edges += draw(st.lists(st.sampled_from(edges), max_size=10)) if edges else []
    edges += [(a, a) for a in draw(st.lists(node, max_size=5))]
    return n, draw(st.permutations(edges))


@given(edge_lists(), st.booleans())
@settings(deadline=None, max_examples=300)
def test_components_equal_a_breadth_first_search(case, grouped):
    n, edges = case
    u, v = _both_ways(edges)
    if grouped:  # the layout the scan passes: each node's edges in one run
        order = np.argsort(u, kind="stable")
        u, v = u[order], v[order]
    got = components(n, u, v)
    assert got.dtype == np.int32
    assert got.tolist() == _bfs_components(n, edges)


@given(st.integers(2000, 4000), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=10)
def test_components_of_a_shuffled_path(n, seed):
    # a path whose nodes are numbered at random: one round per hop for a
    # label propagation that does not hook whole trees
    rng = np.random.default_rng(seed)
    path = rng.permutation(n)
    edges = list(zip(path[:-1].tolist(), path[1:].tolist()))
    u, v = _both_ways(edges)
    order = np.argsort(u, kind="stable")
    got = components(n, u[order], v[order])
    assert got.tolist() == _bfs_components(n, edges) == [0] * n


class _Proxy:
    """`target`, with some of its attributes replaced."""

    def __init__(self, target, **replaced):
        self._target = target
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._target, name)


@pytest.mark.parametrize("seed", range(5))
def test_components_of_a_shuffled_path_take_few_rounds(monkeypatch, seed):
    # each round makes one reduceat. Hooking whole trees takes 8 or 9 rounds
    # on such paths of 4000 nodes (11 at most on 20000); lowering only each
    # run's own node, not its root, took 600 to 2400
    n = 4000
    path = np.random.default_rng(seed).permutation(n)
    u, v = _both_ways(list(zip(path[:-1].tolist(), path[1:].tolist())))
    order = np.argsort(u, kind="stable")
    rounds = []

    def reduceat(*args, **kwargs):
        rounds.append(1)
        return np.minimum.reduceat(*args, **kwargs)

    monkeypatch.setattr(core_module, "np", _Proxy(
        np, minimum=_Proxy(np.minimum, reduceat=reduceat)))
    assert components(n, u[order], v[order]).tolist() == [0] * n
    assert 1 <= len(rounds) <= 16


# -- adjusted Rand index ---------------------------------------------------


def _ari_pair_oracle(a, b):
    """Brute force over all point pairs (the textbook definition)."""
    n = len(a)
    ss = sd = ds = dd = 0
    for i in range(n):
        for j in range(i + 1, n):
            sa = a[i] == a[j]
            sb = b[i] == b[j]
            ss += sa and sb
            sd += sa and not sb
            ds += not sa and sb
            dd += not sa and not sb
    total = n * (n - 1) // 2
    exp = (ss + sd) * (ss + ds) / total
    mx = ((ss + sd) + (ss + ds)) / 2
    if mx == exp:
        return 1.0 if (sd == 0 and ds == 0) else 0.0
    return (ss - exp) / (mx - exp)


def test_ari_identical_partitions():
    p = Partition(np.array([0, 0, 1, 2, 2]))
    assert adjusted_rand_index(p, p) == 1.0


def test_ari_label_permutation_invariance():
    a = Partition(np.array([0, 0, 1, 1]))
    b = Partition(np.array([1, 1, 0, 0]))
    assert adjusted_rand_index(a, b) == 1.0


def test_ari_crossed_pairs_matches_oracle():
    a = [0, 0, 1, 1]
    b = [0, 1, 0, 1]
    got = adjusted_rand_index(Partition(np.array(a)), Partition(np.array(b)))
    assert got == pytest.approx(_ari_pair_oracle(a, b))


@given(st.lists(st.integers(0, 3), min_size=2, max_size=24),
       st.lists(st.integers(0, 3), min_size=2, max_size=24))
@settings(deadline=None)
def test_ari_matches_pair_counting_oracle(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    got = adjusted_rand_index(Partition(np.array(a)), Partition(np.array(b)))
    assert got == pytest.approx(_ari_pair_oracle(a, b), abs=1e-12)


def test_ari_all_singletons_degenerate_case():
    a = Partition(np.arange(4))
    b = Partition(np.array([3, 2, 1, 0]))
    assert adjusted_rand_index(a, b) == 1.0  # same set partition
    c = Partition(np.array([0, 0, 1, 2]))
    assert adjusted_rand_index(a, c) == 0.0
    # n <= 1, and one block on both sides
    for n in (0, 1):
        assert adjusted_rand_index(Partition(np.zeros(n, dtype=np.int64)),
                                   Partition(np.full(n, 5))) == 1.0
    assert adjusted_rand_index(Partition(np.zeros(4, dtype=np.int64)),
                               Partition(np.full(4, -1))) == 1.0


def test_ari_length_mismatch():
    with pytest.raises(ValueError):
        adjusted_rand_index(Partition(np.array([0])), Partition(np.array([0, 1])))


# -- blob generator --------------------------------------------------------


def test_blobs_shape_and_balance():
    X, truth = generate_blobs(seed=1, k=2, per_cluster=50, d=2)
    assert X.n == 100 and X.d == 2
    counts = np.bincount(truth.labels)
    assert counts.tolist() == [50, 50]


def test_blobs_deterministic():
    X1, t1 = generate_blobs(seed=4, k=3, per_cluster=20, d=3)
    X2, t2 = generate_blobs(seed=4, k=3, per_cluster=20, d=3)
    assert np.array_equal(X1.points, X2.points)
    assert np.array_equal(t1.labels, t2.labels)


def test_blobs_separated_enough_for_kmeans_recovery():
    spread = 0.5
    X, truth = generate_blobs(seed=1, k=3, per_cluster=50, d=2,
                              spread=spread, separation=20 * spread)
    true_centers = np.vstack([X.points[truth.labels == i].mean(axis=0)
                              for i in range(3)])
    _, part, _, _ = kmeans_centralized(X, KMeansParams(k=3),
                                       init_centers=true_centers)
    assert adjusted_rand_index(part, truth) == 1.0


def test_blobs_rejects_bad_args():
    with pytest.raises(ValueError):
        generate_blobs(seed=0, k=0, per_cluster=10, d=2)
    with pytest.raises(ValueError):
        generate_blobs(seed=0, k=2, per_cluster=10, d=2, spread=-1.0)


@pytest.mark.parametrize("spread,separation", [
    (np.nan, 10.0), (np.inf, 10.0), (0.0, 10.0), (1.0, np.nan),
    (1.0, np.inf), (1.0, -np.inf), (1.0, 0.0)])
def test_blobs_refuse_a_spread_or_separation_not_finite_and_positive(
        spread, separation):
    with pytest.raises(ValueError, match="must be finite and positive"):
        generate_blobs(seed=0, k=2, per_cluster=10, d=2, spread=spread,
                       separation=separation)


def test_blobs_refuse_a_box_whose_squared_distances_overflow():
    # the first box is already too wide
    with pytest.raises(ValueError, match="overflow float64"):
        generate_blobs(seed=0, k=3, per_cluster=2, d=2, separation=1e308)
    # ten centers do not fit in the first box of one dimension, and
    # doubling its side would overflow
    with pytest.raises(ValueError, match="box of side 2e\\+154 overflow"):
        generate_blobs(seed=0, k=10, per_cluster=2, d=1, separation=1e153)
    # the same centers fit with room to double, and no distance overflows
    X, _ = generate_blobs(seed=0, k=10, per_cluster=2, d=1, separation=1e152)
    assert np.isfinite(X.points).all()


# -- dataset type ----------------------------------------------------------


def test_dataset_validates_ids_and_finiteness():
    with pytest.raises(ValueError):
        DataSet.from_points([[np.nan, 0.0]])
    with pytest.raises(ValueError):
        DataSet.from_points(np.zeros(3))


def test_partition_k_counts_distinct_non_noise():
    assert Partition(np.array([NOISE, 0, 0, 4])).k == 2
    with pytest.raises(ValueError):
        Partition(np.array([-2]))


# -- CSV I/O ---------------------------------------------------------------


def test_load_csv_plain_matrix(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("1,2\n3,4\n")
    X = load_csv(f)
    assert X.n == 2 and X.d == 2
    assert np.array_equal(X.points, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_skips_header(tmp_path):
    f = tmp_path / "h.csv"
    f.write_text("x,y\n1,2\n")
    X = load_csv(f)
    assert X.n == 1 and np.array_equal(X.points, [[1.0, 2.0]])


def test_load_csv_ragged_row_names_file_row(tmp_path):
    f = tmp_path / "r.csv"
    f.write_text("1,2\n3\n")
    with pytest.raises(ValueError, match="row 2"):
        load_csv(f)


def test_load_csv_non_numeric_after_header_names_position(tmp_path):
    f = tmp_path / "n.csv"
    f.write_text("a,b\n1,oops\n")
    with pytest.raises(ValueError, match="row 2, column 2"):
        load_csv(f)


def test_load_csv_rejects_non_finite(tmp_path):
    f = tmp_path / "inf.csv"
    f.write_text("1,inf\n")
    with pytest.raises(ValueError, match="non-finite"):
        load_csv(f)


def test_load_csv_empty_and_header_only(tmp_path):
    f = tmp_path / "e.csv"
    f.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_csv(f)
    f.write_text("x,y\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(f)


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(11)
    X = DataSet.from_points(rng.normal(size=(17, 3)) * 1e6)
    f = tmp_path / "rt.csv"
    write_csv(X, f)
    back = load_csv(f)
    assert np.array_equal(back.points, X.points)
