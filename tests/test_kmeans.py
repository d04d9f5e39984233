"""Centralized Lloyd baseline and its node-count-invariant parallel twin."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parclust.comm import CommWorld, split_blocks
from parclust.core import (DataSet, Partition, adjusted_rand_index,
                           generate_blobs, squared_distances, sse_objective)
from parclust.exactsum import (fixed_to_float, fixed_to_floats,
                               grouped_sums_fixed, sum_fixed)
from parclust.kmeans import (KMeansParams, _init_centers, _pkm_node,
                             kmeans_centralized, pkm)
from parclust.pca import KMeansLocal, cpca_cluster


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
# trip 1 moves center 0 onto the two zeros and repairs empty cluster 1 onto
# them as well, so trip 2 changes no sum or count while cluster 1 stays
# empty: not a fixed point, as the repair on trip 2 moves center 1 again
@example((DataSet.from_points([[0.0], [0.0], [10.0], [11.0]]),
          KMeansParams(k=3, max_iter=4), [[-1.0], [100.0], [10.5]]))
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
    assert rep.iterations > 1 and rep.converged
    # one allreduce a trip run: the last iteration is Lloyd's fixed point,
    # recorded without its trip
    assert count_collectives[world] == {"gather": 1,
                                        "allreduce_sum": rep.iterations - 1}


@pytest.mark.parametrize("p", [1, 2, 3])
def test_a_run_at_its_fixed_point_records_its_next_trip_without_running_it(
        p, count_collectives):
    X, _ = generate_blobs(seed=2, k=3, per_cluster=40, d=2)
    start = _init_centers(X, 3, 9)[None]
    labels, centers, [trace] = _runs(p, X, KMeansParams(k=3, seed=9), start)
    n = len(trace)
    assert n > 2 and trace[-1] == trace[-2] and trace[-2] < trace[-3]
    [counts] = count_collectives.values()
    assert counts["allreduce_sum"] == n - 1
    # the trip not run: one trip from the final centers repeats the labels,
    # the objective and the centers, bit for bit
    again = _runs(p, X, KMeansParams(k=3, max_iter=1), centers)
    assert _same_bits(again[0], labels) and _same_bits(again[1], centers)
    assert again[2] == [[trace[-1]]]
    # capped at the recorded trip the run is the same; capped at the fixed
    # point's own trip it has no trip left and records nothing more
    for cap in (n, n - 1):
        count_collectives.clear()
        capped = _runs(p, X, KMeansParams(k=3, seed=9, max_iter=cap), start)
        assert _same_bits(capped[0], labels)
        assert _same_bits(capped[1], centers)
        assert capped[2] == [trace[:cap]]
        [counts] = count_collectives.values()
        assert counts["allreduce_sum"] == n - 1


@pytest.mark.parametrize("p", [1, 2, 3])
def test_the_empty_cluster_refusal_counts_distinct_rows_over_all_blocks(
        p, count_collectives):
    # at P=3 every block holds both rows, so per-block counts would add to 6
    X = DataSet.from_points([[0.0, 0.0], [1.0, 1.0]] * 3)
    with pytest.raises(ValueError) as exc:
        _run_parallel(p, X, KMeansParams(k=3))
    assert str(exc.value) == ("cannot repair an empty cluster: k=3 but the "
                              "data has only 2 distinct rows")
    # one trip, the repair's gather and broadcast, then the refusal's one
    # gather
    [counts] = count_collectives.values()
    assert counts == {"allreduce_sum": 1, "gather": 2, "broadcast": 1}


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


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_start_is_refused_before_the_world_runs(
        p, bad, count_collectives):
    X, _ = generate_blobs(seed=2, k=3, per_cluster=10, d=2)
    start = X.points[:3].copy()
    start[1, 0] = bad
    refusal = r"^init_centers contains non-finite values \(NaN or infinity\)$"
    world = CommWorld(p)
    try:
        with pytest.raises(ValueError, match=refusal):
            pkm(world, X, KMeansParams(k=3), init_centers=start)
        with pytest.raises(ValueError, match=refusal):
            kmeans_centralized(X, KMeansParams(k=3), init_centers=start)
        assert not count_collectives
        # the world still runs
        assert pkm(world, X, KMeansParams(k=3), X.points[:3]).p == p
    finally:
        world.shutdown()


# -- the run axis: restarts in lockstep ----------------------------------------


def _runs(p, X, params, starts):
    """The Lloyd body's (labels, centers, traces) from the (R, k, d) stack
    `starts` on a p-node world over the rows of X."""
    world = CommWorld(p)
    try:
        return world.run(_pkm_node, X, params, np.asarray(starts))[0]
    finally:
        world.shutdown()


def _refusal(run):
    """The message of a run that refuses to repair an empty cluster, or
    None when it does not."""
    try:
        run()
    except ValueError as exc:
        if "cannot repair" not in str(exc):
            raise
        return str(exc)
    return None


@st.composite
def run_axis_cases(draw):
    """Rows on a coarse grid with duplicates, k up to n (so past 16 for
    the larger draws), and one to four starts that may sit far from every
    row, so that runs empty and repair clusters, converge at different
    trips, or refuse."""
    d = draw(st.integers(1, 3))
    coord = st.integers(-3, 3).map(float)
    rows = draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                         min_size=3, max_size=24))
    rows += draw(st.lists(st.sampled_from(rows), max_size=4))  # duplicates
    k = draw(st.integers(1, len(rows)))
    params = KMeansParams(k=k, max_iter=draw(st.integers(1, 6)),
                          tol=draw(st.sampled_from([0.0, 1e-9, 0.5])))
    far = st.lists(st.sampled_from([-40.0, 40.0]), min_size=d, max_size=d)
    start = st.lists(st.one_of(st.sampled_from(rows), far),
                     min_size=k, max_size=k)
    starts = draw(st.lists(start, min_size=1, max_size=4))
    return DataSet.from_points(rows), params, starts


#: Cases that the property must cover, each checked for its feature below.
_LINE = DataSet.from_points([[0.0], [1.0], [9.0], [10.0]])
_GRID20 = [[float(i), float(i % 3)] for i in range(20)]
_RUN_AXIS_EXAMPLES = {
    # the first start converges on trip 3, the second on trip 4
    "converge apart": (_LINE, KMeansParams(k=2), [[[0.0], [10.0]],
                                                  [[0.0], [1.0]]]),
    # 17 centers a run: the runs go to nearest_centers one at a time
    "k > 16": (DataSet.from_points(_GRID20), KMeansParams(k=17, max_iter=5),
               [_GRID20[:17], _GRID20[3:], _GRID20[::-1][:17]]),
    # a duplicated row: the second start's two centers tie, so its
    # cluster 1 empties and is repaired; the first start's does not
    "one run repairs": (DataSet.from_points([[0.0], [0.0], [5.0]]),
                        KMeansParams(k=2), [[[0.0], [5.0]], [[0.0], [0.0]]]),
    # three clusters over two distinct rows: the first start finds every
    # row on a centroid and refuses on trip 1, the second repairs onto
    # rows and stops at max_iter
    "one run refuses": (DataSet.from_points([[0.0], [0.0], [1.0]]),
                        KMeansParams(k=3, max_iter=1),
                        [[[0.0], [1.0], [40.0]], [[40.0], [41.0], [42.0]]]),
}


def _run_axis_check(case):
    X, params, starts = case
    for p in (1, 2, 3):
        solos = [_refusal(lambda s=s: _runs(p, X, params, [s]))
                 for s in starts]
        refusals = {m for m in solos if m is not None}
        out = []
        got = _refusal(lambda: out.append(_runs(p, X, params, starts)))
        if refusals:
            # every refusal message names k and the distinct rows alone
            assert [got] == list(refusals)
            continue
        assert got is None
        [(labels, centers, traces)] = out
        assert labels.shape == (X.n, len(starts))
        assert centers.shape == (len(starts), params.k, X.d)
        for r, start in enumerate(starts):
            one_labels, one_centers, [one_trace] = _runs(p, X, params,
                                                         [start])
            assert _same_bits(labels[:, r].copy(), one_labels[:, 0].copy())
            assert _same_bits(centers[r], one_centers[0])
            # the trace, so the iteration count too
            assert [t.hex() for t in traces[r]] == [t.hex() for t in one_trace]


@given(run_axis_cases())
@settings(deadline=None, max_examples=120)
def test_each_run_of_a_stack_equals_a_run_of_its_own(case):
    _run_axis_check(case)


@pytest.mark.parametrize("name", sorted(_RUN_AXIS_EXAMPLES))
def test_each_run_of_a_stack_equals_a_run_of_its_own_on(name,
                                                        count_collectives):
    X, params, starts = _RUN_AXIS_EXAMPLES[name]
    # each start on its own: (refusal, repairs, iterations)
    solo = []
    for s in starts:
        before, out = set(count_collectives), []
        msg = _refusal(lambda: out.append(_runs(1, X, params, [s])))
        [world] = set(count_collectives) - before
        solo.append((msg, count_collectives[world]["broadcast"],
                     len(out[0][2][0]) if out else None))
    msgs, repairs, iterations = zip(*solo)
    # the case has the feature it is named for
    if name == "converge apart":
        assert iterations == (3, 4) and repairs == (0, 0)
    elif name == "k > 16":
        assert params.k > 16 and len(starts) > 1 and None not in iterations
    elif name == "one run repairs":
        assert repairs == (0, 1) and None not in iterations
    else:
        assert msgs[0] is not None and msgs[1] is None and repairs[1] > 0
    _run_axis_check((X, params, starts))


# -- KMeansLocal: the restarts of one nested world ----------------------------


def _best_of_restarts(X, k, seed, max_iter):
    """The labels of KMeansLocal as it ran its restarts one nested world at
    a time: the first restart with the lowest objective."""
    best = None
    for i in range(KMeansLocal.RESTARTS):
        params = KMeansParams(k=min(k, X.n), max_iter=max_iter,
                              tol=KMeansLocal.TOL,
                              seed=int(np.random.default_rng(
                                  (seed, i)).integers(2**31)))
        _, part, j, _ = kmeans_centralized(X, params)
        if best is None or j < best[0]:
            best = (j, part.labels)
    return best[1]


@st.composite
def local_cases(draw):
    d = draw(st.integers(1, 3))
    coord = st.integers(-4, 4).map(float)
    rows = draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                         min_size=2, max_size=30))
    return (DataSet.from_points(rows), draw(st.integers(1, 20)),
            draw(st.integers(0, 2**16)), draw(st.sampled_from([1, 2, 4, 300])))


def _error(run):
    """The message of a run that fails with ValueError, or None."""
    try:
        run()
    except ValueError as exc:
        return str(exc)
    return None


@given(local_cases())
@example((generate_blobs(seed=3, k=3, per_cluster=40, d=2)[0], 3, 0, 300))
@example((generate_blobs(seed=3, k=3, per_cluster=40, d=2)[0], 3, 5, 4))
# the first restart refuses to repair on trip 1; a later one starts only on
# zeros, so its squared distance to 1e200 overflows on that same trip
@example((DataSet.from_points([[0.0]] * 3 + [[1e200]]), 3, 0, 4))
@settings(deadline=None, max_examples=80)
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_kmeans_local_keeps_the_labels_of_the_best_of_its_restarts(case):
    X, k, seed, max_iter = case
    local = KMeansLocal(seed=seed, max_iter=max_iter)
    want = _error(lambda: _best_of_restarts(X, k, seed, max_iter))
    got = _error(lambda: local(X, k))
    assert got == want
    if want is None:
        assert _same_bits(np.asarray(local(X, k)),
                          _best_of_restarts(X, k, seed, max_iter))


@pytest.mark.parametrize("max_iter", [1, 4, 300])
def test_kmeans_local_runs_one_nested_world_of_its_longest_restart(
        max_iter, count_collectives):
    X, _ = generate_blobs(seed=4, k=3, per_cluster=40, d=2)
    iterations, trips = [], []  # each restart's, run on its own
    for i in range(KMeansLocal.RESTARTS):
        count_collectives.clear()
        iterations.append(kmeans_centralized(X, KMeansParams(
            k=3, max_iter=max_iter, tol=KMeansLocal.TOL, seed=int(
                np.random.default_rng((0, i)).integers(2**31))))[3])
        [counts] = count_collectives.values()
        trips.append(counts["allreduce_sum"])
    count_collectives.clear()
    KMeansLocal(max_iter=max_iter)(X, 3)
    [counts] = count_collectives.values()
    assert counts == {"allreduce_sum": max(trips), "gather": 1}
    # a restart that reaches its fixed point with a trip left records that
    # trip without running it; with max_iter 4 one restart is cut off first
    saved = [n - t for n, t in zip(iterations, trips)]
    assert saved == {1: [0] * 8, 4: [1] * 7 + [0], 300: [1] * 8}[max_iter]
    if max_iter == 300:
        assert min(trips) < max(trips)  # the restarts stop apart


@pytest.mark.parametrize("p", [1, 2])
def test_cpca_cluster_runs_one_lloyd_world_per_local_step(p,
                                                          count_collectives):
    X, _ = generate_blobs(seed=1, k=3, per_cluster=40, d=3)
    world = CommWorld(p)
    try:
        cpca_cluster(world, split_blocks(X, p), KMeansLocal(), k=3)
    finally:
        world.shutdown()
    nested = [c for w, c in count_collectives.items() if w is not world]
    # a Lloyd world ends with a gather, a one-node PCA world makes none:
    # two local steps a node and the merge
    assert sum("gather" in c for c in nested) == 2 * p + 1
    assert sum("gather" not in c for c in nested) == p
