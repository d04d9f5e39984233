"""Runtime contracts: block splitting, collectives, the SPMD driver, teardown."""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parclust.comm import CommAbort, CommWorld, Shard, split_blocks
from parclust.core import DataSet, generate_blobs
from parclust.dbscan import DbscanParams, DdbcParams, dbscan, ddbc
from parclust.fcm import FcmParams, pfcm
from parclust.kmeans import KMeansParams, pkm
from parclust.kwindows import KWindowsParams, k_windows
from parclust.pca import KMeansLocal, cpca, cpca_cluster
from parclust.pddp import pddp_km, pddp_report


def _world_run(p, fn, *args, timeout=30.0):
    world = CommWorld(p)
    try:
        return world.spmd(fn, *args, timeout=timeout)[0]
    finally:
        world.shutdown()


# -- split_blocks ----------------------------------------------------------


def _toy(n, d=2):
    return DataSet.from_points(np.arange(n * d, dtype=float).reshape(n, d))


def test_split_single_node_gets_everything():
    shards = split_blocks(_toy(10), 1)
    assert len(shards) == 1 and len(shards[0]) == 10


def test_split_ceiling_rule():
    shards = split_blocks(_toy(10), 3)
    assert [len(s) for s in shards] == [4, 3, 3]


def test_split_singletons():
    shards = split_blocks(_toy(7), 7)
    assert [len(s) for s in shards] == [1] * 7


def test_split_rejects_bad_counts():
    with pytest.raises(ValueError):
        split_blocks(_toy(3), 0)
    with pytest.raises(ValueError):
        split_blocks(_toy(3), 4)


@given(st.integers(1, 40), st.integers(1, 40))
@settings(deadline=None)
def test_split_blocks_partition_properties(n, p):
    if p > n:
        p = n
    X = _toy(n)
    shards = split_blocks(X, p)
    sizes = [len(s) for s in shards]
    assert sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1
    assert sorted(sizes, reverse=True) == sizes  # larger blocks first
    # each shard starts at the dataset row after the blocks before it
    assert [s.start for s in shards] == np.cumsum([0] + sizes[:-1]).tolist()
    stacked = np.vstack([s.points for s in shards])
    assert np.array_equal(stacked, X.points)


@pytest.mark.parametrize("algo", ["pkm", "pfcm", "k-windows"])
def test_one_row_per_shard_gives_the_one_node_result(algo):
    # at P = n every row's dataset position is its shard's start alone
    X, _ = generate_blobs(seed=3, k=3, per_cluster=4, d=2)
    run = {"pkm": lambda w: pkm(w, X, KMeansParams(k=3, seed=1)),
           "pfcm": lambda w: pfcm(w, X, FcmParams(k=3, seed=1)),
           "k-windows": lambda w: k_windows(w, X, KWindowsParams(
               l=4, a=2.0, seed=1))}[algo]
    docs = []
    for p in (1, X.n):
        world = CommWorld(p)
        try:
            docs.append(run(world).to_json_dict())
        finally:
            world.shutdown()
    for doc in docs:
        del doc["p"], doc["timings_ms"]
    assert docs[0] == docs[1]  # labels, j, centroids and model alike
    assert docs[0]["labels"] != [docs[0]["labels"][0]] * X.n


# -- broadcast -------------------------------------------------------------


def test_broadcast_single_rank_identity():
    out = _world_run(1, lambda ctx: ctx.broadcast("payload"))
    assert out == ["payload"]


def test_broadcast_root_value_everywhere():
    centroids = np.array([[1.0, 2.0], [3.0, 4.0]])

    def fn(ctx):
        got = ctx.broadcast(centroids if ctx.rank == 0 else None)
        return np.array_equal(got, centroids)

    assert _world_run(4, fn) == [True] * 4


# -- allreduce -------------------------------------------------------------


def test_allreduce_single_rank_unchanged():
    out = _world_run(1, lambda ctx: ctx.allreduce_sum([1, 2, 3]))
    assert out == [[1, 2, 3]]


def test_a_one_payload_fold_is_a_fresh_copy_of_the_payload():
    for payload in ([1, -2, 3 ** 90], (4, 5), []):
        out = CommWorld._fold([payload])
        assert out == list(payload) and type(out) is list
        assert out is not payload
    vec = [7, 8]
    [out] = _world_run(1, lambda ctx: ctx.allreduce_sum(vec))
    out[0] = 0
    assert vec == [7, 8]


def test_allreduce_scalar_sum():
    out = _world_run(3, lambda ctx: ctx.allreduce_sum([ctx.rank + 1]))
    assert out == [[6], [6], [6]]


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("payload", [
    [1.0, 2.0],
    np.arange(3),
    np.arange(3.0),
    [np.int64(1)],
], ids=["float-list", "int-ndarray", "float-ndarray", "numpy-int-list"])
def test_allreduce_refuses_non_integer_payloads(payload, p):
    # a float sum would depend on the fold order and so on the node count
    with pytest.raises(CommAbort, match="lists of Python ints"):
        _world_run(p, lambda ctx: ctx.allreduce_sum(payload))


def test_allreduce_refuses_one_float_rank():
    def fn(ctx):
        return ctx.allreduce_sum([1.5] if ctx.rank == 1 else [1])

    with pytest.raises(CommAbort, match="lists of Python ints"):
        _world_run(3, fn)


def test_allreduce_python_ints_stay_exact():
    big = 1 << 200

    def fn(ctx):
        return ctx.allreduce_sum([big, ctx.rank])

    out = _world_run(3, fn)
    assert out[0] == [3 * big, 3]


def test_back_to_back_allreduces_each_read_their_own_result():
    # one barrier wait per collective: a fast rank posts its next slot
    # while slower ranks may still be reading the previous result; more
    # ranks than cores and frequent thread switches make that overlap likely
    def fn(ctx):
        return [ctx.allreduce_sum([ctx.rank + i])[0] for i in range(300)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = _world_run(6, fn, timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert out == [[6 * i + 15 for i in range(300)]] * 6


def test_allreduce_length_mismatch_aborts():
    def fn(ctx):
        return ctx.allreduce_sum([0] * (2 if ctx.rank else 3))

    with pytest.raises(CommAbort):
        _world_run(2, fn)


def test_mismatched_collective_kinds_abort():
    def fn(ctx):
        if ctx.rank == 0:
            return ctx.broadcast("a")
        return ctx.gather("b")

    with pytest.raises(CommAbort):
        _world_run(2, fn)


# -- gather ----------------------------------------------------------------


def test_gather_single_rank():
    assert _world_run(1, lambda ctx: ctx.gather("a")) == [["a"]]


def test_gather_rank_order_at_root_empty_elsewhere():
    out = _world_run(3, lambda ctx: ctx.gather("r%d" % ctx.rank))
    assert out[0] == ["r0", "r1", "r2"]
    assert out[1] == [] and out[2] == []


@pytest.mark.parametrize("p", [1, 2, 3])
def test_gather_rows_is_dataset_order_at_root_none_elsewhere(
        p, count_collectives):
    X = _toy(7)
    world = CommWorld(p)
    try:
        out, _ = world.spmd(
            lambda ctx, shards: ctx.gather_rows(shards[ctx.rank].points),
            split_blocks(X, p))
    finally:
        world.shutdown()
    assert np.array_equal(out[0], X.points)
    assert out[1:] == [None] * (p - 1)
    assert count_collectives[world] == {"gather": 1}


# -- spmd driver -----------------------------------------------------------


def test_spmd_returns_results_in_rank_order():
    assert _world_run(4, lambda ctx: ctx.rank * 10) == [0, 10, 20, 30]


def test_spmd_reraises_first_real_failure():
    def fn(ctx):
        if ctx.rank == 1:
            raise KeyError("boom")
        ctx.broadcast(None)  # the abort releases this

    with pytest.raises(KeyError):
        _world_run(3, fn)


def test_spmd_reraises_the_lowest_failing_rank_not_the_earliest():
    def fn(ctx):
        if ctx.rank == 0:
            return None
        if ctx.rank == 1:
            time.sleep(0.05)  # rank 2 fails first
        raise ValueError("rank %d" % ctx.rank)

    for _ in range(3):
        with pytest.raises(ValueError, match="rank 1"):
            _world_run(3, fn)


def test_spmd_watchdog_fires_on_deadlock():
    def fn(ctx):
        if ctx.rank == 0:
            return None  # never joins the collective
        ctx.broadcast(None)

    world = CommWorld(2)
    try:
        with pytest.raises(CommAbort):
            world.spmd(fn, timeout=0.5)
    finally:
        world.shutdown()


def test_single_node_runs_on_the_calling_thread():
    caller = threading.current_thread()
    assert _world_run(1, lambda ctx: threading.current_thread() is caller) \
        == [True]


@pytest.mark.parametrize("p", [1, 2])
def test_closed_world_refuses_to_run(p):
    ran = []
    world = CommWorld(p)
    for _ in range(2):  # a live world serves several runs
        world.spmd(lambda ctx: ctx.allreduce_sum([1]))
    with pytest.raises(KeyError):
        world.spmd(lambda ctx: {}["boom"])
    with pytest.raises(CommAbort, match="closed: rank . failed"):
        world.spmd(lambda ctx: ran.append(ctx.rank))
    world = CommWorld(p)
    world.shutdown()
    with pytest.raises(CommAbort, match="closed: shut down"):
        world.spmd(lambda ctx: ran.append(ctx.rank))
    assert ran == []


@pytest.mark.parametrize("p", [1, 2])
def test_spmd_splits_run_time_into_compute_and_comm(p):
    world = CommWorld(p)
    try:
        results, timings = world.spmd(lambda ctx: ctx.allreduce_sum([1]))
    finally:
        world.shutdown()
    assert results == [[p]] * p
    assert list(timings) == ["split", "compute", "comm"]
    assert timings["split"] == 0.0 and timings["compute"] >= 0.0
    # a one-node world's collective is timed like any other
    assert timings["comm"] > 0.0


# -- one-node collectives ----------------------------------------------------


def _no_barrier(monkeypatch):
    """Fail any wait at a barrier: a one-node world's rank has no peer."""
    def refused(self):
        raise AssertionError("a one-node collective waited at the barrier")

    monkeypatch.setattr(CommWorld, "_wait", refused)


def test_a_one_node_collective_skips_the_barrier_but_not_its_checks(
        monkeypatch):
    _no_barrier(monkeypatch)
    world = CommWorld(1)
    try:
        results, timings = world.spmd(lambda ctx: (
            ctx.broadcast("x"), ctx.gather(2), ctx.allreduce_sum([3, 4])))
    finally:
        world.shutdown()
    assert results == [("x", [2], [3, 4])]
    assert timings["comm"] > 0.0
    with pytest.raises(CommAbort, match="lists of Python ints"):
        _world_run(1, lambda ctx: ctx.allreduce_sum([1.5]))


def test_a_collective_on_an_aborted_one_node_world_raises(monkeypatch):
    _no_barrier(monkeypatch)

    def fn(ctx):
        ctx.world._abort("torn down")
        return ctx.broadcast("late")

    with pytest.raises(CommAbort, match="torn down"):
        _world_run(1, fn)


def test_collectives_of_nested_one_node_worlds_are_counted(
        monkeypatch, count_collectives):
    _no_barrier(monkeypatch)
    X, _ = generate_blobs(seed=1, k=2, per_cluster=30, d=2)
    params = DbscanParams(eps=1.0, min_pts=3)
    world = CommWorld(1)
    try:
        ddbc(world, split_blocks(X, 1), DdbcParams(local=params))
    finally:
        world.shutdown()
    assert count_collectives[world] == {"gather": 2, "broadcast": 1}
    nested = [counts for w, counts in count_collectives.items()
              if w is not world]
    # one k-means run per local cluster, each on its own one-node world
    assert len(nested) == dbscan(X, params).k > 1
    # the start is handed in, so no run broadcasts it
    assert all("broadcast" not in counts and counts["allreduce_sum"] >= 1
               for counts in nested)


#: Every parallel driver, run on a world over the rows of X.
_DRIVERS = {
    "pkm": lambda w, X: pkm(w, X, KMeansParams(k=2)),
    "pfcm": lambda w, X: pfcm(w, X, FcmParams(k=2)),
    "pddp": lambda w, X: pddp_report(w, X, 2),
    "pddp-km": lambda w, X: pddp_km(w, X, 2),
    "k-windows": lambda w, X: k_windows(w, X, KWindowsParams(l=3, a=1.0)),
    "ddbc": lambda w, X: ddbc(w, split_blocks(X, w.size), DdbcParams(
        local=DbscanParams(eps=1.0, min_pts=3))),
    "cpca-cluster": lambda w, X: cpca_cluster(
        w, split_blocks(X, w.size), KMeansLocal(), k=2),
}


@pytest.mark.parametrize("algo", sorted(_DRIVERS))
def test_every_parallel_driver_reports_its_run_timings(algo):
    X, _ = generate_blobs(seed=1, k=2, per_cluster=30, d=2)
    for p in (1, 2):
        world = CommWorld(p)
        try:
            timings = _DRIVERS[algo](world, X).timings_ms
        finally:
            world.shutdown()
        assert set(timings) == {"split", "compute", "comm"}
        assert timings["comm"] > 0.0
        assert timings["compute"] >= 0.0 and timings["split"] >= 0.0


def test_world_rejects_zero_nodes():
    with pytest.raises(ValueError):
        CommWorld(0)


def test_spmd_comm_time_lies_within_run_time():
    world = CommWorld(2)
    try:
        timings = world.spmd(lambda ctx: ctx.allreduce_sum([1]))[1]
    finally:
        world.shutdown()
    # each rank's collectives run inside its body, so compute is not negative
    assert timings["comm"] > 0.0 and timings["compute"] >= 0.0


def test_a_run_without_collectives_reports_no_comm_after_one_with():
    for p in (1, 2):
        world = CommWorld(p)
        try:
            assert world.spmd(lambda ctx: ctx.allreduce_sum([1]))[1]["comm"] > 0
            # a run's timings are its own, not the world's running totals
            assert world.spmd(lambda ctx: ctx.rank)[1]["comm"] == 0.0
        finally:
            world.shutdown()


def test_run_splits_the_data_and_returns_rank_zeros_result():
    X = _toy(10)
    blocks = split_blocks(X, 3)
    world = CommWorld(3)

    def body(ctx, shard, tag):
        return ctx.gather((ctx.rank, shard)), tag

    try:
        (split, tag), timings = world.run(body, X, "same on every rank")
        (passed, _), passed_timings = world.run(body, blocks, None)
    finally:
        world.shutdown()
    # each rank is handed its own block, as split_blocks cuts it
    assert [(r, s.start, len(s)) for r, s in split] == \
        [(r, s.start, len(s)) for r, s in enumerate(blocks)]
    assert tag == "same on every rank"
    assert list(timings) == ["split", "compute", "comm"]
    assert timings["split"] >= 0.0
    # a list of blocks passes through as given, with no split to time
    assert [r for r, _ in passed] == [0, 1, 2]
    assert all(s is b for (_, s), b in zip(passed, blocks))
    assert passed_timings["split"] == 0.0


#: Drivers that take a list of blocks, one per rank of the world.
_BLOCK_DRIVERS = {
    "ddbc": lambda w, blocks: ddbc(w, blocks, DdbcParams(
        local=DbscanParams(eps=1.0, min_pts=3))),
    "cpca-cluster": lambda w, blocks: cpca_cluster(w, blocks, KMeansLocal(),
                                                   k=3),
    "cpca": lambda w, blocks: cpca(w, blocks, 0.9),
}


@pytest.mark.parametrize("algo", sorted(_BLOCK_DRIVERS))
def test_blocks_that_do_not_fit_the_world_are_refused_before_it_runs(
        algo, count_collectives):
    X, _ = generate_blobs(1, 3, 40, 2)
    a, b = split_blocks(X, 2)
    world = CommWorld(2)
    try:
        # too many, too few, none, out of rank order, and skipping a row
        for blocks in (split_blocks(X, 4), split_blocks(X, 1), [], [b, a],
                       [a, Shard(b.points[1:], b.start + 1)]):
            with pytest.raises(ValueError, match="do not fit a 2-node world"):
                _BLOCK_DRIVERS[algo](world, blocks)
        assert count_collectives[world] == {}
        # the world is still open
        rep = _BLOCK_DRIVERS["ddbc"](world, split_blocks(X, 2))
    finally:
        world.shutdown()
    assert rep.n == X.n and rep.labels.shape == (X.n,)


def test_shard_len():
    s = Shard(np.zeros((3, 2)), 0)
    assert len(s) == 3
