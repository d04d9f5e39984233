"""Runtime contracts: block splitting, collectives, the SPMD driver, teardown."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parclust.comm import CommAbort, CommWorld, Shard, split_blocks
from parclust.core import DataSet


def _world_run(p, fn, *args, timeout=30.0):
    world = CommWorld(p)
    try:
        return world.spmd(fn, *args, timeout=timeout)
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
    glued = np.concatenate([s.ids for s in shards])
    assert np.array_equal(glued, X.ids)
    stacked = np.vstack([s.points for s in shards])
    assert np.array_equal(stacked, X.points)


# -- broadcast -------------------------------------------------------------


def test_broadcast_single_rank_identity():
    out = _world_run(1, lambda ctx: ctx.broadcast("payload", root=0))
    assert out == ["payload"]


def test_broadcast_root_value_everywhere():
    centroids = np.array([[1.0, 2.0], [3.0, 4.0]])

    def fn(ctx):
        got = ctx.broadcast(centroids if ctx.rank == 0 else None, root=0)
        return np.array_equal(got, centroids)

    assert _world_run(4, fn) == [True] * 4


def test_broadcast_mismatched_roots_aborts_everywhere():
    def fn(ctx):
        ctx.broadcast("x", root=0 if ctx.rank == 0 else 1)

    with pytest.raises(CommAbort):
        _world_run(3, fn)


def test_broadcast_root_out_of_range():
    def fn(ctx):
        ctx.broadcast("x", root=5)

    with pytest.raises(ValueError):
        _world_run(2, fn)


# -- allreduce -------------------------------------------------------------


def test_allreduce_single_rank_unchanged():
    out = _world_run(1, lambda ctx: ctx.allreduce_sum([1, 2, 3]))
    assert out == [[1, 2, 3]]


def test_allreduce_scalar_sum():
    out = _world_run(3, lambda ctx: ctx.allreduce_sum([ctx.rank + 1]))
    assert out == [[6], [6], [6]]


def test_allreduce_matches_serial_left_fold():
    rng = np.random.default_rng(13)
    locals_ = [rng.normal(size=16) for _ in range(4)]

    def fn(ctx):
        return ctx.allreduce_sum(locals_[ctx.rank])

    out = _world_run(4, fn)
    oracle = locals_[0].copy()
    for v in locals_[1:]:  # ascending rank order, one add at a time
        oracle = oracle + v
    for got in out:
        assert np.array_equal(got, oracle)  # bit-identical, not approx


def test_allreduce_python_ints_stay_exact():
    big = 1 << 200

    def fn(ctx):
        return ctx.allreduce_sum([big, ctx.rank])

    out = _world_run(3, fn)
    assert out[0] == [3 * big, 3]


def test_allreduce_length_mismatch_aborts():
    def fn(ctx):
        return ctx.allreduce_sum([0] * (2 if ctx.rank else 3))

    with pytest.raises(CommAbort):
        _world_run(2, fn)


def test_mismatched_collective_kinds_abort():
    def fn(ctx):
        if ctx.rank == 0:
            return ctx.broadcast("a", root=0)
        return ctx.gather("b", root=0)

    with pytest.raises(CommAbort):
        _world_run(2, fn)


# -- gather ----------------------------------------------------------------


def test_gather_single_rank():
    assert _world_run(1, lambda ctx: ctx.gather("a", root=0)) == [["a"]]


def test_gather_rank_order_at_root_empty_elsewhere():
    out = _world_run(3, lambda ctx: ctx.gather("r%d" % ctx.rank, root=0))
    assert out[0] == ["r0", "r1", "r2"]
    assert out[1] == [] and out[2] == []


def test_gather_at_nonzero_root():
    out = _world_run(3, lambda ctx: ctx.gather(ctx.rank, root=2))
    assert out[2] == [0, 1, 2] and out[0] == []


# -- spmd driver -----------------------------------------------------------


def test_spmd_returns_results_in_rank_order():
    assert _world_run(4, lambda ctx: ctx.rank * 10) == [0, 10, 20, 30]


def test_spmd_reraises_first_real_failure():
    def fn(ctx):
        if ctx.rank == 1:
            raise KeyError("boom")
        ctx.broadcast(None, root=0)  # the abort releases this

    with pytest.raises(KeyError):
        _world_run(3, fn)


def test_spmd_watchdog_fires_on_deadlock():
    def fn(ctx):
        if ctx.rank == 0:
            return None  # never joins the collective
        ctx.broadcast(None, root=0)

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
def test_timed_splits_run_time_into_compute_and_comm(p):
    world = CommWorld(p)
    try:
        with world.timed() as timings:
            world.spmd(lambda ctx: ctx.allreduce_sum([1.0]))
    finally:
        world.shutdown()
    assert list(timings) == ["split", "compute", "comm"]
    assert timings["split"] == 0.0 and timings["compute"] >= 0.0
    assert (timings["comm"] == 0.0) == (p == 1)


def test_world_rejects_zero_nodes():
    with pytest.raises(ValueError):
        CommWorld(0)


def test_comm_time_accumulates():
    world = CommWorld(2)
    try:
        world.spmd(lambda ctx: ctx.allreduce_sum([1.0]))
        assert world.comm_seconds_total() > 0.0
        assert world.wall_seconds_total() >= world.comm_seconds_total() * 0.5
    finally:
        world.shutdown()


def test_shard_len():
    s = Shard(np.zeros((3, 2)), np.arange(3))
    assert len(s) == 3
