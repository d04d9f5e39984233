"""Runtime contracts: block splitting, collectives, the scheduler, teardown."""

import gc
import inspect
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from parclust import comm as comm_module
from parclust.comm import CommAbort, CommWorld, blocks_of, split_blocks
from parclust.core import DataSet, generate_blobs
from parclust.dbscan import DbscanParams, DdbcParams, dbscan, ddbc
from parclust.exactsum import data_grid
from parclust.fcm import FcmParams, pfcm
from parclust.kmeans import KMeansParams, pkm
from parclust.kwindows import KWindowsParams, k_windows
from parclust.pca import DbscanLocal, KMeansLocal, cpca, cpca_cluster
from parclust.pddp import pddp_km, pddp_report


def _toy(n, d=2):
    return DataSet.from_points(np.arange(n * d, dtype=float).reshape(n, d))


def _every_rank(p, fn, rows):
    """Every rank's result of fn(ctx, points) over the blocks of `rows`, in
    rank order; a result that is awaitable is awaited first."""
    results = [None] * p

    async def body(ctx, points):
        out = fn(ctx, points)
        results[ctx.rank] = await out if inspect.isawaitable(out) else out

    world = CommWorld(p)
    try:
        world.run(body, rows)
    finally:
        world.shutdown()
    return results


def _world_run(p, fn):
    """Every rank's result of fn(ctx), taken as `_every_rank` takes it."""
    return _every_rank(p, lambda ctx, _: fn(ctx), _toy(p))


# -- split_blocks ----------------------------------------------------------


def test_split_single_node_gets_everything():
    X = _toy(10)
    [block] = split_blocks(X, 1)
    assert block.shape == (10, 2) and np.shares_memory(block, X.points)


def test_split_ceiling_rule():
    blocks = split_blocks(_toy(10), 3)
    assert [b.shape for b in blocks] == [(4, 2), (3, 2), (3, 2)]


def test_split_singletons():
    blocks = split_blocks(_toy(7), 7)
    assert [len(b) for b in blocks] == [1] * 7


def test_split_rejects_bad_counts():
    with pytest.raises(ValueError):
        split_blocks(_toy(3), 0)
    # more nodes than rows is not a bad count: the last blocks are empty
    assert [len(b) for b in split_blocks(_toy(3), 4)] == [1, 1, 1, 0]


@given(st.integers(1, 40), st.integers(1, 40))
@settings(deadline=None)
def test_split_blocks_partition_properties(n, p):
    X = _toy(n)
    blocks = split_blocks(X, p)
    sizes = [len(b) for b in blocks]
    assert len(blocks) == p and sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1
    assert sorted(sizes, reverse=True) == sizes  # larger blocks first
    # views of the dataset's rows, in order: no row is copied; past n
    # nodes the last blocks are empty
    assert all(np.shares_memory(b, X.points) for b in blocks if len(b))
    assert np.array_equal(np.vstack(blocks), X.points)


@pytest.mark.parametrize("algo", ["pkm", "pfcm", "k-windows"])
def test_one_row_per_shard_gives_the_one_node_result(algo):
    # at P = n every row's dataset position is its rank's ctx.start alone
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

    async def fn(ctx):
        got = await ctx.broadcast(centroids if ctx.rank == 0 else None)
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
    async def fn(ctx):
        return [(await ctx.allreduce_sum([ctx.rank + i]))[0]
                for i in range(300)]

    out = _world_run(6, fn)
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
    out = _every_rank(p, lambda ctx, points: ctx.gather_rows(points), X)
    assert np.array_equal(out[0], X.points)
    assert out[1:] == [None] * (p - 1)
    [counts] = count_collectives.values()
    assert counts == {"gather": 1}


# -- decide ----------------------------------------------------------------


@pytest.mark.parametrize("p, n", [(1, 7), (2, 7), (3, 7), (5, 2)])
def test_decide_runs_the_rule_once_at_rank_0_and_hands_every_rank_its_result(
        p, n, count_collectives):
    # at P=5 over 2 rows, ranks 2-4 hold empty blocks
    calls = []

    def body(ctx, points):
        def rule(parts):
            calls.append((ctx.rank, parts))
            return ("decided", len(parts))
        return ctx.decide((ctx.rank, ctx.start, len(points)), rule)

    out = _every_rank(p, body, _toy(n))
    sizes = [len(b) for b in np.array_split(np.arange(n), p)]
    starts = np.cumsum([0] + sizes[:-1]).tolist()
    assert calls == [(0, list(zip(range(p), starts, sizes)))]
    assert out == [("decided", p)] * p
    [counts] = count_collectives.values()
    assert counts == {"gather": 1, "broadcast": 1}


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_a_rule_that_raises_fails_the_run_with_rank_0s_exception(
        p, count_collectives):
    refusal = ValueError("refused at rank 0")
    calls = []

    def refuse(parts):
        calls.append(parts)
        raise refusal

    async def body(ctx, points):
        await ctx.decide(ctx.rank, refuse)
        raise AssertionError("rank %d went on past a refusal" % ctx.rank)

    world = CommWorld(p)
    with pytest.raises(ValueError) as exc:
        world.run(body, _toy(2))
    assert exc.value is refusal
    assert calls == [list(range(p))]
    # one gather and no broadcast, and the world is closed
    assert count_collectives[world] == {"gather": 1}
    with pytest.raises(CommAbort, match="closed: rank 0 failed"):
        world.run(body, _toy(2))


# -- the scheduler -----------------------------------------------------------


def test_spmd_returns_results_in_rank_order():
    assert _world_run(4, lambda ctx: ctx.rank * 10) == [0, 10, 20, 30]


def test_spmd_reraises_first_real_failure():
    async def fn(ctx):
        if ctx.rank == 1:
            raise KeyError("boom")
        await ctx.broadcast(None)  # closed when rank 1 fails

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


@pytest.mark.parametrize("early, waiting", [(0, 1), (1, 0), (2, 0)])
def test_a_rank_that_returns_early_is_refused_at_once_by_rank(early, waiting):
    steps = []

    async def fn(ctx):
        if ctx.rank == early:
            return None  # never joins the collective
        steps.append(ctx.rank)
        await ctx.broadcast(None)
        steps.append(ctx.rank)  # never reached: no rank is resumed again

    with pytest.raises(CommAbort, match="rank %d returned while rank %d waits "
                       "at a broadcast" % (early, waiting)):
        _world_run(3, fn)
    assert steps == [r for r in range(3) if r != early]


def test_a_body_that_skips_an_await_falls_out_of_step_and_is_refused():
    async def fn(ctx):
        total = await ctx.allreduce_sum([1])
        if ctx.rank == 1:
            return ctx.allreduce_sum(total)  # the await is missing
        return await ctx.allreduce_sum(total)

    # the skipped collective is never posted, so rank 1 returns while rank
    # 0 waits, and no rank's result (here a coroutine) is handed back
    with pytest.warns(RuntimeWarning, match="never awaited"):
        with pytest.raises(CommAbort, match="rank 1 returned while rank 0 "
                           "waits at a allreduce_sum"):
            _world_run(2, fn)
        gc.collect()


def test_every_rank_at_every_p_runs_on_the_calling_thread():
    caller = threading.current_thread()

    async def fn(ctx):
        before = threading.current_thread() is caller
        await ctx.allreduce_sum([1])
        return before and threading.current_thread() is caller

    for p in (1, 2, 3):
        assert _world_run(p, fn) == [True] * p


@pytest.mark.parametrize("p", [1, 2])
def test_closed_world_refuses_to_run(p):
    ran = []

    async def boom(ctx, _):
        return {}["boom"]

    world = CommWorld(p)
    for _ in range(2):  # a live world serves several runs
        world.run(lambda ctx, _: ctx.allreduce_sum([1]), _toy(p))
    with pytest.raises(KeyError):
        world.run(boom, _toy(p))
    with pytest.raises(CommAbort, match="closed: rank . failed"):
        world.run(lambda ctx, _: ran.append(ctx.rank), _toy(p))
    world = CommWorld(p)
    world.shutdown()
    with pytest.raises(CommAbort, match="closed: shut down"):
        world.run(lambda ctx, _: ran.append(ctx.rank), _toy(p))
    assert ran == []


@pytest.mark.parametrize("p", [1, 2])
def test_spmd_splits_run_time_into_compute_and_comm(p):
    world = CommWorld(p)
    try:
        result, timings = world.run(lambda ctx, _: ctx.allreduce_sum([1]),
                                    split_blocks(_toy(p), p))
    finally:
        world.shutdown()
    assert result == [p]
    assert list(timings) == ["split", "compute", "comm"]
    assert timings["split"] == 0.0 and timings["compute"] >= 0.0
    # a one-node world's collective is timed like any other
    assert timings["comm"] > 0.0


# -- one-node collectives ----------------------------------------------------


def test_a_one_node_collective_passes_the_same_checks_and_timing():
    async def fn(ctx, _):
        return (await ctx.broadcast("x"), await ctx.gather(2),
                await ctx.allreduce_sum([3, 4]))

    world = CommWorld(1)
    try:
        result, timings = world.run(fn, _toy(1))
    finally:
        world.shutdown()
    assert result == ("x", [2], [3, 4])
    assert timings["comm"] > 0.0
    with pytest.raises(CommAbort, match="lists of Python ints"):
        _world_run(1, lambda ctx: ctx.allreduce_sum([1.5]))


def test_a_collective_on_an_aborted_one_node_world_raises():
    async def fn(ctx):
        ctx.world.shutdown()
        return await ctx.broadcast("late")

    with pytest.raises(CommAbort, match="closed: shut down"):
        _world_run(1, fn)


def test_collectives_of_nested_one_node_worlds_are_counted(count_collectives):
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
        timings = world.run(lambda ctx, _: ctx.allreduce_sum([1]), _toy(2))[1]
    finally:
        world.shutdown()
    # the ranks' steps and the combines are timed apart, each not negative
    assert timings["comm"] > 0.0 and timings["compute"] >= 0.0


async def _rank_of(ctx, _):
    return ctx.rank


def test_a_run_without_collectives_reports_no_comm_after_one_with():
    for p in (1, 2):
        world = CommWorld(p)
        try:
            assert world.run(lambda ctx, _: ctx.allreduce_sum([1]),
                             _toy(p))[1]["comm"] > 0
            # a run's timings are its own, not the world's running totals
            assert world.run(_rank_of, _toy(p))[1]["comm"] == 0.0
        finally:
            world.shutdown()


def test_run_splits_the_data_and_returns_rank_zeros_result():
    X = _toy(10)
    blocks = split_blocks(X, 3)
    world = CommWorld(3)

    async def body(ctx, points, tag):
        return await ctx.gather((ctx.rank, ctx.start, points)), tag

    try:
        (split, tag), timings = world.run(body, X, "same on every rank")
        (passed, _), passed_timings = world.run(body, blocks, None)
    finally:
        world.shutdown()
    # each rank is handed its own block, an in-order view of X's rows, as
    # split_blocks cuts it, and the dataset row of its first row
    assert [(r, start) for r, start, _ in split] == [(0, 0), (1, 4), (2, 7)]
    for (_, start, points), block in zip(split, blocks):
        assert np.shares_memory(points, X.points)
        assert np.array_equal(points, X.points[start:start + len(block)])
    assert tag == "same on every rank"
    assert list(timings) == ["split", "compute", "comm"]
    assert timings["split"] >= 0.0
    # a list of blocks passes through as given, with no split to time
    assert [(r, start) for r, start, _ in passed] == [(0, 0), (1, 4), (2, 7)]
    assert all(points is b for (_, _, points), b in zip(passed, blocks))
    assert passed_timings["split"] == 0.0


def test_uneven_blocks_start_after_the_rows_before_them():
    X = _toy(8)
    blocks = [X.points[:1], X.points[1:6], X.points[6:]]

    async def body(ctx, points):
        return await ctx.gather(ctx.start), await ctx.gather_rows(points)

    world = CommWorld(3)
    try:
        (starts, rows), _ = world.run(body, blocks)
        # a list need not be split_blocks' cut: any block sizes, and any
        # rows, in list order
        (_, swapped), _ = world.run(body, blocks[::-1])
    finally:
        world.shutdown()
    assert starts == [0, 1, 6]
    assert np.array_equal(rows, X.points)
    assert np.array_equal(swapped, np.vstack(blocks[::-1]))


# -- the run's data grid ------------------------------------------------------

MAX_FINITE = sys.float_info.max


@st.composite
def _grid_blockings(draw):
    """Rows of float64 edge values (zeros, subnormals, the largest finite
    values) or of int64, and an in-order cut of them into 1 to 6 blocks:
    empty blocks, blocks of one row and more blocks than rows among them."""
    shape = (draw(st.integers(0, 6)), draw(st.integers(1, 3)))
    if draw(st.booleans()):
        rows = draw(hnp.arrays(np.int64, shape))
    else:
        rows = draw(hnp.arrays(np.float64, shape, elements=st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324,
                             2.2250738585072009e-308, MAX_FINITE,
                             -MAX_FINITE]))))
    p = draw(st.integers(1, 6))
    cuts = sorted(draw(st.lists(st.integers(0, shape[0]), min_size=p - 1,
                                max_size=p - 1)))
    bounds = [0, *cuts, shape[0]]
    return [rows[i:j] for i, j in zip(bounds, bounds[1:])]


@given(_grid_blockings())
@settings(deadline=None, max_examples=200)
def test_every_rank_reads_the_data_grid_of_all_the_blocks(blocks):
    want = data_grid(np.concatenate(blocks).astype(np.float64))
    assert _every_rank(len(blocks), lambda ctx, _: ctx.grid(), blocks) == \
        [want] * len(blocks)


@pytest.mark.parametrize("p", [1, 3])
def test_the_grid_is_worked_out_once_a_run_and_only_when_asked(p,
                                                               monkeypatch):
    calls = []

    def counted(points):
        calls.append(len(points))
        return data_grid(points)

    monkeypatch.setattr(comm_module, "data_grid", counted)
    X = _toy(10)
    assert _every_rank(p, lambda ctx, _: ctx.rank, X) == list(range(p))
    assert calls == []
    grids = _every_rank(p, lambda ctx, _: (ctx.grid(), ctx.grid()), X)
    assert grids == [(-53, -53)] * p
    # one data_grid call per block, on the first ctx.grid() of the run
    assert calls == [len(b) for b in split_blocks(X, p)]


#: Every driver, run on a world over `rows`, a DataSet or a list of blocks
#: one per rank, as `CommWorld.run` takes them.
_BLOCK_DRIVERS = {
    "pkm": lambda w, rows: pkm(w, rows, KMeansParams(k=3)),
    "pfcm": lambda w, rows: pfcm(w, rows, FcmParams(k=3)),
    "pddp": lambda w, rows: pddp_report(w, rows, 2),
    "pddp-km": lambda w, rows: pddp_km(w, rows, 2),
    "k-windows": lambda w, rows: k_windows(w, rows, KWindowsParams(l=3,
                                                                   a=1.0)),
    "ddbc": lambda w, rows: ddbc(w, rows, DdbcParams(
        local=DbscanParams(eps=1.0, min_pts=3))),
    "cpca-cluster": lambda w, rows: cpca_cluster(w, rows, KMeansLocal(), k=3),
    "cpca": lambda w, rows: cpca(w, rows, 0.9),
}

#: The drivers that never run Lloyd's body, in their own world or in a
#: nested one
_WITHOUT_LLOYD = {
    **{algo: _BLOCK_DRIVERS[algo]
       for algo in ("cpca", "k-windows", "pddp", "pfcm")},
    "ddbc --local-model rep-scor": lambda w, rows: ddbc(w, rows, DdbcParams(
        local=DbscanParams(eps=1.0, min_pts=3), refine_model=False)),
}


@pytest.mark.parametrize("algo", sorted(_WITHOUT_LLOYD))
def test_a_driver_without_lloyd_never_works_out_the_grid(algo, monkeypatch):
    def refused(points):
        raise AssertionError("the data grid was worked out")

    monkeypatch.setattr(comm_module, "data_grid", refused)
    X, _ = generate_blobs(1, 3, 40, 2)
    for rows in (X, split_blocks(X, 2)):
        world = CommWorld(2)
        try:
            _WITHOUT_LLOYD[algo](world, rows)
        finally:
            world.shutdown()


@pytest.mark.parametrize("algo", sorted(_BLOCK_DRIVERS))
def test_blocks_that_do_not_fit_the_world_are_refused_before_it_runs(
        algo, count_collectives):
    X, _ = generate_blobs(1, 3, 40, 2)
    world = CommWorld(2)
    try:
        # too many, too few and none
        for blocks in (split_blocks(X, 4), split_blocks(X, 1), []):
            with pytest.raises(ValueError, match="do not fit a 2-node world"):
                _BLOCK_DRIVERS[algo](world, blocks)
        assert count_collectives[world] == {}
        # the world is still open
        rep = _BLOCK_DRIVERS["ddbc"](world, split_blocks(X, 2))
    finally:
        world.shutdown()
    assert rep.n == X.n and rep.labels.shape == (X.n,)


@pytest.mark.parametrize("algo", sorted(_BLOCK_DRIVERS))
def test_blocks_that_are_not_rows_of_one_width_are_refused_before_it_runs(
        algo, count_collectives):
    X, _ = generate_blobs(1, 3, 40, 3)
    a, b = split_blocks(X, 2)
    world = CommWorld(2)
    try:
        for blocks, why in (
                ([a[:, :2], b], r"block 1 of shape \(60, 3\)"),
                ([a, b[:, :2]], r"block 1 of shape \(60, 2\)"),
                ([a[:, 0], b], r"block 0 of shape \(60,\)"),
                ([a, b[:, 0]], r"block 1 of shape \(60,\)"),
                ([a, b.tolist()], r"block 1 of shape \(60, 3\)")):
            with pytest.raises(ValueError, match=why):
                _BLOCK_DRIVERS[algo](world, blocks)
        assert count_collectives[world] == {}
        # the world is still open
        rep = _BLOCK_DRIVERS["ddbc"](world, [a, b])
    finally:
        world.shutdown()
    assert rep.n == X.n and rep.d == 3


@pytest.mark.parametrize("algo", sorted(_BLOCK_DRIVERS))
def test_blocks_with_non_finite_values_are_refused_before_it_runs(
        algo, count_collectives):
    X, _ = generate_blobs(1, 3, 40, 2)
    a, b = split_blocks(X, 2)
    world = CommWorld(2)
    try:
        for bad in (np.nan, np.inf, -np.inf):
            c = b.copy()
            c[7, 1] = bad
            with pytest.raises(ValueError, match=r"^block 1 contains "
                               r"non-finite values \(NaN or infinity\)$"):
                _BLOCK_DRIVERS[algo](world, [a, c])
        assert count_collectives[world] == {}
        # the world is still open
        rep = _BLOCK_DRIVERS["ddbc"](world, [a, b])
    finally:
        world.shutdown()
    assert rep.n == X.n
    # finite rows of another dtype pass the check as given
    blocks = [a, b.astype(object)]
    assert blocks_of(blocks, 2) is blocks


def _without_timings(out):
    """A driver's result as comparable data: a report without its
    `timings_ms`, or a basis's arrays."""
    if hasattr(out, "to_json_dict"):
        doc = out.to_json_dict()
        del doc["timings_ms"]
        return doc
    return [a.tobytes() for a in (out.mean, out.components, out.eigenvalues)]


@pytest.mark.parametrize("algo", sorted(_BLOCK_DRIVERS))
def test_block_drivers_take_a_dataset_as_run_does(algo):
    X, _ = generate_blobs(1, 3, 40, 2)
    outs = []
    for rows in (X, split_blocks(X, 3)):
        world = CommWorld(3)
        try:
            outs.append(_BLOCK_DRIVERS[algo](world, rows))
        finally:
            world.shutdown()
    assert _without_timings(outs[0]) == _without_timings(outs[1])
    if algo != "cpca":  # a basis carries no timings
        split, given = (out.timings_ms["split"] for out in outs)
        # run times the split of a dataset, and blocks need none
        assert split > 0.0 and given == 0.0


@pytest.mark.parametrize("algo", sorted(_BLOCK_DRIVERS))
def test_a_block_list_is_the_dataset_its_concatenation_defines(algo):
    X, _ = generate_blobs(1, 3, 40, 2)
    a, b = split_blocks(X, 2)
    # out of split order, and skipping a row: each list is a dataset
    for blocks in ([b, a], [a, b[1:]]):
        out = []
        for rows in (blocks, DataSet(np.vstack(blocks))):
            world = CommWorld(2)
            try:
                out.append(_without_timings(_BLOCK_DRIVERS[algo](world, rows)))
            finally:
                world.shutdown()
        assert out[0] == out[1]


#: The drivers whose result is claimed the same for any blocking of the rows
_INVARIANT = ("cpca", "k-windows", "pddp", "pddp-km", "pfcm", "pkm")


@st.composite
def _blockings(draw):
    """Blob rows and an in-order cut of them into 1 to 8 blocks, some of
    them uneven, of one row or empty, and more blocks than rows."""
    X, _ = generate_blobs(draw(st.integers(0, 99)), 3, draw(st.integers(1, 8)),
                          draw(st.integers(1, 3)))
    p = draw(st.integers(1, 8))
    cuts = sorted(draw(st.lists(st.integers(0, X.n), min_size=p - 1,
                                max_size=p - 1)))
    bounds = [0, *cuts, X.n]
    return X, [X.points[i:j] for i, j in zip(bounds, bounds[1:])]


@given(_blockings())
@settings(deadline=None, max_examples=50)
def test_any_blocking_gives_the_one_node_result(blocking):
    X, blocks = blocking
    for algo in _INVARIANT:
        out = []
        for rows, p in ((blocks, len(blocks)), (X, 1)):
            world = CommWorld(p)
            try:
                result = _without_timings(_BLOCK_DRIVERS[algo](world, rows))
            finally:
                world.shutdown()
            if isinstance(result, dict):
                del result["p"]
            out.append(result)
        assert out[0] == out[1], algo


@pytest.mark.parametrize("algo", ["ddbc", "cpca-cluster", "cpca"])
def test_a_list_goes_through_its_check_once_per_driver_call(algo,
                                                            monkeypatch):
    # the nested one-node worlds check their own lists, never the caller's
    checked = []
    original = comm_module.blocks_of

    def counted(rows, p):
        checked.append(rows)
        return original(rows, p)

    for name, module in list(sys.modules.items()):  # every import of it
        if name.startswith("parclust") and \
                getattr(module, "blocks_of", None) is original:
            monkeypatch.setattr(module, "blocks_of", counted)
    X, _ = generate_blobs(1, 3, 40, 2)
    blocks = split_blocks(X, 2)
    world = CommWorld(2)
    try:
        rep = _BLOCK_DRIVERS[algo](world, blocks)
    finally:
        world.shutdown()
    assert sum(rows is blocks for rows in checked) == 1
    if algo != "cpca":
        assert (rep.n, rep.d) == (X.n, X.d)


@pytest.mark.parametrize("as_list", [False, True])
def test_the_refusals_that_name_the_shards_are_unchanged(as_list,
                                                         count_collectives):
    # 20 rows alternating (0, 0) and (5, 5): 4 shards of 5 rows, each with
    # at most 3 copies of a point, hold no core point under min_pts 5
    alt = DataSet.from_points([[0.0, 0.0], [5.0, 5.0]] * 10)
    rows = split_blocks(alt, 4) if as_list else alt
    world = CommWorld(4)
    try:
        with pytest.raises(ValueError) as exc:
            ddbc(world, rows, DdbcParams(local=DbscanParams(eps=0.5,
                                                            min_pts=5)))
    finally:
        world.shutdown()
    assert str(exc.value) == (
        "no shard of 5 to 5 rows holds a core point under eps=0.5 and "
        "min_pts=5, and an all-noise answer over 4 nodes cannot be told from "
        "shards too small to show the clusters; use fewer nodes")
    # the merge's gather and broadcast, then the refusal's one gather
    assert count_collectives[world] == {"gather": 2, "broadcast": 1}
    # local density clustering that marks every row as noise
    X, _ = generate_blobs(1, 3, 60, 2)
    rows = split_blocks(X, 3) if as_list else X
    world = CommWorld(3)
    try:
        with pytest.raises(ValueError) as exc:
            cpca_cluster(world, rows, DbscanLocal(1e-6, 3), k=2)
    finally:
        world.shutdown()
    assert str(exc.value) == (
        "no representatives for the global basis: local dbscan clustering in "
        "each node's own PCA space marked every row as noise on every shard "
        "(node 0: 60 rows, node 1: 60 rows, node 2: 60 rows)")
    assert exc.value.__suppress_context__
    # the global basis's two allreduces, then the refusal's one gather
    assert count_collectives[world] == {"allreduce_sum": 2, "gather": 1}
