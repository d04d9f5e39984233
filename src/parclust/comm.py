"""Simulated P-node runtime whose ranks communicate through collectives.

Every rank runs the same body, an `async def` function, on a `NodeCtx`,
the only rank context. Ranks are coroutines that one scheduler,
`CommWorld.run`, drives on the calling thread in bulk-synchronous steps:
it resumes every rank in rank order until the rank posts a collective
(`await ctx.allreduce_sum(v)`, `ctx.gather`, `ctx.broadcast`, or the
composites `ctx.gather_rows` and `ctx.decide`), checks that all ranks
posted the same kind, combines their contributions and sends every rank
its result. A one-node world runs the same loop with one rank.
The only reduction sums equal-length vectors of Python ints. Integer
addition is exact and associative, so a sum does not depend on the fold
order or on the node count; a float payload, whose sum would, is refused.
Collectives are the only way ranks exchange data: there is no
point-to-point messaging.
Rank 0 is the root of every broadcast and gather, and the one rank that
decides: `ctx.decide(payload, rule)` gathers every rank's payload, runs
`rule` on them at rank 0 alone and broadcasts its result, so a body
never branches on its rank to merge or to refuse.

A block is a plain 2-D array of rows, and a list of blocks, one per rank
in rank order, is the dataset its concatenation defines: rank r's first
row is dataset row `ctx.start`, the number of rows in the blocks before
it, so a row is named by `ctx.start` plus its position in the block.
Per-row results gathered in rank order concatenate back into dataset
order, which is what `NodeCtx.gather_rows` hands rank 0. A block may be
empty. `run` is the only way into a run and the one place that pairs
blocks with ranks: it hands each rank only its own block, not the
dataset or its peers' blocks, and arguments that are the same on every
rank. One fact of the whole dataset comes with the run as `ctx.start`
does: `ctx.grid()`, the coarsest power-of-two grid holding every value
of every block (`exactsum.data_grid`), on which Lloyd keeps its exact
sums of data rows; a run works it out on its first call, so a body that
never asks pays nothing. Every driver takes its rows as `run` does, and
`blocks_of` is the one check of a list, which `run` and the drivers
share: a list that is not one block per rank, whose blocks are not 2-D
arrays of one width, or that holds a NaN or an infinity is refused
before any rank runs.

A rank that returns while another waits at a collective is refused at
once, so a rank that skips an `await` falls out of step and is refused
too. A failed run closes every rank's coroutine, raises the lowest
rank's own exception, and closes the world; a closed world refuses to
run.

Each run measures itself and returns its `timings_ms` beside rank 0's
result: a rank's compute is the time from each resume to its next post
or its return, summed over ranks, `comm` is the time spent combining
collectives, and `split` the time spent splitting a dataset into one
block per rank. Centralized k-means and one node's PCA run their bodies
on a one-node world, synchronously inside the calling rank's step, so
each result is the parallel body's at P=1.
"""

from __future__ import annotations

import functools
import inspect
import time
import types
from itertools import accumulate

import numpy as np

from .core import DataSet
from .exactsum import data_grid


class CommAbort(RuntimeError):
    """A rank broke a collective contract or ran on a closed world."""


def split_blocks(X: DataSet, p: int) -> list[np.ndarray]:
    """Split a dataset into P in-order row blocks, views of `X.points`,
    with sizes differing by <= 1, the first n % P longer; past n nodes the
    last blocks are empty."""
    if p < 1:
        raise ValueError("node count must be >= 1")
    return np.array_split(X.points, p)


def blocks_of(rows, p: int) -> list[np.ndarray]:
    """`rows` as `CommWorld.run` hands them to a `p`-node world: a DataSet
    split into one block per rank, or a list of blocks as given.

    This is the one check of a list: one block per rank, each a 2-D array
    as wide as block 0 and every value finite, or ValueError naming the
    first block that is not. A DataSet was checked when it was built.
    """
    if isinstance(rows, DataSet):
        return split_blocks(rows, p)
    if len(rows) != p:
        raise ValueError("%d blocks do not fit a %d-node world: one block "
                         "per rank" % (len(rows), p))
    for i, b in enumerate(rows):
        if not (isinstance(b, np.ndarray) and b.ndim == 2
                and b.shape[1:] == np.shape(rows[0])[1:]):
            raise ValueError("block %d of shape %s is not a 2-D row array "
                             "as wide as block 0" % (i, np.shape(b)))
        if not np.isfinite(np.asarray(b, dtype=np.float64)).all():
            raise ValueError("block %d contains non-finite values (NaN or "
                             "infinity)" % i)
    return rows


def dataset_of(rows, p: int) -> DataSet:
    """The DataSet `rows` define for a `p`-node world: a DataSet itself,
    never copied, or the concatenation of a list that `blocks_of`
    accepts. For drivers that read the whole dataset outside the ranks."""
    if isinstance(rows, DataSet):
        return rows
    return DataSet(np.concatenate(blocks_of(rows, p)))


@types.coroutine
def _post(kind: str, payload):
    """Suspend the calling rank at a collective; the scheduler resumes it
    with the collective's result."""
    return (yield kind, payload)


class CommWorld:
    """A fixed-size group of simulated nodes sharing collectives."""

    def __init__(self, n_nodes: int):
        if n_nodes < 1:
            raise ValueError("world needs at least one node")
        self.size = n_nodes
        self._closed: str | None = None  # why the world closed

    def shutdown(self) -> None:
        """Close the world: later runs, and the next collective of a run in
        progress, raise CommAbort."""
        if self._closed is None:
            self._closed = "shut down"

    def run(self, fn, rows, *args):
        """Rank 0's result of fn(ctx, points, *args), each rank handed its
        own block of `rows` as `points`, and the run's `timings_ms`.

        `fn` is called once per rank and returns that rank's coroutine (it
        is an `async def` body). `rows` is a DataSet, split here into one
        block per rank and timed as `split`, or a list of 2-D row arrays
        used as given, with `split` 0; rank r's `ctx.start` is the number
        of rows in blocks 0..r-1, and every rank's `ctx.grid()` is the
        data grid of all the blocks, worked out on the run's first call
        only. A list that `blocks_of` refuses is refused with its
        ValueError before any rank runs.

        Each step resumes the ranks in rank order until each posts a
        collective, then combines the posts and sends every rank the
        result; the run ends when every rank has returned. A rank that
        returns while another waits at a collective is refused with
        CommAbort. On any failure every rank's coroutine is closed, the
        world is closed, and the lowest failing rank's own exception, or
        the CommAbort, is raised.
        """
        if self._closed is not None:
            raise CommAbort("world is closed: %s" % self._closed)
        t0 = time.perf_counter()
        blocks = blocks_of(rows, self.size)  # a list comes back as given
        split_ms = 0.0 if blocks is rows else (time.perf_counter() - t0) * 1e3
        starts = accumulate((len(b) for b in blocks), initial=0)
        # every rank's ctx.grid(), worked out on the run's first call
        grid = functools.cache(lambda: min(
            data_grid(np.asarray(b, dtype=np.float64)) for b in blocks))
        ranks: list = []
        rank = 0  # the rank being created or resumed, named if it fails
        compute = comm = 0.0
        try:
            for rank, (start, points) in enumerate(zip(starts, blocks)):
                coro = fn(NodeCtx(rank, self, start, grid), points, *args)
                if not inspect.iscoroutine(coro):
                    raise TypeError("a rank body must return a coroutine (an "
                                    "async def function), not %r" % (coro,))
                ranks.append(coro)
            sent = None
            while True:
                resumed = time.perf_counter()
                posted, returned = {}, {}
                for rank, coro in enumerate(ranks):
                    try:
                        posted[rank] = coro.send(sent)
                    except StopIteration as stop:
                        returned[rank] = stop.value
                rank = None  # a failure from here on is the scheduler's
                done = time.perf_counter()
                compute += done - resumed  # the ranks' steps, one by one
                if not posted:
                    return returned[0], {"split": split_ms,
                                         "compute": compute * 1e3,
                                         "comm": comm * 1e3}
                if returned:
                    waiting = min(posted)
                    raise CommAbort("rank %d returned while rank %d waits at "
                                    "a %s" % (min(returned), waiting,
                                              posted[waiting][0]))
                if self._closed is not None:
                    raise CommAbort("world is closed: %s" % self._closed)
                sent = self._collective(list(posted.values()))
                comm += time.perf_counter() - done
        except BaseException as exc:
            if self._closed is None:
                self._closed = (str(exc) if rank is None
                                else "rank %d failed: %r" % (rank, exc))
            raise
        finally:
            for coro in ranks:
                coro.close()

    # -- collective plumbing --------------------------------------------

    def _collective(self, posts):
        """The result every rank receives from one collective, given the
        (kind, payload) each rank posted, in rank order."""
        kinds = {kind for kind, _ in posts}
        if len(kinds) != 1:
            raise CommAbort("mismatched collectives on the same step: %s"
                            % sorted(kinds))
        kind = posts[0][0]
        payloads = [payload for _, payload in posts]
        if kind == "broadcast":
            return payloads[0]
        if kind == "gather":
            return payloads
        if kind == "allreduce_sum":
            return CommWorld._fold(payloads)
        raise CommAbort("unknown collective kind %r" % kind)

    @staticmethod
    def _fold(payloads):
        for v in payloads:
            if not isinstance(v, (list, tuple)) or set(map(type, v)) - {int}:
                raise CommAbort("allreduce_sum takes lists of Python ints "
                                "only, so that every sum is exact at any node "
                                "count")
        lengths = {len(v) for v in payloads}
        if len(lengths) != 1:
            raise CommAbort("allreduce_sum length mismatch: %s"
                            % sorted(lengths))
        if len(payloads) == 1:  # a one-node sum is its payload
            return list(payloads[0])
        return [sum(col) for col in zip(*payloads)]


class NodeCtx:
    """Per-rank handle used by algorithm code to reach the runtime; `start`
    is the dataset row of the first row of the rank's block, and `grid()`
    the data grid of every block of the run."""

    def __init__(self, rank: int, world: CommWorld, start: int, grid):
        self.rank = rank
        self.world = world
        self.size = world.size
        self.start = start
        self._grid = grid  # the run's cached grid, shared by its ranks

    def grid(self) -> int:
        """The exponent g of the coarsest grid 2**g that holds every value
        of every block of the run, read as float64: the least
        `exactsum.data_grid` of the blocks, the same on every rank. No
        collective: the run works it out on its first call and keeps it."""
        return self._grid()

    # collectives: every rank of the world must await the same operation.

    async def broadcast(self, payload):
        """Value posted by rank 0, returned on every rank."""
        return await _post("broadcast", payload)

    async def allreduce_sum(self, vector):
        """Elementwise exact sum over ranks of a list of Python ints."""
        return await _post("allreduce_sum", vector)

    async def gather(self, payload) -> list:
        """All payloads in rank order at rank 0; an empty list elsewhere."""
        out = await _post("gather", payload)
        return out if self.rank == 0 else []

    async def gather_rows(self, rows):
        """Every rank's per-row array concatenated in rank order, which is
        dataset order, at rank 0; None elsewhere. One gather."""
        parts = await self.gather(rows)
        return np.concatenate(parts) if self.rank == 0 else None

    async def decide(self, payload, rule):
        """`rule` of every rank's payload, in rank order, run at rank 0
        only and returned on every rank: one gather, then one broadcast of
        rank 0's result. A rule that raises fails the run with its own
        exception at rank 0, after the gather and before the broadcast."""
        parts = await self.gather(payload)
        return await self.broadcast(rule(parts) if self.rank == 0 else None)
