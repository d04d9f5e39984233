"""Simulated P-node runtime whose ranks communicate through collectives.

Every rank runs the same body, an `async def` function, on a `NodeCtx`,
the only rank context. Ranks are coroutines that one scheduler,
`CommWorld.run`, drives on the calling thread in bulk-synchronous steps:
it resumes every rank in rank order until the rank posts a collective,
checks that all ranks posted the same kind, applies the rule rank 0
posted once to every rank's payload in rank order and sends every rank
the result. A one-node world runs the same loop with one rank.
There are two collectives. `await ctx.allreduce_sum(v)` sums
equal-length vectors of Python ints, the only reduction. Integer
addition is exact and associative, so a sum does not depend on the fold
order or on the node count; a float payload, whose sum would, is refused.
`await ctx.decide(payload, rule)` is rank 0's decision: its `rule` of
every rank's payload, returned on every rank. Every role of rank 0, to
merge, to refuse or to draw k-windows' next round of box requests, is a
`decide` rule, so a body never branches on its rank; `ctx.gather_rows`
is the decision that concatenates. Collectives are the only way ranks
exchange data: there is no point-to-point messaging.

A block is a plain 2-D array of rows, and a list of blocks, one per rank
in rank order, is the dataset its concatenation defines: rank r's first
row is dataset row `ctx.start`, the number of rows in the blocks before
it, so a row is named by `ctx.start` plus its position in the block.
Per-row results joined in rank order concatenate back into dataset
order, which is what `NodeCtx.gather_rows` hands every rank. A block may
be empty. `run` is the only way into a run and the one place that pairs
blocks with ranks: it hands each rank only its own block, not the
dataset or its peers' blocks, and arguments that are the same on every
rank. One fact of the whole dataset comes with the run as `ctx.start`
does: `ctx.grid()`, the coarsest power-of-two grid holding every value
of every block (`exactsum.data_grid`), on which Lloyd keeps its exact
sums of data rows; a run works it out on its first call, so a body that
never asks pays nothing. Every driver takes its rows as `run` does, and
`blocks_of` is the one check of a list, which `run` and the drivers
share: a list that is not one block per rank, whose blocks are not 2-D
arrays of integers or floats of one width, or that holds a NaN or an
infinity is refused before any rank runs.

A rank that returns while another waits at a collective is refused at
once, so a rank that skips an `await` falls out of step and is refused
too. A failed run closes every rank's coroutine, raises the lowest
rank's own exception, and closes the world; a closed world refuses to
run.

Each run measures itself and returns its `timings_ms` beside rank 0's
result: a rank's compute is the time from each resume to its next post
or its return, summed over ranks, plus, for rank 0, its decide rules;
`comm` is the time spent folding sums, and `split` the time spent
splitting a dataset into one block per rank. Centralized k-means and one
node's PCA run their bodies on a one-node world, synchronously inside the
calling rank's step, so each result is the parallel body's at P=1.
"""

from __future__ import annotations

import functools
import inspect
import operator
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
    return np.array_split(X.points, as_count(p, "node count"))


def as_count(value, name: str) -> int:
    """`value` as a count, an integer >= 1 (`operator.index`, so a float
    such as 2.0 is refused), or ValueError naming it `name`."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError("%s %r is not an integer" % (name, value)) from None
    if value < 1:
        raise ValueError("%s must be >= 1" % name)
    return value


def blocks_of(rows, p: int) -> list[np.ndarray]:
    """`rows` as `CommWorld.run` hands them to a `p`-node world: a DataSet
    split into one block per rank, or a list of blocks as given.

    This is the one check of a list: one block per rank, each a 2-D array
    of integers or floats as wide as block 0 and every value finite, or
    ValueError naming the first block that is not. A DataSet was checked
    when it was built.
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
        if b.dtype.kind not in "iuf":  # not bool, complex, str or object
            raise ValueError("block %d of dtype %s is not an array of "
                             "integers or floats" % (i, b.dtype))
        if not np.isfinite(b).all():
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
def _post(kind: str, payload, rule):
    """Suspend the calling rank at a collective; the scheduler resumes it
    with rank 0's `rule` of every rank's payload."""
    return (yield kind, payload, rule)


class CommWorld:
    """A fixed-size group of simulated nodes sharing collectives."""

    def __init__(self, n_nodes: int):
        self.size = as_count(n_nodes, "node count")
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
        collective, then applies rank 0's rule to the posts and sends
        every rank the result; the run ends when every rank has returned.
        A decide rule is rank 0's work: it is timed as compute, and one
        that raises fails the run as rank 0. A rank that returns while
        another waits at a collective is refused with CommAbort. On any
        failure every rank's coroutine is closed, the world is closed, and
        the lowest failing rank's own exception, or the CommAbort, is
        raised.
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
        spent = {"compute": 0.0, "comm": 0.0}  # seconds
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
                spent["compute"] += done - resumed  # the ranks' steps
                if not posted:
                    return returned[0], {"split": split_ms, **{
                        part: s * 1e3 for part, s in spent.items()}}
                if returned:
                    waiting = min(posted)
                    raise CommAbort("rank %d returned while rank %d waits at "
                                    "a %s" % (min(returned), waiting,
                                              posted[waiting][0]))
                if self._closed is not None:
                    raise CommAbort("world is closed: %s" % self._closed)
                # a decide rule is rank 0's compute, a fold is comm
                rank = 0 if posted[0][0] == "decide" else None
                sent = self._collective(list(posted.values()))
                spent["compute" if rank == 0 else "comm"] += (
                    time.perf_counter() - done)
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
        (kind, payload, rule) each rank posted, in rank order: rank 0's
        rule of the payloads."""
        kinds = {kind for kind, _, _ in posts}
        if len(kinds) != 1:
            raise CommAbort("mismatched collectives on the same step: %s"
                            % sorted(kinds))
        return posts[0][2]([payload for _, payload, _ in posts])

    @staticmethod
    def _fold(payloads):
        """The rule of `allreduce_sum`: the elementwise sum of every rank's
        list of Python ints, or CommAbort."""
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
    the data grid of every block of the run. Its collectives are the
    exact sum `allreduce_sum` and the decision `decide`; `gather_rows` is
    one `decide`."""

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

    async def allreduce_sum(self, vector):
        """Elementwise exact sum over ranks of a list of Python ints."""
        return await _post("allreduce_sum", vector, CommWorld._fold)

    async def decide(self, payload, rule):
        """Rank 0's `rule` of every rank's payload, in rank order, returned
        on every rank: one collective, whose rule runs once, as rank 0's
        work. A rule that raises fails the run with its own exception, as
        rank 0; the other ranks' rules are never run."""
        return await _post("decide", payload, rule)

    async def gather_rows(self, rows):
        """Every rank's per-row array concatenated in rank order, which is
        dataset order, on every rank. One `decide`."""
        return await self.decide(rows, np.concatenate)
