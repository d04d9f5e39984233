"""Simulated P-node runtime whose ranks communicate through collectives.

Every rank runs the same body on a `NodeCtx`, the only rank context.
Collectives are barriers: every rank posts its contribution, the last
rank to arrive validates and combines them inside the barrier, and all
ranks read the result after one wait. A one-node world has no peer to
wait for, so its rank validates and combines its own contribution at once.
The only reduction sums equal-length vectors of Python ints. Integer
addition is exact and associative, so a sum does not depend on the fold
order or on the node count; a float payload, whose sum would, is refused.
Collectives are the only way ranks exchange data: there is no
point-to-point messaging.
Rank 0 is the root of every broadcast and gather.

Each rank owns one contiguous block of rows (`split_blocks`), in rank
order, so a row is named by its dataset position: the shard's `start`
plus its position in the block. Per-row results gathered in rank order
concatenate back into dataset order, which is what `NodeCtx.gather_rows`
hands rank 0. `run` is the one place that pairs blocks with ranks: it
hands each rank only its own block, not the dataset or its peers' blocks,
and arguments that are the same on every rank, and it refuses blocks that
do not fit the world before any rank runs.

Each run measures itself: every rank times its own body and its own
collectives, and `spmd` returns the run's `timings_ms` beside its
results; `run` also times the split of a dataset into one block per rank.

Larger worlds run one thread per rank. A one-node world starts no
thread: its single rank runs on the calling thread, through the same
runner, and its collectives pass the same validation and timing as a
larger world's, without the barrier. Centralized k-means and one node's
PCA run their bodies on such a world, so each result is the parallel
body's at P=1.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .core import DataSet


class CommAbort(RuntimeError):
    """A rank broke a collective contract or the world was torn down mid-call."""


class _Abort:
    def __init__(self, reason):
        self.reason = reason


@dataclass(frozen=True)
class Shard:
    """Contiguous block of dataset rows owned by one rank; `start` is the
    dataset row of `points[0]`."""

    points: np.ndarray
    start: int

    def __len__(self) -> int:
        return self.points.shape[0]


def split_blocks(X: DataSet, p: int) -> list[Shard]:
    """Split a dataset into P contiguous row blocks with sizes differing by <= 1."""
    if p < 1:
        raise ValueError("node count must be >= 1")
    if p > X.n:
        raise ValueError("cannot split %d rows over %d nodes without empty shards"
                         % (X.n, p))
    base, extra = divmod(X.n, p)
    shards = []
    start = 0
    for r in range(p):
        size = base + (1 if r < extra else 0)
        stop = start + size
        shards.append(Shard(X.points[start:stop], start))
        start = stop
    return shards


class CommWorld:
    """A fixed-size group of simulated nodes sharing collectives."""

    def __init__(self, n_nodes: int):
        if n_nodes < 1:
            raise ValueError("world needs at least one node")
        self.size = n_nodes
        self._slots: list = [None] * n_nodes
        self._result: list = [None]
        slots, result = self._slots, self._result

        def combine():  # run by the last rank to reach the barrier
            result[0] = CommWorld._combine(slots)

        # the action holds the slots and the result, not the world, so no
        # reference cycle keeps a dropped world alive until a gc pass
        self._barrier = threading.Barrier(n_nodes, action=combine)
        self._lock = threading.Lock()
        self._abort_reason: str | None = None

    # -- lifecycle -----------------------------------------------------

    def shutdown(self) -> None:
        """Close the world by breaking its barrier; later spmd() calls
        raise CommAbort."""
        self._barrier.abort()

    def _abort(self, reason: str) -> None:
        with self._lock:
            if self._abort_reason is None:
                self._abort_reason = reason
        self.shutdown()

    # -- SPMD driver ---------------------------------------------------

    def spmd(self, fn, *args, timeout: float = 120.0) -> tuple[list, dict]:
        """Run fn(ctx, *args) once per rank; return (results, timings_ms).

        The results are in rank order. `timings_ms` covers this run alone:
        `comm` is the time ranks spent in collectives and `compute` the
        rest of their run time, both summed over ranks, and `split` is 0.

        Every rank runs fn on a `NodeCtx` through the same runner, which
        times its body and records its failure. A one-node world runs its
        single rank on the calling thread, with no watchdog (`timeout` is
        unused there); its collectives pass the same validation and timing
        as any other world's, without the barrier. Larger worlds run one
        thread per rank, and a watchdog aborts the run if ranks fail to
        finish within timeout. After the world is torn down, the lowest
        rank's own exception (not the abort a peer's failure raised in it)
        is re-raised, so ranks that fail at once report the same error on
        every run. A failed run closes the world, and a closed world (one
        whose barrier is broken) refuses to run.
        """
        if self._barrier.broken:
            raise CommAbort("world is closed: %s"
                            % (self._abort_reason or "shut down"))
        results = [None] * self.size
        wall = [0.0] * self.size
        ctxs = [NodeCtx(r, self) for r in range(self.size)]
        failures: dict[int, BaseException] = {}

        def runner(rank):
            t0 = time.perf_counter()
            try:
                results[rank] = fn(ctxs[rank], *args)
            except BaseException as exc:  # noqa: BLE001 - re-raised by driver
                with self._lock:
                    failures[rank] = exc
                self._abort("rank %d failed: %r" % (rank, exc))
            finally:
                wall[rank] = time.perf_counter() - t0

        if self.size == 1:
            runner(0)  # on the calling thread: no thread, no watchdog
        else:
            threads = [threading.Thread(target=runner, args=(r,), daemon=True,
                                        name="node-%d" % r)
                       for r in range(self.size)]
            for t in threads:
                t.start()
            deadline = time.monotonic() + timeout
            for t in threads:
                t.join(max(0.0, deadline - time.monotonic()))
            if any(t.is_alive() for t in threads):
                self._abort("watchdog timeout after %.1fs" % timeout)
                for t in threads:
                    t.join(1.0)
                raise CommAbort("deadlock watchdog fired after %.1fs"
                                % timeout)
        if failures:
            ranked = [failures[r] for r in sorted(failures)]
            raise next((e for e in ranked if not isinstance(e, CommAbort)),
                       ranked[0])
        return results, _timings(sum(wall), sum(c.comm_seconds for c in ctxs))

    def run(self, fn, rows, *args):
        """Rank 0's result of fn(ctx, shard, *args), each rank handed its own
        block of `rows`, and the run's `timings_ms`.

        `rows` is a DataSet, split here into one block per rank and timed
        as `split`, or a list of blocks used as given, with `split` 0.
        Blocks that are not one per rank, in rank order and contiguous from
        row 0, are refused with ValueError before any rank runs.
        """
        t0 = time.perf_counter()
        split = isinstance(rows, DataSet)
        blocks = split_blocks(rows, self.size) if split else rows
        split_ms = (time.perf_counter() - t0) * 1e3 if split else 0.0
        starts = [s.start for s in blocks]
        # block r starts where blocks 0..r-1 end
        if len(blocks) != self.size or starts != list(
                accumulate((len(s) for s in blocks[:-1]), initial=0)):
            raise ValueError("blocks starting at rows %s do not fit a %d-node "
                             "world: one block per rank, contiguous from row 0"
                             % (starts, self.size))
        results, timings = self.spmd(
            lambda ctx, *a: fn(ctx, blocks[ctx.rank], *a), *args)
        timings["split"] = split_ms
        return results[0], timings

    # -- collective plumbing --------------------------------------------

    def _wait(self):
        try:
            self._barrier.wait()
        except threading.BrokenBarrierError:
            raise CommAbort(self._abort_reason or "world aborted") from None

    def _collective(self, rank, kind, payload):
        self._slots[rank] = (kind, payload)
        if self.size == 1:  # no peer to wait for: combine the one slot now
            if self._barrier.broken:
                raise CommAbort(self._abort_reason or "world aborted")
            result = CommWorld._combine(self._slots)
        else:
            self._wait()
            # the next action overwrites _result only after every rank,
            # this one included, has posted its next slot
            result = self._result[0]
        if isinstance(result, _Abort):
            raise CommAbort(result.reason)
        return result

    @staticmethod
    def _combine(slots):
        kinds = {s[0] for s in slots}
        if len(kinds) != 1:
            return _Abort("mismatched collectives on the same step: %s"
                          % sorted(kinds))
        kind = next(iter(kinds))
        payloads = [s[1] for s in slots]
        if kind == "broadcast":
            return payloads[0]
        if kind == "gather":
            return payloads
        if kind == "allreduce_sum":
            return CommWorld._fold(payloads)
        return _Abort("unknown collective kind %r" % kind)

    @staticmethod
    def _fold(payloads):
        for v in payloads:
            if not isinstance(v, (list, tuple)) or set(map(type, v)) - {int}:
                return _Abort("allreduce_sum takes lists of Python ints only, "
                              "so that every sum is exact at any node count")
        lengths = {len(v) for v in payloads}
        if len(lengths) != 1:
            return _Abort("allreduce_sum length mismatch: %s" % sorted(lengths))
        if len(payloads) == 1:  # a one-node sum is its payload
            return list(payloads[0])
        return [sum(col) for col in zip(*payloads)]


def _timings(wall_s: float, comm_s: float) -> dict:
    """A run's `timings_ms` from its rank-summed wall and collective seconds."""
    return {"split": 0.0, "compute": (wall_s - comm_s) * 1e3,
            "comm": comm_s * 1e3}


class NodeCtx:
    """Per-rank handle used by algorithm code to reach the runtime."""

    def __init__(self, rank: int, world: CommWorld):
        self.rank = rank
        self.world = world
        self.size = world.size
        self.comm_seconds = 0.0  # spent in this rank's collectives

    def _post(self, kind: str, payload):
        t0 = time.perf_counter()
        try:
            return self.world._collective(self.rank, kind, payload)
        finally:
            self.comm_seconds += time.perf_counter() - t0

    # collectives: every rank of the world must call the same operation.

    def broadcast(self, payload):
        """Value posted by rank 0, returned on every rank."""
        return self._post("broadcast", payload)

    def allreduce_sum(self, vector):
        """Elementwise exact sum over ranks of a list of Python ints."""
        return self._post("allreduce_sum", vector)

    def gather(self, payload) -> list:
        """All payloads in rank order at rank 0; an empty list elsewhere."""
        out = self._post("gather", payload)
        return out if self.rank == 0 else []

    def gather_rows(self, rows):
        """Every rank's per-row array concatenated in rank order, which is
        dataset order, at rank 0; None elsewhere. One gather."""
        parts = self.gather(rows)
        return np.concatenate(parts) if self.rank == 0 else None
