"""Simulated P-node runtime whose ranks communicate through collectives.

One thread per rank, rank 0 acting as root. Collectives are barriers:
every rank posts its contribution, rank 0 validates and combines, and
all ranks read the result. Reductions fold contributions in ascending
rank order, so outcomes are reproducible and independent of scheduling.
Collectives are the only way ranks exchange data: there is no
point-to-point messaging.

A one-node world starts no thread: its single rank runs on the calling
thread against `SerialCtx`, whose collectives are identities. Centralized
k-means runs the same way, so its result is the parallel body's at P=1.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass

import numpy as np

from .core import DataSet


class CommAbort(RuntimeError):
    """A rank broke a collective contract or the world was torn down mid-call."""


class _Abort:
    def __init__(self, reason):
        self.reason = reason


@dataclass(frozen=True)
class Shard:
    """Contiguous block of dataset rows owned by one rank."""

    points: np.ndarray
    ids: np.ndarray

    def __len__(self) -> int:
        return int(self.ids.size)


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
        shards.append(Shard(X.points[start:stop], X.ids[start:stop]))
        start = stop
    return shards


class CommWorld:
    """A fixed-size group of simulated nodes sharing collectives."""

    def __init__(self, n_nodes: int):
        if n_nodes < 1:
            raise ValueError("world needs at least one node")
        self.size = n_nodes
        self._slots: list = [None] * n_nodes
        self._result = None
        self._barrier = threading.Barrier(n_nodes)
        self._closed = threading.Event()
        self._lock = threading.Lock()
        self._abort_reason: str | None = None
        self._comm_seconds = [0.0] * n_nodes
        self._wall_seconds = [0.0] * n_nodes

    # -- lifecycle -----------------------------------------------------

    def shutdown(self) -> None:
        """Close the world; later spmd() calls raise CommAbort."""
        self._closed.set()

    def _abort(self, reason: str) -> None:
        with self._lock:
            if self._abort_reason is None:
                self._abort_reason = reason
        self._barrier.abort()
        self.shutdown()

    def comm_seconds_total(self) -> float:
        return float(sum(self._comm_seconds))

    def wall_seconds_total(self) -> float:
        return float(sum(self._wall_seconds))

    @contextlib.contextmanager
    def timed(self):
        """Yield a report's `timings_ms` dict and fill it for the runs inside.

        On exit `comm` is the time ranks spent in communication and
        `compute` the rest of their run time, both summed over ranks.
        `split` starts at 0 for drivers that time their own data split.
        """
        comm_start = self.comm_seconds_total()
        wall_start = self.wall_seconds_total()
        timings = {"split": 0.0}
        yield timings
        comm_s = self.comm_seconds_total() - comm_start
        wall_s = self.wall_seconds_total() - wall_start
        timings["compute"] = (wall_s - comm_s) * 1e3
        timings["comm"] = comm_s * 1e3

    # -- SPMD driver ---------------------------------------------------

    def spmd(self, fn, *args, timeout: float = 120.0) -> list:
        """Run fn(ctx, *args) once per rank and return the results in rank order.

        A one-node world calls fn(SerialCtx(), *args) on the calling
        thread: nothing can wait on a peer, so there is no watchdog and
        `timeout` is unused. Larger worlds run one thread per rank; the
        first exception raised by any rank is re-raised after the world
        is torn down, and a watchdog aborts the run if ranks fail to
        finish within timeout. A failed run closes the world, and a
        closed world refuses to run.
        """
        if self._closed.is_set():
            raise CommAbort("world is closed: %s"
                            % (self._abort_reason or "shut down"))
        if self.size == 1:
            t0 = time.perf_counter()
            try:
                return [fn(SerialCtx(), *args)]
            except BaseException as exc:
                self._abort("rank 0 failed: %r" % exc)
                raise
            finally:
                self._wall_seconds[0] += time.perf_counter() - t0
        results = [None] * self.size
        failures: list[BaseException] = []

        def runner(rank):
            t0 = time.perf_counter()
            try:
                results[rank] = fn(NodeCtx(rank, self), *args)
            except BaseException as exc:  # noqa: BLE001 - re-raised by driver
                with self._lock:
                    failures.append(exc)
                self._abort("rank %d failed: %r" % (rank, exc))
            finally:
                self._wall_seconds[rank] += time.perf_counter() - t0

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
            raise CommAbort("deadlock watchdog fired after %.1fs" % timeout)
        if failures:
            primary = next((e for e in failures if not isinstance(e, CommAbort)),
                           failures[0])
            raise primary
        return results

    # -- collective plumbing --------------------------------------------

    def _wait(self):
        try:
            self._barrier.wait()
        except threading.BrokenBarrierError:
            raise CommAbort(self._abort_reason or "world aborted") from None

    def _collective(self, rank, kind, root, payload):
        t0 = time.perf_counter()
        try:
            self._slots[rank] = (kind, root, payload)
            self._wait()
            if rank == 0:
                self._result = self._combine()
            self._wait()
            result = self._result
        finally:
            self._comm_seconds[rank] += time.perf_counter() - t0
        if isinstance(result, _Abort):
            raise CommAbort(result.reason)
        return result

    def _combine(self):
        kinds = {s[0] for s in self._slots}
        if len(kinds) != 1:
            return _Abort("mismatched collectives on the same step: %s"
                          % sorted(kinds))
        kind = next(iter(kinds))
        roots = {s[1] for s in self._slots}
        if len(roots) != 1:
            return _Abort("%s called with mismatched roots: %s"
                          % (kind, sorted(roots)))
        root = next(iter(roots))
        payloads = [s[2] for s in self._slots]
        if kind == "broadcast":
            return payloads[root]
        if kind == "gather":
            return list(payloads)
        if kind == "allreduce_sum":
            return self._fold(payloads)
        return _Abort("unknown collective kind %r" % kind)

    @staticmethod
    def _fold(payloads):
        first = payloads[0]
        if isinstance(first, np.ndarray):
            for v in payloads[1:]:
                if not isinstance(v, np.ndarray) or v.shape != first.shape:
                    return _Abort("allreduce_sum shape mismatch")
            out = first.copy()
            for v in payloads[1:]:  # ascending rank order, serial fold
                out = out + v
            return out
        try:
            lengths = {len(v) for v in payloads}
        except TypeError:
            return _Abort("allreduce_sum expects vectors")
        if len(lengths) != 1:
            return _Abort("allreduce_sum length mismatch: %s" % sorted(lengths))
        out = list(first)
        for v in payloads[1:]:
            for i, item in enumerate(v):
                out[i] = out[i] + item
        return out


class NodeCtx:
    """Per-rank handle used by algorithm code to reach the runtime."""

    def __init__(self, rank: int, world: CommWorld):
        self.rank = rank
        self.world = world
        self.size = world.size

    # collectives: every rank of the world must call the same operation.

    def broadcast(self, payload, root: int = 0):
        """Value posted by `root`, returned on every rank."""
        if not 0 <= root < self.world.size:
            raise ValueError("broadcast root %d out of range" % root)
        return self.world._collective(self.rank, "broadcast", root, payload)

    def allreduce_sum(self, vector):
        """Elementwise sum over ranks, folded in ascending rank order."""
        return self.world._collective(self.rank, "allreduce_sum", 0, vector)

    def gather(self, payload, root: int = 0) -> list:
        """All payloads in rank order at `root`; an empty list elsewhere."""
        if not 0 <= root < self.world.size:
            raise ValueError("gather root %d out of range" % root)
        out = self.world._collective(self.rank, "gather", root, payload)
        return out if self.rank == root else []


class SerialCtx:
    """Rank 0 of a one-node world, with the interface of NodeCtx and no thread.

    Each collective returns what a one-node CommWorld returns, without a
    barrier: the payload itself, a copy of the vector, or a one-element
    gather.
    """

    rank = 0
    size = 1

    @staticmethod
    def _root(kind: str, root: int) -> None:
        if root != 0:
            raise ValueError("%s root %d out of range" % (kind, root))

    def broadcast(self, payload, root: int = 0):
        self._root("broadcast", root)
        return payload

    def allreduce_sum(self, vector):
        out = CommWorld._fold([vector])
        if isinstance(out, _Abort):
            raise CommAbort(out.reason)
        return out

    def gather(self, payload, root: int = 0) -> list:
        self._root("gather", root)
        return [payload]
