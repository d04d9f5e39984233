"""Lloyd k-means as one bulk-synchronous body for any node count.

The centralized run is that body on a one-node world.
Per-cluster sums and the objective are accumulated exactly (see
exactsum), so the parallel run reproduces the centralized one bit for
bit for any node count.

The body takes a leading run axis: R runs from R starts over the same
rows go in lockstep, one allreduce a trip for all of them, and each run
gives the same bits as a run of its own. `pkm`, `kmeans_centralized` and
pddp-km run one; cpca-cluster's `pca.KMeansLocal` runs its restarts as
the R runs of one nested world. A run that converges is frozen and
leaves the live set, and the trips end when no run is live; empty
clusters are repaired run by run, in run order.

Each rank assigns its rows in one of two ways, with the same labels and
distances bit for bit. With more than 16 centers a run, each run goes to
`core.nearest_centers`, which settles nearly every row from one BLAS
product against rows lifted once per call, and rescores only rows whose
nearest center is within rounding of another. With at most 16, one
center-major block of distances, a row per center of every run, is kept
between iterations and only the rows of centers that moved are scored
again: every `squared_distances` value depends on its own point and
center alone, so a kept row equals a fresh one, and a tall block equals
R short ones, bit for bit. Each run's nearest distances are one minimum
over its k rows of the block, and each label the lowest index that
reaches it, as argmin picks.

The exact per-cluster sums and counts are kept too. The first trip sums
each run's clusters straight from the rank's rows; a later one sums
only the (row, run) cells that changed cluster, as Python ints when they
are few and in one grouped call over every live run's clusters when
not. Integer addition is exact, so the updated sums equal a full
recount. Only the centers whose sums or counts changed are recomputed,
and a mean of unchanged sums is the same float.

The sums of data rows are kept on the data's own grid, which every rank
reads from its run (`NodeCtx.grid`, the least `exactsum.data_grid` of
the blocks), so they are integers of a few dozen bits rather than on the
2**-1126 grid; their quotients are the same floats.
A run whose trip changed no sum and no count, and left no cluster empty,
is at Lloyd's fixed point: the next trip would repeat it bit for bit and
end the run by the tol test. That trip is recorded without being run,
so `iterations` counts it, and a run that converges makes one allreduce
fewer than it has iterations.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .comm import CommWorld, NodeCtx, as_count, dataset_of
from .core import (CentroidSet, DataSet, Partition, column_midrange,
                   lifted_rows, nearest_centers, squared_distances)
from .exactsum import fixed_to_float, fixed_to_floats, grouped_sums_fixed
from .report import ClusterReport


@dataclass(frozen=True)
class KMeansParams:
    k: int
    max_iter: int = 300
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        as_count(self.k, "k")
        as_count(self.max_iter, "max_iter")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError("tol must be finite and >= 0, not %r" % self.tol)


def _start_rows(n: int, k: int, seed: int) -> np.ndarray:
    """Lloyd's start draw: k distinct row indices below n, sampled without
    replacement with `seed`, in ascending order."""
    return np.sort(np.random.default_rng(seed).choice(n, k, replace=False))


def _init_centers(X: DataSet, k: int, seed: int) -> np.ndarray:
    """The rows of `_start_rows`, a new (k, d) array."""
    return X.points[_start_rows(X.n, k, seed)]


def _start(X: DataSet, params: KMeansParams, init_centers) -> np.ndarray:
    """The first centers of a run, drawn with the seed or checked, before
    the world runs: every rank is handed the same (k, d) array of finite
    values."""
    if params.k > X.n:
        raise ValueError("k=%d exceeds the %d available rows" % (params.k, X.n))
    if init_centers is None:
        return _init_centers(X, params.k, params.seed)
    centers = np.array(init_centers, dtype=np.float64, copy=True)
    if centers.shape != (params.k, X.d):
        raise ValueError("init_centers must have shape (k, d)")
    if not np.isfinite(centers).all():
        raise ValueError("init_centers contains non-finite values (NaN or "
                         "infinity)")
    return centers


#: Up to this many centers a run, `_assignment` keeps a center-major
#: block of distances; more go to `nearest_centers`.
_FEW_CENTERS = 16

#: A trip that moves at most this many (row, run) cells sums them as
#: Python ints (`_few_moved_stats`), a grouped call for more.
_FEW_MOVED = 24


def _moved_stats(points, old, new, groups, grid) -> list[int]:
    """This block's exact change of the per-cluster sums and counts, from
    the (rows, runs) labels of some runs before and after a trip, each a
    (run, cluster) group below `groups`; the sums are on the grid 2**grid.
    `old` is None before the first trip, when no row has a cluster yet.

    On the first trip every row joins its group in every run, and each
    run's clusters are summed straight from the block's rows, in one
    grouped call a run. On a later trip only the (row, run) cells whose
    label differs are summed: each moved row goes into its group `new` and
    negated into its group `old`; negation is exact, so each group's sum is
    what joined it minus what left it. At most _FEW_MOVED cells are summed
    as Python ints (`_few_moved_stats`), more in one grouped call.
    Returns `groups` * d sum changes in group-major order, then `groups`
    count changes.
    """
    if old is None:
        k = groups // new.shape[1]
        out = []
        for run, labels in enumerate(new.T):
            out += grouped_sums_fixed(points, labels - run * k, k, grid)
        return out + np.bincount(new.ravel(), minlength=groups).tolist()
    runs = old.shape[1]
    moved = np.flatnonzero(old != new)  # flat (row, run) cells
    rows = points[moved // runs if runs > 1 else moved]
    src, dst = old.ravel()[moved], new.ravel()[moved]
    if len(rows) <= _FEW_MOVED:
        out = _few_moved_stats(rows, src, dst, groups, grid)
        if out is not None:
            return out
    out = grouped_sums_fixed(np.concatenate((rows, -rows)),
                             np.concatenate((dst, src)), groups, grid)
    out.extend((np.bincount(dst, minlength=groups)
                - np.bincount(src, minlength=groups)).tolist())
    return out


def _few_moved_stats(rows, src, dst, groups, grid) -> list[int] | None:
    """`_moved_stats` of a few moved `rows`, from group `src` to group
    `dst`, summed as Python ints; None when a value is not known to be on
    the grid 2**grid, or its image there would overflow a float.

    A value x = m * 2**e (frexp, 53-bit m) is on the grid when e - 53 >=
    grid, and x * 2**-grid is then an integral float, below 2**1024 when
    e - grid <= 1024, which `int()` converts exactly. Data rows are finite
    and on their run's data grid, so only data spread over more than
    about 970 binades fails the test; rows that fail it go back to the
    grouped call, which sums them or refuses a bit below the grid."""
    e = np.frexp(rows)[1]
    if e.size and (e.min() - 53 < grid or e.max() - grid > 1024):
        return None
    d = rows.shape[1]
    sums, counts = [0] * (groups * d), [0] * groups
    for row, a, b in zip(np.ldexp(rows, -grid).tolist(), dst.tolist(),
                         src.tolist()):
        counts[a] += 1
        counts[b] -= 1
        a, b = a * d, b * d
        for j, x in enumerate(row):
            x = int(x)
            sums[a + j] += x
            sums[b + j] -= x
    return sums + counts


def _assignment(points, starts):
    """The function from the current (R, k, d) centers of R runs and the
    indices of the live runs to the (labels, d2min) of the rows `points`
    in each live run, both (rows, live runs): each row's nearest center of
    the run, ties to the lowest index, and its squared distance, the same
    bits as argmin and pick of `squared_distances(points, centers[run])`.
    A label is the center's row in the flat (R * k, d) stack, run * k
    plus its index in the run, and so names its (run, cluster) group.

    With more than _FEW_CENTERS centers a run, each live run goes to
    `nearest_centers`, with the rows lifted once about their midrange.
    With fewer, one center-major (R * k, rows) block of
    `squared_distances(centers, points)` is kept, the same bits as the
    rows-major matrix transposed (`c - p` squares to the bits of `p - c`),
    and only the rows of centers that moved are scored again, or the whole
    block when every center moved. Each live run's d2min is one
    `np.minimum.reduce` over its k rows, the picked value itself, and its
    labels a sweep from the highest index down that sets each index
    wherever its row equals the minimum, so ties go to the lowest index.
    The labels and distances come out as (live runs, rows) arrays; the
    labels are returned as a C-ordered (rows, live runs) copy, which
    `_moved_stats` reads flat.
    """
    runs, k, d = starts.shape
    firsts = np.arange(runs) * k  # each run's first label
    if k > _FEW_CENTERS:
        origin = column_midrange(points)
        lhs = lifted_rows(points, origin)[0]

        def nearest(c, live):
            labels, d2min = [], []
            for run in live:
                lab, dist = nearest_centers(points, c[run], lhs,
                                            lifted_rows(c[run], origin)[1])
                if run:
                    lab += firsts[run]
                labels.append(lab[:, None])
                d2min.append(dist[:, None])
            if len(live) == 1:  # one run's arrays, as columns
                return labels[0], d2min[0]
            return np.hstack(labels), np.hstack(d2min)
        return nearest
    scored = starts.reshape(runs * k, d)
    block = squared_distances(scored, points)

    def refresh(c, live):
        nonlocal scored, block
        flat = c.reshape(runs * k, d)
        shifted = np.flatnonzero(np.any(flat != scored, axis=1))
        if shifted.size == len(flat):
            block = squared_distances(flat, points)
        elif shifted.size:
            block[shifted] = squared_distances(flat[shifted], points)
        scored = flat
        cube = block.reshape(runs, k, len(points))
        if len(live) < runs:  # a copy of the live runs' rows only
            cube = cube[live]
        d2min = np.minimum.reduce(cube, axis=1)
        # from the highest index down, so the lowest at the minimum is last
        new = np.full(d2min.shape, k - 1, dtype=np.int64)
        for i in range(k - 2, -1, -1):
            np.copyto(new, i, where=cube[:, i] == d2min)
        if runs > 1:
            new += firsts[live, None]
        # labels as (rows, live runs) in C order, a view for one run
        return np.ascontiguousarray(new.T), d2min.T
    return refresh


def _converged(trace, tol) -> bool:
    """Whether the last Lloyd step lowered the objective by at most tol,
    the test that ends the loop before max_iter."""
    return len(trace) > 1 and trace[-2] - trace[-1] <= tol


def _local_farthest(points, start, d2min, used):
    """Best relocation candidate on the block whose first row is dataset row
    `start`: max distance, ties to lowest row."""
    for row in np.argsort(-d2min, kind="stable"):
        if start + row not in used:
            return float(d2min[row]), int(start + row), points[row].copy()
    return -np.inf, -1, None


def _cannot_repair(k: int, uniques):
    """Rank 0's refusal of an empty cluster that no free row can fill,
    given each block's distinct rows `uniques`: it names k and the
    distinct rows of the whole data. Fewer than k centroids hold every
    row exactly, so with k or more distinct rows some row's squared
    distance to its centroid underflowed to 0, and the refusal says so."""
    distinct = len(np.unique(np.concatenate(uniques), axis=0))
    if distinct < k:
        why = "the data has only %d distinct rows" % distinct
    else:
        why = ("the squared distance of every free row to its centroid "
               "underflows to 0 (the data has %d distinct rows)" % distinct)
    raise ValueError("cannot repair an empty cluster: k=%d but %s" % (k, why))


async def _pkm_node(ctx: NodeCtx, pts, params, starts):
    """One rank's R Lloyd runs over its block, in lockstep, from the
    (R, k, d) stack of starts `starts`, the same on every rank; every rank
    returns (labels, centers, traces): the (rows, R) labels of every
    (row, run) over every block, the (R, k, d) centers, and one trace per
    run holding each of its iterations' objectives. `params` gives
    max_iter and tol. Each run gives the same bits as a run of its own
    (R = 1) from its start.

    Each iteration makes one allreduce, of the live runs' changes to the
    per-cluster sums and counts (exact sums over every (run, cluster)
    group, on the run's data grid `ctx.grid()`; see `_moved_stats`), then
    their exact objectives (one exact sum per run, on the default grid:
    squared distances are not data values). Which centers to recompute,
    and so which distance rows to refresh, follows from the reduced changes
    and the replicated centers only, never from this block's own rows: a
    center moves on every rank when rows of any block change cluster. A run
    whose objective passes the tol test leaves the live set, its labels,
    centers and trace frozen; the loop ends when no run is live, or at
    max_iter. A run's labels are its last assignment's, its centers its
    last update's. Empty clusters are repaired run by run in run order,
    each with the run's own distances and picked rows: every rank offers
    its farthest free row and rank 0's rule (`ctx.decide`) picks the
    farthest of all, ties to the lowest rank. A relocation that finds no
    free row off a centroid refuses: rank 0's rule counts the distinct
    rows over every block and raises, in one decision.

    A run whose reduced changes are all zero, with no empty cluster and a
    trip left, is at Lloyd's fixed point: its centers stay, so the next
    trip would repeat its labels, distances and objective bit for bit,
    and the tol test would end the run there. The run records that
    objective once more instead, as that trip would have, and leaves the
    live set without the trip, so its labels, centers, trace and
    iteration count are the same and it makes one allreduce fewer.
    """
    runs, k, d = starts.shape
    kd = k * d
    grid = ctx.grid()
    # each (row, run)'s flat label run * k + cluster, from the first trip on
    labels = None
    # each run's exact per-cluster sums and counts over all blocks
    sums = [[0] * kd for _ in range(runs)]
    counts = [[0] * k for _ in range(runs)]
    traces: list[list[float]] = [[] for _ in range(runs)]
    assign = _assignment(pts, starts)
    centers, live = starts, list(range(runs))
    for trip in range(1, params.max_iter + 1):
        new, d2min = assign(centers, live)
        every = len(live) == runs
        stats = _moved_stats(pts, labels if every else labels[:, live], new,
                             runs * k, grid)
        stats += grouped_sums_fixed(d2min)
        g = await ctx.allreduce_sum(stats)
        if every:
            labels = new
        else:
            labels[:, live] = new
        # the reduced changes are the same on every rank, so every rank
        # recomputes the same centers and freezes the same runs
        centers = centers.copy()
        still = []
        for j, run in enumerate(live):
            trace = traces[run]
            trace.append(fixed_to_float(g[runs * (kd + k) + j]))
            if _converged(trace, params.tol):
                continue
            gs = g[run * kd:(run + 1) * kd]
            gc = g[runs * kd + run * k:runs * kd + (run + 1) * k]
            run_sums, run_counts = sums[run], counts[run]
            changed = {i // d for i in range(kd) if gs[i]}
            changed.update(i for i in range(k) if gc[i])
            if not changed and trip < params.max_iter and all(run_counts):
                trace.append(trace[-1])  # the fixed point's trip
                continue
            still.append(run)
            run_centers = centers[run]  # a view, written in place
            for i in changed:
                cluster = slice(i * d, (i + 1) * d)
                run_sums[cluster] = [a + b for a, b in
                                     zip(run_sums[cluster], gs[cluster])]
                run_counts[i] += gc[i]
                if run_counts[i]:
                    run_centers[i] = fixed_to_floats(run_sums[cluster],
                                                     run_counts[i], grid)
            used: set[int] = set()
            for i in [i for i in range(k) if run_counts[i] == 0]:
                # max keeps the first maximum, so ties go to the lowest rank
                best = await ctx.decide(
                    _local_farthest(pts, ctx.start, d2min[:, j], used),
                    lambda cands: max(cands, key=lambda c: c[0]))
                if best[0] <= 0:  # every free row already sits on a centroid
                    return await ctx.decide(
                        np.unique(pts, axis=0),
                        lambda uniques: _cannot_repair(k, uniques))
                _, pick, run_centers[i] = best
                used.add(pick)
        live = still
        if not live:
            break

    if runs > 1:
        labels = labels - np.arange(runs) * k
    return await ctx.gather_rows(labels), centers, traces


def kmeans_centralized(X: DataSet, params: KMeansParams, init_centers=None):
    """Full-data Lloyd iteration: the parallel body on one node.

    Returns (CentroidSet, Partition, objective, iterations). Stops when
    the objective decreases by at most tol between iterations, or at
    max_iter; `iterations` counts a fixed point's last trip, which is
    recorded without being run. Empty clusters are repaired by relocating
    the centroid to the point farthest from its assigned centroid.
    """
    (labels, centers, [trace]), _ = CommWorld(1).run(
        _pkm_node, X, params, _start(X, params, init_centers)[None])
    return (CentroidSet(centers[0]), Partition(labels[:, 0]), trace[-1],
            len(trace))


def pkm(world: CommWorld, rows, params: KMeansParams,
        init_centers=None) -> ClusterReport:
    """Parallel k-means of `rows`, a DataSet or a list of blocks, as
    `CommWorld.run` takes them.

    The initial centroids are drawn from the whole dataset, or checked,
    before the world runs and handed to every rank; every trip reduces
    the changes to the per-cluster sums and counts, and the objective, in
    one collective, and a fixed point's last iteration is recorded
    without a trip. Output is independent of the blocking.
    """
    X = dataset_of(rows, world.size)
    (labels, centers, [trace]), timings = world.run(
        _pkm_node, rows, params, _start(X, params, init_centers)[None])
    return ClusterReport(
        algo="pkm",
        p=world.size,
        params=dataclasses.asdict(params),
        n=X.n,
        d=X.d,
        labels=labels[:, 0],
        centroids=centers[0],
        j=trace[-1],
        iterations=len(trace),
        converged=_converged(trace, params.tol),
        timings_ms=timings,
    )
