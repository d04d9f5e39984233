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
distance matrix over every run's centers is kept between iterations and
only the columns of centers that moved are scored again: every
`squared_distances` value depends on its own point and center alone, so
a kept column equals a fresh one, and a wide matrix equals R narrow
ones, bit for bit. The exact per-cluster sums and counts are kept too,
and each iteration sums only the (row, run) cells that changed cluster,
in one grouped call over every live run's clusters; integer addition is
exact, so the updated sums equal a full recount. Only the centers whose
sums or counts changed are recomputed, and a mean of unchanged sums is
the same float.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .comm import CommWorld, NodeCtx, dataset_of
from .core import (_FEW_CENTERS, CentroidSet, DataSet, Partition,
                   column_midrange, lifted_rows, nearest_centers,
                   squared_distances)
from .exactsum import fixed_to_float, fixed_to_floats, grouped_sums_fixed
from .report import ClusterReport


@dataclass(frozen=True)
class KMeansParams:
    k: int
    max_iter: int = 300
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError("tol must be finite and >= 0, not %r" % self.tol)


def _init_centers(X: DataSet, k: int, seed: int) -> np.ndarray:
    """k distinct rows sampled without replacement."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(X.n, size=k, replace=False)
    return X.points[np.sort(idx)].copy()


def _start(X: DataSet, params: KMeansParams, init_centers) -> np.ndarray:
    """The first centers of a run, drawn with the seed or checked, before
    the world runs: every rank is handed the same (k, d) array."""
    if params.k > X.n:
        raise ValueError("k=%d exceeds the %d available rows" % (params.k, X.n))
    if init_centers is None:
        return _init_centers(X, params.k, params.seed)
    centers = np.array(init_centers, dtype=np.float64, copy=True)
    if centers.shape != (params.k, X.d):
        raise ValueError("init_centers must have shape (k, d)")
    return centers


def _moved_stats(points, old, new, groups) -> list[int]:
    """This block's exact change of the per-cluster sums and counts, from
    the (rows, runs) labels of some runs before and after a trip, each a
    (run, cluster) group below `groups`.

    Only the (row, run) cells whose label differs are summed, in one
    grouped call: each moved row goes into its group `new` and, unless it
    had no cluster yet (label -1), negated into its group `old`; negation
    is exact, so each group's sum is what joined it minus what left it.
    Returns `groups` * d sum changes in group-major order, then `groups`
    count changes.
    """
    runs = old.shape[1]
    moved = np.flatnonzero(old != new)  # flat (row, run) cells
    rows = moved // runs if runs > 1 else moved
    src, dst = old.ravel()[moved], new.ravel()[moved]
    had = src >= 0
    out = grouped_sums_fixed(
        np.concatenate((points[rows], -points[rows[had]])),
        np.concatenate((dst, src[had])), groups)
    out.extend((np.bincount(dst, minlength=groups)
                - np.bincount(src[had], minlength=groups)).tolist())
    return out


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
    With fewer, one (rows, R * k) distance matrix is kept and only the
    columns of centers that moved are scored again, or the whole matrix
    when every center moved; a row's cell of label c is at row * R * k + c
    of the flat matrix.
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
    d2 = squared_distances(points, scored)
    cells = (np.arange(len(points)) * (runs * k))[:, None]

    def refresh(c, live):
        nonlocal scored, d2
        flat = c.reshape(runs * k, d)
        shifted = np.flatnonzero(np.any(flat != scored, axis=1))
        if shifted.size == len(flat):
            d2 = squared_distances(points, flat)
        elif shifted.size:
            d2[:, shifted] = squared_distances(points, flat[shifted])
        scored = flat
        cube = d2.reshape(len(points), runs, k)
        if len(live) < runs:  # a copy of the live runs' columns only
            cube = cube[:, live]
        new = np.argmin(cube, axis=2)
        if runs > 1:
            new += firsts[live]
        return new, d2.ravel()[cells + new]
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


async def _pkm_node(ctx: NodeCtx, pts, params, starts):
    """One rank's R Lloyd runs over its block, in lockstep, from the
    (R, k, d) stack of starts `starts`, the same on every rank; every rank
    returns (labels, centers, traces): the (rows, R) labels of every
    (row, run), at rank 0 only, the (R, k, d) centers, and one trace per
    run holding each of its iterations' objectives. `params` gives
    max_iter and tol. Each run gives the same bits as a run of its own
    (R = 1) from its start.

    Each iteration makes one allreduce, of the live runs' changes to the
    per-cluster sums and counts (one grouped exact sum over every (run,
    cluster) group), then their exact objectives (one exact sum per run).
    Which centers to recompute, and so which distance columns to refresh,
    follows from the reduced changes and the replicated centers only,
    never from this block's own rows: a center moves on every rank when
    rows of any block change cluster. A run whose objective passes the
    tol test leaves the live set, its labels, centers and trace frozen;
    the loop ends when no run is live, or at max_iter. A run's labels are
    its last assignment's, its centers its last update's. Empty clusters
    are repaired run by run in run order, each with the run's own
    distances and picked rows; a relocation that finds no free row off a
    centroid refuses, with the distinct rows counted over every block.
    """
    runs, k, d = starts.shape
    kd = k * d
    # each (row, run)'s flat label run * k + cluster, -1 for no cluster yet
    labels = np.full((len(pts), runs), -1, dtype=np.int64)
    # each run's exact per-cluster sums and counts over all blocks
    sums = [[0] * kd for _ in range(runs)]
    counts = [[0] * k for _ in range(runs)]
    traces: list[list[float]] = [[] for _ in range(runs)]
    assign = _assignment(pts, starts)
    centers, live = starts, list(range(runs))
    for _ in range(params.max_iter):
        new, d2min = assign(centers, live)
        every = len(live) == runs
        stats = _moved_stats(pts, labels if every else labels[:, live], new,
                             runs * k)
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
            still.append(run)
            gs = g[run * kd:(run + 1) * kd]
            gc = g[runs * kd + run * k:runs * kd + (run + 1) * k]
            run_sums, run_counts = sums[run], counts[run]
            run_centers = centers[run]  # a view, written in place
            changed = {i // d for i in range(kd) if gs[i]}
            changed.update(i for i in range(k) if gc[i])
            for i in changed:
                cluster = slice(i * d, (i + 1) * d)
                run_sums[cluster] = [a + b for a, b in
                                     zip(run_sums[cluster], gs[cluster])]
                run_counts[i] += gc[i]
                if run_counts[i]:
                    run_centers[i] = fixed_to_floats(run_sums[cluster],
                                                     run_counts[i])
            used: set[int] = set()
            for i in [i for i in range(k) if run_counts[i] == 0]:
                cands = await ctx.gather(
                    _local_farthest(pts, ctx.start, d2min[:, j], used))
                # max keeps the first maximum, so ties go to the lowest rank
                best = await ctx.broadcast(max(cands, key=lambda c: c[0])
                                           if cands else None)
                if best[0] <= 0:  # every free row already sits on a centroid
                    rows = await ctx.gather_rows(np.unique(pts, axis=0))
                    if ctx.rank == 0:
                        raise ValueError(
                            "cannot repair an empty cluster: k=%d but the "
                            "data has only %d distinct rows"
                            % (k, len(np.unique(rows, axis=0))))
                    return None
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
    max_iter. Empty clusters are repaired by relocating the centroid to
    the point farthest from its assigned centroid.
    """
    (labels, centers, [trace]), _ = CommWorld(1).run(
        _pkm_node, X, params, _start(X, params, init_centers)[None])
    return (CentroidSet(centers[0]), Partition(labels[:, 0]), trace[-1],
            len(trace))


def pkm(world: CommWorld, rows, params: KMeansParams,
        init_centers=None) -> ClusterReport:
    """Parallel k-means of `rows`, a DataSet or a list of blocks, as
    `CommWorld.run` takes them.

    The initial centroids are drawn (or checked) from the whole dataset
    before the world runs and handed to every rank; every iteration
    reduces the changes to the per-cluster sums and counts, and the
    objective, in one collective. Output is independent of the blocking.
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
