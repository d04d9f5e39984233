"""Principal component extraction and PCA-guided distributed clustering.

Every PCA in the package rests on one kernel, `exact_covariance`: for
each of many row sets spread over the nodes, the column sums and row
count, then the upper triangle of the centered cross-products, each
reduced exactly, so every node holds the same bit-identical covariance
of every set at any node count. Each set keeps its own exact-sum calls;
only the payloads are concatenated, so any number of sets costs two
allreduces (`exact_means` is the first of them alone). Bases are the
leading eigenvectors, from the one direct symmetric solver
`principal_axes`. The collective basis of `cpca` is therefore the basis
of all rows, bit for bit, and costs O(d^2) integers of traffic; one
node's basis is `cpca` on a one-node world.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .comm import CommWorld, NodeCtx, blocks_of
from .core import NOISE, DataSet, row_squared_distances, squared_distances
from .dbscan import DbscanParams, dbscan
from .exactsum import fixed_to_floats, grouped_sums_fixed
from .kmeans import KMeansParams, kmeans_centralized
from .report import ClusterReport


def _fix_sign(u: np.ndarray) -> np.ndarray:
    """Flip so the first nonzero entry is positive."""
    for v in u:
        if v != 0.0:
            return -u if v < 0 else u
    return u


def principal_axes(C: np.ndarray):
    """Eigenpairs of a symmetric matrix, largest eigenvalue first.

    Returns (eigenvalues, axes) with axes[i] the unit eigenvector of
    eigenvalues[i], signed by `_fix_sign`; equal eigenvalues keep the
    solver's order. This is the package's one eigensolver: a direct
    symmetric solve has no iteration to stop short of convergence.
    """
    evals, evecs = np.linalg.eigh(np.asarray(C, dtype=np.float64))
    order = np.argsort(-evals, kind="stable")
    return evals[order], np.array([_fix_sign(v) for v in evecs.T[order]])


@dataclass(frozen=True)
class PrincipalBasis:
    """Mean plus r orthonormal directions with their variances."""

    mean: np.ndarray
    components: np.ndarray  # (r, d)
    eigenvalues: np.ndarray  # (r,)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        comps = np.asarray(self.components, dtype=np.float64)
        eigs = np.asarray(self.eigenvalues, dtype=np.float64)
        if comps.ndim != 2 or comps.shape[0] < 1:
            raise ValueError("components must be a non-empty (r, d) array")
        if mean.shape != (comps.shape[1],) or eigs.shape != (comps.shape[0],):
            raise ValueError("mean/eigenvalue shapes do not match components")
        gram = comps @ comps.T
        if not np.allclose(gram, np.eye(comps.shape[0]), atol=1e-8):
            raise ValueError("components are not orthonormal")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "eigenvalues", eigs)

    @property
    def r(self) -> int:
        return self.components.shape[0]


class NoRowsError(ValueError):
    """Every node holds zero of the rows to be reduced."""


def _runs(values: list, width: int) -> list:
    """`values` cut into consecutive runs of `width`, one run per set."""
    return [values[i:i + width] for i in range(0, len(values), width)]


async def exact_means(ctx: NodeCtx, sets):
    """(n, mean) of each (rows, d) array in `sets`, every set spread over
    the nodes, from one allreduce of each set's exact column sums and row
    count; each mean is rounded once, and is None for a set with no rows
    on any node."""
    sums: list[int] = []
    for rows in sets:
        sums += grouped_sums_fixed(rows) + [len(rows)]
    sums = await ctx.allreduce_sum(sums)
    return [(n, np.array(fixed_to_floats(total, n)) if n else None)
            for *total, n in _runs(sums, sets[0].shape[1] + 1)]


async def exact_covariance(ctx: NodeCtx, sets):
    """(n, mean, C) of each (rows, d) array in `sets`, from two allreduces
    whatever the number of sets.

    After `exact_means`, the second allreduce sums the upper triangle of
    each set's centered cross-products exactly, so every node holds the
    same (d, d) matrix C at any node count, each entry rounded once. C is
    None when every cross-product sum is the integer 0 (all rows equal to
    the mean, or no rows).
    """
    stats = await exact_means(ctx, sets)
    cross: list[int] = []
    for rows, (n, mean) in zip(sets, stats):
        centered = rows - mean if n else rows
        for j in range(rows.shape[1]):  # no n x d^2 product in memory
            cross += grouped_sums_fixed(centered[:, j:] * centered[:, j:j + 1])
    d = sets[0].shape[1]
    upper = np.triu_indices(d)
    out = []
    for (n, mean), part in zip(stats, _runs(await ctx.allreduce_sum(cross),
                                            len(upper[0]))):
        C = None
        if any(part):
            C = np.empty((d, d))
            C[upper] = fixed_to_floats(part, n)
            C.T[upper] = C[upper]
        out.append((n, mean, C))
    return out


def _check_fraction(variance_fraction: float) -> None:
    if not 0.0 < variance_fraction <= 1.0:
        raise ValueError("variance_fraction must lie in (0, 1]")


async def _truncated_basis(ctx: NodeCtx, rows, variance_fraction: float):
    """(n, basis) of the rows spread over the nodes: the smallest basis of
    their exact covariance whose cumulative eigenvalue share reaches the
    target. Raises NoRowsError when no node holds a row."""
    [(n, mean, C)] = await exact_covariance(ctx, [rows])
    if n == 0:
        raise NoRowsError("no rows to average")
    d = mean.shape[0]
    total = 0.0 if C is None else float(np.trace(C))
    if total <= 0.0:
        e0 = np.zeros(d)
        e0[0] = 1.0
        return n, PrincipalBasis(mean, e0[None, :], np.zeros(1))
    evals, axes = principal_axes(C)
    evals = np.maximum(evals, 0.0)
    r = min(d, int(np.sum(np.cumsum(evals) / total < variance_fraction)) + 1)
    return n, PrincipalBasis(mean, axes[:r], evals[:r])


def _pca_of_points(points: np.ndarray, variance_fraction: float) -> PrincipalBasis:
    """Basis of one node's rows: the collective basis on a one-node world."""
    return cpca(CommWorld(1), [points], variance_fraction)


def local_pca(points: np.ndarray, variance_fraction: float):
    """Basis of one node's rows `points` plus the rows projected onto it."""
    if len(points) < 2:
        raise ValueError("local PCA needs at least 2 rows, got %d" % len(points))
    basis = _pca_of_points(points, variance_fraction)
    projected = (points - basis.mean) @ basis.components.T
    return basis, projected


async def _cpca_node(ctx: NodeCtx, points, variance_fraction):
    return (await _truncated_basis(ctx, points, variance_fraction))[1]


def cpca(world: CommWorld, rows, variance_fraction: float) -> PrincipalBasis:
    """Global basis of `rows`, a DataSet or a list of blocks, the same bits
    at any node count: two exact allreduces, then every node solves the
    same matrix."""
    _check_fraction(variance_fraction)
    return world.run(_cpca_node, rows, variance_fraction)[0]


# -- clustering on top of the collective basis ---------------------------


class KMeansLocal:
    """Local clusterer plugin: seeded centralized k-means.

    Runs RESTARTS restarts with derived seeds and keeps the lowest
    objective; a single random init on a small shard falls into bad
    minima often enough to poison the merged result.
    """

    name = "kmeans"
    RESTARTS = 8
    TOL = 1e-9

    def __init__(self, seed: int = 0, max_iter: int = 300):
        self.seed = seed
        self.max_iter = max_iter

    def __call__(self, X: DataSet, k: int) -> np.ndarray:
        best = None
        for i in range(self.RESTARTS):
            params = KMeansParams(k=min(k, X.n), max_iter=self.max_iter,
                                  tol=self.TOL,
                                  seed=int(np.random.default_rng(
                                      (self.seed, i)).integers(2**31)))
            _, part, j, _ = kmeans_centralized(X, params)
            if best is None or j < best[0]:
                best = (j, part.labels)
        return best[1]


class DbscanLocal:
    """Local clusterer plugin: density clustering, k is ignored."""

    name = "dbscan"

    def __init__(self, eps: float, min_pts: int):
        self.params = DbscanParams(eps=eps, min_pts=min_pts)

    def __call__(self, X: DataSet, k: int) -> np.ndarray:
        return dbscan(X, self.params).labels


def _maximin_init(points: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """Deterministic spread-out seeding: heaviest point first, then the
    point farthest from every chosen center. Ties go to the lowest index."""
    chosen = [int(np.argmax(weights))]
    d2 = squared_distances(points, points[chosen])[:, 0]
    while len(chosen) < k:
        nxt = int(np.argmax(d2))
        chosen.append(nxt)
        d2 = np.minimum(d2,
                        squared_distances(points, points[nxt:nxt + 1])[:, 0])
    return points[chosen].copy()


def _merge_sketches(points: np.ndarray, counts: np.ndarray,
                    k: int) -> np.ndarray:
    """Each sketch's group in size-weighted k-means over the sketches.

    Counts are integers, so this is the package's one Lloyd body over the
    sketches repeated `count` times, seeded by `_maximin_init`; a sketch's
    group is that of its first copy. Refusing k above the distinct
    sketches keeps every group non-empty.
    """
    distinct = np.unique(points, axis=0).shape[0]
    if k > distinct:
        raise ValueError("k=%d exceeds the %d distinct cluster sketches"
                         % (k, distinct))
    X = DataSet.from_points(np.repeat(points, counts, axis=0))
    _, part, _, _ = kmeans_centralized(
        X, KMeansParams(k=k), init_centers=_maximin_init(points, counts, k))
    return part.labels[np.cumsum(counts) - counts]


def _representatives(proj: np.ndarray, labels: np.ndarray, reps_per_cluster: int,
                     rng: np.random.Generator) -> list[int]:
    """Per cluster: the row nearest the centroid plus seeded extra samples."""
    rows: list[int] = []
    for c in np.unique(labels[labels != NOISE]):
        members = np.nonzero(labels == c)[0]
        centroid = proj[members].mean(axis=0)
        nearest = members[int(np.argmin(
            row_squared_distances(proj[members], centroid)))]
        rows.append(int(nearest))
        others = members[members != nearest]
        extra = min(reps_per_cluster - 1, others.size)
        if extra > 0:
            rows.extend(int(r) for r in rng.choice(others, size=extra,
                                                   replace=False))
    return rows


def _local_labels(clusterer, rank: int, rows: np.ndarray, k: int, space: str):
    """The clusterer's labels of node `rank`'s rows projected into `space`;
    a failure names the node, its shard and the stage."""
    try:
        return np.asarray(clusterer(DataSet.from_points(rows), k),
                          dtype=np.int64)
    except ValueError as exc:
        raise ValueError("node %d's %d-row shard: local %s clustering "
                         "(k=%d) in the %s PCA space failed: %s"
                         % (rank, rows.shape[0], clusterer.name, k, space,
                            exc)) from None


async def _cpca_cluster_node(ctx: NodeCtx, points, clusterer, k,
                             reps_per_cluster, variance_fraction, seed):
    """One rank's local and global clustering of its block, its sketches
    merged at rank 0; every rank returns (labels, sketches,
    representatives), with the labels at rank 0 only. Raises NoRowsError
    on every rank when no rank has a representative."""
    _, proj_local = local_pca(points, variance_fraction)
    local_labels = _local_labels(clusterer, ctx.rank, proj_local, k,
                                 "node's own")

    rng = np.random.default_rng((seed, ctx.rank))
    rep_rows = _representatives(proj_local, local_labels, reps_per_cluster, rng)
    rep_points = points[rep_rows]  # original space, representatives only
    n_reps, global_basis = await _truncated_basis(ctx, rep_points,
                                                  variance_fraction)
    proj_global = (points - global_basis.mean) @ global_basis.components.T
    refined = _local_labels(clusterer, ctx.rank, proj_global, k, "global")

    # one sketch per local cluster: its centroid and size in the global space
    keep = refined != NOISE
    which = np.unique(refined[keep], return_inverse=True)[1]
    members, counts = proj_global[keep], np.bincount(which)
    centroids = np.empty((len(counts), members.shape[1]))
    for i in range(len(counts)):
        centroids[i] = members[which == i].mean(axis=0)
    all_sketches = await ctx.gather((centroids, counts))
    if ctx.rank == 0:
        first = np.cumsum([0] + [len(c) for _, c in all_sketches])
        group = _merge_sketches(np.vstack([p for p, _ in all_sketches]),
                                np.concatenate([c for _, c in all_sketches]), k)
        groups = [group[first[r]:first[r + 1]] for r in range(ctx.size)]
    else:
        groups = None
    groups = await ctx.broadcast(groups)

    final = np.full(refined.shape[0], NOISE, dtype=np.int64)
    final[keep] = groups[ctx.rank][which]
    return await ctx.gather_rows(final), sum(map(len, groups)), n_reps


def cpca_cluster(world: CommWorld, rows, clusterer, k: int,
                 reps_per_cluster: int = 3, variance_fraction: float = 0.9,
                 seed: int = 0) -> ClusterReport:
    """Cluster in local PCA space, agree on a global basis from the exact
    covariance of every node's representatives, re-cluster in that space,
    and merge per-node cluster sketches with size-weighted k-means at the
    facilitator. `rows` is a DataSet or a list of blocks, as
    `CommWorld.run` takes them."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if reps_per_cluster < 1:
        raise ValueError("reps_per_cluster must be >= 1")
    _check_fraction(variance_fraction)
    blocks = blocks_of(rows, world.size)
    try:
        (labels, n_sketches, n_reps), timings = world.run(
            _cpca_cluster_node, rows, clusterer, k, reps_per_cluster,
            variance_fraction, seed)
    except NoRowsError:
        raise ValueError(
            "no representatives for the global basis: local %s clustering in "
            "each node's own PCA space marked every row as noise on every "
            "shard (%s)" % (clusterer.name, ", ".join(
                "node %d: %d rows" % (r, len(b)) for r, b in enumerate(blocks)))
        ) from None
    return ClusterReport(
        algo="cpca-cluster",
        p=world.size,
        params={"k": k, "reps_per_cluster": reps_per_cluster,
                "variance_fraction": variance_fraction, "seed": seed,
                "local_algo": clusterer.name},
        n=len(labels),
        d=blocks[0].shape[1],
        labels=labels,
        model={"sketches": int(n_sketches), "representatives": int(n_reps)},
        timings_ms=timings,
    )
