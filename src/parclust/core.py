"""Dense vector math, clustering objectives, partition metrics, dataset I/O."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exactsum import fixed_to_float, sum_fixed

NOISE = -1


@dataclass(frozen=True)
class DataSet:
    """An n x d float64 matrix; a row is named by its position.

    A rank's block is a run of consecutive rows, and the blocks in rank
    order make up the dataset, so results computed on them are reassembled
    in the original order by concatenation.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] < 1:
            raise ValueError("points must be a 2-D array with at least one column")
        if not np.all(np.isfinite(pts)):
            raise ValueError("dataset contains non-finite values")
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_points(cls, points) -> "DataSet":
        return cls(points)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class Partition:
    """Cluster labels per row; NOISE (-1) marks unclustered points."""

    labels: np.ndarray

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=np.int64)
        if lab.ndim != 1:
            raise ValueError("labels must be a 1-D array")
        if lab.size and lab.min() < NOISE:
            raise ValueError("labels must be >= -1")
        object.__setattr__(self, "labels", lab)

    @property
    def k(self) -> int:
        """Number of distinct non-noise labels."""
        return int(np.unique(self.labels[self.labels != NOISE]).size)

    def __len__(self) -> int:
        return int(self.labels.size)


@dataclass(frozen=True)
class CentroidSet:
    """k cluster centers, one per row."""

    centers: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(self.centers, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] < 1:
            raise ValueError("centers must be a non-empty 2-D array")
        if not np.all(np.isfinite(c)):
            raise ValueError("centers contain non-finite values")
        object.__setattr__(self, "centers", c)

    @property
    def k(self) -> int:
        return self.centers.shape[0]


def squared_euclidean(x, y) -> float:
    """Squared Euclidean distance between two equal-length vectors."""
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch: %s vs %s" % (a.shape, b.shape))
    return float(row_squared_distances(a.reshape(1, -1), b.reshape(1, -1))[0])


#: Distances one step of `squared_distances` scores at once, as rows x
#: centers; blocks this size stay in cache and bound the temporaries.
DISTANCE_BLOCK_CELLS = 1 << 14

# Up to this many centers, rows are scored in (centers, rows) tiles of
# about _FEW_CENTER_TILE_CELLS distances, so numpy's inner loops run over
# rows and not over a handful of centers. On a 2-vCPU AMD EPYC, one core,
# replaying the 40 distance calls of a P=1 lloyd pass (k = 3 or 4) took
# 2.73 ms with 2**12-cell tiles, 2.19 ms with 2**13 and 2.20 ms with 2**14,
# against 4.38 ms in (rows, k) blocks; one 2000 x 8 call with k = 8 took
# 123, 90 and 148 us. A switch at 8 or 32 centers scored the merge pass's
# 103 calls outside the eps sweep no faster than at 16.
_FEW_CENTERS = 16
_FEW_CENTER_TILE_CELLS = 1 << 13


def squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """n x k squared distances from every point to every center, as a
    C-ordered float64 array.

    Each value adds its squared coordinate differences in coordinate order,
    as `row_squared_distances` does, so it depends on its own point and
    center alone: values and ties do not depend on which other points and
    centers are scored with it. Rows go in blocks of about
    DISTANCE_BLOCK_CELLS distances, each scored one coordinate at a time as
    a (rows, k) term. With at most _FEW_CENTERS centers, blocks are
    (k, rows) tiles of about _FEW_CENTER_TILE_CELLS distances instead,
    written transposed into the result: `c - p` squares to the same bits as
    `p - c`, and the terms are added in the same order, so the values are
    the same.
    """
    if points.shape[1] != centers.shape[1]:
        raise ValueError("dimension mismatch: %d vs %d"
                         % (points.shape[1], centers.shape[1]))
    n, k = points.shape[0], centers.shape[0]
    d2 = np.empty((n, k), dtype=np.float64)
    if k == 0:
        return d2
    ct = np.ascontiguousarray(centers.T)
    few = k <= _FEW_CENTERS
    step = max(1, (_FEW_CENTER_TILE_CELLS if few else DISTANCE_BLOCK_CELLS) // k)
    for lo in range(0, n, step):
        pt = np.ascontiguousarray(points[lo:lo + step].T)
        if few:
            d2[lo:lo + step] = _summed_squares(ct, pt).T
        else:
            d2[lo:lo + step] = _summed_squares(pt, ct)
    return d2


def _summed_squares(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a columns, b columns) squared distances between the columns of
    the d-row arrays a and b: each coordinate's squared differences are
    added in turn, coordinate 0 first, with one temporary reused for every
    term."""
    acc = np.subtract(a[0][:, None], b[0])
    acc *= acc
    term = np.empty_like(acc)
    for j in range(1, a.shape[0]):
        np.subtract(a[j][:, None], b[j], out=term)
        term *= term
        acc += term
    return acc


def column_midrange(points: np.ndarray) -> np.ndarray:
    """The midrange of every column (zeros for no rows): an origin from
    which no row's offset exceeds half its column's spread."""
    if len(points) == 0:
        return np.zeros(points.shape[1])
    return points.min(axis=0) / 2 + points.max(axis=0) / 2


def lifted_rows(points: np.ndarray,
                origin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two lifts that `within_squared_distance` and `nearest_centers`
    multiply, of each row's offset x = row - origin: ([x, s, 1],
    [-2x, 1, s]) with s = Σ x_i², so the product of p's left lift and q's
    right lift is |x_p|² + |x_q|² - 2 x_p·x_q = |x_p - x_q|². An origin
    amid the rows (`column_midrange`) keeps s, and so the product's margin,
    small however far the rows lie from zero. A square that overflows
    leaves s infinite."""
    n, d = points.shape
    lhs = np.empty((n, d + 2))
    rhs = np.empty((n, d + 2))
    with np.errstate(over="ignore"):
        x = np.subtract(points, origin, out=lhs[:, :d])
        lhs[:, d] = np.einsum("ij,ij->i", x, x)
        np.multiply(x, -2.0, out=rhs[:, :d])
    lhs[:, d + 1] = 1.0
    rhs[:, d] = 1.0
    rhs[:, d + 1] = lhs[:, d]
    return lhs, rhs


# The product's margin, in units of (d + 2) * 2**-53 * (max s_p + max s_q);
# see product_margin.
_FILTER_C = 8.0
# Above this bound on s_p + s_q the product could overflow, so a call whose
# norms reach it settles no cell and scores every row by squared_distances.
_FILTER_MAX_NORMS = 2.0 ** 1000


def product_margin(lhs: np.ndarray, rhs: np.ndarray) -> float | None:
    """A bound m on |G - D| over every cell of G = lhs @ rhs.T, where D is
    the `squared_distances` value of the cell's row and center; None when
    the norms are too large for the product to be trusted.

    `lhs` and `rhs` are `lifted_rows(points, origin)[0]` and
    `lifted_rows(centers, origin)[1]` with one origin, or slices of the
    lifts of a larger stack.

    The bound, in the standard model with u = 2**-53 and
    γ_n = n u / (1 - n u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Lemma 3.1, Sections 3.1 and 3.5), for rows p and
    q with offsets x and y rounded from p - origin and q - origin, and
    P = Σ x_i² and Q = Σ y_i² in exact arithmetic:
      - each norm is a sum of d rounded squares in any order:
        |s_p - P| <= γ_d P, and the same for q;
      - G is a dot product of length d + 2 in any order, with or without
        FMA, as BLAS may compute it: |G - (s_p + s_q - 2 x·y)| <=
        γ_{d+2} (s_p + s_q + 2 Σ|x_i y_i|) <= γ_{d+2} (s_p + s_q + P + Q);
      - each x_i - y_i is within u (|x_i| + |y_i|) of p_i - q_i (to first
        order), so |x - y|² is within 4 u (P + Q) of |p - q|²;
      - D rounds each difference, each square and d - 1 additions of
        non-negative terms: |D - |p - q|²| <= γ_{d+2} |p - q|², which is
        below 2 γ_{d+2} (P + Q) to first order.
    Summed, |G - D| <= γ_{d+2} (s_p + s_q + 4 (P + Q)) + 4 u (P + Q), below
    6.4 (d + 2) u (s_p + s_q) while (d + 2) u < 2**-20. The margin
    m = _FILTER_C (d + 2) u (max s_p + max s_q) is 1.25 times that, which
    leaves room for the roundings of the thresholds the callers form from
    it. The absolute slack (d + 2) 2**-1070 covers gradual underflow,
    which numpy and BLAS keep: a sum or difference whose result is
    subnormal is exact, and each of the 4d products that may underflow
    errs by at most 2**-1075 more, grown below 2x by the later roundings.
    With max s_p + max s_q above _FILTER_MAX_NORMS (or infinite, when a
    square overflows), the product could overflow, so there is no bound.
    """
    d = lhs.shape[1] - 2
    with np.errstate(over="ignore"):  # an infinite square has no bound
        norms = lhs[:, d].max(initial=0.0) + rhs[:, d + 1].max(initial=0.0)
    if not norms <= _FILTER_MAX_NORMS:
        return None
    return _FILTER_C * (d + 2) * 2.0 ** -53 * norms + (d + 2) * 2.0 ** -1070


def within_squared_distance(points: np.ndarray, centers: np.ndarray,
                            eps2: float, lhs: np.ndarray,
                            rhs: np.ndarray) -> np.ndarray:
    """n x k booleans: `squared_distances(points, centers) <= eps2`, the
    same bit for bit, from one BLAS product and a proven error bound.

    `lhs` and `rhs` are the lifts of `product_margin`, as a sweep computes
    them once for all its blocks. G = lhs @ rhs.T approximates each exact
    distance D, and the margin m settles every cell with G < eps2 - m
    (D < eps2: a hit) or G > eps2 + m (D > eps2: a miss). A row with a cell
    that is neither is scored again by `squared_distances`, which decides
    its open cells only. The roundings of eps2 ± m do not matter: a float
    G below the rounded eps2 - m lies below the exact one, and one above
    the rounded eps2 + m lies above the exact one. Without a margin every
    row is scored exactly; NaN would land in neither test.
    """
    m = product_margin(lhs, rhs)
    if m is None:
        with np.errstate(over="ignore"):  # an infinite square is no neighbour
            return squared_distances(points, centers) <= eps2
    g = lhs @ rhs.T
    hit = g < eps2 - m
    sure = g > eps2 + m
    sure |= hit
    if not sure.all():
        rows = np.flatnonzero(~sure.all(axis=1))
        hit[rows] |= ~sure[rows] & (squared_distances(points[rows],
                                                      centers) <= eps2)
    return hit


def nearest_centers(points: np.ndarray, centers: np.ndarray, lhs: np.ndarray,
                    rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(labels, d2min): each row's nearest center, ties to the lowest index,
    and its squared distance; the same bits as
    `np.argmin(squared_distances(points, centers), axis=1)` and the values
    it picks, from one BLAS product and a proven error bound.

    `lhs` and `rhs` are the lifts of `product_margin`, which bounds
    |G - D| by m for every cell of G = lhs @ rhs.T in any summation order,
    so the product is formed center-major, as Gᵀ = rhs @ lhs.T, and each
    row's least G is one `np.minimum.reduce` over the centers. A row's
    nearest center c has G_c <= D_c + m <= D_j + m <= G_j + 2m for every
    center j, so c is among the row's candidates, the centers with G
    within 2m of its least G. A row with one candidate is settled: that
    candidate is its nearest, and no other center ties with it, because a
    tying center would be a candidate too. Each row is labelled with its
    first candidate (`argmax` of its candidate mask); a mask with no more
    candidates than rows means no row has two.

    The rounded threshold least G + 2m does not drop c: |G - D| is at most
    0.8 m (see product_margin), so G_c is within 1.6 m of the least G, and
    the sum rounds off at most u (least G + 2m). The least G is at most
    about 2 (max s_p + max s_q), so that is below m / 12 + 2u m, well
    inside the remaining 0.4 m. Rows with two or more candidates, or every
    row when there is no margin, are scored by `squared_distances`, and
    take the lowest index among their exact minima. `d2min` is
    `row_squared_distances` of each row and its center.
    """
    m = product_margin(lhs, rhs)
    if m is None:
        labels = np.zeros(len(points), dtype=np.int64)
        open_rows = np.arange(len(points))
    else:
        gt = rhs @ lhs.T
        least = np.minimum.reduce(gt, axis=0)
        least += 2.0 * m
        candidate = gt <= least
        labels = np.argmax(candidate, axis=0)
        open_rows = labels[:0]
        if np.count_nonzero(candidate) > len(points):
            open_rows = np.flatnonzero(np.count_nonzero(candidate, axis=0) > 1)
    if open_rows.size:
        labels[open_rows] = np.argmin(
            squared_distances(points[open_rows], centers), axis=1)
    return labels, row_squared_distances(points, centers[labels])


def row_squared_distances(points: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Each row's squared distance to the same row of `others` (or to
    `others` itself, when it is one row that broadcasts): the
    `squared_distances` value of that pair, bit for bit, as both add the
    squared differences in coordinate order. The sum starts from 0.0,
    which leaves a sum of squares unchanged."""
    diff = points - others
    diff *= diff
    total = np.zeros(diff.shape[0])
    for column in diff.T:
        total += column
    return total


@dataclass(frozen=True)
class KeySortedRows:
    """Rows sorted stably by one key column, for queries over key bands.

    A row within a distance or inside a box of another has its key within
    the same bound, so a query tests only the band of sorted keys that the
    bound admits. `build` keys on the widest column: it spreads the rows
    most, so a band of keys around any value holds the fewest of them; any
    column gives the same query answers.
    """

    col: int
    order: np.ndarray  # row positions in ascending key order
    rows: np.ndarray  # points[order]
    keys: np.ndarray  # rows[:, col], contiguous

    @classmethod
    def build(cls, points: np.ndarray) -> "KeySortedRows":
        col = int(np.argmax(np.ptp(points, axis=0))) if len(points) else 0
        order = np.argsort(points[:, col], kind="stable")
        rows = points[order]
        return cls(col, order, rows, np.ascontiguousarray(rows[:, col]))


#: Labels that one `np.take` of `components` gathers at once. `np.take`
#: casts its indices to intp, so an int32 list gathered in one call would
#: be copied whole at twice its size; chunks bound that copy.
_TAKE_CHUNK = 1 << 15


def components(n: int, u, v, starts=None, keep=None) -> np.ndarray:
    """Each node's smallest component member, over nodes 0..n-1.

    Edge i joins nodes u[i] and v[i], and the list must be symmetric: every
    edge also appears as (v[i], u[i]). Given `starts`, the edges come in
    runs, as a CSR neighbour list holds them: run i joins node u[i] to each
    node of v[starts[i]:starts[i + 1]] (the last run to the end of v), and
    no run is empty. Given `keep`, one bool per node, only edges between
    two kept nodes count, and a node not kept is its own component.

    Rounds of hooking and shortcutting (Shiloach & Vishkin, J. Algorithms
    1982) run until no label moves. Each run takes the least label among
    its v's in one reduceat, and the root of its head's tree drops to the
    least label offered to it; pointer jumping then flattens every tree, so
    each label is a root again. A label only ever falls to a smaller node
    of the same component, so the one root left in each component is its
    smallest member. Edges grouped by u make the fewest runs. Labels are
    int32 below 2**31 nodes, as compact as the scan's neighbour lists. A
    round gathers the labels of v with `np.take` into one buffer reused
    by every round, _TAKE_CHUNK at a time: `np.take` is about twice as
    fast as fancy indexing here, and the chunks keep its intp copy of the
    indices small, so an int32 v costs no copy of its own size. The mode
    "wrap" leaves every node below n as it is and writes straight into the
    buffer, where the default mode "raise" fills it through a copy of its
    own. A node not kept offers the label n to every run, which lowers no
    root, and its own run lowers nothing.
    """
    label = np.arange(n, dtype=np.int32 if n < 2**31 else np.int64)
    u, v = np.asarray(u), np.asarray(v)
    if v.size == 0:
        return label
    if starts is None:
        starts = np.concatenate(([0], np.flatnonzero(u[1:] != u[:-1]) + 1))
        u = u[starts]
    kept = None if keep is None else keep[u]
    offered = np.empty(v.size, dtype=label.dtype)
    while True:
        source = label if keep is None else np.where(keep, label, n)
        for lo in range(0, v.size, _TAKE_CHUNK):
            np.take(source, v[lo:lo + _TAKE_CHUNK],
                    out=offered[lo:lo + _TAKE_CHUNK], mode="wrap")
        least = np.minimum.reduceat(offered, starts)
        roots = label[u]
        lower = least < roots
        if kept is not None:
            lower &= kept
        if not lower.any():
            return label
        np.minimum.at(label, roots[lower], least[lower])
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


def sse_objective(X: DataSet, partition: Partition, centroids: CentroidSet) -> float:
    """Sum of squared distances from each clustered point to its centroid.

    Noise points are excluded. Accumulation is exact, so the value does
    not depend on row blocking.
    """
    labels = partition.labels
    if labels.shape[0] != X.n:
        raise ValueError("partition length does not match dataset")
    mask = labels != NOISE
    if mask.any():
        used = labels[mask]
        if used.max() >= centroids.k or used.min() < 0:
            raise ValueError("label out of range for centroid set")
        d2 = row_squared_distances(X.points[mask], centroids.centers[used])
        return fixed_to_float(sum_fixed(d2))
    return 0.0


def adjusted_rand_index(a: Partition, b: Partition) -> float:
    """Chance-corrected pair-counting agreement between two partitions.

    Noise is treated as an ordinary label. The correction term vanishes
    only when both sides are one and the same set partition (n <= 1, all
    singletons on both sides, or one block on both), and then this
    returns 1.0.
    """
    la, lb = a.labels, b.labels
    if la.shape[0] != lb.shape[0]:
        raise ValueError("partitions have different lengths")
    n = la.shape[0]
    _, ia = np.unique(la, return_inverse=True)
    _, ib = np.unique(lb, return_inverse=True)
    cont = np.zeros((int(ia.max()) + 1 if n else 1, int(ib.max()) + 1 if n else 1),
                    dtype=np.int64)
    np.add.at(cont, (ia, ib), 1)

    def pairs2(m):
        m = m.astype(object)  # python ints, no overflow
        return int(np.sum(m * (m - 1)) // 2)

    sum_ij = pairs2(cont)
    sum_a = pairs2(cont.sum(axis=1))
    sum_b = pairs2(cont.sum(axis=0))
    total = n * (n - 1) // 2
    # ARI scaled through by 2*total to stay in exact integers.
    num = 2 * (total * sum_ij - sum_a * sum_b)
    den = total * (sum_a + sum_b) - 2 * sum_a * sum_b
    if den == 0:
        # den = sum_a*(total - sum_b) + sum_b*(total - sum_a), each pair
        # sum in [0, total]: zero only for equal all-singleton or one-block
        # partitions
        return 1.0
    return num / den


def generate_blobs(seed: int, k: int, per_cluster: int, d: int,
                   spread: float = 1.0, separation: float = 10.0):
    """Seeded isotropic Gaussian blobs with pairwise-separated centers.

    Returns (DataSet, ground-truth Partition). Centers are drawn by
    rejection sampling inside a box that grows if placement stalls, so
    generation is deterministic for a fixed seed and always terminates.
    """
    if k < 1 or per_cluster < 1 or d < 1:
        raise ValueError("k, per_cluster and d must be positive")
    if not (np.isfinite(spread) and np.isfinite(separation)
            and spread > 0 and separation > 0):
        raise ValueError("spread and separation must be finite and positive, "
                         "not %r and %r" % (spread, separation))
    rng = np.random.default_rng(seed)
    side = separation * max(k, 2)
    centers: list[np.ndarray] = []
    rejects = 0
    while len(centers) < k:
        # every squared distance between two centers is at most d * side**2
        if not np.isfinite(d * side * side):
            raise ValueError("no room for %d centers %g apart at d=%d: "
                             "squared distances in a box of side %g overflow "
                             "float64" % (k, separation, d, side))
        cand = rng.uniform(0.0, side, size=d)
        if all(np.linalg.norm(cand - c) >= separation for c in centers):
            centers.append(cand)
        else:
            rejects += 1
            if rejects >= 1000:
                side *= 2.0
                rejects = 0
    blocks = [c + rng.normal(0.0, spread, size=(per_cluster, d)) for c in centers]
    points = np.vstack(blocks)
    labels = np.repeat(np.arange(k, dtype=np.int64), per_cluster)
    return DataSet.from_points(points), Partition(labels)


def load_csv(path) -> DataSet:
    """Read a comma-separated numeric matrix, skipping one optional header.

    A header is detected when any field of row 1 fails to parse as a
    number. Errors name the offending 1-based file row.
    """
    path = Path(path)
    # utf-8-sig drops a leading byte-order mark, which would otherwise
    # make row 1 non-numeric and so be taken for a header
    with open(path, newline="", encoding="utf-8-sig") as fh:
        raw = list(csv.reader(fh))
    if not raw:
        raise ValueError("%s: empty file" % path)

    def parse_row(row, file_row):
        vals = []
        for col, cell in enumerate(row, start=1):
            try:
                v = float(cell)
            except ValueError:
                raise ValueError("%s: non-numeric value %r at row %d, column %d"
                                 % (path, cell, file_row, col)) from None
            if not np.isfinite(v):
                raise ValueError("%s: non-finite value at row %d, column %d"
                                 % (path, file_row, col))
            vals.append(v)
        return vals

    def is_numeric_row(row):
        if not row:
            return False
        for cell in row:
            try:
                float(cell)
            except ValueError:
                return False
        return True

    header = not is_numeric_row(raw[0])
    start = 1 if header else 0
    body = raw[start:]
    if not body:
        raise ValueError("%s: no data rows" % path)
    width = len(body[0])
    rows = []
    for offset, row in enumerate(body):
        file_row = start + offset + 1
        if len(row) != width:
            raise ValueError("%s: expected %d fields but found %d at row %d"
                             % (path, width, len(row), file_row))
        rows.append(parse_row(row, file_row))
    return DataSet.from_points(np.asarray(rows, dtype=np.float64))


def write_csv(X: DataSet, path) -> None:
    """Write points in stored order with 17 significant digits (exact round-trip)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for row in X.points:
            fh.write(",".join("%.17g" % v for v in row))
            fh.write("\n")
