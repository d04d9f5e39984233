"""Box-window clustering with box queries answered over key-sorted shards.

Every rank holds one contiguous block of rows (`blocks_of`) and sorts it
once per call by its widest column, the key, into one column-major copy.
The window phases are one generator of rounds, which rank 0's rule
advances. A window's path of box queries (movement, then enlargement)
depends only on that window and the data (Alevizos, Tasoulis & Vrahatis,
PPAM 2003), so all windows advance in lockstep: each round holds one
request per unfinished window and is one decision (`NodeCtx.decide`):
rank 0's rule joins the rows each block answers, named by dataset
position, and hands every rank the next round's requests. The first
round is drawn before the world runs. A request is the window's box plus
grown bounds on the coordinates asked to grow: none for a movement, and
for an enlargement sweep every trial still open, each of which grows one
coordinate of the same box. A row inside a trial's box is inside the
window's box, or outside it on the trial's coordinate alone and within
that coordinate's grown bounds: the request's shell, each row tagged
with its coordinate. So one band test answers every trial of a sweep,
and the driver reads each trial's size from one count of the tags. Rows
of a request have their key within its grown key bounds, one band of the
sorted block, so only that band is tested, one coordinate row at a time,
and a request with an empty band is not tested at all. A call costs as
many rounds as its longest window path, and every search returns the
same rows for any node count. Windows merge under one matrix of pairwise
overlap extents, with volumes that neither overflow nor underflow.

The balanced multi-dimensional binary tree and its serial walk remain as
a reference search. The tree stores one point per node, cycling the
split coordinate with depth and breaking coordinate ties by row
position, so lookups stay balanced on duplicate data.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .comm import CommWorld, NodeCtx, as_count, dataset_of
from .core import NOISE, DataSet, KeySortedRows, Partition, components
from .kmeans import _init_centers
from .report import ClusterReport


@dataclass(frozen=True)
class RangeQuery:
    """Closed axis-aligned box: lo[t] <= x[t] <= hi[t] on every coordinate."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("query bounds must be 1-D arrays of equal length")
        if np.any(lo > hi):
            raise ValueError("query has lo > hi on some coordinate")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


@dataclass(frozen=True)
class KWindowsParams:
    l: int
    a: float
    theta_move: float = 0.01
    theta_enlarge: float = 0.1
    theta_merge: float = 0.2
    seed: int = 0

    def __post_init__(self):
        as_count(self.l, "window count l")
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError("initial half-width a must be finite and "
                             "positive, not %r" % self.a)
        for name in ("theta_move", "theta_enlarge", "theta_merge"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError("%s must lie in (0, 1)" % name)


class MDBinaryTree:
    """Balanced point tree with index-addressable node arrays."""

    def __init__(self, X: DataSet):
        if X.n < 1:
            raise ValueError("cannot build a tree over an empty dataset")
        self.points = X.points
        self.d = X.d
        n = X.n
        self.point_id = np.empty(n, dtype=np.int64)
        self.axis = np.empty(n, dtype=np.int64)
        self.left = np.full(n, -1, dtype=np.int64)
        self.right = np.full(n, -1, dtype=np.int64)
        self._next = 0
        self.root = self._build(np.arange(n, dtype=np.int64), 0)

    def _build(self, rows: np.ndarray, depth: int) -> int:
        axis = depth % self.d
        order = rows[np.lexsort((rows, self.points[rows, axis]))]
        mid = order.size // 2
        idx = self._next
        self._next += 1
        self.point_id[idx] = order[mid]
        self.axis[idx] = axis
        if mid > 0:
            self.left[idx] = self._build(order[:mid], depth + 1)
        if mid + 1 < order.size:
            self.right[idx] = self._build(order[mid + 1:], depth + 1)
        return idx

    def depth(self) -> int:
        """Height in nodes along the longest root-to-leaf path."""
        best = 0
        stack = [(self.root, 1)]
        while stack:
            node, h = stack.pop()
            best = max(best, h)
            for child in (self.left[node], self.right[node]):
                if child >= 0:
                    stack.append((child, h + 1))
        return best


def orthogonal_range_search(tree: MDBinaryTree, query: RangeQuery) -> set[int]:
    """Single-rank tree walk returning the set of matching rows.

    Children are pruned only on the interval test, never on whether the
    node itself is inside the box.
    """
    if query.lo.size != tree.d:
        raise ValueError("query dimension %d does not match data dimension %d"
                         % (query.lo.size, tree.d))
    lo, hi = query.lo, query.hi
    found: set[int] = set()
    stack = [tree.root]
    while stack:
        idx = stack.pop()
        row = tree.point_id[idx]
        p = tree.points[row]
        if np.all(lo <= p) and np.all(p <= hi):
            found.add(int(row))
        axis = tree.axis[idx]
        c = p[axis]
        # left holds (coord, row) lexicographically below the node, right above,
        # so equal coordinates can appear on either side of the node
        if tree.left[idx] >= 0 and c >= lo[axis]:
            stack.append(int(tree.left[idx]))
        if tree.right[idx] >= 0 and c <= hi[axis]:
            stack.append(int(tree.right[idx]))
    return found


def _round_hits(cols: np.ndarray, col: int, at: np.ndarray,
                requests: np.ndarray) -> list[tuple]:
    """Each request's answer from the block: the dataset rows inside its
    box, and its shell rows with their tags.

    `cols` holds the block's rows sorted by key as a C-contiguous (d, rows)
    array, so `cols[col]` is the sorted key column, and `at` holds their
    dataset rows in that order. `requests` is a (b, 4, d) array: each
    request's box lo and hi, then its grown lo and hi, which contain the
    box's bounds and equal them on every coordinate not asked to grow. The
    shell is the rows within the grown bounds that lie outside the box on
    exactly one coordinate, each tagged with that coordinate; it is empty,
    and not sought, when no coordinate grows. The rows a request answers
    have their key within its grown key bounds, so they lie in the band
    that two binary searches per round find in the sorted keys; only the
    requests with a non-empty band are tested, each over its band alone
    and one coordinate row at a time, so the d tests reduce as d - 1
    contiguous ANDs, and the rows within the grown bounds are counted
    once for the coordinates they lie outside the box on. Every other
    request gets three empty int64 arrays.
    """
    lo, hi, grown_lo, grown_hi = requests.transpose(1, 0, 2)
    start = np.searchsorted(cols[col], grown_lo[:, col], "left").tolist()
    stop = np.searchsorted(cols[col], grown_hi[:, col], "right").tolist()
    grows = np.any((grown_lo < lo) | (grown_hi > hi), axis=1).tolist()
    counts = np.min_scalar_type(cols.shape[0])  # holds 0..d
    hits = [(at[:0],) * 3] * len(requests)
    # bounds: the request's four bounds as (d, 1) columns of the band
    for i, (bounds, a, b) in enumerate(zip(requests[:, :, :, None], start,
                                           stop)):
        if a < b:
            band = cols[:, a:b]
            near = np.logical_and.reduce((band >= bounds[2]) &
                                         (band <= bounds[3]), axis=0)
            rows = at[a:b][near]
            if not grows[i]:  # every row near the box is inside it
                hits[i] = rows, at[:0], at[:0]
                continue
            band = band.compress(near, axis=1)
            outside = (band < bounds[0]) | (band > bounds[1])
            count = np.add.reduce(outside, axis=0, dtype=counts)
            shell = count == 1
            hits[i] = (rows[count == 0], rows[shell],
                       outside[:, shell].argmax(axis=0))
    return hits


async def _search_node(ctx: NodeCtx, points: np.ndarray, rounds, requests):
    """The value `rounds` returns, with every rank answering its rounds of
    box requests, the same loop on every rank.

    `rounds` is a generator already started, whose first round is
    `requests`: a (b, 4, d) array of box and grown bounds as `_round_hits`
    reads them. Each round is one `decide`: every rank answers each
    request from its block, and rank 0's rule sends `rounds` one triple
    of int64 arrays per request, the dataset rows inside its box, its
    shell rows and their tags, each part in no particular order and
    without repeated rows (the blocks are disjoint), and hands every rank
    the next round, or None and the value `rounds` returned. Row i of a
    rank's block `points` is dataset row `ctx.start + i`. Each rank sorts
    its block once, before the first round, and lays it out by column.
    """
    keyed = KeySortedRows.build(points)
    cols = np.ascontiguousarray(keyed.rows.T)
    at = ctx.start + keyed.order

    def step(parts):
        answers = parts[0] if len(parts) == 1 else [  # joined over blocks
            tuple(map(np.concatenate, zip(*each))) for each in zip(*parts)]
        try:
            return rounds.send(answers), None
        except StopIteration as stop:
            return None, stop.value

    while requests is not None:
        requests, out = await ctx.decide(
            _round_hits(cols, keyed.col, at, requests), step)
    return out


def _search(world: CommWorld, rows, rounds):
    """`world.run` of `_search_node` over `rows`: the value the generator
    `rounds` returns and the run's timings. Its first round is drawn here,
    before the world runs."""
    return world.run(_search_node, rows, rounds, next(rounds))


def parallel_range_search(world: CommWorld, tree: MDBinaryTree,
                          query: RangeQuery) -> set[int]:
    """Box search over the tree's rows split into one block per node: one
    round of one request, a `decide`."""
    if query.lo.size != tree.d:
        raise ValueError("query dimension %d does not match data dimension %d"
                         % (query.lo.size, tree.d))
    def one_box(lo, hi):
        return (yield np.array([(lo, hi, lo, hi)]))[0][0]

    hits, _ = _search(world, DataSet(tree.points), one_box(query.lo, query.hi))
    return set(hits.tolist())


def _products(factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's product of its positive factors, taken in order, as a
    mantissa in [0.5, 1) and an integer exponent.

    The running product is renormalized with `np.frexp` after each factor,
    so it never overflows or underflows; scaling by a power of two changes
    no rounding, so wherever the plain float product stays normal,
    mantissa * 2**exponent equals it.
    """
    mant, exp = np.frexp(factors)
    m, e = mant[:, 0], exp.sum(axis=1)
    for t in range(1, factors.shape[1]):
        m, k = np.frexp(m * mant[:, t])
        e += k
    return m, e


def _exceeds(x, y) -> np.ndarray:
    """x > y for the (mantissa, exponent) pairs of `_products`."""
    return (x[1] > y[1]) | ((x[1] == y[1]) & (x[0] > y[0]))


@dataclass
class Window:
    center: np.ndarray
    half_width: np.ndarray
    # dataset rows inside, distinct, in no particular order
    enclosed: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))

    def bounds(self):
        return self.center - self.half_width, self.center + self.half_width

    def request(self, grown=None) -> np.ndarray:
        """The (4, d) box request of this window: its box, then the box of
        half-widths `grown` around the same center, or the box again."""
        lo, hi = self.bounds()
        if grown is None:
            return np.array((lo, hi, lo, hi))
        return np.array((lo, hi, self.center - grown, self.center + grown))


def _move(X: DataSet, params: KWindowsParams, w: Window):
    """Movement from `w.enclosed`, the rows its current box holds, which
    the caller has already queried: re-center on the mean of the enclosed
    rows until the count grows by less than theta_move. A mean equal to
    the center gives the same box, which holds the rows enclosed, a
    growth of 0: it ends the movement without a query."""
    steps = 0
    while w.enclosed.size:
        steps += 1
        if steps > X.n + 1:
            raise RuntimeError("movement failed to stabilize")
        prev = w.enclosed.size
        # ascending row order keeps the mean independent of node count
        center = X.points[np.sort(w.enclosed)].mean(axis=0)
        same = center.tolist() == w.center.tolist()  # 0.0 == -0.0
        w.center = center
        if same:
            break
        w.enclosed, _, _ = yield w.request()
        if w.enclosed.size - prev < params.theta_move * prev:
            break


def _path(X: DataSet, params: KWindowsParams, w: Window):
    """One window's box queries: yields one request per step, is sent its
    answer (the rows inside its box, its shell rows and their tags).

    Until a trial is kept, every enlargement trial grows the same center
    and half-widths, so the trials of all remaining coordinates are one
    request, a sweep: the window's box, grown on those coordinates. A
    trial's box holds the box's rows and the shell rows tagged with its
    coordinate, since it equals the box off that coordinate and contains
    it there, so one count of the tags sizes every trial. The first kept
    trial wins and the trials after it are dropped. A kept enlargement
    keeps its trial's rows, so movement goes on from them without asking
    for that box again. Whether a trial is kept depends only on its box,
    the rows and the window's current box, so the coordinates whose
    trials were refused since the window last changed are not asked
    again: they would be refused again. A kept trial changes the window,
    as its box holds more rows than the window's."""
    d, theta = X.d, params.theta_enlarge
    w.enclosed, _, _ = yield w.request()
    yield from _move(X, params, w)
    refused: set[int] = set()  # since the window last changed
    # safety cap: movement after a kept growth may shed points again
    for _ in range(50):
        kept, t = False, 0
        while t < d and w.enclosed.size:
            # never empty: a keep clears `refused`, and the sweeps
            # after it refuse only coordinates past the kept one
            grown = [s for s in range(t, d) if s not in refused]
            before, t = w.enclosed.size, d
            trial = w.half_width.copy()
            trial[grown] *= 1.0 + theta
            inside, shell, tag = yield w.request(trial)
            # gained[s]: rows trial s holds beyond the window's box
            gained = np.bincount(tag, minlength=d).tolist()
            for s in grown:
                if gained[s] >= theta * before:  # so gained[s] > 0
                    half = w.half_width.copy()
                    half[s] = trial[s]
                    w.half_width = half
                    w.enclosed = np.concatenate((inside, shell[tag == s]))
                    yield from _move(X, params, w)
                    refused.clear()
                    kept, t = True, s + 1
                    break
                refused.add(s)
        if not kept:
            return


def _merge_groups(windows: list[Window], theta_merge: float) -> list[int]:
    """Each window's smallest merged window index under the overlap-volume
    rule.

    Two windows that caught rows merge when they overlap by a positive
    extent on every coordinate and the volume they share exceeds
    theta_merge times the smaller window's; merging is transitive.
    Volumes are `_products` of the extents, so a volume beyond float64's
    range still compares by its true size.
    """
    merged = np.zeros((2, 0), dtype=np.int64)  # pairs of windows, by column
    live = np.array([i for i, w in enumerate(windows) if w.enclosed.size],
                    dtype=np.int64)
    if live.size > 1:
        center = np.array([windows[i].center for i in live])
        half = np.array([windows[i].half_width for i in live])
        lo, hi = center - half, center + half
        # ext[a, b]: the overlap extents of live windows a and b, so
        # ext[a, a] are the widths of window a
        ext = (np.minimum(hi[:, None], hi[None]) -
               np.maximum(lo[:, None], lo[None]))
        a, b = np.nonzero(np.triu(~np.any(ext <= 0, axis=2), 1))
        # inter > theta * min(vol_a, vol_b) holds exactly where it holds
        # for either volume, since a rounded product is monotone
        inter = _products(ext[a, b])
        ok = np.zeros(a.size, dtype=bool)
        for i in (a, b):
            scaled = np.append(ext[i, i], np.full((i.size, 1), theta_merge),
                               axis=1)
            ok |= _exceeds(inter, _products(scaled))
        merged = live[np.stack([a[ok], b[ok]])]
    return components(len(windows), merged.ravel(),
                      merged[::-1].ravel()).tolist()


def _windows(X: DataSet, params: KWindowsParams):
    """The window phases as a generator of rounds, reading the rows of X
    for the seeds and the window means: yields each round's (b, 4, d)
    requests, is sent their answers, and returns (labels, model).

    A window's path (movement, then enlargement with movement after each
    kept growth) depends only on that window and the data, so every live
    window takes one step of its path per round, each step one request,
    and a call costs as many rounds as its longest path. The windows
    then merge and label the rows.
    """
    windows = [Window(c, np.full(X.d, params.a, dtype=np.float64))
               for c in _init_centers(X, params.l, params.seed)]
    live = [(path, next(path))
            for path in (_path(X, params, w) for w in windows)]
    while live:
        answers = yield np.array([asked for _, asked in live])
        step = []
        for (path, _), answer in zip(live, answers):
            try:
                step.append((path, path.send(answer)))
            except StopIteration:
                pass
        live = step
    roots = _merge_groups(windows, params.theta_merge)
    labels = np.full(X.n, NOISE, dtype=np.int64)
    for w, root in zip(windows, roots):
        # a window's rows are distinct, so the order they are claimed in
        # does not matter; earlier windows keep what they claimed, labeled
        # with their group's merge root
        labels[w.enclosed[labels[w.enclosed] == NOISE]] = root
    # a root is its group's smallest window, one that caught rows, so roots
    # come in the groups' order of first appearance; a group can end up
    # owning no points when earlier windows claim everything it covers;
    # compact so labels stay below k, in that order
    owned = labels != NOISE
    labels[owned] = np.searchsorted(np.unique(labels[owned]), labels[owned])
    model = {
        "windows": [{"center": w.center.tolist(),
                     "half_width": w.half_width.tolist(),
                     "count": w.enclosed.size} for w in windows],
    }
    return labels, model


def k_windows(world: CommWorld, rows, params: KWindowsParams) -> ClusterReport:
    """Window clustering of `rows`, a DataSet or a list of blocks, as
    `CommWorld.run` takes them: `_windows` over the whole dataset, its
    first round drawn before the world runs. Each round is one `decide`,
    one collective: its box queries are answered over key-sorted shards,
    and its rule, at rank 0, advances the windows to the next round."""
    X = dataset_of(rows, world.size)
    if params.l > X.n:
        raise ValueError("l=%d exceeds the %d available rows" % (params.l, X.n))
    (labels, model), timings = _search(world, rows, _windows(X, params))
    return ClusterReport(
        algo="kwindows",
        p=world.size,
        params=dataclasses.asdict(params),
        n=X.n,
        d=X.d,
        labels=labels,
        j=None,
        iterations=None,
        model={"k": Partition(labels).k, **model},
        timings_ms=timings,
    )
