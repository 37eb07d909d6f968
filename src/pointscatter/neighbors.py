"""Exact neighbour queries on a uniform cell grid, in numpy alone.

A :class:`CellGrid` keeps its points sorted by the packed key of the
cubic cell each lies in (cell lists, as in Teschner et al., VMV 2003).
A cell is a little wider than the grid's radius, so every point within
the radius of a query lies in the 3 x 3 x 3 block of cells around the
query's cell. The block is nine columns of three z-adjacent cells, and
each column is one contiguous range of the sorted keys, found by binary
search. The points of those ranges are the query's candidates, and each
is decided with the squared distance summed in x, y, z order. So a
query's answer is the one a scan of every point would give, bit for
bit. The searches run one column offset at a time over queries in key
order, so that neighbouring searches take the same path. Candidate
pairs are made in blocks of at most ``BLOCK`` pairs, so no temporary
array grows beyond a few MB.

:func:`nearest_sq` and :func:`mutual_nearest_sq` find the nearest point
at any distance: a grid certifies a query whose nearest candidate lies
within its radius, and the others go to a search over the leaves of a
k-d tree, which reads only the leaves whose boxes come within a bound
of the distance.
:func:`component_labels` links points within a distance and labels
their connected components.
"""

from __future__ import annotations

import numpy as np

# a cell is this much wider than the radius; the rounding of a cell
# index is far smaller, so two points within the radius never lie two
# cells apart on an axis
CELL_MARGIN = 1e-6
# cell indices are clipped to +-(2**20 - 2), so that three of them,
# each moved by one, pack into 21 bits each of one int64 key; clipping
# never moves two indices apart, so it keeps every pair within reach
_BITS = 21
_OFFSET = 1 << (_BITS - 1)
_LIMIT = _OFFSET - 2


def _column(dx: int, dy: int) -> int:
    """Key offset of the column ``dx``, ``dy`` cells away."""
    return (dx << 2 * _BITS) + (dy << _BITS)


# the key offsets of the query's own column, of the four that share a
# face with it, of the four that share an edge, and of the four that
# hold the pairs a point has with the points after it, when each pair is
# to be found from one end only (straight before diagonal)
_OWN = np.zeros(1, dtype=np.int64)
_FACES = np.array([_column(-1, 0), _column(0, -1), _column(0, 1), _column(1, 0)], dtype=np.int64)
_EDGES = np.array([_column(-1, -1), _column(-1, 1), _column(1, -1), _column(1, 1)], dtype=np.int64)
_AFTER = np.array([_column(0, 1), _column(1, 0), _column(1, -1), _column(1, 1)], dtype=np.int64)
_ALL = np.concatenate([_OWN, _FACES, _EDGES])
# candidate pairs per block
BLOCK = 1 << 17
# points per leaf of the searches past a grid's radius
LEAF = 8
# weights that pack three offset cell indices into one key
_PACK = np.array([1 << 2 * _BITS, 1 << _BITS, 1], dtype=np.int64)


def _keys(points: np.ndarray, cell: float) -> np.ndarray:
    """Packed cell keys of (N, 3) points, x major and z minor."""
    idx = np.clip(np.floor(points / cell), -_LIMIT, _LIMIT).astype(np.int64)
    return (idx + _OFFSET) @ _PACK


def runs(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The runs ``lo[i], ..., hi[i] - 1`` of every ``i``, concatenated in order."""
    n = hi - lo
    ends = np.cumsum(n)
    if not len(ends):
        return np.zeros(0, dtype=np.int64)
    return np.arange(ends[-1]) - np.repeat(ends - n - lo, n)


def _sq(rows: np.ndarray, q: np.ndarray, xyz: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Squared distances, summed x, y, z, between the columns ``q`` of
    (3, Q) ``rows`` and the columns ``at`` of (3, M) ``xyz``."""
    (qx, qy, qz), (x, y, z) = rows, xyz
    return (qx[q] - x[at]) ** 2 + (qy[q] - y[at]) ** 2 + (qz[q] - z[at]) ** 2


def _blocks(lo: np.ndarray, hi: np.ndarray, count: int, owner: np.ndarray | None = None):
    """Blocks ``(q, at)`` of the runs ``lo .. hi - 1``: the query of
    each run, ``owner`` or else its index modulo ``count``, and the
    run's positions; at most ``BLOCK`` pairs a block unless one run is
    longer."""
    ends = np.cumsum(hi - lo)
    start = 0
    while start < len(lo):
        done = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, done + BLOCK, side="right")))
        lo_, hi_ = lo[start:stop], hi[start:stop]
        q = owner[start:stop] if owner is not None else np.arange(start, stop) % count
        yield np.repeat(q, hi_ - lo_), runs(lo_, hi_)
        start = stop


class CellGrid:
    """Points sorted by cell, for queries within ``radius``.

    Every pair of a query and a point whose squared distance, summed x,
    y, z, is below ``radius * radius`` (or above it by no more than a
    rounding error) is among the query's candidates. A query's
    candidates are the points in the 27 cells around it, so the relation
    is symmetric. ``xyz`` holds the (3, N) coordinates of ``points`` in
    key order, and ``ids`` each one's row in ``points``. A grid never
    changes once built.
    """

    def __init__(self, radius: float, points: np.ndarray):
        if not radius > 0:
            raise ValueError(f"radius must be positive, got {radius}")
        self.radius = radius
        self.cell = radius * (1.0 + CELL_MARGIN)
        self.ids, self.xyz, self.keys = self._sorted(points)

    def __len__(self) -> int:
        return len(self.keys)

    def _sorted(self, queries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(order, rows, keys)``: the queries' order by cell key, and
        their (3, Q) coordinates and keys in that order."""
        points = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
        keys = _keys(points, self.cell)
        # no answer depends on the order of equal keys
        order = np.argsort(keys)
        return order, np.ascontiguousarray(points.take(order, axis=0).T), keys[order]

    def _ranges(self, keys: np.ndarray, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sorted positions ``lo``, ``hi`` of the given columns around
        each of the ascending ``keys``, one column offset after another."""
        lo = np.searchsorted(self.keys, (keys + (columns[:, None] - 1)).ravel())
        hi = np.searchsorted(self.keys, (keys + (columns[:, None] + 2)).ravel())
        return lo, hi

    def _after(self) -> tuple[np.ndarray, np.ndarray]:
        """The ranges of the later points each point may pair with, each
        pair of points in the ranges of one of them: the rest of its own
        cell and the cell above it, then four of the other columns."""
        own = np.arange(1, len(self) + 1), np.searchsorted(self.keys, self.keys + 2)
        lo, hi = self._ranges(self.keys, _AFTER)
        return np.concatenate([own[0], lo]), np.concatenate([own[1], hi])

    def near_any(self, queries: np.ndarray, bound: float) -> np.ndarray:
        """Mask of queries with a point whose squared distance is below
        ``bound``, which is at most ``radius * radius``. The query's own
        column decides most queries, the four columns beside it most of
        the rest, and only the queries left read the four at its edges."""
        order, rows, keys = self._sorted(queries)
        near = np.zeros(len(keys), dtype=bool)
        rest = np.arange(len(keys) if len(self) else 0)
        for columns in (_OWN, _FACES, _EDGES):
            rest_rows = np.take(rows, rest, axis=1)
            for q, at in _blocks(*self._ranges(keys[rest], columns), len(rest)):
                near[rest[q[_sq(rest_rows, q, self.xyz, at) < bound]]] = True
            rest = rest[~near[rest]]
        near[order] = near.copy()
        return near

    def pairs(self, bound: float) -> tuple[np.ndarray, np.ndarray]:
        """``(i, j)``: the ids of every pair of the grid's points, ``i <
        j``, whose squared distance is below ``bound``."""
        first, second = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        for q, at in _blocks(*self._after(), len(self)):
            hit = _sq(self.xyz, q, self.xyz, at) < bound
            i, j = self.ids[q[hit]], self.ids[at[hit]]
            first.append(np.minimum(i, j))
            second.append(np.maximum(i, j))
        return np.concatenate(first), np.concatenate(second)

    def nearest_sq(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(to_points, to_queries)``: each query's least squared
        distance to a candidate, and each point's, by id, to a query it
        is a candidate of; inf where there is none, and exact where it is
        below ``radius * radius``."""
        order, rows, keys = self._sorted(queries)
        to_points = np.full(len(keys), np.inf)
        to_queries = np.full(len(self), np.inf)
        for q, at in _blocks(*self._ranges(keys, _ALL), len(keys)):
            d2 = _sq(rows, q, self.xyz, at)
            np.minimum.at(to_points, q, d2)
            np.minimum.at(to_queries, at, d2)
        to_points[order] = to_points.copy()
        to_queries[self.ids] = to_queries.copy()
        return to_points, to_queries


def _bounds(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least and greatest coordinate of (N, 3) points on each axis, from
    x, y and z rows, which numpy reduces far faster than columns."""
    rows = np.ascontiguousarray(points.T)
    return rows.min(axis=1), rows.max(axis=1)


def _leaves(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, xyz)``: the rows of (N, 3) ``points`` in the order of
    the leaves of a k-d tree, padded to whole leaves of ``LEAF`` by
    repeating the last row, and their (3, LEAF, N / LEAF) coordinates,
    one column per leaf.

    Each level sorts every node's points along the axis of its widest
    extent, so that its halves are the next level's nodes. Any order
    gives correct answers; a tight one gives small leaf boxes.
    """
    levels = max(0, int(np.ceil(np.log2(len(points) / LEAF))))
    size = LEAF << levels
    order = np.concatenate([np.arange(len(points)), np.full(size - len(points), len(points) - 1)])
    # coordinates scaled into [0, 1) by one factor, so that extents
    # compare and a node's index plus one of them sorts node by node
    lo, hi = _bounds(points)
    unit = (points - lo) / ((hi - lo).max() * (1.0 + 1e-9) + np.finfo(float).tiny)
    for level in range(levels):
        node = size >> level
        p = unit.take(order, axis=0)
        starts = np.arange(0, size, node)
        axis = (np.maximum.reduceat(p, starts) - np.minimum.reduceat(p, starts)).argmax(axis=1)
        key = p.ravel()[np.arange(0, 3 * size, 3) + np.repeat(axis, node)]
        key += np.repeat(np.arange(len(starts)), node)
        order = order[np.argsort(key)]
    return order, np.ascontiguousarray(points.take(order, axis=0).T.reshape(3, -1, LEAF).transpose(0, 2, 1))


def _box_gaps(alo, ahi, blo, bhi) -> np.ndarray:
    """(na, nb) squared gaps between the boxes ``[alo, ahi]`` of one set
    and ``[blo, bhi]`` of another, each (3, n), summed over the axes."""
    gap = np.zeros((alo.shape[1], blo.shape[1]))
    side, other = np.empty_like(gap), np.empty_like(gap)
    for k in range(3):
        np.subtract(blo[k], ahi[k, :, None], out=side)
        np.subtract(alo[k, :, None], bhi[k], out=other)
        np.maximum(side, other, out=side)
        np.maximum(side, 0.0, out=side)
        side *= side
        gap += side
    return gap


def _leaf_pairs(axyz, bxyz, ia, ib, best_a, best_b) -> None:
    """Lower ``best_a`` and ``best_b``, (LEAF, n) by leaf, to the least
    squared distances between the leaves ``ia`` of ``a`` and ``ib`` of
    ``b``, in blocks of at most ``BLOCK`` point pairs; ``best_b`` may be
    None."""
    step = max(1, BLOCK // (LEAF * LEAF))
    slots = np.arange(LEAF)[:, None]
    for s in range(0, len(ia), step):
        la, lb = ia[s : s + step], ib[s : s + step]
        (ax, ay, az), (bx, by, bz) = np.take(axyz, la, axis=2), np.take(bxyz, lb, axis=2)
        to_b, to_a = np.full(ax.shape, np.inf), np.empty(bx.shape)
        d2, term = np.empty_like(ax), np.empty_like(ax)
        for j in range(LEAF):
            np.subtract(ax, bx[j], out=d2)
            d2 *= d2
            for q, p in ((ay, by[j]), (az, bz[j])):
                np.subtract(q, p, out=term)
                term *= term
                d2 += term
            np.minimum(to_b, d2, out=to_b)
            np.minimum.reduce(d2, axis=0, out=to_a[j])
        np.minimum.at(best_a.reshape(-1), (slots * best_a.shape[1] + la).ravel(), to_b.ravel())
        if best_b is not None:
            np.minimum.at(best_b.reshape(-1), (slots * best_b.shape[1] + lb).ravel(), to_a.ravel())


def _leaf_search(a: np.ndarray, b: np.ndarray, best_a: np.ndarray, best_b: np.ndarray | None = None) -> None:
    """Lower ``best_a``, upper bounds on the least squared distance from
    each row of ``a`` to ``b`` (inf where there is none), to the exact
    value, in place; and ``best_b``, if given, from ``b`` to ``a``.

    Both sets go into k-d tree leaves, ``a`` a chunk at a time so that
    the table of gaps between leaf boxes holds at most ``BLOCK``
    entries. Each leaf first reads the leaf of the other set whose box
    is nearest to its own, then every other leaf whose box comes within
    the largest bound of its points, which holds the nearest point of
    each.
    """
    ob, bxyz = _leaves(b)
    nb = bxyz.shape[2]
    bb = best_b[ob].reshape(nb, LEAF).T.copy() if best_b is not None else None
    blo, bhi = bxyz.min(axis=1), bxyz.max(axis=1)
    # a margin far above the rounding of the squared gaps
    margin = 1.0 + 1e-9
    step = max(1, BLOCK // nb) * LEAF
    for s in range(0, len(a), step):
        oa, axyz = _leaves(a[s : s + step])
        na = axyz.shape[2]
        chunk = best_a[s : s + step]
        ba = chunk[oa].reshape(na, LEAF).T.copy()
        gap = _box_gaps(axyz.min(axis=1), axyz.max(axis=1), blo, bhi)
        # each leaf first reads the leaf of the other set with the
        # nearest box, which is then marked read
        ia, ib = [np.arange(na)], [gap.argmin(axis=1)]
        if bb is not None:
            ia.append(gap.argmin(axis=0))
            ib.append(np.arange(nb))
        ia, ib = np.concatenate(ia), np.concatenate(ib)
        _leaf_pairs(axyz, bxyz, ia, ib, ba, bb)
        gap[ia, ib] = np.inf
        read = gap <= ba.max(axis=0)[:, None] * margin
        if bb is not None:
            read |= gap <= bb.max(axis=0) * margin
        _leaf_pairs(axyz, bxyz, *np.nonzero(read), ba, bb)
        chunk[oa] = ba.T.ravel()
    if best_b is not None:
        best_b[ob] = bb.T.ravel()


def nearest_sq(queries: np.ndarray, grid: CellGrid) -> np.ndarray:
    """Squared distance, summed x, y, z, from each (Q, 3) query to its
    nearest point of a non-empty ``grid``, exact at any distance."""
    queries = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
    best = grid.nearest_sq(queries)[0]
    far = np.flatnonzero(~(best < grid.radius * grid.radius))
    if len(far):
        found = best[far]
        _leaf_search(queries[far], np.ascontiguousarray(grid.xyz.T), found)
        best[far] = found
    return best


def mutual_nearest_sq(a: np.ndarray, b: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Least squared distances from each row of ``a`` to ``b`` and from
    each row of ``b`` to ``a``, both (N, 3) and non-empty.

    One candidate pass over a grid of ``radius`` answers the pairs that
    lie that close, and one leaf search, serving both directions, the
    points that lie farther from the other set. When a side of the two
    sets' bounding boxes lies more than ``radius`` from the same side of
    the other, most points are expected farther, and the leaf search
    answers every point alone; either way the answers are exact.
    """
    (alo, ahi), (blo, bhi) = _bounds(a), _bounds(b)
    if max(np.abs(alo - blo).max(), np.abs(ahi - bhi).max()) > radius:
        to_b, to_a = np.full(len(a), np.inf), np.full(len(b), np.inf)
    else:
        to_b, to_a = CellGrid(radius, b).nearest_sq(a)
        if (to_b < radius * radius).all() and (to_a < radius * radius).all():
            return to_b, to_a
    _leaf_search(a, b, to_b, to_a)
    return to_b, to_a


def component_labels(points: np.ndarray, eps: float) -> np.ndarray:
    """The smallest row of each point's connected component, where
    points at a squared distance of at most ``eps * eps`` are linked.

    Each point's links to later points are found a column at a time,
    and the components are joined after each. A column range whose
    points all lie in the point's component already is skipped, which
    spares most ranges of the last, diagonal columns.
    """
    grid = CellGrid(eps, points)
    bound = np.nextafter(eps * eps, np.inf)
    n = len(grid)
    roots = np.arange(n)
    ranges = grid._after()
    # the own column, the column beside it, the one ahead, the diagonals
    for part in np.split(np.arange(len(ranges[0])), [n, 2 * n, 3 * n]):
        (lo, hi), owner = (r[part] for r in ranges), part % n
        # a range with no change of root inside has its first point's
        first = np.minimum(lo, n - 1)
        changes = np.cumsum(np.diff(roots, prepend=-1) != 0)
        joined = (changes[np.maximum(hi - 1, first)] == changes[first]) & (roots[first] == roots[owner])
        keep = (hi > lo) & ~joined
        i, j = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        for q, at in _blocks(lo[keep], hi[keep], n, owner[keep]):
            hit = _sq(grid.xyz, q, grid.xyz, at) < bound
            i.append(q[hit])
            j.append(at[hit])
        roots = _join(roots, np.concatenate(i), np.concatenate(j))
    least = np.full(n, n)
    np.minimum.at(least, roots, grid.ids)
    labels = np.empty(n, dtype=np.int64)
    labels[grid.ids] = least[roots]
    return labels


def _join(roots: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``roots`` with the links ``(i, j)`` joined: each point's label is
    the smallest point of its tree.

    Every label is a root, a point that is its own label. Each round
    hooks the larger root of every link that joins two trees onto the
    smaller, then points every point at its root, until no link joins
    two trees.
    """
    while len(i):
        ri, rj = roots[i], roots[j]
        np.minimum.at(roots, np.maximum(ri, rj), np.minimum(ri, rj))
        while not np.array_equal(up := roots[roots], roots):
            roots = up
        apart = roots[i] != roots[j]
        i, j = i[apart], j[apart]
    return roots
