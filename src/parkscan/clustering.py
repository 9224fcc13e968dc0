"""Deterministic DBSCAN over 2-D points, plus each cluster's members, mean and spread as
arrays in cluster-id order (``cluster_stats``).

Standard DBSCAN semantics with Euclidean distance: a point is core iff its
closed eps-neighborhood (itself included) holds at least ``min_points``
points; clusters are the connected components of the core-point eps-graph
plus border points.  Two choices that the original algorithm leaves
order-dependent are pinned down so results are reproducible bit for bit:

* points are ranked in lexicographic (x, then y, then original index)
  order, and cluster ids are numbered by each cluster's first core point;
* a border point reachable from several clusters joins the cluster of the
  first core point, in that same order, that reaches it.

Both rules depend only on the multiset of coordinates, so shuffling the
input permutes labels without changing the clustering.

The search is exact on one grid of square cells just under eps/(2*sqrt(2))
wide.  Two points in cells at most one apart on both axes (a cell's 3x3
block) are within eps, and two points in cells four or more apart on an axis
are farther apart than eps, so a point's neighbour count lies between the
point counts of its cell's 3x3 and 7x7 blocks.  A cell whose 3x3 count
reaches ``min_points`` is all core, and one whose 7x7 count falls short holds
no core point.  Distances are computed only where these bounds leave the
answer open: for the points of cells between the two bounds, for core cells
in each other's 7x7 but not 3x3 block that the 3x3 links leave in different
components, and for border points.  There each neighbouring cell is bounded
once more from the point itself, and only cells that straddle its eps circle
are scanned.  Core cells in each other's 3x3 block are joined with no
distance check.  Coordinates are first scaled by the power of two that puts
eps in [0.5, 1); that is exact and keeps every square finite.  The cell side
leaves room for the rounding of ``p / side``, which grows with max
|coordinate| / eps, so every bound holds for the ``d2 <= eps*eps`` test as
computed.  Distances are computed in runs of bounded length, so memory grows
with the cell occupancy, never with its square.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

NOISE = -1

# The 7x7 block of cell offsets, the 3x3 block first.
_OFFSETS = np.array(sorted(((dx, dy) for dx in range(-3, 4) for dy in range(-3, 4)),
                           key=lambda o: max(map(abs, o))))
_CENTRES = _OFFSETS + 0.5  # each offset cell's centre, from the low corner of the cell it is offset from
_NEAR = 9  # offsets in the 3x3 block
_FORWARD = np.array([t for t, o in enumerate(_OFFSETS.tolist()) if o > [0, 0]])  # each pair of cells once
_CHUNK = 1 << 13  # distance entries, or point-cell bounds, per run
# A point-cell bound decides without distances only when it clears eps by this relative margin,
# far more than the rounding of the bound and of the distance test.
_MARGIN = 2.0**-40


@dataclass(frozen=True)
class DbscanParams:
    eps: float
    min_points: int

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValidationError("eps", f"eps must be finite and > 0, got {self.eps!r}")
        if int(self.min_points) != self.min_points or self.min_points < 1:
            raise ValidationError(
                "min_points", f"min_points must be an integer >= 1, got {self.min_points!r}"
            )


@dataclass(frozen=True)
class ClusterAssignment:
    """Per-point labels (NOISE or 0..k-1) and the cluster count k."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        non_noise = labels[labels != NOISE]
        if non_noise.size:
            present = np.unique(non_noise)
            if present[0] < 0 or present[-1] >= self.k or len(present) != self.k:
                raise ValidationError("labels", "cluster ids must be contiguous 0..k-1")
        elif self.k != 0:
            raise ValidationError("k", "k must be 0 when all points are noise")


def _runs(first: np.ndarray, cells: np.ndarray):
    """``(i, j)`` with ``j`` running from ``first[cells[i]]`` up to ``first[cells[i] + 1]`` for
    each ``i``, in runs of about ``_CHUNK`` entries (one cell's entries are never split)."""
    lens = first[cells + 1] - first[cells]
    ends = np.cumsum(lens)
    shift = first[cells] - (ends - lens)
    s = 0
    while s < len(cells):
        base = ends[s] - lens[s]
        e = max(s + 1, int(np.searchsorted(ends, base + _CHUNK, side="right")))
        i = np.repeat(np.arange(s, e), lens[s:e])
        yield i, np.arange(base, ends[e - 1]) + shift[i]
        s = e


def _components(size: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each node's smallest connected node, for the undirected edges ``a[i]``-``b[i]``."""
    root = np.arange(size)
    while a.size:
        ra, rb = root[a], root[b]
        apart = ra != rb
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))  # hook roots onto smaller ones
        while not np.array_equal(up := root[root], root):
            root = up
    return root


def dbscan(points: np.ndarray, params: DbscanParams) -> ClusterAssignment:
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n, eps, min_points = pts.shape[0], params.eps, params.min_points
    if not np.all(np.isfinite(pts)):
        raise ValidationError("points", "points must be finite")
    far = float(np.abs(pts).max(initial=0.0))
    if not far < eps * 2.0**47:
        raise ValidationError("eps", f"eps {eps!r} is below 2**-47 of the largest |coordinate|, {far!r}")
    if n == 0:
        return ClusterAssignment(labels=np.empty(0, dtype=np.int64), k=0)

    # In lex order a point's index is its rank under both tie rules.
    lex = np.lexsort((np.arange(n), pts[:, 1], pts[:, 0]))
    # Scaling by a power of two is exact (a coordinate far below eps may lose bits that never
    # reach a distance test), and with eps in [0.5, 1) no square can overflow.
    scale = -math.frexp(eps)[1]
    eps, far = math.ldexp(eps, scale), math.ldexp(far, scale)
    pts = pts[lex]
    np.ldexp(pts, scale, out=pts)

    # p / side is off by at most half an ulp of 3 * far / eps > far / side, so a point lies at
    # most `slack` cells outside the cell it is put in; slack <= 2**-5 under the guard above.
    # Two points of a 3x3 block are then at most (2 + 2 * slack) * side apart on each axis, so
    # within eps with a margin (the 2**-46 term) for the rounding of the distance test. Two
    # points of cells four apart on an axis are at least (3 - 2 * slack) * side > 1.007 * eps
    # apart.
    slack = float(np.spacing(3.0 * far / eps)) / 2
    side = eps / (2 * math.sqrt(2.0) * (1 + slack + 2.0**-46))
    cell = np.floor(pts / side).view(complex)[:, 0]  # complex keys sort cells in (x, y) order
    keys, cell, counts = np.unique(cell, return_inverse=True, return_counts=True)
    # From here on points are in cell order and, within a cell, in lex order.
    rank = np.argsort(cell, kind="stable")
    pts, cell = pts[rank], cell[rank]
    k = len(keys)
    # Cell k is an empty stand-in for the cells that hold no points.
    start = np.r_[0, np.cumsum(counts), n]
    sizes = np.r_[counts, 0]
    block = np.empty((len(_OFFSETS), k), dtype=np.intp)  # each cell's 7x7 block of cells
    for t, (dx, dy) in enumerate(_OFFSETS.tolist()):
        q = keys + complex(dx, dy)
        j = np.minimum(np.searchsorted(keys, q), k - 1)
        block[t] = np.where(keys[j] == q, j, k)

    eps2 = eps * eps
    radius2 = (eps / side) ** 2  # eps in cells, squared

    def within(p, q):
        d = pts.take(p, axis=0)
        d -= pts.take(q, axis=0)
        d *= d
        return d[:, 0] + d[:, 1] <= eps2

    def bounds(p, t):
        """For each point p[i], the cell at offset _OFFSETS[t[i]] from its own (k if empty), and
        whether all of that cell's points are within eps of it and whether any may be."""
        h = pts.take(p, axis=0) / side
        h -= np.floor(h)
        h -= _CENTRES.take(t, axis=0)
        np.abs(h, out=h)  # from the cell's centre to the point on each axis, in cells
        reach = h + (0.5 + 2 * slack)
        reach *= reach
        h -= 0.5 + 2 * slack
        np.maximum(h, 0.0, out=h)  # the gap between the point and the cell
        h *= h
        inside = reach[:, 0] + reach[:, 1] <= radius2 * (1 - _MARGIN)
        return block[t, cell[p]], inside, h[:, 0] + h[:, 1] <= radius2 * (1 + _MARGIN)

    def against_block(p):
        """Each point of p paired with each cell of its 7x7 block, in runs of bounded length."""
        step = max(1, _CHUNK // len(_OFFSETS))
        for s in range(0, len(p), step):
            chunk = p[s : s + step]
            yield chunk, np.repeat(chunk, len(_OFFSETS)), np.tile(np.arange(len(_OFFSETS)), len(chunk))

    # A cell whose 3x3 block holds min_points points is all core; the points of cells between
    # that and their 7x7 bound are counted one by one.
    inner = sizes[block[:_NEAR]].sum(axis=0)
    core = np.repeat(inner >= min_points, counts)
    between = (inner < min_points) & (sizes[block].sum(axis=0) >= min_points)
    for chunk, p, t in against_block(np.flatnonzero(between[cell])):
        d, inside, may = bounds(p, t)
        count = (sizes[d] * inside).reshape(len(chunk), -1).sum(axis=1)
        # Only a point that its cells' bounds leave undecided gets distances.
        most = (sizes[d] * may).reshape(len(chunk), -1).sum(axis=1)
        undecided = (count < min_points) & (most >= min_points)
        open_ = np.flatnonzero(may & ~inside & np.repeat(undecided, len(_OFFSETS)))
        for i, j in _runs(start, d[open_]):
            hit = open_[i[within(p[open_[i]], j)]]
            count += np.bincount(hit // len(_OFFSETS), minlength=len(chunk))
        core[chunk] = count >= min_points

    # Core points per cell, and each cell's first core point's lex rank (n if it holds none).
    core_at = np.flatnonzero(core)
    core_start = np.searchsorted(core_at, start)
    has_core = core_start[1:] > core_start[:-1]
    lead = np.where(has_core, np.r_[rank[core_at], n][core_start[:-1]], n)

    def first_core(p, t):
        """Lex rank of the first core point within eps of p[i] in the cell at offset t[i], or n."""
        d, inside, may = bounds(p, t)
        first = np.where(inside, lead[d], n)
        open_ = np.flatnonzero(may & ~inside & (lead[d] < first))
        for i, j in _runs(core_start, d[open_]):
            q = core_at[j]
            hit = within(p[open_[i]], q)
            np.minimum.at(first, open_[i[hit]], rank[q[hit]])
        return first

    # Core cells in each other's 3x3 block are linked outright; farther pairs in the 7x7 block
    # that those links leave apart are linked when a core point of one has a core point of the
    # other within eps.
    t, c = np.nonzero(has_core[block[_FORWARD]] & has_core[:k])
    t = _FORWARD[t]
    e = block[t, c]
    linked = t < _NEAR
    comp = _components(k, c[linked], e[linked])
    apart = np.flatnonzero(~linked & (comp[c] != comp[e]))
    for i, j in _runs(core_start, c[apart]):
        linked[apart[i[first_core(core_at[j], t[apart[i]]) < n]]] = True
    comp = _components(k, c[linked], e[linked])

    # Number components by their lex-first core point; border points take the label of their
    # lex-first core point within eps.
    earliest = np.full(k, n)
    np.minimum.at(earliest, comp[has_core[:k]], lead[:k][has_core[:k]])
    roots = np.flatnonzero(earliest < n)
    ids = np.empty(k, dtype=np.int64)
    ids[roots[np.argsort(earliest[roots])]] = np.arange(len(roots))
    labels = np.full(n, NOISE, dtype=np.int64)
    labels[rank[core]] = ids[comp[cell[core]]]
    reached = has_core[block].any(axis=0)
    for chunk, p, t in against_block(np.flatnonzero(~core & reached[cell])):
        best = first_core(p, t).reshape(len(chunk), len(_OFFSETS)).min(axis=1)
        hit = best < n
        labels[rank[chunk[hit]]] = labels[best[hit]]
    out = np.empty(n, dtype=np.int64)
    out[lex] = labels
    return ClusterAssignment(labels=out, k=len(roots))


def cluster_stats(points: np.ndarray, assignment: ClusterAssignment) -> tuple[list, np.ndarray, np.ndarray]:
    """Members, means and spreads of the clusters, in cluster-id order; noise is excluded.

    ``members`` lists each cluster's point indices in ascending order, ``means`` is (k, 2) and
    ``spreads`` is (k,).  Spread is the sum of the population standard deviations of the x and y
    coordinates, which is 0 for singletons and for coincident points.  Each cluster is reduced at a
    power-of-two scale at which no sum overflows, 2**0 unless one would at the points' own scale.
    Such a scaling is exact unless it takes a value below 2**-1022, so the results are those of
    the unscaled reduction.  A spread beyond the float range raises :class:`ValidationError`.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] != assignment.labels.shape[0]:
        raise ValidationError("assignment", "assignment does not match the point count")
    if assignment.k == 0:
        return [], np.empty((0, 2)), np.empty(0)
    # One stable sort groups each cluster's members in ascending index order; noise sorts first.
    order = np.argsort(assignment.labels, kind="stable")
    bounds = np.searchsorted(assignment.labels[order], np.arange(assignment.k + 1))
    order, bounds = order[bounds[0] :], bounds - bounds[0]
    spans = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    counts, grouped = np.diff(bounds), pts[order]
    # Per cluster, the least k >= 0 at which its values times 2**-k can be shifted, summed, and have
    # their squared deviations summed without overflow: with n < 2**b members and |values| < 2**e,
    # every sum is below 2**(b + 2 * (e - k) + 4) <= 2**1023.
    peaks = np.maximum.reduceat(np.abs(grouped), bounds[:-1]).max(axis=1)
    exponents = np.maximum(0, (np.frexp(counts)[1] + 2 * np.frexp(peaks)[1] - 1018) // 2)
    grouped = np.ldexp(grouped, -np.repeat(exponents, counts)[:, None])
    means, spreads = [], []
    for a, b in spans:
        cluster = grouped[a:b]
        # Shift by a member point before reducing: coincident points then give
        # exactly zero spread instead of summation-rounding residue.
        centered = cluster - cluster[0]
        means.append(cluster[0] + centered.mean(axis=0))
        spreads.append(centered[:, 0].std() + centered[:, 1].std())
    with np.errstate(over="ignore"):
        spreads = np.ldexp(spreads, exponents)
    if not np.isfinite(spreads).all():
        raise ValidationError("detections", "a cluster of detection centers spreads beyond the float range")
    return [order[a:b] for a, b in spans], np.ldexp(means, exponents[:, None]), spreads
