"""Deterministic DBSCAN over 2-D points plus per-cluster statistics.

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

The search is exact on a grid of square cells just under eps/sqrt(2) wide;
the rounding margin grows with max |coordinate| / eps, so two points in one
cell always pass the ``d2 <= eps*eps`` test and a cell holding ``min_points``
points is all core.  Points in other cells are counted against the 5x5
block of cells around theirs, corners included: a pair exactly eps apart
(the ball is closed) can sit in cells two apart on both axes.  Core cells
are joined by union-find when any core pair between them is within eps.
Distances are computed in row chunks of bounded size, so memory grows with
the cell occupancy, never with its square.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import Point2

NOISE = -1

# The 5x5 block of cell offsets, nearest ring first, as complex cell keys.
_OFFSETS = sorted(((dx, dy) for dx in range(-2, 3) for dy in range(-2, 3)), key=lambda o: max(map(abs, o)))
_BLOCK = np.array([complex(*o) for o in _OFFSETS])
_FORWARD = [t for t, o in enumerate(_OFFSETS) if o > (0, 0)]  # each pair of distinct cells once
_CHUNK = 1 << 16  # distance-matrix entries per chunk


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


@dataclass(frozen=True, eq=False)
class ClusterStats:
    cluster_id: int
    mean: Point2
    spread: float
    member_indices: np.ndarray  # ascending point indices


def _within(pts: np.ndarray, rows: np.ndarray, cols: np.ndarray, eps: float):
    """``(chunk, d2 <= eps*eps)`` for bounded chunks of ``rows``, each against all of ``cols``."""
    step, c = max(1, _CHUNK // max(1, len(cols))), pts[cols]
    for s in range(0, len(rows), step):
        chunk = rows[s : s + step]
        dx, dy = pts[chunk, 0, None] - c[:, 0], pts[chunk, 1, None] - c[:, 1]
        yield chunk, dx * dx + dy * dy <= eps * eps


def dbscan(points: np.ndarray, params: DbscanParams) -> ClusterAssignment:
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n, eps, min_points = pts.shape[0], params.eps, params.min_points
    if not np.all(np.isfinite(pts)):
        raise ValidationError("points", "points must be finite")
    far = float(np.abs(pts).max(initial=0.0))
    if not far < eps * 2.0**47:
        raise ValidationError("eps", f"eps {eps!r} is below 2**-47 of the largest |coordinate|, {far!r}")

    # In lex order a point's index is its rank under both tie rules.
    lex = np.lexsort((np.arange(n), pts[:, 1], pts[:, 0]))
    pts = pts[lex]
    side = eps * (1.0 - 4 * np.finfo(float).eps * (far / eps + 2)) / math.sqrt(2.0)
    cells = np.floor(pts / side).view(complex)[:, 0]  # complex keys sort cells in (x, y) order
    keys, cell_of, counts = np.unique(cells, return_inverse=True, return_counts=True)
    # Cell len(keys) is an empty stand-in for the cells that hold no points.
    members = np.split(np.argsort(cell_of, kind="stable"), np.cumsum(counts))
    counts = np.r_[counts, 0]
    q = keys[:, None] + _BLOCK
    j = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
    block = np.where(keys[j] == q, j, len(keys))  # each cell's 5x5 block of cells

    # A cell holding min_points points is all core; points of sparser cells are counted.
    core = counts[cell_of] >= min_points
    for c in np.flatnonzero((counts[:-1] < min_points) & (counts[block].sum(axis=1) >= min_points)):
        for chunk, w in _within(pts, members[c], np.concatenate([members[d] for d in block[c]]), eps):
            core[chunk] = w.sum(axis=1) >= min_points

    cores = [m[core[m]] for m in members]
    core_counts = np.bincount(cell_of[core], minlength=len(counts))
    parent = list(range(len(keys)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    # Adjacent cells go first, so most pairs two cells apart are joined already.
    for t in _FORWARD:
        for c, d in block[(core_counts[:-1] > 0) & (core_counts[block[:, t]] > 0)][:, [0, t]].tolist():
            a, b = find(c), find(d)
            if a != b and any(w.any() for _, w in _within(pts, cores[c], cores[d], eps)):
                parent[a] = b

    # Number components by their lex-first core point; border points take the label
    # of their lex-first core point within eps.
    roots = np.array([find(c) for c in range(len(keys))])[cell_of[core]]
    _, first, inverse = np.unique(roots, return_index=True, return_inverse=True)
    labels = np.full(n, NOISE, dtype=np.int64)
    labels[core] = np.argsort(np.argsort(first))[inverse]
    for c in np.flatnonzero((core_counts < counts)[:-1] & (core_counts[block].sum(axis=1) > 0)):
        mine, cand = members[c][~core[members[c]]], np.concatenate([cores[d] for d in block[c]])
        for chunk, w in _within(pts, mine, cand, eps):
            lex_first = np.where(w, cand, n).min(axis=1)
            hit = lex_first < n
            labels[chunk[hit]] = labels[lex_first[hit]]
    return ClusterAssignment(labels=labels[np.argsort(lex)], k=len(first))


def cluster_stats(points: np.ndarray, assignment: ClusterAssignment) -> list[ClusterStats]:
    """Mean and spread per cluster, ordered by cluster id; noise is excluded.

    Spread is the sum of the population standard deviations of the x and y
    coordinates, which is 0 for singletons and for coincident points.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] != assignment.labels.shape[0]:
        raise ValidationError("assignment", "assignment does not match the point count")
    stats = []
    for cid in range(assignment.k):
        members = np.flatnonzero(assignment.labels == cid)
        cluster = pts[members]
        # Shift by a member point before reducing: coincident points then give
        # exactly zero spread instead of summation-rounding residue.
        centered = cluster - cluster[0]
        mean = cluster[0] + centered.mean(axis=0)
        spread = float(centered[:, 0].std() + centered[:, 1].std())
        stats.append(
            ClusterStats(
                cluster_id=cid,
                mean=Point2(float(mean[0]), float(mean[1])),
                spread=spread,
                member_indices=members,
            )
        )
    return stats
