"""Deterministic DBSCAN over 2-D points plus per-cluster statistics.

Standard DBSCAN semantics with Euclidean distance: a point is core iff its
closed eps-neighborhood (itself included) holds at least ``min_points``
points; clusters are the connected components of the core-point eps-graph
plus border points.  Two choices that the original algorithm leaves
order-dependent are pinned down so results are reproducible bit for bit:

* points are processed in lexicographic (x, then y, then original index)
  order, and cluster ids are numbered by first-visited core point;
* a border point reachable from several clusters joins the cluster of the
  first core point, in that same order, that reaches it.

Both rules depend only on the multiset of coordinates, so shuffling the
input permutes labels without changing the clustering.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import Point2

NOISE = -1


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


def _neighbor_lists_grid(pts: np.ndarray, eps: float) -> list[np.ndarray]:
    # Uniform grid with cells slightly wider than eps; candidates come from the
    # 3x3 block around each point's cell, then get filtered by exact distance.
    # The margin absorbs rounding in that distance test and in pts / side, so
    # a pair the test accepts never lands two cells apart.
    side = eps * (1.0 + 4 * np.finfo(float).eps * (float(np.abs(pts).max()) / eps + 2))
    cells: dict[tuple[int, int], list[int]] = {}
    cell_idx = np.floor(pts / side).astype(np.int64)
    for i, (cx, cy) in enumerate(cell_idx):
        cells.setdefault((int(cx), int(cy)), []).append(i)

    eps2 = eps * eps
    out = []
    for i, (cx, cy) in enumerate(cell_idx):
        candidates = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                candidates.extend(cells.get((int(cx) + dx, int(cy) + dy), ()))
        cand = np.array(candidates, dtype=np.int64)
        d2 = ((pts[cand] - pts[i]) ** 2).sum(axis=1)
        out.append(cand[d2 <= eps2])
    return out


def dbscan(points: np.ndarray, params: DbscanParams) -> ClusterAssignment:
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = pts.shape[0]
    if n == 0:
        return ClusterAssignment(labels=np.empty(0, dtype=np.int64), k=0)
    if not np.all(np.isfinite(pts)):
        raise ValidationError("points", "points must be finite")

    neighbors = _neighbor_lists_grid(pts, params.eps)

    core = np.array([len(nb) >= params.min_points for nb in neighbors])
    labels = np.full(n, NOISE, dtype=np.int64)

    # lex_rank[i] = position of point i in (x, y, index) order.
    order = np.lexsort((np.arange(n), pts[:, 1], pts[:, 0]))
    lex_rank = np.empty(n, dtype=np.int64)
    lex_rank[order] = np.arange(n)

    k = 0
    for i in order:
        if not core[i] or labels[i] != NOISE:
            continue
        labels[i] = k
        stack = [i]
        while stack:
            j = stack.pop()
            for nb in neighbors[j]:
                if core[nb] and labels[nb] == NOISE:
                    labels[nb] = k
                    stack.append(nb)
        k += 1

    for b in range(n):
        if core[b]:
            continue
        core_nbs = [j for j in neighbors[b] if core[j]]
        if core_nbs:
            winner = min(core_nbs, key=lambda j: lex_rank[j])
            labels[b] = labels[winner]

    return ClusterAssignment(labels=labels, k=k)


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
