"""Planar projective geometry.

Homographies map between the original camera view and a bird's eye view of
the ground plane.  Points are mapped in homogeneous coordinates,
``[u, v, d] = H [x, y, 1]``, with the finite image point ``(u/d, v/d)``.
Mapping, inversion and the singularity check are elementwise arithmetic, with
no BLAS or LAPACK call, so their results do not depend on the BLAS build.
Estimation from point correspondences uses the normalized DLT (Hartley
normalization, SVD of the 2n x 9 system), which does go through LAPACK.
"""

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, ValidationError, json_number

# Longest bounding-box side of a normalized point cloud, in normalized units.
NORMALIZED_EXTENT = 1000.0

_SINGULARITY_RTOL = 1e-12
_PROJECTION_EPS = 1e-12


class SingularProjectionError(ValueError):
    """A point maps to the line at infinity (homogeneous denominator ~ 0)."""


class NonInvertibleMatrixError(ValueError):
    """Matrix is singular within tolerance and cannot act as a homography."""


class DegenerateCorrespondencesError(ValueError):
    """Correspondences do not determine a homography (rank deficiency)."""


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self):
        if not math.isfinite(self.x):
            raise ValidationError("x", f"x coordinate must be finite, got {self.x!r}")
        if not math.isfinite(self.y):
            raise ValidationError("y", f"y coordinate must be finite, got {self.y!r}")


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle stored as center, width, height."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        for field in ("cx", "cy", "w", "h"):
            if not math.isfinite(getattr(self, field)):
                raise ValidationError(field, f"{field} must be finite")
        if self.w <= 0:
            raise ValidationError("w", f"width must be > 0, got {self.w!r}")
        if self.h <= 0:
            raise ValidationError("h", f"height must be > 0, got {self.h!r}")


def boxes_array(boxes: Sequence[Box]) -> np.ndarray:
    """An ``(n, 4)`` float array of the boxes' (cx, cy, w, h) rows."""
    return np.array([(b.cx, b.cy, b.w, b.h) for b in boxes], dtype=float).reshape(-1, 4)


def box_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection over union of (cx, cy, w, h) boxes in ``(..., 4)`` arrays.

    ``a`` and ``b`` broadcast against each other, so ``a[:, None]`` against
    ``b[None]`` gives the full pairwise matrix. Disjoint or touching boxes
    score exactly 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    acx, acy, aw, ah = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bcx, bcy, bw, bh = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    iw = np.minimum(acx + aw / 2.0, bcx + bw / 2.0) - np.maximum(acx - aw / 2.0, bcx - bw / 2.0)
    ih = np.minimum(acy + ah / 2.0, bcy + bh / 2.0) - np.maximum(acy - ah / 2.0, bcy - bh / 2.0)
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    union = aw * ah + bw * bh - inter
    # Rounding can nudge the ratio past 1 for near-identical boxes.
    return np.minimum(inter / union, 1.0)


def _cofactor_matrix(m: np.ndarray) -> np.ndarray:
    # Rows of the cofactor matrix are cross products of the other two rows:
    # det(M) = m[0] . (m[1] x m[2]), so C[0] = m[1] x m[2], cyclically.
    return np.stack(
        [np.cross(m[1], m[2]), np.cross(m[2], m[0]), np.cross(m[0], m[1])]
    )


@dataclass(frozen=True, eq=False)
class Homography:
    """3x3 invertible projective map.

    Stored normalized: scaled so ``m[2][2] == 1`` when that entry is
    non-negligible, otherwise scaled to unit Frobenius norm, so serialized
    matrices are comparable across runs.  Singularity is rejected relative
    to the largest cofactor magnitude, which makes the test insensitive to
    the overall matrix scale.
    """

    m: np.ndarray

    def __post_init__(self):
        m = np.array(self.m, dtype=float)
        if m.shape != (3, 3):
            raise ValidationError("m", f"homography must be 3x3, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValidationError("m", "homography entries must be finite")
        if abs(m[2, 2]) > 1e-12:
            m = m / m[2, 2]
        else:
            norm = math.sqrt((m * m).sum())
            if norm == 0.0:
                raise NonInvertibleMatrixError("zero matrix is not a homography")
            m = m / norm
        cof = _cofactor_matrix(m)
        cof_scale = np.abs(cof).max()
        det = float((m[0] * cof[0]).sum())
        if cof_scale == 0.0 or abs(det) <= _SINGULARITY_RTOL * cof_scale:
            raise NonInvertibleMatrixError(
                f"matrix is singular within tolerance (det={det:.3e})"
            )
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    @classmethod
    def identity(cls) -> "Homography":
        return cls(np.eye(3))

    @classmethod
    def from_flat(cls, values: Sequence[float]) -> "Homography":
        vals = list(values)
        if len(vals) != 9:
            raise ValidationError("m", f"expected 9 row-major values, got {len(vals)}")
        return cls(np.array(vals, dtype=float).reshape(3, 3))

    def flat(self) -> list[float]:
        return [float(v) for v in self.m.ravel()]


def apply_homography_array(h: Homography, points: np.ndarray) -> np.ndarray:
    """Map an (n, 2) array of points through ``h``; raises SingularProjectionError
    on any point whose homogeneous denominator vanishes.

    Each of ``u``, ``v`` and ``d`` is ``(m0 * x + m1 * y) + m2``, one rounded
    numpy operation at a time, so a point maps to the same bits on every
    machine and BLAS build (a matrix product may fuse multiply-adds).
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return pts.reshape(0, 2)
    x, y = pts[:, 0], pts[:, 1]
    u, v, denom = (m0 * x + m1 * y + m2 for m0, m1, m2 in h.m.tolist())
    bad = np.abs(denom) <= _PROJECTION_EPS
    if bad.any():
        idx = int(np.argmax(bad))
        raise SingularProjectionError(
            f"point ({pts[idx, 0]}, {pts[idx, 1]}) projects to infinity (denominator {denom[idx]:.3e})"
        )
    return np.column_stack((u / denom, v / denom))


def invert_homography(h: Homography) -> Homography:
    """The inverse map, built from the adjugate (the inverse up to scale) by
    elementwise arithmetic, so it too has the same bits on every BLAS build."""
    return Homography(_cofactor_matrix(h.m).T)


def _hartley_normalization(pts: np.ndarray) -> np.ndarray:
    """Similarity transform moving the centroid to the origin, mean radius sqrt(2)."""
    centroid = pts.mean(axis=0)
    mean_dist = np.linalg.norm(pts - centroid, axis=1).mean()
    if mean_dist <= 0.0:
        raise DegenerateCorrespondencesError("all points coincide")
    s = math.sqrt(2.0) / mean_dist
    return np.array(
        [[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]]
    )


def estimate_homography_dlt(
    correspondences: Sequence[tuple[Point2, Point2]],
) -> Homography:
    """Estimate H mapping source points onto destination points.

    Normalized DLT: both point sets are Hartley-normalized, each
    correspondence contributes two rows to the 2n x 9 system, and the
    solution is the right singular vector of the smallest singular value.
    Requires at least 4 correspondences with no 3 source points collinear.
    """
    if len(correspondences) < 4:
        raise DegenerateCorrespondencesError(
            f"need at least 4 correspondences, got {len(correspondences)}"
        )
    src = np.array([[p.x, p.y] for p, _ in correspondences], dtype=float)
    dst = np.array([[q.x, q.y] for _, q in correspondences], dtype=float)

    t_src = _hartley_normalization(src)
    t_dst = _hartley_normalization(dst)
    src_n = (np.hstack([src, np.ones((len(src), 1))]) @ t_src.T)[:, :2]
    dst_n = (np.hstack([dst, np.ones((len(dst), 1))]) @ t_dst.T)[:, :2]

    rows = []
    for (x, y), (u, v) in zip(src_n, dst_n):
        rows.append([-x, -y, -1.0, 0.0, 0.0, 0.0, u * x, u * y, u])
        rows.append([0.0, 0.0, 0.0, -x, -y, -1.0, v * x, v * y, v])
    a = np.array(rows)

    _, s, vt = np.linalg.svd(a)
    # A unique solution needs rank 8: the nullspace must be one-dimensional.
    if s[-2] <= 1e-9 * s[0]:
        raise DegenerateCorrespondencesError(
            "correspondences are rank deficient (collinear or coincident points)"
        )
    h_n = vt[-1].reshape(3, 3)
    h = np.linalg.inv(t_dst) @ h_n @ t_src
    try:
        return Homography(h)
    except NonInvertibleMatrixError as exc:
        raise DegenerateCorrespondencesError(
            f"correspondences yield a singular map: {exc}"
        ) from exc


def normalize_point_cloud(points: np.ndarray) -> tuple[np.ndarray, float, Point2]:
    """Translate a cloud to non-negative coordinates and scale it isotropically.

    The bounding box's longest side becomes exactly ``NORMALIZED_EXTENT``
    units; aspect ratio is preserved.  Returns ``(scaled, scale, offset)``
    with ``scaled = (points - offset) * scale``, so originals are recovered
    as ``scaled / scale + offset``.  A cloud of identical points, or one so
    tight that ``NORMALIZED_EXTENT / extent`` overflows a float, maps to the
    origin with scale 1.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValueError(f"expected a non-empty (n, 2) array, got shape {pts.shape}")
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    offset = Point2(float(lo[0]), float(lo[1]))
    extent = float((hi - lo).max())
    scale = NORMALIZED_EXTENT / extent if extent > 0.0 else math.inf
    if math.isinf(scale):
        return np.zeros_like(pts), 1.0, offset
    return (pts - lo) * scale, scale, offset


def _config_point(entry: Mapping, end: str) -> Point2:
    """``entry[end]`` of a correspondence; its first two values must be JSON numbers."""
    return Point2(*(json_number(entry[end][i], f"{end} coordinate") for i in (0, 1)))


def homography_from_config(spec: Mapping) -> Homography:
    """Build a homography from its config representation.

    Accepted forms: ``{"matrix": [9 row-major numbers]}``,
    ``{"correspondences": [{"src": [x, y], "dst": [x, y]}, ...]}`` with at
    least 4 entries (solved by DLT), or ``{"identity": true}``.
    """
    if not isinstance(spec, Mapping):
        raise ConfigError(f"homography config must be an object, got {type(spec).__name__}")
    keys = {k for k in ("matrix", "correspondences", "identity") if k in spec}
    if len(keys) != 1:
        raise ConfigError(
            'homography config needs exactly one of "matrix", "correspondences", "identity"'
        )
    if "identity" in spec:
        if spec["identity"] is not True:
            raise ConfigError('homography "identity" must be true when present')
        return Homography.identity()
    if "matrix" in spec:
        try:
            return Homography.from_flat([json_number(v, "matrix entry") for v in spec["matrix"]])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad homography matrix: {exc}") from exc
    pairs = spec["correspondences"]
    try:
        corr = [(_config_point(c, "src"), _config_point(c, "dst")) for c in pairs]
    except (TypeError, KeyError, IndexError, ValueError) as exc:
        raise ConfigError(f"bad correspondence entry: {exc}") from exc
    try:
        return estimate_homography_dlt(corr)
    except DegenerateCorrespondencesError as exc:
        raise ConfigError(f"cannot solve homography from correspondences: {exc}") from exc
