"""Slot detection: bird's-eye transform, clustering, spread filtering, back-projection.

Pipeline order: pool all detection centers, map them through the configured
homography, run DBSCAN on the bird's-eye points, compute each cluster's
members, mean and spread as arrays, drop spread outliers with the IQR rule,
keep the ``n_bottom`` smallest-spread candidates, and back-project each
surviving cluster mean with the inverse homography.  eps, cluster means and
spreads are in bird's-eye units; slot areas are the mean member bounding-box
sizes in original-view pixels.
"""

import json
import math
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence, Union

import numpy as np

from .clustering import NOISE, DbscanParams, cluster_stats, dbscan
from .detections import DetectionLog
from .errors import ValidationError, json_number
from .geometry import (
    Box,
    Homography,
    Point2,
    apply_homography_array,
    invert_homography,
)

# Defaults used when the config leaves DBSCAN parameters unset.  eps is this
# fraction of the longest side of the bird's-eye cloud, so it follows the
# camera's scale; min_points scales with the frame count because a slot must
# be occupied in enough frames to form a dense cluster.
DEFAULT_EPS_FRACTION = 0.015
MIN_POINTS_FLOOR = 3
MIN_POINTS_FRAME_FRACTION = 0.10

# The candidate table: one row per cluster, in id order, with its spread and member count,
# whether the IQR fence kept it, and whether it was ranked among the n_bottom slots.
CANDIDATE_DTYPE = np.dtype([("spread", float), ("members", np.int64), ("kept", bool), ("selected", bool)])


class EmptyInputError(ValueError):
    """No detections at all across the input frames."""


@dataclass(frozen=True)
class SlotDetectionConfig:
    n_bottom: int
    homography: Homography = field(default_factory=Homography.identity)
    eps: Union[float, None] = None
    min_points: Union[int, None] = None

    def __post_init__(self):
        check_detection_parameters(self.n_bottom, self.eps, self.min_points)


def check_detection_parameters(n_bottom, eps, min_points) -> None:
    """``n_bottom`` a whole number >= 1, ``eps`` finite and > 0 and ``min_points`` >= 1, each
    unless None: :class:`SlotDetectionConfig`'s rules, which the run config applies at load."""
    if n_bottom is not None and (int(n_bottom) != n_bottom or n_bottom < 1):
        raise ValidationError("n_bottom", f"n_bottom must be >= 1, got {n_bottom!r}")
    if eps is not None and not (math.isfinite(eps) and eps > 0):
        raise ValidationError("eps", f"eps must be finite and > 0, got {eps!r}")
    if min_points is not None and min_points < 1:
        raise ValidationError("min_points", f"min_points must be >= 1, got {min_points!r}")


@dataclass(frozen=True)
class ParkingSlot:
    """One slot: its id, its area in original-view pixels, and its cluster's stats."""

    slot_id: int
    area: Box
    spread: float
    members: int

    @property
    def center(self) -> Point2:
        return Point2(self.area.cx, self.area.cy)


@dataclass(frozen=True, eq=False)
class SlotDetectionOutcome:
    """Slots plus the diagnostics and plot-ready intermediates the CLI reports."""

    slots: tuple[ParkingSlot, ...]
    noise_points: int
    iqr_discarded: int
    shortfall: bool
    eps: float
    min_points: int
    birdseye_points: np.ndarray
    labels: np.ndarray
    candidates: np.ndarray  # CANDIDATE_DTYPE


def default_eps(points: np.ndarray) -> float:
    """``DEFAULT_EPS_FRACTION`` of the cloud's longest side, but above 2**-47 of its largest
    |coordinate|, the finest eps that DBSCAN resolves. Coincident points cluster the same way
    under any eps; they get 1.0 where that is fine enough."""
    with np.errstate(over="ignore"):
        extent = float(np.ptp(points, axis=0).max())
    if not math.isfinite(extent):
        raise ValidationError(
            "detections", "the detection centers span more than the float range in the bird's-eye "
            "view, so eps has no default; set eps in the run config"
        )
    floor = math.nextafter(math.ldexp(float(np.abs(points).max()), -47), math.inf)
    return max(DEFAULT_EPS_FRACTION * extent or 1.0, floor)


def default_min_points(frame_count: int) -> int:
    return max(MIN_POINTS_FLOOR, math.ceil(MIN_POINTS_FRAME_FRACTION * frame_count))


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    # Linear interpolation at fractional position q * (n - 1).
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    frac = pos - lo
    if frac == 0.0:
        return float(sorted_values[lo])
    return float(sorted_values[lo] + (sorted_values[lo + 1] - sorted_values[lo]) * frac)


def iqr_filter(values: Sequence[float]) -> set[int]:
    """Indices of values at or below the upper fence Q3 + 1.5*IQR.

    Only high-spread outliers are dropped: as frames accumulate, real slot
    spreads concentrate, and a lower fence would start cutting the tightest
    (best) clusters.
    """
    if len(values) == 0:
        raise ValueError("values must be non-empty")
    ordered = sorted(values)
    q1 = _quantile(ordered, 0.25)
    q3 = _quantile(ordered, 0.75)
    hi = q3 + 1.5 * (q3 - q1)
    return {i for i, v in enumerate(values) if v <= hi}


def select_n_bottom(spread: np.ndarray, members: np.ndarray, n_bottom: int) -> tuple[np.ndarray, bool]:
    """Indices of the ``n_bottom`` smallest spreads, in rank order, plus a shortfall flag.

    Ties on spread are broken by larger member count, then smaller index, so the
    ranking is a strict order.
    """
    return np.lexsort((-members, spread))[:n_bottom], len(spread) < n_bottom


def run_slot_detection(log: DetectionLog, config: SlotDetectionConfig) -> SlotDetectionOutcome:
    if len(log.detections) == 0:
        raise EmptyInputError("no detections in any input frame")
    cx, cy, widths, heights = (log.detections[name] for name in ("cx", "cy", "w", "h"))
    # Canonical point order (cx, then cy, w, h): downstream means and cluster
    # ids then depend only on the multiset of detections, not on their order.
    order = np.lexsort((heights, widths, cy, cx))
    centers = np.column_stack((cx[order], cy[order]))
    # Mean sizes are taken at 2**-e times their scale, for the least e >= 0 at which no sum of sizes
    # overflows: 0 unless the largest size times the detection count would. The scaling is exact
    # unless it takes a size below 2**-1022.
    e = max(0, len(order).bit_length() + math.frexp(float(max(widths.max(), heights.max())))[1] - 1023)
    widths, heights = np.ldexp(widths[order], -e), np.ldexp(heights[order], -e)

    birdseye = apply_homography_array(config.homography, centers)

    eps = default_eps(birdseye) if config.eps is None else float(config.eps)
    min_points = (
        default_min_points(len(log.frame_ids)) if config.min_points is None else int(config.min_points)
    )
    assignment = dbscan(birdseye, DbscanParams(eps=eps, min_points=min_points))
    noise_points = int((assignment.labels == NOISE).sum())

    members, means, spreads = cluster_stats(birdseye, assignment)
    candidates = np.zeros(assignment.k, dtype=CANDIDATE_DTYPE)
    candidates["spread"] = spreads
    candidates["members"] = [len(m) for m in members]

    # The lex-first border rule can leave a cluster below min_points (even one
    # point, spread 0); such a candidate takes no part in the IQR rule or selection.
    eligible = np.flatnonzero(candidates["members"] >= min_points)
    if len(eligible):
        candidates["kept"][eligible[list(iqr_filter(spreads[eligible].tolist()))]] = True
    kept = np.flatnonzero(candidates["kept"])
    ranked, shortfall = select_n_bottom(spreads[kept], candidates["members"][kept], config.n_bottom)
    selected = kept[ranked]
    candidates["selected"][selected] = True

    slot_centers = apply_homography_array(invert_homography(config.homography), means[selected]).tolist()
    slots = []
    for c, (x, y) in zip(selected.tolist(), slot_centers):
        m = members[c]
        w, h = (math.ldexp(float(size[m].mean()), e) for size in (widths, heights))
        slots.append(ParkingSlot(slot_id=len(slots), area=Box(x, y, w, h), spread=float(spreads[c]),
                                 members=len(m)))
    return SlotDetectionOutcome(
        slots=tuple(slots),
        noise_points=noise_points,
        iqr_discarded=len(eligible) - len(kept),
        shortfall=shortfall,
        eps=eps,
        min_points=min_points,
        birdseye_points=birdseye,
        labels=assignment.labels,
        candidates=candidates,
    )


# --- slot registry file --------------------------------------------------

def slot_registry_document(slots: Iterable[ParkingSlot], config_echo: dict) -> dict:
    return {
        "slots": [
            {
                "id": s.slot_id,
                "cx": s.center.x,
                "cy": s.center.y,
                "w": s.area.w,
                "h": s.area.h,
                "spread": s.spread,
                "members": s.members,
            }
            for s in slots
        ],
        "config_echo": config_echo,
    }


def read_slot_registry(stream: IO[str]) -> list[ParkingSlot]:
    try:
        doc = json.load(stream)
    except RecursionError:
        raise ValidationError("slots", "slot registry: invalid JSON (nested too deeply)") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("slots"), list):
        raise ValidationError("slots", 'slot registry must be an object with a "slots" list')
    out = []
    first_entry = {}  # slot id -> entry index
    for index, entry in enumerate(doc["slots"]):
        try:
            slot = ParkingSlot(
                slot_id=json_number(entry["id"], "id", int),
                area=Box(*(json_number(entry[k], k) for k in ("cx", "cy", "w", "h"))),
                spread=json_number(entry.get("spread", 0.0), "spread"),
                members=json_number(entry.get("members", 0), "members", int),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError("slots", f"slot entry {index}: bad entry ({exc})") from exc
        if slot.slot_id in first_entry:
            raise ValidationError(
                "slots",
                f"slot entry {index}: id {slot.slot_id} repeats slot entry {first_entry[slot.slot_id]}",
            )
        first_entry[slot.slot_id] = index
        out.append(slot)
    return out
