"""Slot detection: bird's-eye transform, clustering, spread filtering, back-projection.

Pipeline order: pool all detection centers, map them through the configured
homography, run DBSCAN on the bird's-eye points, compute per-cluster stats,
drop spread outliers with the IQR rule, keep the ``n_bottom``
smallest-spread candidates, and back-project each surviving cluster mean
with the inverse homography.  eps, cluster means and spreads are in
bird's-eye units; slot areas are the mean member bounding-box sizes in
original-view pixels.
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


class EmptyInputError(ValueError):
    """No detections at all across the input frames."""


@dataclass(frozen=True)
class SlotDetectionConfig:
    n_bottom: int
    homography: Homography = field(default_factory=Homography.identity)
    eps: Union[float, None] = None
    min_points: Union[int, None] = None

    def __post_init__(self):
        if int(self.n_bottom) != self.n_bottom or self.n_bottom < 1:
            raise ValidationError("n_bottom", f"n_bottom must be >= 1, got {self.n_bottom!r}")
        if self.eps is not None and not (math.isfinite(self.eps) and self.eps > 0):
            raise ValidationError("eps", f"eps must be finite and > 0, got {self.eps!r}")
        if self.min_points is not None and self.min_points < 1:
            raise ValidationError("min_points", f"min_points must be >= 1, got {self.min_points!r}")


@dataclass(frozen=True)
class SlotCandidate:
    cluster_id: int
    center_birdseye: Point2
    spread: float
    member_count: int
    mean_width: float
    mean_height: float


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
    cluster_count: int
    noise_points: int
    iqr_discarded: int
    shortfall: bool
    eps: float
    min_points: int
    birdseye_points: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))
    labels: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    candidates: tuple[SlotCandidate, ...] = ()
    kept_by_iqr: frozenset = frozenset()  # indices into candidates
    selected: frozenset = frozenset()  # cluster ids of the slots' candidates


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


def select_n_bottom(
    candidates: Sequence[SlotCandidate], n_bottom: int
) -> tuple[list[SlotCandidate], bool]:
    """The ``n_bottom`` smallest-spread candidates, plus a shortfall flag.

    Ties on spread are broken by larger member count, then smaller cluster
    id, so the ranking is a strict order.
    """
    ranked = sorted(candidates, key=lambda c: (c.spread, -c.member_count, c.cluster_id))
    return ranked[:n_bottom], len(candidates) < n_bottom


def run_slot_detection(log: DetectionLog, config: SlotDetectionConfig) -> SlotDetectionOutcome:
    if len(log.detections) == 0:
        raise EmptyInputError("no detections in any input frame")
    cx, cy, widths, heights = (log.detections[name] for name in ("cx", "cy", "w", "h"))
    # Canonical point order (cx, then cy, w, h): downstream means and cluster
    # ids then depend only on the multiset of detections, not on their order.
    order = np.lexsort((heights, widths, cy, cx))
    centers = np.column_stack((cx[order], cy[order]))
    widths, heights = widths[order], heights[order]

    birdseye = apply_homography_array(config.homography, centers)

    if config.eps is None:  # coincident centers cluster the same way under any eps
        eps = DEFAULT_EPS_FRACTION * float(np.ptp(birdseye, axis=0).max()) or 1.0
    else:
        eps = float(config.eps)
    min_points = (
        default_min_points(len(log.frame_ids)) if config.min_points is None else int(config.min_points)
    )
    assignment = dbscan(birdseye, DbscanParams(eps=eps, min_points=min_points))
    noise_points = int((assignment.labels == NOISE).sum())

    candidates = []
    for st in cluster_stats(birdseye, assignment):
        members = st.member_indices
        candidates.append(
            SlotCandidate(
                cluster_id=st.cluster_id,
                center_birdseye=st.mean,
                spread=st.spread,
                member_count=len(members),
                mean_width=float(widths[members].mean()),
                mean_height=float(heights[members].mean()),
            )
        )

    # The lex-first border rule can leave a cluster below min_points (even one
    # point, spread 0); such a candidate takes no part in the IQR rule or selection.
    eligible = [i for i, c in enumerate(candidates) if c.member_count >= min_points]
    kept = {eligible[j] for j in iqr_filter([candidates[i].spread for i in eligible])} if eligible else set()
    survivors = [c for i, c in enumerate(candidates) if i in kept]
    selected, shortfall = select_n_bottom(survivors, config.n_bottom)

    means = np.array([(c.center_birdseye.x, c.center_birdseye.y) for c in selected]).reshape(-1, 2)
    slot_centers = apply_homography_array(invert_homography(config.homography), means).tolist()
    slots = tuple(
        ParkingSlot(slot_id=slot_id, area=Box(x, y, cand.mean_width, cand.mean_height),
                    spread=cand.spread, members=cand.member_count)
        for slot_id, (cand, (x, y)) in enumerate(zip(selected, slot_centers))
    )
    return SlotDetectionOutcome(
        slots=slots,
        cluster_count=assignment.k,
        noise_points=noise_points,
        iqr_discarded=len(eligible) - len(survivors),
        shortfall=shortfall,
        eps=eps,
        min_points=min_points,
        birdseye_points=birdseye,
        labels=assignment.labels,
        candidates=tuple(candidates),
        kept_by_iqr=frozenset(kept),
        selected=frozenset(c.cluster_id for c in selected),
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
