"""Per-slot occupancy classification through a pluggable classifier contract."""

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import ValidationError, json_frame_id, json_lines, json_number, note_first_line
from .geometry import Box, box_iou, boxes_array
from .slots import ParkingSlot

DEFAULT_DECISION_THRESHOLD = 0.5
DEFAULT_IOU_THRESHOLD = 0.3


class MissingGroundTruthError(LookupError):
    """The oracle has no ground truth for the queried frame."""


class DuplicateRecordError(ValueError):
    """Two occupancy records share the same (frame, slot) key."""


class OccupancyStatus(str, Enum):
    OCCUPIED = "OCCUPIED"
    VACANT = "VACANT"
    ERROR = "ERROR"


class ClassifierAdapter:
    """Contract: deterministic probability-of-occupied in [0, 1] per slot of a frame."""

    def classify(self, frame_id: str, slots: Sequence[ParkingSlot]) -> Sequence[float]:
        """One score per slot, in slot order; NaN for a slot it has no score for."""
        raise NotImplementedError


@dataclass(frozen=True)
class OccupancyRecord:
    slot_id: int
    frame_id: str
    score: Union[float, None]
    status: OccupancyStatus
    error: Union[str, None] = None


def classify_frame(
    slots: Sequence[ParkingSlot],
    frame_id: str,
    classifier: ClassifierAdapter,
    threshold: float = DEFAULT_DECISION_THRESHOLD,
) -> list[OccupancyRecord]:
    """One record per slot, in slot order. OCCUPIED iff score >= threshold.

    A NaN or out-of-range score yields an ERROR record for that slot. If the
    classifier raises or returns the wrong number of scores, every slot of
    the frame gets an ERROR record with that reason.
    """
    if not slots:
        raise ValueError("slots must be non-empty")
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must be in (0, 1), got {threshold!r}")
    try:
        scores = np.asarray(classifier.classify(frame_id, slots), dtype=float)
        if scores.shape != (len(slots),):
            raise ValidationError(
                "score", f"classifier returned scores of shape {scores.shape} for {len(slots)} slots"
            )
    except Exception as exc:
        return [
            OccupancyRecord(slot.slot_id, frame_id, None, OccupancyStatus.ERROR, str(exc))
            for slot in slots
        ]
    records = []
    for slot, score in zip(slots, scores.tolist()):
        if math.isnan(score):
            error = f"no score for frame {frame_id!r}, slot {slot.slot_id}"
        elif not 0.0 <= score <= 1.0:
            error = f"classifier returned {score!r}, outside [0, 1]"
        else:
            status = OccupancyStatus.OCCUPIED if score >= threshold else OccupancyStatus.VACANT
            records.append(OccupancyRecord(slot.slot_id, frame_id, score, status))
            continue
        records.append(OccupancyRecord(slot.slot_id, frame_id, None, OccupancyStatus.ERROR, error))
    return records


class GeometricOracleClassifier(ClassifierAdapter):
    """Scores each slot by its best IoU against the frame's true vehicle boxes.

    Stand-in for an image classifier on simulated data: the score is the raw
    max IoU, and the recommended decision threshold binarizes it.
    """

    def __init__(
        self,
        vehicles_by_frame: Mapping[str, Sequence[Box]],
        iou_threshold: float = DEFAULT_IOU_THRESHOLD,
    ):
        if not (0.0 < iou_threshold < 1.0):
            raise ValueError(f"iou_threshold must be in (0, 1), got {iou_threshold!r}")
        self._vehicles = {k: boxes_array(v) for k, v in vehicles_by_frame.items()}
        self.decision_threshold = iou_threshold

    def classify(self, frame_id: str, slots: Sequence[ParkingSlot]) -> np.ndarray:
        try:
            vehicles = self._vehicles[frame_id]
        except KeyError:
            raise MissingGroundTruthError(f"no ground truth for frame {frame_id!r}") from None
        areas = boxes_array([s.area for s in slots])
        return box_iou(areas[:, None], vehicles[None]).max(axis=1, initial=0.0)


class FileScoreClassifier(ClassifierAdapter):
    """Replays externally computed scores keyed by (frame, slot)."""

    def __init__(self, table: Mapping[tuple[str, int], float]):
        for key, score in table.items():
            if not (isinstance(score, (int, float)) and 0.0 <= score <= 1.0):
                raise ValidationError(
                    "score", f"score for {key!r} must be in [0, 1], got {score!r}"
                )
        self._table = dict(table)

    @classmethod
    def from_stream(cls, stream: IO[str]) -> "FileScoreClassifier":
        """Load a line-delimited table: {"frame": str, "slot": int, "score": num}.

        A (frame, slot) key given twice is rejected, naming both lines.
        """
        table = {}
        first_line = {}
        for line_no, record in json_lines(stream, "score_table"):
            try:
                key = (json_frame_id(record["frame"]), json_number(record["slot"], "slot", int))
                score = json_number(record["score"], "score")
            except (KeyError, TypeError) as exc:
                raise ValidationError("score_table", f"line {line_no}: bad record ({exc})") from exc
            note_first_line(first_line, key, line_no, "score_table")
            table[key] = score
        return cls(table)

    def frames(self) -> list[str]:
        return sorted({frame for frame, _ in self._table})

    def classify(self, frame_id: str, slots: Sequence[ParkingSlot]) -> list[float]:
        return [self._table.get((frame_id, s.slot_id), math.nan) for s in slots]


@dataclass(frozen=True)
class FrameReport:
    occupied: int
    vacant: int
    vacant_slots: tuple[int, ...]
    error_slots: tuple[int, ...] = ()


def aggregate_report(records: Iterable[OccupancyRecord]) -> dict[str, FrameReport]:
    """Per-frame occupancy summary; occupied + vacant + errors cover every slot."""
    seen: set[tuple[str, int]] = set()
    by_frame: dict[str, list[OccupancyRecord]] = {}
    for rec in records:
        key = (rec.frame_id, rec.slot_id)
        if key in seen:
            raise DuplicateRecordError(f"duplicate record for frame {rec.frame_id!r}, slot {rec.slot_id}")
        seen.add(key)
        by_frame.setdefault(rec.frame_id, []).append(rec)

    report = {}
    for frame_id, recs in by_frame.items():
        occupied = sum(1 for r in recs if r.status is OccupancyStatus.OCCUPIED)
        vacant = tuple(sorted(r.slot_id for r in recs if r.status is OccupancyStatus.VACANT))
        errors = tuple(sorted(r.slot_id for r in recs if r.status is OccupancyStatus.ERROR))
        report[frame_id] = FrameReport(
            occupied=occupied, vacant=len(vacant), vacant_slots=vacant, error_slots=errors
        )
    return report


def write_records(stream: IO[str], records: Iterable[OccupancyRecord]) -> None:
    """One JSON line per record; ERROR records also carry their ``"error"`` reason."""
    for rec in records:
        doc = {"frame": rec.frame_id, "slot": rec.slot_id, "score": rec.score,
               "status": rec.status.value}
        if rec.status is OccupancyStatus.ERROR:
            doc["error"] = rec.error
        stream.write(json.dumps(doc, sort_keys=True))
        stream.write("\n")


def read_records(stream: IO[str]) -> list[OccupancyRecord]:
    records = []
    for line_no, raw in json_lines(stream, "records"):
        try:
            records.append(
                OccupancyRecord(
                    slot_id=json_number(raw["slot"], "slot", int),
                    frame_id=json_frame_id(raw["frame"]),
                    score=None if raw["score"] is None else json_number(raw["score"], "score"),
                    status=OccupancyStatus(raw["status"]),
                    error=raw.get("error"),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError("records", f"line {line_no}: bad record ({exc})") from exc
    return records
