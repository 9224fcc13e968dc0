"""Per-slot occupancy classification through a pluggable classifier contract."""

import json
import math
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii
from typing import IO, Iterable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .errors import ValidationError, json_frame_id, json_lines, json_number, note_first_line
from .geometry import box_iou, boxes_array
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


class OccupancyRecord(NamedTuple):
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
    in_range = ((scores >= 0.0) & (scores <= 1.0)).tolist()  # NaN fails both tests
    statuses = (OccupancyStatus.VACANT, OccupancyStatus.OCCUPIED)
    records = []
    for slot, score, ok, occ in zip(slots, scores.tolist(), in_range, (scores >= threshold).tolist()):
        if ok:
            records.append(OccupancyRecord(slot.slot_id, frame_id, score, statuses[occ]))
        else:
            error = (f"no score for frame {frame_id!r}, slot {slot.slot_id}" if math.isnan(score)
                     else f"classifier returned {score!r}, outside [0, 1]")
            records.append(OccupancyRecord(slot.slot_id, frame_id, None, OccupancyStatus.ERROR, error))
    return records


class GeometricOracleClassifier(ClassifierAdapter):
    """Scores each slot by its best IoU against the frame's true vehicle boxes.

    Stand-in for an image classifier on simulated data: the score is the raw
    max IoU, and the recommended decision threshold binarizes it.
    """

    def __init__(
        self,
        vehicles_by_frame: Mapping[str, np.ndarray],  # (n, 4) arrays of (cx, cy, w, h) rows
        iou_threshold: float = DEFAULT_IOU_THRESHOLD,
    ):
        if not (0.0 < iou_threshold < 1.0):
            raise ValueError(f"iou_threshold must be in (0, 1), got {iou_threshold!r}")
        self._vehicles = {k: np.asarray(v, float).reshape(-1, 4) for k, v in vehicles_by_frame.items()}
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
    by_frame: dict[str, dict[OccupancyStatus, list[int]]] = {}  # slot ids by status
    for slot_id, frame_id, _, status, _ in records:
        if (frame_id, slot_id) in seen:
            raise DuplicateRecordError(f"duplicate record for frame {frame_id!r}, slot {slot_id}")
        seen.add((frame_id, slot_id))
        if frame_id not in by_frame:
            by_frame[frame_id] = {s: [] for s in OccupancyStatus}
        by_frame[frame_id][status].append(slot_id)
    report = {}
    for fid, ids in by_frame.items():
        occupied, vacant, errors = ids.values()  # in OccupancyStatus order
        report[fid] = FrameReport(len(occupied), len(vacant), tuple(sorted(vacant)), tuple(sorted(errors)))
    return report


def write_records(stream: IO[str], records: Iterable[OccupancyRecord]) -> None:
    """One JSON line per record, the bytes ``json.dumps(doc, sort_keys=True)`` gives, built
    from json's own encoders; ERROR records also carry their ``"error"`` reason."""
    value_of = {status: status.value for status in OccupancyStatus}
    for slot_id, frame_id, score, status, error in records:
        score_text = repr(score) if type(score) is float and math.isfinite(score) else json.dumps(score)
        status_text = value_of[status]
        head = f'{{"error": {json.dumps(error)}, ' if status_text == "ERROR" else "{"
        stream.write(f'{head}"frame": {encode_basestring_ascii(frame_id)}, "score": {score_text}, '
                     f'"slot": {slot_id!r}, "status": "{status_text}"}}\n')


_STATUS_BY_VALUE = {status.value: status for status in OccupancyStatus}


def _status(value) -> OccupancyStatus:
    """``OccupancyStatus(value)``, looked up in a dict; the Enum call runs only to raise."""
    try:
        return _STATUS_BY_VALUE[value]
    except (KeyError, TypeError):
        return OccupancyStatus(value)


def read_records(stream: IO[str]) -> list[OccupancyRecord]:
    records = []
    for line_no, raw in json_lines(stream, "records"):
        try:
            records.append(
                OccupancyRecord(
                    slot_id=json_number(raw["slot"], "slot", int),
                    frame_id=json_frame_id(raw["frame"]),
                    score=None if raw["score"] is None else json_number(raw["score"], "score"),
                    status=_status(raw["status"]),
                    error=raw.get("error"),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError("records", f"line {line_no}: bad record ({exc})") from exc
    return records
