"""Per-slot occupancy classification through a pluggable classifier contract."""

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from json.encoder import encode_basestring_ascii
from typing import IO, Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .errors import ValidationError, json_frame_id, json_lines, json_number
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


_STATUSES = tuple(OccupancyStatus)  # an OccupancyTable's status codes index this tuple
_CODE = {status: code for code, status in enumerate(_STATUSES)}
_OCCUPIED, _VACANT, _ERROR = range(3)  # the order OccupancyStatus declares them in
_IOU_BLOCK_PAIRS = 1 << 16  # (slot, vehicle) pairs per box_iou broadcast of the oracle
_WRITE_ROWS = 1 << 12  # records formatted per stream write


class ClassifierAdapter:
    """Contract: deterministic probability-of-occupied in [0, 1] per slot of a frame."""

    def classify(self, frame_id: str, slots: Sequence[ParkingSlot]) -> Sequence[float]:
        """One score per slot, in slot order; NaN for a slot it has no score for."""
        raise NotImplementedError

    def score_frames(
        self, frame_ids: Sequence[str], slots: Sequence[ParkingSlot]
    ) -> tuple[np.ndarray, dict[int, str]]:
        """A frames x slots score array, and the reason for each failed frame (by index), whose
        row is ignored. This default calls :meth:`classify` per frame: a frame fails if that
        raises or returns the wrong shape."""
        scores = np.full((len(frame_ids), len(slots)), math.nan)
        failed = {}
        for i, frame_id in enumerate(frame_ids):
            try:
                row = np.asarray(self.classify(frame_id, slots), dtype=float)
                if row.shape != (len(slots),):
                    raise ValidationError(
                        "score", f"classifier returned scores of shape {row.shape} for {len(slots)} slots"
                    )
            except Exception as exc:
                failed[i] = str(exc)
            else:
                scores[i] = row
        return scores, failed


class OccupancyRecord(NamedTuple):
    slot_id: int
    frame_id: str
    score: Union[float, None]
    status: OccupancyStatus
    error: Union[str, None] = None


_record = partial(tuple.__new__, OccupancyRecord)  # OccupancyRecord._make without its length check


@dataclass(frozen=True)
class FrameReport:
    occupied: int
    vacant: int
    vacant_slots: tuple[int, ...]
    error_slots: tuple[int, ...] = ()


def report_json(report: Mapping[str, FrameReport]) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` and a newline for the per-frame report
    document, built from json's own encoders: frame ids in string order, and ``[]`` for no slots."""
    def slot_list(ids):
        return "[" + ",".join([f"\n      {sid!r}" for sid in ids]) + "\n    ]" if ids else "[]"
    return "{" + ",".join([
        f'\n  {encode_basestring_ascii(fid)}: {{\n    "error_slots": {slot_list(rep.error_slots)},\n'
        f'    "occupied": {rep.occupied!r},\n    "vacant": {rep.vacant!r},\n'
        f'    "vacant_slots": {slot_list(rep.vacant_slots)}\n  }}' for fid, rep in sorted(report.items())
    ]) + ("\n}\n" if report else "}\n")


def _factorize(values: Sequence) -> tuple[list, np.ndarray]:
    """The distinct values in order of first appearance, and each value's index among them."""
    index = {value: i for i, value in enumerate(dict.fromkeys(values))}
    return list(index), np.fromiter(map(index.__getitem__, values), np.intp, len(values))


def _sorted_keys(field: str, lines: Sequence[int], frame_ids, frame, slot_ids, slot) -> tuple[np.ndarray, ...]:
    """Each row's key (frame index x slot ids + slot index) and a stable sort order of the keys;
    a key given twice raises on ``field``, naming the lines of its first repeat."""
    key = frame * len(slot_ids) + slot
    order = np.argsort(key, kind="stable")
    repeats = order[1:][key[order[1:]] == key[order[:-1]]]
    if repeats.size:
        row = repeats.min()
        first = order[np.searchsorted(key[order], key[row])]
        raise ValidationError(field, f"line {lines[row]}: frame {frame_ids[frame[row]]!r}, slot "
                              f"{slot_ids[slot[row]]} repeats line {lines[first]}")
    return key, order


@dataclass(frozen=True, eq=False)
class OccupancyTable:
    """Occupancy records as columns, in record order; iterating yields :class:`OccupancyRecord`s.

    ``frame`` and ``slot`` index ``frame_ids`` and ``slot_ids``, ``status`` holds codes in
    :class:`OccupancyStatus` order, ``score`` keeps each score object as given, and
    ``errors`` maps a row to its error reason.
    """

    frame_ids: list
    frame: np.ndarray
    slot_ids: list
    slot: np.ndarray
    score: list
    status: np.ndarray
    errors: dict

    @classmethod
    def from_records(cls, records: Iterable[OccupancyRecord]) -> "OccupancyTable":
        """Any records, sparse, shuffled or with a (frame, slot) key repeated, in their order."""
        records = list(records)
        slot_ids, frame_ids, score, statuses, errors = zip(*records) if records else [()] * 5
        status = np.fromiter(map(_CODE.__getitem__, statuses), np.intp, len(records))
        error_rows = (np.flatnonzero(status == _ERROR).tolist()
                      + [row for row, error in enumerate(errors) if error is not None])
        return cls(*_factorize(frame_ids), *_factorize(slot_ids), list(score), status,
                   {row: errors[row] for row in error_rows})

    def __iter__(self) -> Iterator[OccupancyRecord]:
        errors = map(self.errors.get, range(len(self.score)))
        slot_ids = map(self.slot_ids.__getitem__, self.slot.tolist())
        frame_ids = map(self.frame_ids.__getitem__, self.frame.tolist())
        statuses = map(_STATUSES.__getitem__, self.status.tolist())
        return map(_record, zip(slot_ids, frame_ids, self.score, statuses, errors))

    def write(self, stream: IO[str]) -> None:
        """One JSON line per record, the bytes ``json.dumps(doc, sort_keys=True)`` gives, built
        from json's own encoders as a head per frame, the score and a tail per (slot, status);
        ERROR records also carry their ``"error"`` reason."""
        heads = [f'"frame": {encode_basestring_ascii(fid)}, "score": ' for fid in self.frame_ids]
        tails = [f', "slot": {sid!r}, "status": "{status.value}"}}\n'
                 for status in _STATUSES for sid in self.slot_ids]
        tail = self.status * len(self.slot_ids) + self.slot  # ERROR tails start at first_error
        opens = iter([f'{{"error": {json.dumps(self.errors.get(row))}, '
                      for row in np.flatnonzero(self.status == _ERROR).tolist()])
        dumps, isfinite, brace, first_error = json.dumps, math.isfinite, "{", _ERROR * len(self.slot_ids)
        for lo in range(0, len(self.score), _WRITE_ROWS):
            hi = lo + _WRITE_ROWS
            stream.write("".join([
                f"{brace if t < first_error else next(opens)}{heads[f]}"
                f"{repr(v) if type(v) is float and isfinite(v) else dumps(v)}{tails[t]}"
                for f, v, t in zip(self.frame[lo:hi].tolist(), self.score[lo:hi], tail[lo:hi].tolist())
            ]))

    def report(self) -> dict[str, FrameReport]:
        """Per-frame summary: status counts along the frame axis, and each frame's vacant
        and error slot ids in ascending order."""
        counts = np.bincount(self.frame * 3 + self.status, minlength=3 * len(self.frame_ids))
        rank = np.empty(len(self.slot_ids), np.intp)
        rank[sorted(range(len(rank)), key=self.slot_ids.__getitem__)] = np.arange(len(rank))
        listed = np.flatnonzero(self.status != _OCCUPIED)
        listed = listed[np.lexsort((rank[self.slot[listed]], self.status[listed], self.frame[listed]))]
        ids, end, report = [self.slot_ids[s] for s in self.slot[listed].tolist()], 0, {}
        for fid, (occupied, vacant, errors) in zip(self.frame_ids, counts.reshape(-1, 3).tolist()):
            start, end = end, end + vacant + errors
            report[fid] = FrameReport(occupied, vacant, tuple(ids[start:start + vacant]),
                                      tuple(ids[start + vacant:end]))
        return report

    def join_truth(self, pred_to_truth: Mapping[int, int], truth) -> tuple[list[bool], list[bool], list]:
        """(predicted occupied, true bit, score) lists in record order, over the non-ERROR records
        of slots in ``pred_to_truth`` (predicted id -> truth id) in frames of the ground truth
        ``truth``, read from its bit columns. A truth id outside a frame's bits raises."""
        truth_row = {fid: i for i, fid in enumerate(truth.frame_ids)}
        row = np.array([truth_row.get(fid, -1) for fid in self.frame_ids], np.intp)
        sizes = np.append(np.diff(truth.bit_offsets), 0)[row]  # a frame outside truth has no bits
        starts = np.append(truth.bit_offsets[:-1], 0)[row]
        truth_ids = [pred_to_truth.get(sid) for sid in self.slot_ids]
        matched = np.array([t is not None for t in truth_ids], bool)
        top = int(sizes.max(initial=0))  # an id outside every frame's bits becomes -1
        index = np.array([t if t is not None and 0 <= t < top else -1 for t in truth_ids], np.intp)
        rows = np.flatnonzero((self.status != _ERROR) & (row >= 0)[self.frame] & matched[self.slot])
        f, t = self.frame[rows], index[self.slot[rows]]
        bad = np.flatnonzero((t < 0) | (t >= sizes[f]))
        if len(bad):
            r = rows[bad[0]]
            raise ValidationError("truth_occupancy", f"frame {self.frame_ids[self.frame[r]]!r} has no "
                                  f"occupancy bit for truth slot {truth_ids[self.slot[r]]}")
        labels = truth.bits[starts[f] + t]
        scores = [self.score[r] for r in rows.tolist()]
        return (self.status[rows] == _OCCUPIED).tolist(), labels.tolist(), scores


def classify_frames(
    slots: Sequence[ParkingSlot],
    frame_ids: Sequence[str],
    classifier: ClassifierAdapter,
    threshold: float = DEFAULT_DECISION_THRESHOLD,
) -> OccupancyTable:
    """One record per slot per frame, in frame then slot order. OCCUPIED iff score >= threshold.

    A NaN or out-of-range score yields an ERROR record for that slot. If the
    classifier fails a frame (it raised, or returned the wrong number of
    scores), every slot of the frame gets an ERROR record with that reason.
    """
    if not slots:
        raise ValueError("slots must be non-empty")
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must be in (0, 1), got {threshold!r}")
    scores, failed = classifier.score_frames(frame_ids, slots)
    in_range = (scores >= 0.0) & (scores <= 1.0)  # NaN fails both tests
    in_range[list(failed)] = False
    status = np.where(in_range, scores < threshold, _ERROR).ravel()  # True is _VACANT, False _OCCUPIED
    score, slot_ids, errors = scores.ravel().tolist(), [slot.slot_id for slot in slots], {}
    for row in np.flatnonzero(status == _ERROR).tolist():
        f, j = divmod(row, len(slots))
        if f in failed:
            errors[row] = failed[f]
        elif math.isnan(score[row]):
            errors[row] = f"no score for frame {frame_ids[f]!r}, slot {slot_ids[j]}"
        else:
            errors[row] = f"classifier returned {score[row]!r}, outside [0, 1]"
        score[row] = None
    frame, slot = np.divmod(np.arange(len(score)), len(slots))
    return OccupancyTable(list(frame_ids), frame, slot_ids, slot, score, status, errors)


def classify_frame(
    slots: Sequence[ParkingSlot],
    frame_id: str,
    classifier: ClassifierAdapter,
    threshold: float = DEFAULT_DECISION_THRESHOLD,
) -> list[OccupancyRecord]:
    """The records of :func:`classify_frames` for one frame."""
    return list(classify_frames(slots, [frame_id], classifier, threshold))


class GeometricOracleClassifier(ClassifierAdapter):
    """Scores each slot by its best IoU against the frame's true vehicle boxes.

    Stand-in for an image classifier on simulated data: the score is the raw
    max IoU, and the recommended decision threshold binarizes it. It holds each
    frame's row, every frame's boxes end to end in row order, and where each row's boxes start
    and end in them.
    """

    def __init__(
        self,
        vehicles_by_frame: Mapping[str, np.ndarray],  # (n, 4) arrays of (cx, cy, w, h) rows
        iou_threshold: float = DEFAULT_IOU_THRESHOLD,
    ):
        if not (0.0 < iou_threshold < 1.0):
            raise ValueError(f"iou_threshold must be in (0, 1), got {iou_threshold!r}")
        boxes = [np.asarray(v, float).reshape(-1, 4) for v in vehicles_by_frame.values()]
        self._row = {fid: i for i, fid in enumerate(vehicles_by_frame)}
        self._boxes = np.concatenate([np.empty((0, 4)), *boxes])
        self._bounds = np.cumsum([0, *map(len, boxes)])
        self.decision_threshold = iou_threshold

    @classmethod
    def from_truth(cls, truth, iou_threshold: float = DEFAULT_IOU_THRESHOLD) -> "GeometricOracleClassifier":
        """The oracle over a :class:`~parkscan.simulator.GroundTruth`'s vehicle columns as they are."""
        oracle = cls({}, iou_threshold)
        oracle._row, oracle._boxes = {fid: i for i, fid in enumerate(truth.frame_ids)}, truth.boxes()
        oracle._bounds = truth.vehicle_offsets
        return oracle

    def classify(self, frame_id: str, slots: Sequence[ParkingSlot]) -> np.ndarray:
        scores, failed = self.score_frames([frame_id], slots)
        if failed:
            raise MissingGroundTruthError(failed[0])
        return scores[0]

    def score_frames(self, frame_ids, slots):
        """All frames' scores from a few ``box_iou`` broadcasts over every frame's vehicles end
        to end, of at most ``_IOU_BLOCK_PAIRS`` (slot, vehicle) pairs each, then each frame's
        maximum; a frame with no vehicles scores 0.0, and one with no ground truth fails."""
        areas = boxes_array([s.area for s in slots])[:, None]
        scores = np.zeros((len(frame_ids), len(slots)))
        rows = np.array([self._row.get(fid, -1) for fid in frame_ids], np.intp)
        failed = {i: f"no ground truth for frame {frame_ids[i]!r}" for i in np.flatnonzero(rows < 0).tolist()}
        known = np.flatnonzero(rows >= 0)
        first = self._bounds[rows[known]]
        counts = self._bounds[rows[known] + 1] - first
        owner = np.repeat(known, counts)  # each frame's vehicles, in the order the frames are asked
        gather = np.repeat(first - np.cumsum(counts) + counts, counts) + np.arange(len(owner))
        vehicles = self._boxes[gather][None]
        step = max(1, _IOU_BLOCK_PAIRS // len(slots))
        for lo in range(0, len(owner), step):
            block = owner[lo:lo + step]
            starts = np.flatnonzero(np.concatenate(([True], block[1:] != block[:-1])))  # frame by frame
            best = np.maximum.reduceat(box_iou(areas, vehicles[:, lo:lo + step]), starts, axis=1)
            scores[block[starts]] = np.maximum(scores[block[starts]], best.T)
        return scores, failed


class FileScoreClassifier(ClassifierAdapter):
    """Replays externally computed scores keyed by (frame, slot), held as columns sorted by
    key: a frame's index times the number of slot ids plus the slot's index."""

    def __init__(self, table: Mapping[tuple[str, int], float]):
        for key, score in table.items():
            if not (isinstance(score, (int, float)) and 0.0 <= score <= 1.0):
                raise ValidationError("score", f"score for {key!r} must be in [0, 1], got {score!r}")
        self._index(*(zip(*table) if table else [(), ()]), list(table.values()), ())

    def _index(self, frames: Sequence[str], slots: Sequence[int], scores: list, lines: Sequence) -> None:
        """Hold the rows as columns; a key given twice raises, naming the lines of its first repeat."""
        (self._frame_ids, frame), (slot_ids, slot) = _factorize(frames), _factorize(slots)
        self._frame_row = {fid: i for i, fid in enumerate(self._frame_ids)}
        self._slot_col = {sid: j for j, sid in enumerate(slot_ids)}
        key, order = _sorted_keys("score_table", lines, self._frame_ids, frame, slot_ids, slot)
        self._key = np.append(key[order], np.iinfo(np.intp).max)  # above every key: a search ends on a row
        self._score = np.append(np.array(scores, float)[order], math.nan)

    @classmethod
    def from_stream(cls, stream: IO[str]) -> "FileScoreClassifier":
        """Load a line-delimited table: {"frame": str, "slot": int, "score": num in [0, 1]}.

        A (frame, slot) key given twice is rejected, naming both lines.
        """
        table, frame_ids, columns = cls.__new__(cls), {}, ([], [], [], [])
        frames, slots, scores, lines = columns
        try:
            for line_no, record in json_lines(stream, "score_table"):
                try:
                    frame_id = json_frame_id(record["frame"])
                    slot_id = json_number(record["slot"], "slot", int)
                    score = json_number(record["score"], "score")
                    if not 0.0 <= score <= 1.0:
                        raise ValueError(f"score must be in [0, 1], got {record['score']!r}")
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValidationError("score_table", f"line {line_no}: bad record ({exc})") from exc
                frames.append(frame_ids.setdefault(frame_id, frame_id))  # one string per frame id
                slots.append(slot_id)
                scores.append(score)
                lines.append(line_no)
        finally:  # also after a bad line, so that a key repeated before it is named first
            table._index(*columns)
        return table

    def frames(self) -> list[str]:
        return sorted(self._frame_ids)

    def classify(self, frame_id: str, slots: Sequence[ParkingSlot]) -> list[float]:
        return self.score_frames([frame_id], slots)[0][0].tolist()

    def score_frames(self, frame_ids, slots):
        """Each (frame, slot) score by a binary search of the sorted keys, NaN where the table
        has none; no frame fails."""
        rows = np.array([self._frame_row.get(fid, -1) for fid in frame_ids], np.intp)[:, None]
        cols = np.array([self._slot_col.get(s.slot_id, -1) for s in slots], np.intp)
        keys = np.where((rows >= 0) & (cols >= 0), rows * len(self._slot_col) + cols, -1)
        at = np.searchsorted(self._key, keys)
        return np.where(self._key[at] == keys, self._score[at], math.nan), {}


def aggregate_report(records: Iterable[OccupancyRecord]) -> dict[str, FrameReport]:
    """Per-frame occupancy summary; occupied + vacant + errors cover every slot.

    A (frame, slot) key given twice raises :class:`DuplicateRecordError`.
    """
    table = OccupancyTable.from_records(records)
    key = table.frame * len(table.slot_ids) + table.slot
    first = np.zeros(len(key), bool)
    first[np.unique(key, return_index=True)[1]] = True
    if not first.all():
        row = np.argmin(first)
        raise DuplicateRecordError(f"duplicate record for frame {table.frame_ids[table.frame[row]]!r}, "
                                   f"slot {table.slot_ids[table.slot[row]]}")
    return table.report()


def write_records(stream: IO[str], records: Iterable[OccupancyRecord]) -> None:
    """:meth:`OccupancyTable.write` for a list of records."""
    OccupancyTable.from_records(records).write(stream)


def read_records(stream: IO[str]) -> OccupancyTable:
    """The occupancy records of a JSON-lines stream as a table, in file order. Each record must
    be one the writer writes: OCCUPIED and VACANT with a score in [0, 1] and no ``"error"``,
    ERROR with a null score and a string ``"error"``. A (frame, slot) key given twice is
    rejected, naming both lines, before any later line's fault."""
    frames, slots = {}, {}
    frame, slot, score, status, lines, errors = [], [], [], [], [], {}
    try:
        for line_no, raw in json_lines(stream, "records"):
            try:
                slot_id = raw["slot"]
                if type(slot_id) is not int:
                    json_number(slot_id, "slot", int)  # raises, naming it
                frame_id = raw["frame"]
                if type(frame_id) is not str or not frame_id:
                    json_frame_id(frame_id)  # raises, naming it
                code = _CODE.get(raw["status"]) if type(raw["status"]) is str else None
                if code is None:
                    OccupancyStatus(raw["status"])  # not a status value: raises, naming it
                value, error = raw["score"], raw.get("error")
                if code == _ERROR:
                    if value is not None:
                        raise ValueError(f"an ERROR record's score must be null, got {value!r}")
                    if type(error) is not str:
                        raise TypeError(f"error must be a string, got {error!r}")
                else:
                    if "error" in raw:
                        raise ValueError(f"only an ERROR record has an error, got {error!r}")
                    value = value if type(value) is float else json_number(value, "score")
                    if not 0.0 <= value <= 1.0:
                        raise ValueError(f"score must be in [0, 1], got {raw['score']!r}")
            except (KeyError, TypeError, ValueError) as exc:
                raise ValidationError("records", f"line {line_no}: bad record ({exc})") from exc
            if error is not None:
                errors[len(score)] = error
            frame.append(frames.setdefault(frame_id, len(frames)))
            slot.append(slots.setdefault(slot_id, len(slots)))
            score.append(value)
            status.append(code)
            lines.append(line_no)
    finally:  # also after a bad line, so that a key repeated before it is named first
        table = OccupancyTable(list(frames), np.array(frame, np.intp), list(slots), np.array(slot, np.intp),
                               score, np.array(status, np.intp), errors)
        _sorted_keys("records", lines, table.frame_ids, table.frame, table.slot_ids, table.slot)
    return table
