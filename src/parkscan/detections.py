"""Detection-log ingestion: parse, validate, and filter the vehicle detections of a log.

Log format is line-delimited JSON, one frame per line:

    {"frame": "f000001", "ts": "2026-01-01T08:00:00", "dets":
        [{"cx": 10.0, "cy": 20.0, "w": 5.0, "h": 5.0, "cls": "car", "conf": 0.9}]}

``ts`` is optional.  All coordinates are original-image pixels.  A log is one
:class:`DetectionLog`: frame ids, timestamps, and every box in one read-only
:data:`DETECTION_DTYPE` array with its frame's index, read as columns and checked once.
"""

import io
import math
from array import array
from dataclasses import dataclass, field
from itertools import pairwise
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import IO, Iterator, NamedTuple, Union

import numpy as np

from .errors import (
    JSON_NUMBER_TYPES, ValidationError, extend_columns, json_frame_id, json_lines, note_first_line,
)

DETECTION_DTYPE = np.dtype(
    [("cx", float), ("cy", float), ("w", float), ("h", float), ("conf", float), ("cls", object)]
)
_NUMBER_FIELDS = ("cx", "cy", "w", "h", "conf")
_ROW = itemgetter(*DETECTION_DTYPE.names)  # an entry's values in row order, ``cls`` last


class FrameDetections(NamedTuple):
    """One frame of a :class:`DetectionLog`: its id, its rows of the log's array, its timestamp."""

    frame_id: str
    detections: np.ndarray
    timestamp: Union[str, None] = None


@dataclass(frozen=True, eq=False)
class DetectionLog:
    """Frame ids and timestamps in log order, and every box in one read-only
    :data:`DETECTION_DTYPE` array, grouped by frame in log order: row ``i`` is in frame
    ``frame_index[i]``, and a frame may have none.  Iterating yields each frame as a
    :class:`FrameDetections` view, finding its rows only as it is reached."""

    frame_ids: tuple[str, ...]
    timestamps: tuple[Union[str, None], ...]
    frame_index: np.ndarray
    detections: np.ndarray

    def __post_init__(self):
        self.frame_index.setflags(write=False)
        self.detections.setflags(write=False)

    def __iter__(self) -> Iterator[FrameDetections]:
        bounds = pairwise(map(self.frame_index.searchsorted, range(len(self.frame_ids) + 1)))
        for frame_id, ts, (lo, hi) in zip(self.frame_ids, self.timestamps, bounds):
            yield FrameDetections(frame_id, self.detections[lo:hi], ts)


@dataclass(frozen=True)
class DetectionFilter:
    """Class allow-list plus confidence floor. The confidence test is inclusive."""

    allowed_classes: frozenset = field(default_factory=lambda: frozenset({"car", "truck"}))
    min_confidence: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "allowed_classes", frozenset(self.allowed_classes))
        if not self.allowed_classes:
            raise ValidationError("allowed_classes", "allowed_classes must be non-empty")
        if not (math.isfinite(self.min_confidence) and 0.0 <= self.min_confidence <= 1.0):
            raise ValidationError(
                "min_confidence", f"min_confidence must be in [0, 1], got {self.min_confidence!r}"
            )


def _log_error(line: int, message: str) -> ValidationError:
    return ValidationError("detections", f"line {line}: {message}")


def _number(record: dict, key: str, line: int) -> float:
    try:
        value = record[key]
    except KeyError:
        raise _log_error(line, f'missing detection field "{key}"') from None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _log_error(line, f'detection field "{key}" must be a number')
    try:
        return float(value)
    except OverflowError:
        raise _log_error(line, f'detection field "{key}" is too large for a float') from None


def _entry_fault(entries: list, line: int) -> None:
    """Name a line's first entry fault, entry by entry, in this order: not an object, ``cls``,
    then ``cx`` to ``conf``; after every type fault, the first integer too large for a float."""
    for entry in entries:
        if not isinstance(entry, dict):
            raise _log_error(line, "detection entries must be objects")
        if not isinstance(entry.get("cls"), str):
            raise _log_error(line, '"cls" must be a string')
        if not JSON_NUMBER_TYPES.issuperset(map(type, map(entry.get, _NUMBER_FIELDS))):
            for name in _NUMBER_FIELDS:
                _number(entry, name, line)
    for entry in entries:
        for name in _NUMBER_FIELDS:
            _number(entry, name, line)


def _checked_log(first_line: dict, timestamps: list, counts: list, columns: list) -> DetectionLog:
    """The log of the first ``len(counts)`` lines, from their columns; a number column may hold
    more. A bad box is named as checking its line alone would: by line, then by column."""
    dets = np.zeros(sum(counts), DETECTION_DTYPE)  # np.empty fills object fields slowly
    for name, column in zip(DETECTION_DTYPE.names, columns):
        dets[name] = column if name == "cls" else np.frombuffer(column, float, len(dets))
    frame_index = np.repeat(np.arange(len(counts)), counts)
    cx, cy, w, h, conf = (dets[name] for name in _NUMBER_FIELDS)
    checks = [(cx, np.isfinite(cx), "x", "x coordinate must be finite"),
              (cy, np.isfinite(cy), "y", "y coordinate must be finite"),
              (w, np.isfinite(w) & (w > 0), "width", "width must be > 0"),
              (h, np.isfinite(h) & (h > 0), "height", "height must be > 0"),
              (conf, (conf >= 0.0) & (conf <= 1.0), "confidence", "confidence must be in [0, 1]")]
    ok = np.logical_and.reduce([ok for _, ok, _, _ in checks])
    if not ok.all():
        frame = frame_index[np.argmin(ok)]  # the first line with a bad box
        rows = frame_index == frame
        values, ok, name, message = next(check for check in checks if not check[1][rows].all())
        got = float(values[rows][np.argmin(ok[rows])])
        raise ValidationError(name, f"line {list(first_line.values())[frame]}: {message}, got {got!r}")
    return DetectionLog(tuple(first_line)[:len(counts)], tuple(timestamps), frame_index, dets)


def parse_detections(stream: IO[str]) -> DetectionLog:
    """Parse a detection log text stream, preserving record and detection order.

    Malformed records and repeated frame ids raise :class:`ValidationError`
    on ``detections``; invariant violations raise it naming the field.  Every message
    starts ``line N:``, and names the first line at fault.  Blank lines are ignored.
    """
    first_line = {}  # frame id -> line number, in log order
    timestamps, counts = [], []
    columns = [array("d") for _ in _NUMBER_FIELDS] + [[]]  # cls last: it grows only with whole lines
    try:
        for line_no, record in json_lines(stream, "detections"):
            try:
                frame_id = json_frame_id(record.get("frame"))
            except TypeError as exc:
                raise _log_error(line_no, str(exc)) from None
            note_first_line(first_line, frame_id, line_no, "detections")
            ts = record.get("ts")
            if ts is not None and not isinstance(ts, str):
                raise _log_error(line_no, '"ts" must be a string when present')
            dets_raw = record.get("dets", [])
            if not isinstance(dets_raw, list):
                raise _log_error(line_no, '"dets" must be a list')
            if not extend_columns(columns, dets_raw, _ROW):
                _entry_fault(dets_raw, line_no)
            counts.append(len(dets_raw))
            timestamps.append(ts)
    finally:  # also after a bad line, so that an earlier line's bad box is named first
        log = _checked_log(first_line, timestamps, counts, columns)
    return log


def write_detections(stream: IO[str], log: DetectionLog) -> None:
    """Inverse of :func:`parse_detections`: per frame, the line ``json.dumps(record,
    sort_keys=True)`` gives, built from json's own encoders (keys sorted, floats by
    ``repr`` as a log's numbers are finite, strings ASCII-escaped)."""
    for frame in log:
        dets = ", ".join([f'{{"cls": {encode_basestring_ascii(cls)}, "conf": {conf!r}, "cx": {cx!r}, '
                          f'"cy": {cy!r}, "h": {h!r}, "w": {w!r}}}'
                          for cx, cy, w, h, conf, cls in frame.detections.tolist()])
        ts = "" if frame.timestamp is None else f', "ts": {encode_basestring_ascii(frame.timestamp)}'
        stream.write(f'{{"dets": [{dets}], "frame": {encode_basestring_ascii(frame.frame_id)}{ts}}}\n')


def serialize_detections(log: DetectionLog) -> str:
    """The detection log :func:`write_detections` writes, as one string."""
    buf = io.StringIO()
    write_detections(buf, log)
    return buf.getvalue()


def filter_detections(log: DetectionLog, det_filter: DetectionFilter) -> DetectionLog:
    """Keep detections passing the class/confidence filter.

    Frames that end up empty are retained: the frame count feeds the
    clustering min-points default and must reflect elapsed capture time.
    """
    dets = log.detections
    allowed = np.zeros(len(dets), dtype=bool)
    for cls in det_filter.allowed_classes:
        allowed |= dets["cls"] == cls
    keep = allowed & (dets["conf"] >= det_filter.min_confidence)
    return DetectionLog(log.frame_ids, log.timestamps, log.frame_index[keep], dets[keep])
