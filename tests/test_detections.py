import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import AWKWARD_CHARS, EDGE_FLOATS, detection_log, serialize_detections_by_dumps
from parkscan.detections import (
    DETECTION_DTYPE,
    DetectionFilter,
    FrameDetections,
    filter_detections,
    parse_detections,
    serialize_detections,
)
from parkscan.errors import ValidationError


def det(cx=10.0, cy=20.0, w=5.0, h=5.0, cls="car", conf=0.9):
    return (cx, cy, w, h, conf, cls)


def test_parse_empty_stream():
    log = parse_detections(io.StringIO(""))
    assert log.frame_ids == () and log.detections.dtype == DETECTION_DTYPE and len(log.detections) == 0
    assert list(log) == []


def test_parse_single_record_round_trip():
    line = '{"frame": "f1", "dets": [{"cx": 10, "cy": 20, "w": 5, "h": 5, "cls": "car", "conf": 0.9}]}\n'
    log = parse_detections(io.StringIO(line))
    (frame,) = log
    assert (frame.frame_id, frame.timestamp) == ("f1", None)
    assert frame.detections.tolist() == [det()]
    assert log.frame_index.tolist() == [0]
    assert not log.detections.flags.writeable and not frame.detections.flags.writeable


def test_parse_rejects_out_of_range_confidence():
    line = '{"frame": "f1", "dets": [{"cx": 1, "cy": 2, "w": 5, "h": 5, "cls": "car", "conf": 1.2}]}'
    with pytest.raises(ValidationError) as exc:
        parse_detections(io.StringIO(line))
    assert exc.value.field == "confidence"


def test_parse_error_carries_line_number():
    text = '{"frame": "f1", "dets": []}\nnot json at all\n'
    with pytest.raises(ValidationError) as exc:
        parse_detections(io.StringIO(text))
    assert str(exc.value).startswith("line 2: ")


@pytest.mark.parametrize(
    "bad_line",
    [
        '{"dets": []}',
        '{"frame": "", "dets": []}',
        '{"frame": "f1", "dets": [{"cy": 2, "w": 1, "h": 1, "cls": "car", "conf": 0.6}]}',
        '{"frame": "f1", "dets": [{"cx": "x", "cy": 2, "w": 1, "h": 1, "cls": "car", "conf": 0.6}]}',
        '[1, 2, 3]',
    ],
)
def test_parse_rejects_malformed_records(bad_line):
    with pytest.raises(ValidationError) as exc:
        parse_detections(io.StringIO(bad_line))
    assert exc.value.field == "detections" and str(exc.value).startswith("line 1: ")


def test_first_fault_is_named_entry_by_entry():
    good = {"cx": 1, "cy": 2, "w": 5, "h": 5, "cls": "car", "conf": 0.9}
    line = json.dumps({"frame": "f1", "dets": [good, {**good, "cx": True}, {**good, "cls": 5}]})
    with pytest.raises(ValidationError) as exc:  # a check of the cls column first would name cls
        parse_detections(io.StringIO(line))
    assert str(exc.value) == 'line 1: detection field "cx" must be a number'


def _entry(cx=10.0, cy=20.0, w=5.0, h=5.0, cls="car", conf=0.9):
    return {"cx": cx, "cy": cy, "w": w, "h": h, "cls": cls, "conf": conf}


def _log_text(*dets_per_frame):
    return "".join(json.dumps({"frame": f"f{i}", "dets": dets}) + "\n"
                   for i, dets in enumerate(dets_per_frame, start=1))


def test_detection_invariants():
    for bad, name in [
        (_entry(w=-1.0), "width"),
        (_entry(h=0.0), "height"),
        (_entry(w=float("inf")), "width"),
        (_entry(cx=float("nan")), "x"),
        (_entry(cy=float("inf")), "y"),
        (_entry(conf=-0.1), "confidence"),
    ]:
        with pytest.raises(ValidationError) as exc:
            parse_detections(io.StringIO(_log_text([_entry()], [_entry(), bad])))
        assert exc.value.field == name
        assert str(exc.value).startswith("line 2: ")
    # A line's box faults are named by field, not by entry, and before any fault of a later line:
    # a type fault, or an integer too large for a float.
    for later in (_entry(cx="x"), _entry(cy=10**400)):
        text = _log_text([], [_entry(conf=1.5), _entry(cx=float("nan"))], [_entry(), later])
        with pytest.raises(ValidationError) as exc:
            parse_detections(io.StringIO(text))
        assert exc.value.field == "x"
        assert str(exc.value) == "line 2: x coordinate must be finite, got nan"
    # An integer too large for a float is named before the line's bad boxes, which are read
    # into the columns ahead of it.
    with pytest.raises(ValidationError) as exc:
        parse_detections(io.StringIO(_log_text([_entry()], [_entry(cx=float("nan")), _entry(conf=10**400)])))
    assert str(exc.value) == 'line 2: detection field "conf" is too large for a float'


def test_parse_rejects_nan_center_with_line_number():
    text = '{"frame": "f1", "dets": []}\n{"frame": "f2", "dets": [{"cx": NaN, "cy": 2, "w": 5, "h": 5, "cls": "car", "conf": 0.9}]}\n'
    with pytest.raises(ValidationError) as exc:
        parse_detections(io.StringIO(text))
    assert exc.value.field == "x"
    assert str(exc.value).startswith("line 2: ")


def test_parse_rejects_repeated_frame_id():
    text = '{"frame": "f1", "dets": []}\n{"frame": "f2", "dets": []}\n{"frame": "f1", "dets": []}\n'
    with pytest.raises(ValidationError) as exc:
        parse_detections(io.StringIO(text))
    assert str(exc.value) == "line 3: frame 'f1' repeats line 1"


def test_filter_keeps_threshold_inclusive():
    log = detection_log([FrameDetections("f1", [det(conf=0.50), det(conf=0.4999)])])
    out = filter_detections(log, DetectionFilter(min_confidence=0.5))
    assert out.detections["conf"].tolist() == [0.50]


def test_filter_drops_disallowed_class():
    log = detection_log([FrameDetections("f1", [det(cls="person", conf=0.99), det(cls="truck")])])
    out = filter_detections(log, DetectionFilter(allowed_classes={"car", "truck"}))
    assert out.detections["cls"].tolist() == ["truck"]


def test_filter_retains_empty_frames():
    log = detection_log([FrameDetections("f1", [det(conf=0.1)]), FrameDetections("f2", []),
                         FrameDetections("f3", [det(), det(cls="person")])])
    out = filter_detections(log, DetectionFilter())
    assert out.frame_ids == log.frame_ids and out.timestamps == log.timestamps
    assert [len(f.detections) for f in out] == [0, 0, 1]
    assert out.frame_index.tolist() == [2]
    assert not out.detections.flags.writeable and not out.frame_index.flags.writeable


def test_filter_requires_classes():
    with pytest.raises(ValidationError):
        DetectionFilter(allowed_classes=frozenset())


finite_coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
positive_size = st.floats(min_value=1e-3, max_value=1e5, allow_nan=False)
confidence = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
class_label = st.sampled_from(["car", "truck", "person", "bus"])

detection_st = st.builds(
    det, cx=finite_coord, cy=finite_coord, w=positive_size, h=positive_size,
    cls=class_label, conf=confidence,
)
frame_st = st.builds(
    FrameDetections,
    frame_id=st.text(alphabet="abcdef0123456789", min_size=1, max_size=8),
    detections=st.lists(detection_st, max_size=6),
    timestamp=st.none() | st.just("2026-01-01T00:00:00"),
)
frames_st = st.lists(frame_st, max_size=8, unique_by=lambda f: f.frame_id).map(detection_log)
filter_st = st.builds(
    DetectionFilter,
    allowed_classes=st.sets(class_label, min_size=1).map(frozenset),
    min_confidence=confidence,
)


@given(log=frames_st, det_filter=filter_st)
@settings(max_examples=60)
def test_filter_is_idempotent_submultiset(log, det_filter):
    once = filter_detections(log, det_filter)
    twice = filter_detections(once, det_filter)
    assert serialize_detections(once) == serialize_detections(twice)
    assert once.frame_ids == log.frame_ids
    for before, after in zip(log, once):
        remaining = before.detections.tolist()
        for d in after.detections.tolist():
            remaining.remove(d)  # raises if not a sub-multiset


@given(log=frames_st)
@settings(max_examples=60)
def test_serialize_parse_round_trip(log):
    text = serialize_detections(log)
    assert serialize_detections(parse_detections(io.StringIO(text))) == text


_text = st.one_of(st.text(alphabet=st.sampled_from(AWKWARD_CHARS), min_size=1), st.text(min_size=1))
_coord = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
_size = st.one_of(st.sampled_from([v for v in EDGE_FLOATS if v > 0]),
                  st.floats(min_value=5e-324, allow_infinity=False))
_conf = st.one_of(st.sampled_from([v for v in EDGE_FLOATS if 0 <= v <= 1]), st.floats(0.0, 1.0))
_any_frame = st.builds(
    FrameDetections,
    frame_id=_text,
    detections=st.lists(st.tuples(_coord, _coord, _size, _size, _conf, _text), max_size=5),
    timestamp=st.none() | _text,
)


@given(log=st.lists(_any_frame, max_size=6).map(detection_log))
@settings(max_examples=200, deadline=None)
def test_serialize_matches_json_dumps_byte_for_byte(log):
    assert serialize_detections(log) == serialize_detections_by_dumps(log)


def test_serialize_emits_one_json_object_per_line():
    log = detection_log([FrameDetections("f1", [det()], timestamp="2026-01-01T00:00:00")])
    lines = serialize_detections(log).splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["frame"] == "f1" and record["ts"] == "2026-01-01T00:00:00"
    assert record["dets"][0] == {"cx": 10.0, "cy": 20.0, "w": 5.0, "h": 5.0, "cls": "car", "conf": 0.9}
