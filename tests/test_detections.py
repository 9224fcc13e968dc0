import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import AWKWARD_CHARS, EDGE_FLOATS, serialize_detections_by_dumps
from parkscan.detections import (
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
    assert parse_detections(io.StringIO("")) == []


def test_parse_single_record_round_trip():
    line = '{"frame": "f1", "dets": [{"cx": 10, "cy": 20, "w": 5, "h": 5, "cls": "car", "conf": 0.9}]}\n'
    frames = parse_detections(io.StringIO(line))
    assert len(frames) == 1
    assert frames[0].frame_id == "f1"
    assert frames[0] == FrameDetections("f1", [det()])
    assert frames[0].detections.tolist() == [det()]


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


def test_detection_invariants():
    for row, name in [
        (det(w=-1.0), "width"),
        (det(h=0.0), "height"),
        (det(w=float("inf")), "width"),
        (det(cx=float("nan")), "x"),
        (det(cy=float("inf")), "y"),
        (det(conf=-0.1), "confidence"),
    ]:
        with pytest.raises(ValidationError) as exc:
            FrameDetections("f1", [det(), row])
        assert exc.value.field == name


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
    frames = [FrameDetections("f1", [det(conf=0.50), det(conf=0.4999)])]
    out = filter_detections(frames, DetectionFilter(min_confidence=0.5))
    assert out[0].detections["conf"].tolist() == [0.50]


def test_filter_drops_disallowed_class():
    frames = [FrameDetections("f1", [det(cls="person", conf=0.99), det(cls="truck")])]
    out = filter_detections(frames, DetectionFilter(allowed_classes={"car", "truck"}))
    assert out[0].detections["cls"].tolist() == ["truck"]


def test_filter_retains_empty_frames():
    frames = [FrameDetections("f1"), FrameDetections("f2")]
    out = filter_detections(frames, DetectionFilter())
    assert out == frames


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
frames_st = st.lists(frame_st, max_size=8, unique_by=lambda f: f.frame_id)
filter_st = st.builds(
    DetectionFilter,
    allowed_classes=st.sets(class_label, min_size=1).map(frozenset),
    min_confidence=confidence,
)


@given(frames=frames_st, det_filter=filter_st)
@settings(max_examples=60)
def test_filter_is_idempotent_submultiset(frames, det_filter):
    once = filter_detections(frames, det_filter)
    twice = filter_detections(once, det_filter)
    assert once == twice
    assert len(once) == len(frames)
    for before, after in zip(frames, once):
        remaining = before.detections.tolist()
        for d in after.detections.tolist():
            remaining.remove(d)  # raises if not a sub-multiset


@given(frames=frames_st)
@settings(max_examples=60)
def test_serialize_parse_round_trip(frames):
    text = serialize_detections(frames)
    assert parse_detections(io.StringIO(text)) == frames


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


@given(frames=st.lists(_any_frame, max_size=6))
@settings(max_examples=200, deadline=None)
def test_serialize_matches_json_dumps_byte_for_byte(frames):
    assert serialize_detections(frames) == serialize_detections_by_dumps(frames)


def test_serialize_emits_one_json_object_per_line():
    frames = [FrameDetections("f1", [det()], timestamp="2026-01-01T00:00:00")]
    lines = serialize_detections(frames).splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["frame"] == "f1" and record["ts"] == "2026-01-01T00:00:00"
    assert record["dets"][0] == {"cx": 10.0, "cy": 20.0, "w": 5.0, "h": 5.0, "cls": "car", "conf": 0.9}
