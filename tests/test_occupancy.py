import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    AWKWARD_CHARS,
    aggregate_report_by_rescan,
    box_iou_scalar,
    classify_frame_per_slot,
    ground_truth,
    occupancy_join_by_loop,
    report_text_by_dumps,
    write_records_by_dumps,
)
from parkscan import occupancy
from parkscan.errors import ValidationError
from parkscan.geometry import Box, box_iou, boxes_array
from parkscan.occupancy import (
    ClassifierAdapter,
    DuplicateRecordError,
    FileScoreClassifier,
    FrameReport,
    GeometricOracleClassifier,
    MissingGroundTruthError,
    OccupancyRecord,
    OccupancyStatus,
    OccupancyTable,
    aggregate_report,
    classify_frame,
    classify_frames,
    read_records,
    write_records,
)
from parkscan.slots import ParkingSlot


def make_slot(slot_id, cx=0.0, cy=0.0, w=50.0, h=50.0):
    return ParkingSlot(slot_id=slot_id, area=Box(cx, cy, w, h), spread=0.0, members=10)


class ConstantClassifier(ClassifierAdapter):
    def __init__(self, score):
        self.score = score

    def classify(self, frame_id, slots):
        return [self.score] * len(slots)


class TableClassifier(ClassifierAdapter):
    def __init__(self, by_slot):
        self.by_slot = by_slot

    def classify(self, frame_id, slots):
        return [self.by_slot[s.slot_id] for s in slots]


SLOTS = [make_slot(0), make_slot(1, cx=100.0), make_slot(2, cx=200.0)]


def test_constant_one_marks_all_occupied():
    records = classify_frame(SLOTS, "f1", ConstantClassifier(1.0))
    assert [r.status for r in records] == [OccupancyStatus.OCCUPIED] * 3


def test_constant_zero_marks_all_vacant():
    records = classify_frame(SLOTS, "f1", ConstantClassifier(0.0))
    assert [r.status for r in records] == [OccupancyStatus.VACANT] * 3


def test_threshold_boundary_is_inclusive():
    records = classify_frame(SLOTS[:2], "f1", TableClassifier({0: 0.49, 1: 0.50}), threshold=0.5)
    assert records[0].status is OccupancyStatus.VACANT
    assert records[1].status is OccupancyStatus.OCCUPIED


def test_record_order_matches_slot_order():
    records = classify_frame(SLOTS, "f9", ConstantClassifier(0.7))
    assert [r.slot_id for r in records] == [0, 1, 2]
    assert all(r.frame_id == "f9" for r in records)


def test_failing_crop_yields_error_record_only():
    # A classifier with no score for one slot returns NaN there.
    records = classify_frame(SLOTS, "f1", TableClassifier({0: 0.9, 1: math.nan, 2: 0.9}))
    assert records[1].status is OccupancyStatus.ERROR
    assert records[1].score is None and records[1].error == "no score for frame 'f1', slot 1"
    assert records[0].status is OccupancyStatus.OCCUPIED
    assert records[2].status is OccupancyStatus.OCCUPIED


def test_out_of_range_score_becomes_error_record():
    records = classify_frame(SLOTS[:1], "f1", ConstantClassifier(1.5))
    assert records[0].status is OccupancyStatus.ERROR
    assert records[0].error == "classifier returned 1.5, outside [0, 1]"
    records = classify_frame(SLOTS, "f1", TableClassifier({0: -0.25, 1: 0.5, 2: math.inf}))
    assert [r.status for r in records] == [
        OccupancyStatus.ERROR, OccupancyStatus.OCCUPIED, OccupancyStatus.ERROR
    ]
    assert records[0].error == "classifier returned -0.25, outside [0, 1]"
    assert records[2].error == "classifier returned inf, outside [0, 1]"
    assert records[0].score is None and records[1].score == 0.5


def test_raising_classifier_errors_every_slot_of_the_frame():
    class Broken(ClassifierAdapter):
        def classify(self, frame_id, slots):
            raise RuntimeError("boom")

    records = classify_frame(SLOTS, "f1", Broken())
    assert [r.slot_id for r in records] == [0, 1, 2]
    assert all(r.status is OccupancyStatus.ERROR and r.score is None for r in records)
    assert all(r.error == "boom" and r.frame_id == "f1" for r in records)


@pytest.mark.parametrize(
    "scores, shape",
    [([0.9, 0.9], "(2,)"), ([0.9] * 4, "(4,)"), (0.9, "()"), ([[0.9, 0.9, 0.9]], "(1, 3)")],
)
def test_wrong_score_count_errors_every_slot_of_the_frame(scores, shape):
    class Miscounting(ClassifierAdapter):
        def classify(self, frame_id, slots):
            return scores

    records = classify_frame(SLOTS, "f1", Miscounting())
    assert all(r.status is OccupancyStatus.ERROR and r.score is None for r in records)
    assert all(r.error == records[0].error for r in records)
    assert records[0].error == f"classifier returned scores of shape {shape} for 3 slots"


def test_classify_frame_requires_slots_and_sane_threshold():
    with pytest.raises(ValueError):
        classify_frame([], "f1", ConstantClassifier(1.0))
    with pytest.raises(ValueError):
        classify_frame(SLOTS, "f1", ConstantClassifier(1.0), threshold=1.0)


# --- geometric oracle -------------------------------------------------------

def test_oracle_identical_box_scores_one():
    oracle = GeometricOracleClassifier({"f1": np.array([[0.0, 0.0, 50.0, 50.0]])})
    records = classify_frame(SLOTS[:1], "f1", oracle, threshold=oracle.decision_threshold)
    assert records[0].score == 1.0
    assert records[0].status is OccupancyStatus.OCCUPIED


def test_oracle_empty_frame_scores_zero():
    oracle = GeometricOracleClassifier({"f1": []})
    records = classify_frame(SLOTS[:1], "f1", oracle, threshold=oracle.decision_threshold)
    assert records[0].score == 0.0
    assert records[0].status is OccupancyStatus.VACANT


def test_oracle_half_overlap_hand_case():
    # Slot 50x50 at origin, vehicle 50x50 at (25, 0): intersection 25*50 =
    # 1250, union 3750, IoU = 1/3 >= 0.3.
    oracle = GeometricOracleClassifier({"f1": np.array([[25.0, 0.0, 50.0, 50.0]])})
    records = classify_frame(SLOTS[:1], "f1", oracle, threshold=oracle.decision_threshold)
    assert records[0].score == pytest.approx(1.0 / 3.0)
    assert records[0].status is OccupancyStatus.OCCUPIED


def test_oracle_unknown_frame_raises():
    oracle = GeometricOracleClassifier({"f1": []})
    with pytest.raises(MissingGroundTruthError, match="no ground truth for frame 'f2'"):
        oracle.classify("f2", [make_slot(0, w=1.0, h=1.0)])
    records = classify_frame(SLOTS, "f2", oracle, threshold=oracle.decision_threshold)
    assert [r.error for r in records] == ["no ground truth for frame 'f2'"] * 3


_coord = st.floats(-100.0, 100.0)
_side = st.floats(1.0, 80.0)
_box = st.builds(Box, _coord, _coord, _side, _side)


@given(areas=st.lists(_box, min_size=1, max_size=5), vehicles=st.lists(_box, max_size=5))
@settings(max_examples=100, deadline=None)
def test_oracle_scores_are_max_scalar_iou(areas, vehicles):
    slots = [ParkingSlot(slot_id=i, area=a, spread=0.0, members=1) for i, a in enumerate(areas)]
    oracle = GeometricOracleClassifier({"f1": boxes_array(vehicles)})
    expected = [
        max((box_iou_scalar((a.cx, a.cy, a.w, a.h), (v.cx, v.cy, v.w, v.h)) for v in vehicles),
            default=0.0)
        for a in areas
    ]
    assert oracle.classify("f1", slots).tolist() == expected
    records = classify_frame(slots, "f1", oracle, threshold=oracle.decision_threshold)
    assert [r.score for r in records] == expected


# --- file-backed scores -------------------------------------------------------

def test_file_scores_lookup_and_missing():
    clf = FileScoreClassifier.from_stream(io.StringIO('{"frame": "f1", "slot": 0, "score": 0.9}\n'))
    assert clf.classify("f1", [make_slot(0)]) == [0.9]
    assert math.isnan(clf.classify("f2", [make_slot(0)])[0])
    records = classify_frame([make_slot(0)], "f2", clf)
    assert records[0].status is OccupancyStatus.ERROR
    assert records[0].error == "no score for frame 'f2', slot 0"


def test_file_scores_validate_range_at_load():
    with pytest.raises(ValidationError):
        FileScoreClassifier.from_stream(io.StringIO('{"frame": "f1", "slot": 0, "score": -0.2}\n'))


def test_file_scores_from_stream():
    text = '{"frame": "f1", "slot": 0, "score": 0.25}\n{"frame": "f2", "slot": 1, "score": 1.0}\n'
    clf = FileScoreClassifier.from_stream(io.StringIO(text))
    assert clf.frames() == ["f1", "f2"]
    assert clf.classify("f2", [make_slot(1)]) == [1.0]


def test_file_scores_name_a_repeated_key_before_a_later_bad_line():
    lines = [{"frame": "f1", "slot": 0, "score": 0.5}, {"frame": "f1", "slot": 0, "score": 0.5},
             {"frame": "f1", "slot": 1, "score": 1.5}]
    with pytest.raises(ValidationError) as exc:
        FileScoreClassifier.from_stream(io.StringIO("".join(json.dumps(line) + "\n" for line in lines)))
    assert str(exc.value) == "line 2: frame 'f1', slot 0 repeats line 1"


_table_frame = st.sampled_from(["f1", "f2", "f10", "\u2028", 'a"b'])
_table_slot = st.sampled_from([0, 1, 2, 40, -5, 2**64])


@given(table=st.dictionaries(st.tuples(_table_frame, _table_slot), st.floats(0.0, 1.0), max_size=20),
       frame_ids=st.lists(st.one_of(_table_frame, st.just("unknown")), max_size=6),
       slot_ids=st.lists(st.one_of(_table_slot, st.just(7)), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_file_scores_score_frames_match_a_lookup_per_slot(table, frame_ids, slot_ids):
    slots = [make_slot(i) for i in slot_ids]
    expected = np.array([[table.get((f, i), math.nan) for i in slot_ids] for f in frame_ids], float)
    text = "".join(json.dumps({"frame": f, "slot": i, "score": v}) + "\n" for (f, i), v in table.items())
    clf = FileScoreClassifier.from_stream(io.StringIO(text))
    scores, failed = clf.score_frames(frame_ids, slots)
    assert failed == {}
    assert scores.reshape(len(frame_ids), len(slots)).tobytes() == expected.tobytes()
    assert [repr(clf.classify(f, slots)) for f in frame_ids] == [repr(row) for row in expected.tolist()]
    assert clf.frames() == sorted({f for f, _ in table})


# --- aggregation ------------------------------------------------------------

def rec(frame, slot, status, score=0.5):
    return OccupancyRecord(slot_id=slot, frame_id=frame, score=score, status=status)


def test_aggregate_counts():
    records = [rec("f", i, OccupancyStatus.OCCUPIED) for i in range(3)]
    report = aggregate_report(records)
    assert report["f"].occupied == 3 and report["f"].vacant == 0


def test_aggregate_empty():
    assert aggregate_report([]) == {}


def test_aggregate_names_vacant_slot():
    records = [
        rec("f", 0, OccupancyStatus.OCCUPIED),
        rec("f", 1, OccupancyStatus.VACANT),
        rec("f", 2, OccupancyStatus.OCCUPIED),
    ]
    report = aggregate_report(records)
    assert (report["f"].occupied, report["f"].vacant) == (2, 1)
    assert report["f"].vacant_slots == (1,)
    assert report["f"].occupied + report["f"].vacant == 3


def test_aggregate_rejects_duplicates():
    records = [rec("f", 0, OccupancyStatus.VACANT), rec("f", 0, OccupancyStatus.OCCUPIED)]
    with pytest.raises(DuplicateRecordError):
        aggregate_report(records)


def test_records_round_trip():
    records = classify_frame(SLOTS, "f1", ConstantClassifier(0.75))
    # An out-of-range score gives ERROR records that carry the reason.
    records += classify_frame(SLOTS, "f2", ConstantClassifier(1.5))
    assert records[-1].status is OccupancyStatus.ERROR and "outside [0, 1]" in records[-1].error
    buf = io.StringIO()
    write_records(buf, records)
    assert list(read_records(io.StringIO(buf.getvalue()))) == records
    lines = buf.getvalue().splitlines()
    assert ['"error"' in line for line in lines] == [r.status is OccupancyStatus.ERROR for r in records]


@pytest.mark.parametrize("status", ["BUSY", "occupied", "", None, 1, True, ["VACANT"], {"s": "ERROR"}])
def test_unknown_record_status_names_the_value(status):
    with pytest.raises(ValueError) as enum_error:
        OccupancyStatus(status)
    line = json.dumps({"frame": "f1", "slot": 0, "score": 0.5, "status": status})
    with pytest.raises(ValidationError) as exc:
        read_records(io.StringIO(line + "\n"))
    assert str(exc.value) == f"line 1: bad record ({enum_error.value})"


# --- the array code against the per-record loops it replaced ---------------------------

_awkward_text = st.text(alphabet=st.sampled_from(AWKWARD_CHARS), min_size=1)
_frame_id = st.one_of(_awkward_text, st.text(min_size=1))
_edge_score = st.sampled_from(
    [0.0, -0.0, 1.0, 5e-324, 2.2250738585072009e-308, 0.1 + 0.2, 1 / 3, 0.5, 0, 1,
     math.nan, math.inf, -math.inf, 1e300, -1.5]
)
_score = st.one_of(
    _edge_score,
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**70), 2**70),
    st.floats(0.0, 1.0).map(np.float64),
)
_scored = st.builds(
    OccupancyRecord,
    slot_id=st.integers(-(2**40), 2**40),
    frame_id=_frame_id,
    score=_score,
    status=st.sampled_from([OccupancyStatus.OCCUPIED, OccupancyStatus.VACANT]),
)
_error = st.builds(
    OccupancyRecord,
    slot_id=st.integers(0, 10**6),
    frame_id=_frame_id,
    score=st.none(),
    status=st.just(OccupancyStatus.ERROR),
    error=st.one_of(st.none(), _awkward_text, st.text()),
)


@given(records=st.lists(st.one_of(_scored, _error), max_size=30))
@settings(max_examples=300, deadline=None)
def test_write_records_matches_json_dumps_byte_for_byte(records):
    buf, ref = io.StringIO(), io.StringIO()
    write_records(buf, records)
    write_records_by_dumps(ref, records)
    assert buf.getvalue() == ref.getvalue()


# Records as the writer writes them: every score is in [0, 1], and only ERROR records carry a
# reason, a string.
_written = st.one_of(
    st.builds(lambda r, score: r._replace(score=score, error=None), _scored,
              st.one_of(_edge_score.filter(lambda s: 0 <= s <= 1), st.floats(0.0, 1.0))),
    _error.filter(lambda r: r.error is not None),
)


@given(records=st.lists(_written, max_size=30, unique_by=lambda r: (r.frame_id, r.slot_id)))
@settings(max_examples=300, deadline=None)
def test_read_records_returns_the_written_records(records):
    buf = io.StringIO()
    write_records(buf, records)
    assert list(read_records(io.StringIO(buf.getvalue()))) == records


def test_read_records_rejects_a_repeated_key():
    lines = [{"frame": "f1", "slot": 0, "score": 0.5, "status": "VACANT"},
             {"frame": "f1", "slot": 1, "score": None, "status": "ERROR", "error": "x"},
             {"frame": "f1", "slot": 0, "score": 0.9, "status": "OCCUPIED"}]
    with pytest.raises(ValidationError) as exc:
        read_records(io.StringIO("".join(json.dumps(line) + "\n" for line in lines)))
    assert exc.value.field == "records"
    assert str(exc.value) == "line 3: frame 'f1', slot 0 repeats line 1"


def test_read_records_name_a_repeated_key_before_a_later_bad_line():
    lines = [{"frame": "f0", "slot": 0, "score": 0.5, "status": "VACANT"},
             {"frame": "f0", "slot": 0, "score": 0.5, "status": "VACANT"},
             {"frame": "f0", "slot": 1, "score": 7.5, "status": "OCCUPIED"}]
    with pytest.raises(ValidationError) as exc:
        read_records(io.StringIO("".join(json.dumps(line) + "\n" for line in lines)))
    assert str(exc.value) == "line 2: frame 'f0', slot 0 repeats line 1"


_frame_report = st.builds(
    lambda occupied, vacant, errors: FrameReport(occupied, len(vacant), tuple(vacant), tuple(errors)),
    st.integers(0, 10**6), *[st.lists(st.integers(-(2**40), 2**40), max_size=4)] * 2,
)


@given(report=st.dictionaries(_frame_id, _frame_report, max_size=6))
@settings(max_examples=300, deadline=None)
def test_report_json_matches_json_dumps_byte_for_byte(report):
    assert occupancy.report_json(report) == report_text_by_dumps(report)


@given(records=st.lists(st.one_of(_scored, _error), max_size=30))
@settings(max_examples=100, deadline=None)
def test_aggregate_report_matches_rescan(records):
    try:
        report = aggregate_report(records)
    except DuplicateRecordError:
        keys = [(r.frame_id, r.slot_id) for r in records]
        assert len(set(keys)) < len(keys)
        return
    assert report == aggregate_report_by_rescan(records)


_classifier_score = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1.0 + 2**-52, 2.0, -0.0, 0.0, 1.0, -1e-300, 0.5]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(0.0, 1.0),
)


@given(
    scores=st.lists(_classifier_score, min_size=1, max_size=12),
    threshold=st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.just(0.5)),
    at_threshold=st.booleans(),
    frame_id=_frame_id,
)
@settings(max_examples=300, deadline=None)
def test_classify_frame_matches_per_slot_loop(scores, threshold, at_threshold, frame_id):
    if at_threshold:
        scores = [threshold] + scores
    slots = [make_slot(i) for i in range(len(scores))]
    classifier = TableClassifier(dict(enumerate(scores)))
    expected = classify_frame_per_slot(slots, frame_id, classifier, threshold)
    assert classify_frame(slots, frame_id, classifier, threshold=threshold) == expected


def test_classify_frame_errors_match_per_slot_loop():
    class Broken(ClassifierAdapter):
        def classify(self, frame_id, slots):
            raise RuntimeError("boom")

    for classifier in (Broken(), ConstantClassifier(np.float64(0.7)), TableClassifier({0: 1, 1: 0, 2: 2})):
        assert classify_frame(SLOTS, "f1", classifier, 0.5) == classify_frame_per_slot(
            SLOTS, "f1", classifier, 0.5
        )


# --- the occupancy table: batch oracle, records converter and evaluate join -----------------

_frame_vehicles = st.lists(_box, max_size=12).map(boxes_array)


@given(areas=st.lists(_box, min_size=1, max_size=6),
       frames=st.lists(st.one_of(st.just(np.empty((0, 4))), _frame_vehicles), min_size=1, max_size=8),
       block_pairs=st.sampled_from([1, 7, 1 << 16]))
@settings(max_examples=150, deadline=None)
def test_batch_oracle_equals_per_frame_iou_bit_for_bit(areas, frames, block_pairs):
    slots = [ParkingSlot(slot_id=i, area=a, spread=0.0, members=1) for i, a in enumerate(areas)]
    truth = {f"f{i}": v for i, v in enumerate(frames)}
    oracle = GeometricOracleClassifier(truth)
    expected = np.array([box_iou(boxes_array(areas)[:, None], v[None]).max(axis=1, initial=0.0)
                         for v in truth.values()])
    with mock.patch.object(occupancy, "_IOU_BLOCK_PAIRS", block_pairs):
        scores, failed = oracle.score_frames(list(truth) + ["missing"], slots)
    assert failed == {len(truth): "no ground truth for frame 'missing'"}
    assert scores[:-1].tobytes() == expected.tobytes()


_frame_ids = [f"f{i}" for i in range(6)]


@given(frames=st.lists(st.lists(_box, max_size=5), min_size=1, max_size=6),
       areas=st.lists(_box, min_size=1, max_size=5),
       asked=st.one_of(st.just(_frame_ids), st.permutations(_frame_ids),
                       st.lists(st.sampled_from([*_frame_ids, "missing"]), max_size=10)),
       block_pairs=st.sampled_from([1, 7, 1 << 16]))
@settings(max_examples=150, deadline=None)
def test_oracle_from_truth_equals_the_mapping_oracle_bit_for_bit(frames, areas, asked, block_pairs):
    # Frames asked in truth order, shuffled, as a subset, twice, or missing from truth (the
    # strategies name six frame ids; truth holds the first ``len(frames)`` of them).
    vehicles = [[(b.cx, b.cy, b.w, b.h, "parked") for b in boxes] for boxes in frames]
    truth = ground_truth(_frame_ids[:len(frames)], (), [[True]] * len(frames), vehicles)
    slots = [ParkingSlot(slot_id=i, area=a, spread=0.0, members=1) for i, a in enumerate(areas)]
    with mock.patch.object(occupancy, "_IOU_BLOCK_PAIRS", block_pairs):
        scores, failed = GeometricOracleClassifier.from_truth(truth).score_frames(asked, slots)
        expected, expected_failed = GeometricOracleClassifier(truth.vehicles_by_frame()).score_frames(asked, slots)
    assert failed == expected_failed
    assert scores.tobytes() == expected.tobytes()


def test_oracle_from_truth_holds_the_truth_box_column():
    truth = ground_truth(["f1", "f2"], (), [[True], [False]], [[(10.0, 10.0, 5.0, 5.0, "parked")], []])
    assert np.shares_memory(GeometricOracleClassifier.from_truth(truth)._boxes, truth.boxes)  # no copy


def test_batch_oracle_splits_a_frame_across_blocks(monkeypatch):
    # One frame with 30 vehicles against 3 slots: at 7 pairs per block each block holds
    # two vehicles, so the frame's maximum is taken over 15 blocks.
    rng = np.random.default_rng(5)
    vehicles = np.column_stack([rng.uniform(0, 60, (30, 2)), rng.uniform(5, 20, (30, 2))])
    slots = [make_slot(i, cx=20.0 * i, w=15.0, h=15.0) for i in range(3)]
    oracle = GeometricOracleClassifier({"empty": np.empty((0, 4)), "busy": vehicles, "also-empty": []})
    expected = box_iou(boxes_array([s.area for s in slots])[:, None], vehicles[None]).max(axis=1, initial=0.0)
    monkeypatch.setattr(occupancy, "_IOU_BLOCK_PAIRS", 7)
    scores, failed = oracle.score_frames(["empty", "busy", "also-empty"], slots)
    assert failed == {}
    assert scores.tobytes() == np.array([np.zeros(3), expected, np.zeros(3)]).tobytes()
    assert oracle.classify("busy", slots).tobytes() == expected.tobytes()


class _FlakyTable(ClassifierAdapter):
    """Scores from a table; a frame listed in ``broken`` raises, one in ``short`` returns too few."""

    def __init__(self, scores, broken=(), short=()):
        self.scores, self.broken, self.short = scores, broken, short

    def classify(self, frame_id, slots):
        if frame_id in self.broken:
            raise RuntimeError(f"camera offline for {frame_id}")
        row = [self.scores[frame_id][s.slot_id] for s in slots]
        return row[:-1] if frame_id in self.short else row


@given(rows=st.lists(st.lists(_classifier_score, min_size=3, max_size=3), min_size=1, max_size=6),
       broken=st.sets(st.integers(0, 5)), short=st.sets(st.integers(0, 5)),
       threshold=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@settings(max_examples=150, deadline=None)
def test_classify_frames_matches_the_per_slot_loop_frame_by_frame(rows, broken, short, threshold):
    frame_ids = [f"f{i}" for i in range(len(rows))]
    classifier = _FlakyTable(dict(zip(frame_ids, [dict(enumerate(r)) for r in rows])),
                             broken={f"f{i}" for i in broken}, short={f"f{i}" for i in short})
    expected = [r for fid in frame_ids for r in classify_frame_per_slot(SLOTS, fid, classifier, threshold)]
    table = classify_frames(SLOTS, frame_ids, classifier, threshold=threshold)
    assert list(table) == expected
    assert table.report() == aggregate_report_by_rescan(expected)


@given(records=st.lists(st.one_of(_scored, _error), max_size=30))
@settings(max_examples=100, deadline=None)
def test_table_from_records_iterates_the_same_records(records):
    assert list(OccupancyTable.from_records(records)) == records


_join_record = st.builds(
    OccupancyRecord,
    slot_id=st.integers(-1, 4),
    frame_id=st.sampled_from(["a", "b", "c", "d"]),
    score=st.one_of(st.floats(0.0, 1.0), st.integers(0, 1), st.none()),
    status=st.sampled_from(list(OccupancyStatus)),
)


@given(records=st.lists(_join_record, max_size=40),
       pred_to_truth=st.dictionaries(st.integers(-1, 4), st.one_of(st.integers(0, 5), st.integers(-3, 2**70))),
       occupancy=st.dictionaries(st.sampled_from(["a", "b", "c", "x"]), st.lists(st.booleans(), max_size=6)),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_truth_join_matches_the_record_loop(records, pred_to_truth, occupancy, seed):
    # Shuffled record order, ERROR records, frames missing from truth, unmatched slots,
    # and truth ids outside a frame's bits (which must name the same record).
    records = [records[i] for i in np.random.default_rng(seed).permutation(len(records))]
    truth = ground_truth(occupancy, (), occupancy.values(), [[]] * len(occupancy))
    try:
        expected = occupancy_join_by_loop(records, pred_to_truth, occupancy)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            OccupancyTable.from_records(records).join_truth(pred_to_truth, truth)
        assert str(got.value) == str(exc)
        return
    assert OccupancyTable.from_records(records).join_truth(pred_to_truth, truth) == expected


def test_truth_join_rejects_a_truth_id_beyond_its_own_frames_bits():
    # Truth slot 3 exists in frame "b" but not in frame "a".
    records = [rec("b", 1, OccupancyStatus.VACANT), rec("a", 1, OccupancyStatus.OCCUPIED)]
    table = OccupancyTable.from_records(records)
    with pytest.raises(ValidationError, match="frame 'a' has no occupancy bit for truth slot 3"):
        table.join_truth({1: 3}, ground_truth("ab", (), [(True, False), (True,) * 5], [[], []]))
    truth = ground_truth("b", (), [(False, False, False, True)], [[]])
    assert table.join_truth({1: 3}, truth) == ([False], [True], [0.5])
