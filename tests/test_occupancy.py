import io

import pytest

from parkscan.errors import ValidationError
from parkscan.geometry import Box
from parkscan.occupancy import (
    ClassifierAdapter,
    CropSpec,
    DuplicateRecordError,
    FileScoreClassifier,
    GeometricOracleClassifier,
    MissingGroundTruthError,
    MissingScoreError,
    OccupancyRecord,
    OccupancyStatus,
    aggregate_report,
    classify_frame,
    read_records,
    write_records,
)
from parkscan.slots import ParkingSlot


def make_slot(slot_id, cx=0.0, cy=0.0, w=50.0, h=50.0):
    return ParkingSlot(slot_id=slot_id, area=Box(cx, cy, w, h), spread=0.0, members=10)


class ConstantClassifier(ClassifierAdapter):
    def __init__(self, score):
        self.score = score

    def classify(self, crop):
        return self.score


class TableClassifier(ClassifierAdapter):
    def __init__(self, by_slot):
        self.by_slot = by_slot

    def classify(self, crop):
        return self.by_slot[crop.slot_id]


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
    class Flaky(ClassifierAdapter):
        def classify(self, crop):
            if crop.slot_id == 1:
                raise RuntimeError("boom")
            return 0.9

    records = classify_frame(SLOTS, "f1", Flaky())
    assert records[1].status is OccupancyStatus.ERROR
    assert records[1].score is None and "boom" in records[1].error
    assert records[0].status is OccupancyStatus.OCCUPIED
    assert records[2].status is OccupancyStatus.OCCUPIED


def test_out_of_range_score_becomes_error_record():
    records = classify_frame(SLOTS[:1], "f1", ConstantClassifier(1.5))
    assert records[0].status is OccupancyStatus.ERROR


def test_classify_frame_requires_slots_and_sane_threshold():
    with pytest.raises(ValueError):
        classify_frame([], "f1", ConstantClassifier(1.0))
    with pytest.raises(ValueError):
        classify_frame(SLOTS, "f1", ConstantClassifier(1.0), threshold=1.0)


# --- geometric oracle -------------------------------------------------------

def test_oracle_identical_box_scores_one():
    oracle = GeometricOracleClassifier({"f1": [Box(0.0, 0.0, 50.0, 50.0)]})
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
    oracle = GeometricOracleClassifier({"f1": [Box(25.0, 0.0, 50.0, 50.0)]})
    records = classify_frame(SLOTS[:1], "f1", oracle, threshold=oracle.decision_threshold)
    assert records[0].score == pytest.approx(1.0 / 3.0)
    assert records[0].status is OccupancyStatus.OCCUPIED


def test_oracle_unknown_frame_raises():
    oracle = GeometricOracleClassifier({"f1": []})
    with pytest.raises(MissingGroundTruthError):
        oracle.classify(CropSpec(slot_id=0, frame_id="f2", region=Box(0, 0, 1, 1)))


# --- file-backed scores -------------------------------------------------------

def test_file_scores_lookup_and_missing():
    clf = FileScoreClassifier({("f1", 0): 0.9})
    assert clf.classify(CropSpec(0, "f1", Box(0, 0, 1, 1))) == 0.9
    with pytest.raises(MissingScoreError):
        clf.classify(CropSpec(0, "f2", Box(0, 0, 1, 1)))


def test_file_scores_validate_range_at_load():
    with pytest.raises(ValidationError):
        FileScoreClassifier({("f1", 0): 1.5})
    with pytest.raises(ValidationError):
        FileScoreClassifier.from_stream(io.StringIO('{"frame": "f1", "slot": 0, "score": -0.2}\n'))


def test_file_scores_from_stream():
    text = '{"frame": "f1", "slot": 0, "score": 0.25}\n{"frame": "f2", "slot": 1, "score": 1.0}\n'
    clf = FileScoreClassifier.from_stream(io.StringIO(text))
    assert clf.frames() == ["f1", "f2"]
    assert clf.classify(CropSpec(1, "f2", Box(0, 0, 1, 1))) == 1.0


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
    assert read_records(io.StringIO(buf.getvalue())) == records
    lines = buf.getvalue().splitlines()
    assert ['"error"' in line for line in lines] == [r.status is OccupancyStatus.ERROR for r in records]
