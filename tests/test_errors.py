import io
import json

import pytest

from parkscan.detections import parse_detections
from parkscan.errors import ValidationError
from parkscan.occupancy import FileScoreClassifier, read_records
from parkscan.simulator import read_ground_truth_occupancy

# field -> (reader, one valid record)
READERS = {
    "detections": (parse_detections, {"frame": "f1", "dets": []}),
    "occupancy": (read_ground_truth_occupancy, {"frame": "f1", "occupancy": {"0": True}, "vehicles": []}),
    "score_table": (FileScoreClassifier.from_stream, {"frame": "f1", "slot": 0, "score": 0.5}),
    "records": (read_records, {"frame": "f1", "slot": 0, "score": 0.5, "status": "OCCUPIED"}),
}


@pytest.mark.parametrize(
    "bad_line, message",
    [
        ("[1, 2]", "line 3: record must be a JSON object"),
        ('"f1"', "line 3: record must be a JSON object"),
        ("{not json", "line 3: invalid JSON ("),
        ('{"frame": "f2"', "line 3: invalid JSON ("),
    ],
)
@pytest.mark.parametrize("field", sorted(READERS))
def test_every_line_reader_shares_the_line_rules(field, bad_line, message):
    reader, record = READERS[field]
    good = json.dumps(record)
    reader(io.StringIO(f"\n{good}\n \t\n"))  # blank lines are skipped
    with pytest.raises(ValidationError) as exc:
        reader(io.StringIO(f"{good}\n\n{bad_line}\n"))  # ... but counted
    assert exc.value.field == field
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize("field", sorted(READERS))
def test_raw_line_separator_in_a_frame_id_is_data(field):
    reader, record = READERS[field]
    frame_id = "f 1 "
    text = json.dumps({**record, "frame": frame_id}, ensure_ascii=False) + "\n"
    assert " " in text
    result = reader(io.StringIO(text))
    if field == "detections":
        assert [f.frame_id for f in result] == [frame_id]
    elif field == "occupancy":
        assert result.frame_ids == (frame_id,)
    elif field == "score_table":
        assert result.frames() == [frame_id]
    else:
        assert [r.frame_id for r in result] == [frame_id]
