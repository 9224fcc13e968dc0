import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import json_lines_by_loads
from parkscan.detections import parse_detections
from parkscan.errors import ValidationError, json_lines
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
        pytest.param('{"frame": ' + "[" * 100_000 + "]" * 100_000 + "}", "line 3: invalid JSON (nested too deeply)",
                     id="nested-too-deeply"),
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


# Line pieces that the scanner's fast path must either take whole or hand to json.loads:
# a BOM, leading and trailing blanks, CR, trailing data, and lines that are not one object.
_PREFIXES = ["", "", "", "\ufeff", " ", "\t", " \t "]
_SUFFIXES = ["", "", "", " ", "\t", "\r", " x", "}", "{}", " 5", ",", "\x85"]
_ODD_BODIES = ["", "\x85", "\u2028", " ", "NaN", "Infinity", "-Infinity", "[1, 2]", '"s"', "5", "null",
               "{not json", '{"a": NaN}', '{"a": -Infinity}', "{", "{}", '{"a": 1}{"b": 2}']
_value = st.one_of(st.integers(), st.floats(), st.text(max_size=3), st.none(), st.booleans())
_object = st.builds(lambda doc, ascii: json.dumps(doc, ensure_ascii=ascii),
                    st.dictionaries(st.text(max_size=3), _value, max_size=3), st.booleans())
_line = st.builds(lambda prefix, body, suffix, end: prefix + body + suffix + end,
                  st.sampled_from(_PREFIXES), st.one_of(_object, st.sampled_from(_ODD_BODIES)),
                  st.sampled_from(_SUFFIXES), st.sampled_from(["\n", "\n", "\r\n"]))


def _read_lines(reader, text):
    """The (line number, record) pairs a reader yields, and the text of the error that ends it."""
    pairs = []
    try:
        pairs.extend(reader(io.StringIO(text), "records"))
    except ValidationError as exc:
        return repr(pairs), str(exc)
    return repr(pairs), None  # repr: a NaN record equals its copy only as text


@given(lines=st.lists(_line, max_size=8), last_newline=st.booleans())
@settings(max_examples=500, deadline=None)
def test_json_lines_matches_one_json_loads_per_line(lines, last_newline):
    text = "".join(lines)
    if not last_newline:
        text = text.rstrip("\n")
    assert _read_lines(json_lines, text) == _read_lines(json_lines_by_loads, text)
