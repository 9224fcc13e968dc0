"""Exception types shared across the package, and the checks every input reader shares."""

import json
import sys
from itertools import chain
from typing import IO, Iterator, Mapping

JSON_NUMBER_TYPES = frozenset((int, float))  # the exact types of json.loads numbers; bool is not one
_raw_decode = json.JSONDecoder().raw_decode  # json.loads without its BOM and whitespace checks


class ValidationError(ValueError):
    """A value violates a declared invariant. ``field`` names the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class ConfigError(ValueError):
    """A configuration document is missing, malformed, or inconsistent."""


def check_keys(doc, known, where: str) -> None:
    """``doc`` must be a JSON object whose keys are all in ``known``."""
    if not isinstance(doc, Mapping):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(f"{where} has unknown keys {unknown}; known: {sorted(known)}")


def json_number(value, what: str, kind=(int, float)):
    """``value`` if it is a JSON integer and ``kind`` is ``int``, else ``float(value)`` if it is
    a JSON number (a bool is neither). A TypeError or, for an integer too large for a float,
    a ValueError names ``what``."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{what} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    if kind is int:
        return value
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None


def extend_columns(columns: list, entries, row) -> bool:
    """Append the values ``row`` takes from each of ``entries`` to ``columns``, one per column, if
    they are JSON numbers but for a string last; else, or if an entry lacks a key, is not an object
    or holds a number too large for its column, return False (a column may then hold some values)."""
    try:
        values = list(zip(*map(row, entries))) or [()] * len(columns)
        if not (JSON_NUMBER_TYPES.issuperset(map(type, chain.from_iterable(values[:-1])))
                and {str}.issuperset(map(type, values[-1]))):
            return False
        for column, column_values in zip(columns, values[:-1]):
            column.extend(column_values)
        columns[-1].extend(map(sys.intern, values[-1]))  # one object per distinct string, not per entry
        return True
    except (KeyError, TypeError, OverflowError):
        return False


def json_frame_id(value) -> str:
    """``value`` if it is a non-empty JSON string; else TypeError."""
    if not isinstance(value, str) or not value:
        raise TypeError(f'"frame" must be a non-empty string, got {value!r}')
    return value


def json_lines(stream: IO[str], field: str) -> Iterator[tuple[int, dict]]:
    """``(line number, object)`` for each non-blank line of a JSON-lines text stream.

    The stream is read one line at a time and split at newlines only, so a raw
    U+2028 inside a JSON string stays part of its line.  A line that is one JSON
    value and its newline is decoded by the scanner alone, any other by ``json.loads``.
    A line that is not valid JSON, or not a JSON object, raises :class:`ValidationError`
    on ``field`` with a ``line N:`` prefix.
    """
    for line_no, line in enumerate(stream, start=1):
        try:
            try:
                record, end = _raw_decode(line)
                if line[end:] not in ("\n", ""):
                    raise ValueError
            except ValueError:
                if not line.strip():
                    continue
                record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(field, f"line {line_no}: invalid JSON ({exc.msg})") from exc
        except RecursionError:
            raise ValidationError(field, f"line {line_no}: invalid JSON (nested too deeply)") from None
        if not isinstance(record, dict):
            raise ValidationError(field, f"line {line_no}: record must be a JSON object")
        yield line_no, record


def note_first_line(first_line: dict, frame_id: str, line_no: int, field: str) -> None:
    """Record that ``frame_id`` is on ``line_no``; one already seen raises, naming both lines."""
    first = first_line.setdefault(frame_id, line_no)
    if first != line_no:
        raise ValidationError(field, f"line {line_no}: frame {frame_id!r} repeats line {first}")
