"""Transformation of raw crime records into the unified six-attribute schema.

Each unified record carries the grouped crime type, the month name, the
weekday name, a four-hour time bin, the normalized location, and the year.
The raw clock hour is kept alongside for hour-resolution statistics.
"""

from __future__ import annotations

import datetime as dt
import functools
import json
from importlib import resources
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Sequence, TextIO

from .errors import RejectionThresholdError, UnmappedCategoryError
from .vocab import (  # noqa: F401 -- also re-exported for existing importers
    HOUR_BINS, MONTH_NAMES, MONTH_RANK, TIME_BIN_ORDER, WEEKDAY_NAMES, WEEKDAY_RANK, CrimeCategory, Schema,
    TimeBin, UnifiedCrimeRecord, bin_time, normalize_category,
)

if TYPE_CHECKING:
    from .ingestion import RawCrimeRecord


def _calendar(date: dt.date) -> tuple[str, str, int]:
    return MONTH_NAMES[date.month - 1], WEEKDAY_NAMES[date.weekday()], date.year


def derive_temporal(when: dt.datetime) -> tuple[str, str, TimeBin, int]:
    """Month name, weekday name, time bin, and year of a civil timestamp.

    Minutes are ignored; the bin is determined by the hour alone.
    """
    month, day, year = _calendar(when)
    return month, day, bin_time(when.hour), year


class TypeMapping(NamedTuple):
    """Grouping of raw offense categories into the six unified types.

    The mapping must cover every raw category actually present in the data;
    lookups of unknown categories raise and are counted by the caller.
    """

    entries: Mapping[str, CrimeCategory]

    @classmethod
    def from_dict(cls, raw: Mapping[str, str]) -> "TypeMapping":
        """A mapping from parsed JSON; a malformed one raises ``ValueError``."""
        if not isinstance(raw, Mapping):
            raise ValueError("type mapping must be a JSON object")
        for k, v in raw.items():
            if not isinstance(v, str):
                raise ValueError(f"type mapping entry {k!r} must name a crime type")
        return cls({normalize_category(k): CrimeCategory.from_label(v) for k, v in raw.items()})

    @classmethod
    def for_schema(cls, schema: Schema) -> "TypeMapping":
        name = "denver_type_mapping.json" if schema is Schema.DENVER else "la_type_mapping.json"
        text = resources.files("crimeminer.data").joinpath(name).read_text("utf-8")
        return cls.from_dict(json.loads(text))


def map_crime_type(raw_category: str, mapping: TypeMapping) -> CrimeCategory:
    """Exact lookup of a normalized raw category in the mapping."""
    try:
        return mapping.entries[raw_category]
    except KeyError:
        raise UnmappedCategoryError(raw_category) from None


class PreprocessReport:
    """Accounting for one preprocessing run."""

    __slots__ = ("schema", "rows_in", "rows_out", "rows_rejected", "rejected_categories", "reasons")

    def __init__(self, schema: str):
        self.schema = schema
        self.rows_in = self.rows_out = self.rows_rejected = 0
        self.rejected_categories: dict[str, int] = {}
        self.reasons: dict[str, int] = {}

    def reject(self, reason: str) -> None:
        self.rows_rejected += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def to_json_dict(self) -> dict:
        return {
            "schema": self.schema,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "rows_rejected": self.rows_rejected,
            "rejected_categories": dict(sorted(self.rejected_categories.items())),
            "reasons": dict(sorted(self.reasons.items())),
        }


def preprocess_dataset(
    records: Sequence[RawCrimeRecord],
    schema: Schema,
    mapping: TypeMapping,
    *,
    max_reject_fraction: float = 0.01,
) -> tuple[list[UnifiedCrimeRecord], PreprocessReport]:
    """Convert crime-filtered raw records into unified records, order preserved.

    Records whose offense category is absent from the mapping (or which lack a
    clock time) are excluded and counted. If the rejected fraction exceeds
    ``max_reject_fraction`` the run aborts: a large rejection rate means the
    mapping does not fit the dataset.
    """
    report = PreprocessReport(schema.value)
    out: list[UnifiedCrimeRecord] = []
    entries = mapping.entries
    calendar = functools.cache(_calendar)  # one derivation per distinct date
    for raw_category, date, time, location, _, _ in records:
        if time is None:
            report.reject("missing-time")
            continue
        category = entries.get(raw_category)
        if category is None:
            report.reject("unmapped-category")
            counts = report.rejected_categories
            counts[raw_category] = counts.get(raw_category, 0) + 1
            continue
        month, day, year = calendar(date)
        hour = time.hour
        out.append(_new(UnifiedCrimeRecord, (category, month, day, HOUR_BINS[hour], location, year, hour)))
    report.rows_out = len(out)
    report.rows_in = report.rows_out + report.rows_rejected

    if report.rows_in and report.rows_rejected / report.rows_in > max_reject_fraction:
        worst = sorted(report.rejected_categories.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        detail = ", ".join(f"{cat!r} x{n}" for cat, n in worst) or "no category detail"
        raise RejectionThresholdError(
            f"rejected {report.rows_rejected}/{report.rows_in} records "
            f"(> {max_reject_fraction:.2%} allowed); top unmapped: {detail}"
        )
    return out, report


# --- unified-record JSON Lines interchange ----------------------------------

def unified_to_json_dict(record: UnifiedCrimeRecord) -> dict:
    return {
        "type": record.crime_type.label,
        "type_id": int(record.crime_type),
        "month": record.month,
        "day": record.day,
        "time": record.time.value,
        "location": record.location,
        "year": record.year,
        "hour": record.hour,
    }


# Each key that ``unified_to_json_dict`` writes, with the type of its value.
_UNIFIED_TYPES = {"type": str, "type_id": int, "month": str, "day": str, "time": str, "location": str,
                  "year": int, "hour": int}
_unified_values = itemgetter(*_UNIFIED_TYPES)
# (type_id, hour) -> the type label and bin written with them, then the category and bin they read as.
_TYPE_HOURS = {(int(category), hour): (category.label, time_bin.value, category, time_bin)
               for category in CrimeCategory for hour, time_bin in enumerate(HOUR_BINS)}
_new = tuple.__new__  # builds a record as UnifiedCrimeRecord._make does, without a Python frame


def unified_from_json_dict(obj: Mapping) -> UnifiedCrimeRecord:
    """The record that ``unified_to_json_dict`` gave as ``obj``: a JSON object with
    exactly the written keys, each value of its written type and vocabulary. Any
    other object raises ``ValueError`` naming the field."""
    try:
        label, type_id, month, day, time, location, year, hour = _unified_values(obj)
    except KeyError as exc:
        raise ValueError(f"missing key {exc}") from None
    if len(obj) != len(_UNIFIED_TYPES):
        raise ValueError(f"unknown key {sorted(obj.keys() - _UNIFIED_TYPES.keys())[0]!r}")
    if not (type(label) is type(month) is type(day) is type(time) is type(location) is str
            and type(type_id) is type(year) is type(hour) is int):
        name = next(name for name, kind in _UNIFIED_TYPES.items() if type(obj[name]) is not kind)
        raise ValueError(f"{name} cannot be {obj[name]!r}")
    try:
        type_label, bin_value, category, time_bin = _TYPE_HOURS[type_id, hour]
    except KeyError:
        raise ValueError(f"bad type_id {type_id}" if 0 <= hour <= 23 else f"bad hour {hour}") from None
    if label != type_label:
        raise ValueError(f"type {label!r} does not match type_id {type_id}")
    if time != bin_value:
        raise ValueError(f"time {time!r} is not the bin of hour {hour}")
    if month not in MONTH_RANK:
        raise ValueError(f"bad month {month!r}")
    if day not in WEEKDAY_RANK:
        raise ValueError(f"bad day {day!r}")
    if not location or location.strip() != location:
        raise ValueError(f"bad location {location!r}")
    return _new(UnifiedCrimeRecord, (category, month, day, time_bin, location, year, hour))


# One line of ``json.dumps(unified_to_json_dict(record), sort_keys=True)``.
# Only the location, free text, can need escaping; the other strings come
# from closed vocabularies and go in as they are.
_UNIFIED_LINE = ('{"day": "%s", "hour": %d, "location": %s, "month": "%s", "time": "%s", '
                 '"type": "%s", "type_id": %d, "year": %d}\n')
_LABELS = {category: category.label for category in CrimeCategory}
_BIN_VALUES = {time_bin: time_bin.value for time_bin in TimeBin}


def write_unified_jsonl(records: Iterable[UnifiedCrimeRecord], fp: TextIO) -> None:
    quoted = functools.cache(json.dumps)  # one encoding per distinct location
    fp.writelines(_UNIFIED_LINE % (r.day, r.hour, quoted(r.location), r.month, _BIN_VALUES[r.time],
                                   _LABELS[r.crime_type], r.crime_type, r.year) for r in records)


_scan_once = json.decoder.JSONDecoder().scan_once


def json_line(line: str):
    """``json.loads(line)``: the value, or the same error. A line holding one
    value and at most its newline takes one pass of the C scanner; any other
    (leading whitespace, trailing data, no value) takes ``json.loads``."""
    try:
        value, end = _scan_once(line, 0)
    except StopIteration:
        return json.loads(line)
    return value if end == len(line) or line[end:] == "\n" else json.loads(line)


def read_jsonl(fp: TextIO, decode: Callable[[object], object], kind: str) -> list:
    """``decode`` of the value on each non-blank line, in order; a line that
    does not parse or decode raises ``ValueError`` naming it."""
    records = []
    for line_number, line in enumerate(fp, start=1):
        if not line.strip():
            continue
        try:
            records.append(decode(json_line(line)))
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise ValueError(f"bad {kind} record on line {line_number}: {exc}") from exc
    return records


def read_unified_jsonl(fp: TextIO) -> list[UnifiedCrimeRecord]:
    return read_jsonl(fp, unified_from_json_dict, "unified")
