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
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence, TextIO

from .errors import RejectionThresholdError, UnmappedCategoryError
from .vocab import (  # noqa: F401 -- also re-exported for existing importers
    MONTH_NAMES, TIME_BIN_ORDER, WEEKDAY_NAMES, CrimeCategory, Schema, TimeBin,
    UnifiedCrimeRecord, bin_time, normalize_category,
)

if TYPE_CHECKING:
    from .ingestion import RawCrimeRecord


def _calendar(date: dt.date) -> tuple[str, str, int]:
    return MONTH_NAMES[date.month - 1], WEEKDAY_NAMES[date.weekday()], date.year


_HOUR_BINS = tuple(bin_time(hour) for hour in range(24))


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
    def from_json_file(cls, path) -> "TypeMapping":
        with open(path, encoding="utf-8") as fp:
            try:
                return cls.from_dict(json.load(fp))
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"{path}: {exc}") from None

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
    new = tuple.__new__  # builds the record as UnifiedCrimeRecord._make does, without a Python frame
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
        out.append(new(UnifiedCrimeRecord, (category, month, day, _HOUR_BINS[hour], location, year, hour)))
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


def unified_from_json_dict(obj: Mapping) -> UnifiedCrimeRecord:
    category = CrimeCategory(int(obj["type_id"]))
    if "type" in obj and CrimeCategory.from_label(str(obj["type"])) is not category:
        raise ValueError(f"type {obj['type']!r} does not match type_id {obj['type_id']}")
    month = str(obj["month"])
    if month not in MONTH_NAMES:
        raise ValueError(f"bad month {month!r}")
    day = str(obj["day"])
    if day not in WEEKDAY_NAMES:
        raise ValueError(f"bad day {day!r}")
    time_bin = TimeBin(str(obj["time"]))
    location = str(obj["location"]).strip()
    if not location:
        raise ValueError("empty location")
    hour = int(obj["hour"])
    if not 0 <= hour <= 23:
        raise ValueError(f"bad hour {hour}")
    return UnifiedCrimeRecord(
        crime_type=category,
        month=month,
        day=day,
        time=time_bin,
        location=location,
        year=int(obj["year"]),
        hour=hour,
    )


# What ``_canonical_record`` accepts, looked up: canonical (type, type_id,
# time) triples, hours and month and day names.
_CANONICAL_TYPE_TIME = {
    (category.label, int(category), time_bin.value): (category, time_bin)
    for category in CrimeCategory for time_bin in TimeBin
}
_HOURS = {hour: hour for hour in range(24)}
_MONTH_SET = frozenset(MONTH_NAMES)
_DAY_SET = frozenset(WEEKDAY_NAMES)


def _canonical_record(obj) -> UnifiedCrimeRecord | None:
    """The record of an object with the canonical values that
    ``unified_to_json_dict`` writes, checked by lookups; None for anything
    else, which ``unified_from_json_dict`` then accepts or rejects. Whatever
    this accepts, that accepts as an equal record."""
    try:
        category, time_bin = _CANONICAL_TYPE_TIME[obj["type"], obj["type_id"], obj["time"]]
        hour = _HOURS[obj["hour"]]
        month, day, year = obj["month"], obj["day"], obj["year"]
        location = obj["location"].strip()
        canonical = month in _MONTH_SET and day in _DAY_SET and type(year) is int
    except (KeyError, TypeError, AttributeError):  # a missing key, or a value of another type
        return None
    if not (canonical and location):
        return None
    return UnifiedCrimeRecord(category, month, day, time_bin, location, year, hour)


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


def read_unified_jsonl(fp: TextIO) -> list[UnifiedCrimeRecord]:
    records = []
    for line_number, line in enumerate(fp, start=1):
        if not line.strip():
            continue
        try:
            obj = json_line(line)
            records.append(_canonical_record(obj) or unified_from_json_dict(obj))
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"bad unified record on line {line_number}: {exc}") from exc
    return records
