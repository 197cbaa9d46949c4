"""Transformation of raw crime records into the unified six-attribute schema.

Each unified record carries the grouped crime type, the month name, the
weekday name, a four-hour time bin, the normalized location, and the year.
The raw clock hour is kept alongside for hour-resolution statistics.
"""

from __future__ import annotations

import functools
import json
import re
from importlib import resources
from itertools import repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Sequence, TextIO

from .errors import CrimeMinerError
from .vocab import (  # noqa: F401 -- also re-exported for existing importers
    HOUR_BINS, MONTH_NAMES, MONTH_RANK, TIME_BIN_ORDER, WEEKDAY_NAMES, WEEKDAY_RANK, CrimeCategory, Schema,
    TimeBin, UnifiedCrimeRecord, bin_time, normalize_category,
)

if TYPE_CHECKING:
    import datetime as dt

    from .rawjsonl import RawCrimeRecord


def __getattr__(name: str):
    # Kept only for ``perfbench/tracer.py``, until ROADMAP item 1's benchmark change: the traced run
    # wraps the raw reader here as ``ingestion.read_raw_jsonl``, and ``preprocess`` reads through it.
    if name == "read_raw_jsonl":
        from .rawjsonl import read_raw_jsonl
        return read_raw_jsonl
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _calendar(date: dt.date) -> tuple[str, str, int]:
    return MONTH_NAMES[date.month - 1], WEEKDAY_NAMES[date.weekday()], date.year


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
        raise CrimeMinerError(
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


def read_jsonl(lines: Iterable[str], decode: Callable[[object], object], kind: str,
               first_line: int = 1) -> list:
    """``decode`` of the value on each non-blank line, in order; a line that
    does not parse or decode raises ``ValueError`` naming it, counting the
    first of ``lines`` as line ``first_line``."""
    records = []
    for line_number, line in enumerate(lines, start=first_line):
        if not line.strip():
            continue
        try:
            records.append(decode(json.loads(line)))
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise ValueError(f"bad {kind} record on line {line_number}: {exc}") from exc
    return records


# ``_UNIFIED_LINE`` with a group for each value, the adjacent time, type and type_id in one. A string's
# group takes no quote, backslash or control character; the year has at most ten digits, which ``int`` takes.
_TEMPLATE = re.compile(
    r'^\{"day": "([A-Za-z]+)", "hour": ([0-9]+), "location": "([^"\\\x00-\x1f]+)", '
    r'"month": "([A-Za-z]+)", "time": "(T[0-9]", "type": "[A-Za-z ]+", "type_id": [0-9]+), '
    r'"year": (-?(?:0|[1-9][0-9]{0,9}))\}$', re.M)
_DAYS = {name: name for name in WEEKDAY_NAMES}
_MONTHS = {name: name for name in MONTH_NAMES}
# The written text of (time, type, type_id) and hour -> the category, bin and hour they read as.
_TYPE_HOUR_TEXTS = {
    (f'{bin_value}", "type": "{label}", "type_id": {type_id}', str(hour)): (category, time_bin, hour)
    for (type_id, hour), (label, bin_value, category, time_bin) in _TYPE_HOURS.items()}
_BLOCK_CHARS = 1 << 16  # lines read and matched at a time


def _template_records(days, hours, places, months, types, year_texts, years: dict, locations: dict) -> list | None:
    """The records of template lines' groups when each value is known, else
    None. ``years`` and ``locations`` hold each text already checked, with its value."""
    for text in set(year_texts).difference(years):
        years[text] = int(text)
    for text in set(places).difference(locations):
        if text.strip() != text:
            return None
        locations[text] = text
    try:
        categories, bins, hours = zip(*map(_TYPE_HOUR_TEXTS.__getitem__, zip(types, hours)))
        return list(map(_new, repeat(UnifiedCrimeRecord), zip(
            categories, map(_MONTHS.__getitem__, months), map(_DAYS.__getitem__, days), bins,
            map(locations.__getitem__, places), map(years.__getitem__, year_texts), hours)))
    except KeyError:
        return None


def read_jsonl_blocks(fp: TextIO, template: re.Pattern, build: Callable[..., list | None],
                      decode: Callable[[object], object], kind: str) -> list:
    """What ``read_jsonl`` with ``decode`` gives for ``fp``: the same records
    or the same error. Blocks of about ``_BLOCK_CHARS`` characters are read.
    When each line of a block matches a writer's ``template``, ``build`` gives
    the records of its group columns, or None; any other block (a blank line,
    an escaped string, a CRLF ending) goes through ``read_jsonl`` with its
    true line numbers.

    Why the counts suffice: a template matches only from the start of a line
    (``^``) to its end (``$``), and neither its text nor any group can match
    a line break, so each match is one whole line and no line holds two. A
    block of m lines with m line breaks (the last may lack its own) and m
    matches is therefore m template lines, none holding a carriage return,
    so the file split it at exactly those breaks. Each holds the written keys
    once, in sorted order, each value of its written type; ``build`` makes
    the checks of ``decode`` that this leaves.
    """
    records, first_line = [], 1
    while lines := fp.readlines(_BLOCK_CHARS):
        block = "".join(lines)
        n_lines = len(lines)
        taken = None
        if block.count("\n") + (block[-1] != "\n") == n_lines:
            rows = template.findall(block)
            taken = build(*zip(*rows)) if len(rows) == n_lines else None
            del rows  # not held while the next block is read
        if taken is None:
            taken = read_jsonl(lines, decode, kind, first_line)
        records += taken
        first_line += n_lines
    return records


def read_unified_jsonl(fp: TextIO) -> list[UnifiedCrimeRecord]:
    """What ``read_jsonl`` with ``unified_from_json_dict`` gives, reading blocks
    of written lines against ``_TEMPLATE``, whose lookups then accept only the
    written vocabulary and pairs, a JSON integer year and a non-empty, unpadded
    location. Each distinct location is kept as one string."""
    build = functools.partial(_template_records, years={}, locations={})
    return read_jsonl_blocks(fp, _TEMPLATE, build, unified_from_json_dict, "unified")
