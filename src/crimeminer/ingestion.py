"""CSV ingestion for the two city crime feeds and the neighborhood demographics table.

Loading keeps only the key attributes, cleans them, and rejects rows whose key
values are missing or unparseable. Every input row is accounted for:
``rows_read == rows_accepted + rows_rejected`` holds for any input.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import json
import re
from importlib import resources
from itertools import repeat
from operator import itemgetter, methodcaller
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

from .errors import CrimeMinerError
from .vocab import Schema, normalize_category, normalize_location

# Key columns per schema; everything else in the file is discarded.
DENVER_KEY_COLUMNS = (
    "OFFENSE_CATEGORY_ID",
    "FIRST_OCCURRENCE_DATE",
    "NEIGHBORHOOD_ID",
    "IS_CRIME",
)
LA_KEY_COLUMNS = ("Crm Cd Desc", "DATE OCC", "TIME OCC", "AREA NAME")


class RawCrimeRecord(NamedTuple):
    """One crime event after key-attribute selection and cleaning."""

    offense_category: str
    date: dt.date
    time: dt.time | None
    location_name: str
    is_crime: bool | None
    source_row: int


class IngestReport:
    """Accounting of accepted and rejected rows for one input file."""

    __slots__ = ("rows_read", "rows_accepted", "rows_rejected", "rejection_reasons")

    def __init__(self):
        self.rows_read = self.rows_accepted = self.rows_rejected = 0
        self.rejection_reasons: dict[str, int] = {}

    def reject(self, reason: str) -> None:
        self.rows_rejected += 1
        self.rejection_reasons[reason] = self.rejection_reasons.get(reason, 0) + 1

    def to_json_dict(self) -> dict:
        return {
            "rows_read": self.rows_read,
            "rows_accepted": self.rows_accepted,
            "rows_rejected": self.rows_rejected,
            "rejection_reasons": dict(sorted(self.rejection_reasons.items())),
        }


class _Memo(dict):
    """``memo[key]`` is ``parse(key)``, computed once per distinct key."""

    def __init__(self, parse):
        self.parse = parse

    def __missing__(self, key):
        value = self[key] = self.parse(key)
        return value


_SLASH_DATE = re.compile(r"([0-9]+)/([0-9]+)/([0-9]+)")
_CLOCK = re.compile(r"([0-9]+):([0-9]+)(?::([0-9]+))?")


def _slash_date(text: str) -> dt.date | None:
    """``M/D/YY[YY]`` in ASCII digits, else None; two-digit years pivot at 2000 (``14`` means 2014)."""
    if match := _SLASH_DATE.fullmatch(text):
        try:
            month, day, year = map(int, match.groups())
            return dt.date(year + 2000 if year < 100 else year, month, day)
        except (ValueError, OverflowError):  # out of range, or too large for a date
            pass
    return None


def _clock(text: str) -> dt.time | None:
    """``H:MM[:SS]`` in ASCII digits, else None; the seconds (0-59) are checked, then dropped."""
    if match := _CLOCK.fullmatch(text):
        try:
            return dt.time(*map(int, match.groups("0"))).replace(second=0)
        except (ValueError, OverflowError):
            pass
    return None


def _parse_flexible_date(text: str, dates: Mapping, clocks: Mapping, missing="missing-datetime", bad="bad-datetime"):
    """The date and time (None without a clock) of ``M/D/YY[YY] [H:MM[:SS]]``, its parts
    looked up in ``dates`` and ``clocks`` (None for a bad part), or of ISO ``YYYY-MM-DD[ HH:MM[:SS]]``;
    else None and the reason ``missing`` or ``bad``, Denver's by default."""
    text = text.strip()
    parts = text.split()
    if not parts:
        return None, missing
    if "/" in parts[0]:
        date, time = dates[parts[0]], clocks[parts[1]] if len(parts) == 2 else None
        return (None, bad) if date is None or len(parts) > 2 or (len(parts) == 2 and time is None) else (date, time)
    try:
        if len(text) <= 10:
            return dt.date.fromisoformat(text), None
        stamp = dt.datetime.fromisoformat(text)
    except (ValueError, OverflowError):  # OverflowError: a number too large for a date
        return None, bad
    return stamp.date(), stamp.time().replace(second=0, microsecond=0)


def _la_date(cell: str, dates: Mapping, clocks: Mapping) -> dt.date | str:
    """The date of a ``DATE OCC`` cell, or the reason it is rejected."""
    parts = cell.split()
    if len(parts) == 3 and parts[2].upper() in ("AM", "PM"):  # the current export's "01/08/2020 12:00:00 AM"
        cell = f"{parts[0]} {parts[1]}"  # TIME OCC carries the time
    date, reason = _parse_flexible_date(cell, dates, clocks, "missing-date", "bad-date")
    return reason if date is None else date


def _military_time(cell: str) -> dt.time | str:
    """A ``TIME OCC`` cell's military clock of up to 4 ASCII digits (``2200`` is 22:00), or why it is rejected."""
    if not (text := cell.strip()):
        return "missing-time"
    hour, minute = divmod(int(text), 100) if text.isascii() and text.isdigit() and len(text) <= 4 else (24, 0)
    return dt.time(hour, minute) if hour < 24 and minute < 60 else "bad-time"


_FLAG_VALUES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _column_positions(header: Sequence[str], required: Sequence[str]) -> list[int]:
    """Header position of each required column, case-insensitively.

    Looked up by name, so a column named twice in ``required`` maps twice.
    """
    positions = {name.strip().lower(): i for i, name in enumerate(header)}
    missing = [name for name in required if name.strip().lower() not in positions]
    if missing:
        raise CrimeMinerError(f"header is missing required column(s): {', '.join(missing)}")
    return [positions[name.strip().lower()] for name in required]


class _Rejected(Exception):
    """A row fails a check; the one argument is the reason it is counted under."""


def _csv_rows(path, required: Sequence[str], report: IngestReport) -> Iterator[tuple[int, tuple[str, ...]]]:
    """Yield ``(row_number, cells)`` for each non-blank data row of a CSV.

    ``cells`` are the unstripped values of the ``required`` columns in order,
    ``""`` past the row's end. Rows read and blank rows are counted in
    ``report``; the caller accepts or rejects every row yielded. Bytes that
    are not UTF-8, or a cell over the field limit, raise ``CrimeMinerError``.
    """
    try:
        fp = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise CrimeMinerError(f"cannot read {path}: {exc}") from exc
    with fp:
        reader = csv.reader(fp)
        try:
            header = next(reader, None)
            if header is None:
                raise CrimeMinerError(f"{path}: file is empty, no header row")
            positions = _column_positions(header, required)
            width = max(positions) + 1
            key_cells = itemgetter(*positions)
            for row_number, row in enumerate(reader, start=1):
                report.rows_read += 1
                if not (row and row[0].strip()) and not "".join(row).strip():
                    report.reject("blank-row")
                    continue
                row += [""] * (width - len(row))
                yield row_number, key_cells(row)
        except csv.Error as exc:
            raise CrimeMinerError(f"cannot read {path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise CrimeMinerError(f"cannot read {path}: not UTF-8 text: {exc.reason}") from None


_new = tuple.__new__  # builds a record as RawCrimeRecord._make does, without a Python frame


def load_crime_csv(path, schema: Schema) -> tuple[list[RawCrimeRecord], IngestReport]:
    """Load a city crime CSV, keeping only cleaned key attributes.

    Rows with missing or unparseable key values are rejected and counted in
    the report, never silently dropped. A header-only file yields an empty
    list with ``rows_read == 0``.
    """
    report = IngestReport()
    records: list[RawCrimeRecord] = []
    append, reject = records.append, report.reject
    denver = schema is Schema.DENVER
    # Per-call memos keyed by cell text: each distinct value is stripped, normalised or parsed
    # once. A blank or bad value reads as None, a failed stamp or TIME OCC as its reason.
    categories = _Memo(lambda cell: normalize_category(cell) if cell.strip() else None)
    locations = _Memo(lambda cell: normalize_location(cell) if cell.strip() else None)
    flags = _Memo(lambda cell: _FLAG_VALUES.get(cell.strip().lower()))
    dates, clocks, times = _Memo(_slash_date), _Memo(_clock), _Memo(_military_time)
    stamps = _Memo(functools.partial(_parse_flexible_date if denver else _la_date, dates=dates, clocks=clocks))
    for row_number, cells in _csv_rows(path, DENVER_KEY_COLUMNS if denver else LA_KEY_COLUMNS, report):
        if denver:
            category, stamp, location, flag = cells
        else:
            category, stamp, clock, location = cells
        category, location = categories[category], locations[location]
        if category is None or location is None:
            reject("missing-category" if category is None else "missing-location")
            continue
        if denver:
            # The feed's "M/D/YY[YY] H:MM[:SS]" reads as its two parts; any other stamp takes the general parse.
            date_text, _, clock_text = stamp.partition(" ")
            date, time, is_crime = dates[date_text], clocks[clock_text], flags[flag]
            if date is None or time is None:
                date, time = stamps[stamp]  # (None, reason) for a bad stamp
            if date is None or time is None or is_crime is None:
                reject(time if date is None else "missing-time" if time is None else "bad-is-crime")
                continue
        else:
            date, time, is_crime = dates[stamp], times[clock], None
            if date is None:
                date = stamps[stamp]
            if type(date) is str or type(time) is str:
                reject(date if type(date) is str else time)
                continue
        append(_new(RawCrimeRecord, (category, date, time, location, is_crime, row_number)))
    report.rows_accepted = len(records)
    return records, report


def filter_crimes(
    records: Sequence[RawCrimeRecord],
    schema: Schema,
    exclude: Iterable[str] = (),
) -> list[RawCrimeRecord]:
    """Keep only real crime rows, preserving input order.

    Denver rows carry an explicit crime/accident flag. The Los Angeles feed
    has no such flag, so removal is driven by a configurable offense-category
    exclusion list (empty by default, which keeps every row).
    """
    if schema is Schema.DENVER:
        return [r for r in records if r.is_crime]
    excluded = {normalize_category(c) for c in exclude}
    return [r for r in records if r.offense_category not in excluded]


# --- raw-record JSON Lines interchange (ingest stage -> preprocess stage) ---

def raw_to_json_dict(record: RawCrimeRecord) -> dict:
    return {
        "category": record.offense_category,
        "date": record.date.isoformat(),
        "time": record.time.strftime("%H:%M") if record.time is not None else None,
        "location": record.location_name,
        "is_crime": record.is_crime,
        "source_row": record.source_row,
    }


_WRITTEN_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_WRITTEN_CLOCK = re.compile(r"([0-9]{2}):([0-9]{2})")


def _written_date(text: str) -> dt.date:
    """A date as ``raw_to_json_dict`` writes it: exactly ``YYYY-MM-DD``."""
    if _WRITTEN_DATE.fullmatch(text):
        try:
            return dt.date.fromisoformat(text)
        except ValueError:  # out of range
            pass
    raise ValueError(f"date cannot be {text!r}")


def _written_clock(text: str) -> dt.time:
    """A clock time as ``raw_to_json_dict`` writes it: exactly ``HH:MM``."""
    match = _WRITTEN_CLOCK.fullmatch(text)
    if match:
        try:
            return dt.time(int(match[1]), int(match[2]))
        except ValueError:  # out of range
            pass
    raise ValueError(f"time cannot be {text!r}")


# Each key that ``raw_to_json_dict`` writes, with the types its value may have.
_RAW_TYPES = {"category": (str,), "date": (str,), "time": (str, type(None)), "location": (str,),
              "is_crime": (bool, type(None)), "source_row": (int,)}
_raw_values = itemgetter(*_RAW_TYPES)


def raw_from_json_dict(obj: Mapping, dates=_written_date, clocks=_written_clock) -> RawCrimeRecord:
    """The record that ``raw_to_json_dict`` gave as ``obj``: a JSON object with exactly
    the written keys, each value of a written type, its date and clock parsed by
    ``dates`` and ``clocks``. Any other object raises ``ValueError`` naming the field."""
    try:
        category, date, time, location, is_crime, source_row = _raw_values(obj)
    except KeyError as exc:
        raise ValueError(f"missing key {exc}") from None
    if len(obj) != len(_RAW_TYPES):
        raise ValueError(f"unknown key {sorted(obj.keys() - _RAW_TYPES.keys())[0]!r}")
    if not (type(category) is type(date) is type(location) is str and type(source_row) is int
            and (time is None or type(time) is str) and (is_crime is None or type(is_crime) is bool)):
        name = next(name for name, kinds in _RAW_TYPES.items() if type(obj[name]) not in kinds)
        raise ValueError(f"{name} cannot be {obj[name]!r}")
    time = None if time is None else clocks(time)
    return _new(RawCrimeRecord, (category, dates(date), time, location, is_crime, source_row))


def _clock_json(time: dt.time | None) -> str:
    return "null" if time is None else time.strftime('"%H:%M"')


def write_raw_jsonl(records: Iterable[RawCrimeRecord], fp: TextIO) -> None:
    # One line of ``json.dumps(raw_to_json_dict(record), sort_keys=True)`` per record. Per-call memos
    # encode each distinct text, date and clock once; the flag is spelled by identity, as a memo keyed
    # by value would take 1 for True. Only the category and location, free text, can need escaping.
    quoted, dates, clocks = _Memo(json.dumps), _Memo(methodcaller("isoformat")), _Memo(_clock_json)
    fp.writelines(
        f'{{"category": {quoted[category]}, "date": "{dates[date]}", "is_crime": '
        f'{"true" if flag is True else "false" if flag is False else "null" if flag is None else json.dumps(flag)}, '
        f'"location": {quoted[location]}, "source_row": {source_row}, "time": {clocks[time]}}}\n'
        for category, date, time, location, flag, source_row in records)


# The line ``write_raw_jsonl`` writes, with a group for each value, compiled by the reader alone. A string's
# group takes no quote, backslash or control character; the clock's is empty for null; source_row has at
# most ten digits.
_RAW_TEMPLATE = (r'^\{"category": "([^"\\\x00-\x1f]*)", "date": "([0-9]{4}-[0-9]{2}-[0-9]{2})", '
                 r'"is_crime": (true|false|null), "location": "([^"\\\x00-\x1f]*)", '
                 r'"source_row": (-?(?:0|[1-9][0-9]{0,9})), "time": (?:null|"([0-9]{2}:[0-9]{2})")\}$')
_JSON_FLAGS = {"true": True, "false": False, "null": None}


def _raw_template_records(categories, date_texts, flags, places, source_rows, clock_texts,
                          dates: _Memo, clocks: _Memo, texts: _Memo) -> list | None:
    """The records of template lines' groups, or None when a date or clock is not real."""
    try:
        return list(map(_new, repeat(RawCrimeRecord), zip(
            map(texts.__getitem__, categories), map(dates.__getitem__, date_texts),
            map(clocks.__getitem__, clock_texts), map(texts.__getitem__, places),
            map(_JSON_FLAGS.__getitem__, flags), map(int, source_rows))))
    except ValueError:
        return None


def read_raw_jsonl(fp: TextIO) -> list[RawCrimeRecord]:
    """What ``read_jsonl`` with ``raw_from_json_dict`` gives, reading blocks of
    written lines against ``_RAW_TEMPLATE``. Each distinct date and clock is
    parsed once, and each category and location kept as one string."""
    from .preprocess import read_jsonl_blocks  # imported here: the ingest stage loads no preprocess
    clocks = _Memo(_written_clock)
    clocks[""] = None  # the template's null
    build = functools.partial(_raw_template_records, dates=_Memo(_written_date), clocks=clocks, texts=_Memo(str))
    return read_jsonl_blocks(fp, re.compile(_RAW_TEMPLATE, re.M), build, raw_from_json_dict, "raw")


# --- demographics -----------------------------------------------------------

# Column-map key -> metric name of the eight counts, in comparison order;
# ``age_<label>`` per age bracket and the extras' labels follow them.
COUNT_METRICS = {
    "population": "population",
    "male": "male",
    "female": "female",
    "housing_units": "housing_units_total",
    "occupied": "occupied_units",
    "vacant": "vacant_units",
    "owned": "owned_units",
    "rented": "rented_units",
}


class DemographicsColumns(NamedTuple):
    """Column-name bindings that select the demographics subset from a wide CSV."""

    neighborhood: str
    metrics: Mapping[str, str]  # metric name -> CSV column, in comparison order

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "DemographicsColumns":
        """Bindings from a parsed column map; a malformed map raises ``ValueError``."""
        if not isinstance(obj, Mapping):
            raise ValueError("column map must be a JSON object")
        names = ("neighborhood", *COUNT_METRICS)
        unknown = ", ".join(sorted(set(obj) - {*names, "age_brackets", "extras"}))
        if unknown:
            raise ValueError(f"column map has unknown keys: {unknown}")
        for name in names:
            if not isinstance(obj.get(name), str):
                raise ValueError(f"column map needs a column name for {name!r}")
        tables = {name: obj.get(name, {}) for name in ("age_brackets", "extras")}
        for name, table in tables.items():
            if not isinstance(table, Mapping) or not all(isinstance(v, str) for v in table.values()):
                raise ValueError(f"column map {name!r} must map labels to column names")
        metrics = {metric: obj[key] for key, metric in COUNT_METRICS.items()}
        metrics.update((f"age_{label}", column) for label, column in tables["age_brackets"].items())
        for label, column in tables["extras"].items():
            if label in metrics:
                raise ValueError(f"column map extras label {label!r} collides with metric {label!r}")
            metrics[label] = column
        return cls(obj["neighborhood"], metrics)

    @classmethod
    def default(cls) -> "DemographicsColumns":
        text = resources.files("crimeminer.data").joinpath("demographics_columns.json").read_text("utf-8")
        return cls.from_json_dict(json.loads(text))


class DemographicsRecord(NamedTuple):
    """Population and housing counts for one neighborhood."""

    neighborhood: str
    metrics: Mapping[str, int]  # metric name -> count, in the column map's order


def _count(text: str) -> int:
    """A count cell: an optional ``-`` and ASCII digits, else ``bad-count``."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise _Rejected("bad-count")
    value = int(text)
    if value < 0:
        raise _Rejected("negative-count")
    return value


def load_demographics_csv(
    path,
    columns: DemographicsColumns | None = None,
) -> tuple[list[DemographicsRecord], IngestReport]:
    """Load the per-neighborhood demographics table.

    Rows violating count invariants (negative counts, occupied+vacant !=
    total units, male+female != population) are rejected with a counted
    reason. A repeated neighborhood key is a hard error.
    """
    columns = columns or DemographicsColumns.default()
    report = IngestReport()
    records: list[DemographicsRecord] = []
    seen: set[str] = set()
    for _, cells in _csv_rows(path, [columns.neighborhood, *columns.metrics.values()], report):
        cells = [cell.strip() for cell in cells]
        try:
            if not cells[0]:
                raise _Rejected("missing-neighborhood")
            name = normalize_location(cells[0])
            if name in seen:
                raise CrimeMinerError(f"neighborhood {name!r} appears more than once")
            metrics = dict(zip(columns.metrics, [_count(cell) for cell in cells[1:]]))
            if metrics["occupied_units"] + metrics["vacant_units"] != metrics["housing_units_total"]:
                raise _Rejected("unit-sum-mismatch")
            if metrics["male"] + metrics["female"] != metrics["population"]:
                raise _Rejected("gender-sum-mismatch")
        except _Rejected as exc:
            report.reject(exc.args[0])
            continue
        seen.add(name)
        records.append(DemographicsRecord(name, metrics))
    report.rows_accepted = len(records)
    return records, report
