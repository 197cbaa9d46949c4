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
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

from .errors import (
    DuplicateNeighborhoodError,
    FileUnreadableError,
    MissingColumnError,
)
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


def _parse_clock(text: str) -> dt.time:
    fields = text.split(":")
    if len(fields) not in (2, 3):
        raise ValueError(f"bad clock value {text!r}")
    return dt.time(int(fields[0]), int(fields[1]))


def _parse_slash_date(text: str) -> dt.date:
    """Parse ``M/D/YY[YY]``; two-digit years pivot at 2000 (``14`` means 2014)."""
    fields = text.split("/")
    if len(fields) != 3:
        raise ValueError(f"bad date value {text!r}")
    month, day, year = (int(f) for f in fields)
    if year < 100:
        year += 2000
    return dt.date(year, month, day)


def _parse_flexible_date(text: str, dates, clocks) -> tuple[dt.date, dt.time | None]:
    """Parse ``M/D/YY[YY] [H:MM[:SS]]`` or ISO ``YYYY-MM-DD[ HH:MM[:SS]]``,
    the slash-date and clock parts through ``dates`` and ``clocks``.

    Returns the time part as ``None`` when the value carries no clock component.
    """
    parts = text.split()
    if "/" in parts[0]:
        if len(parts) > 2:
            raise ValueError(f"bad date value {text!r}")
        return dates(parts[0]), clocks(parts[1]) if len(parts) == 2 else None
    if len(text) <= 10:
        return dt.date.fromisoformat(text), None
    stamp = dt.datetime.fromisoformat(text)
    return stamp.date(), stamp.time().replace(second=0, microsecond=0)


def _parse_military_time(text: str) -> dt.time:
    """Parse an up-to-4-digit military clock reading, e.g. ``2200`` -> 22:00."""
    if not text.isdigit() or len(text) > 4:
        raise ValueError(f"bad military time {text!r}")
    padded = text.zfill(4)
    return dt.time(int(padded[:2]), int(padded[2:]))


_FLAG_VALUES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _column_positions(header: Sequence[str], required: Sequence[str]) -> list[int]:
    """Header position of each required column, case-insensitively.

    Looked up by name, so a column named twice in ``required`` maps twice.
    """
    positions = {name.strip().lower(): i for i, name in enumerate(header)}
    missing = [name for name in required if name.strip().lower() not in positions]
    if missing:
        raise MissingColumnError(f"header is missing required column(s): {', '.join(missing)}")
    return [positions[name.strip().lower()] for name in required]


class _Rejected(Exception):
    """A row fails a check; the one argument is the reason it is counted under."""


def _nonempty(text: str, reason: str) -> str:
    if not text:
        raise _Rejected(reason)
    return text


def _parses(parse, text: str, reason: str, *args):
    try:
        return parse(text, *args)
    except (ValueError, OverflowError):  # OverflowError: a number too large for a date
        raise _Rejected(reason) from None


def _csv_rows(path, required: Sequence[str], report: IngestReport) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(row_number, cells)`` for each non-blank data row of a CSV.

    ``cells`` are the stripped values of the ``required`` columns in order,
    ``""`` past the row's end. Rows read and blank rows are counted in
    ``report``; the caller accepts or rejects every row yielded. Bytes that
    are not UTF-8, or a cell over the field limit, raise ``FileUnreadableError``.
    """
    try:
        fp = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise FileUnreadableError(f"cannot read {path}: {exc}") from exc
    with fp:
        reader = csv.reader(fp)
        try:
            header = next(reader, None)
            if header is None:
                raise MissingColumnError(f"{path}: file is empty, no header row")
            positions = _column_positions(header, required)
            width = max(positions) + 1
            for row_number, row in enumerate(reader, start=1):
                report.rows_read += 1
                if not "".join(row).strip():
                    report.reject("blank-row")
                    continue
                row += [""] * (width - len(row))
                yield row_number, [row[i].strip() for i in positions]
        except csv.Error as exc:
            raise FileUnreadableError(f"cannot read {path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise FileUnreadableError(f"cannot read {path}: not UTF-8 text: {exc.reason}") from None


def _denver_when(cells: Sequence[str], dates, clocks, _military) -> tuple[dt.date, dt.time, bool]:
    _, stamp, _, flag = cells
    date, time = _parses(_parse_flexible_date, _nonempty(stamp, "missing-datetime"), "bad-datetime", dates, clocks)
    if time is None:
        raise _Rejected("missing-time")
    is_crime = _FLAG_VALUES.get(flag.lower())
    if is_crime is None:
        raise _Rejected("bad-is-crime")
    return date, time, is_crime


def _la_when(cells: Sequence[str], dates, clocks, military) -> tuple[dt.date, dt.time, None]:
    _, raw_date, raw_time, _ = cells
    parts = raw_date.split()
    if len(parts) == 3 and parts[2].upper() in ("AM", "PM"):
        # The current export's "01/08/2020 12:00:00 AM": TIME OCC carries the time.
        raw_date = f"{parts[0]} {parts[1]}"
    date, _ = _parses(_parse_flexible_date, _nonempty(raw_date, "missing-date"), "bad-date", dates, clocks)
    time = _parses(military, _nonempty(raw_time, "missing-time"), "bad-time")
    return date, time, None


# Per schema: key columns, the position of the location among them, and the
# check that reads date, time and crime flag from the key cells.
_CRIME_LAYOUTS = {
    Schema.DENVER: (DENVER_KEY_COLUMNS, 2, _denver_when),
    Schema.LOS_ANGELES: (LA_KEY_COLUMNS, 3, _la_when),
}


def load_crime_csv(path, schema: Schema) -> tuple[list[RawCrimeRecord], IngestReport]:
    """Load a city crime CSV, keeping only cleaned key attributes.

    Rows with missing or unparseable key values are rejected and counted in
    the report, never silently dropped. A header-only file yields an empty
    list with ``rows_read == 0``.
    """
    report = IngestReport()
    records: list[RawCrimeRecord] = []
    required, location_at, when = _CRIME_LAYOUTS[schema]
    # Each distinct value is normalised or parsed once per call. A failed
    # parse is not kept, so a bad value is rejected alike wherever it appears.
    categories, locations, *parsers = map(functools.cache, (
        normalize_category, normalize_location, _parse_slash_date, _parse_clock, _parse_military_time))
    for row_number, cells in _csv_rows(path, required, report):
        try:
            category = _nonempty(cells[0], "missing-category")
            location = _nonempty(cells[location_at], "missing-location")
            date, time, is_crime = when(cells, *parsers)
        except _Rejected as exc:
            report.reject(exc.args[0])
            continue
        records.append(RawCrimeRecord(categories(category), date, time, locations(location), is_crime, row_number))
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


_new = tuple.__new__  # builds a record as RawCrimeRecord._make does, without a Python frame
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


# One line of ``json.dumps(raw_to_json_dict(record), sort_keys=True)``. Only
# the category and location, free text, can need escaping.
_RAW_LINE = '{"category": %s, "date": "%s", "is_crime": %s, "location": %s, "source_row": %d, "time": %s}\n'


def _flag_json(flag) -> str:
    if flag is True:
        return "true"
    if flag is False:
        return "false"
    return "null" if flag is None else json.dumps(flag)


def _clock_json(time: dt.time | None) -> str:
    return "null" if time is None else time.strftime('"%H:%M"')


def write_raw_jsonl(records: Iterable[RawCrimeRecord], fp: TextIO) -> None:
    quoted, clocks = functools.cache(json.dumps), functools.cache(_clock_json)
    fp.writelines(_RAW_LINE % (quoted(r.offense_category), r.date.isoformat(), _flag_json(r.is_crime),
                               quoted(r.location_name), r.source_row, clocks(r.time)) for r in records)


def read_raw_jsonl(fp: TextIO) -> list[RawCrimeRecord]:
    from .preprocess import read_jsonl  # imported here: the ingest stage loads no preprocess
    # Each distinct date and clock text is parsed once.
    dates, clocks = functools.cache(_written_date), functools.cache(_written_clock)
    return read_jsonl(fp, lambda obj: raw_from_json_dict(obj, dates, clocks), "raw")


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
    value = _parses(int, text, "bad-count")
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
        try:
            name = normalize_location(_nonempty(cells[0], "missing-neighborhood"))
            if name in seen:
                raise DuplicateNeighborhoodError(f"neighborhood {name!r} appears more than once")
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
