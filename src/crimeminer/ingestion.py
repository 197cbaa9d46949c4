"""CSV ingestion for the two city crime feeds and the neighborhood demographics table.

Loading keeps only the key attributes, cleans them, and rejects rows whose key
values are missing or unparseable. Every input row is accounted for:
``rows_read == rows_accepted + rows_rejected`` holds for any input.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
from importlib import resources
from types import MappingProxyType
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

    def __init__(self, rows_read: int = 0, rows_accepted: int = 0, rows_rejected: int = 0,
                 rejection_reasons: dict[str, int] | None = None):
        self.rows_read = rows_read
        self.rows_accepted = rows_accepted
        self.rows_rejected = rows_rejected
        self.rejection_reasons = {} if rejection_reasons is None else rejection_reasons

    def accept(self) -> None:
        self.rows_accepted += 1

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


def _parse_flexible_date(text: str) -> tuple[dt.date, dt.time | None]:
    """Parse ``M/D/YY[YY] [H:MM[:SS]]`` or ISO ``YYYY-MM-DD[ HH:MM[:SS]]``.

    Two-digit years pivot at 2000 (``14`` means 2014). Returns the time part
    as ``None`` when the value carries no clock component.
    """
    parts = text.split()
    if "/" in parts[0]:
        if len(parts) > 2:
            raise ValueError(f"bad date value {text!r}")
        fields = parts[0].split("/")
        if len(fields) != 3:
            raise ValueError(f"bad date value {text!r}")
        month, day, year = (int(f) for f in fields)
        if year < 100:
            year += 2000
        date = dt.date(year, month, day)
        time = _parse_clock(parts[1]) if len(parts) == 2 else None
        return date, time
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


def _parses(parse, text: str, reason: str):
    try:
        return parse(text)
    except ValueError:
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


def _denver_when(cells: Sequence[str]) -> tuple[dt.date, dt.time, bool]:
    _, stamp, _, flag = cells
    date, time = _parses(_parse_flexible_date, _nonempty(stamp, "missing-datetime"), "bad-datetime")
    if time is None:
        raise _Rejected("missing-time")
    is_crime = _FLAG_VALUES.get(flag.lower())
    if is_crime is None:
        raise _Rejected("bad-is-crime")
    return date, time, is_crime


def _la_when(cells: Sequence[str]) -> tuple[dt.date, dt.time, None]:
    _, raw_date, raw_time, _ = cells
    parts = raw_date.split()
    if len(parts) == 3 and parts[2].upper() in ("AM", "PM"):
        # The current export's "01/08/2020 12:00:00 AM": TIME OCC carries the time.
        raw_date = f"{parts[0]} {parts[1]}"
    date, _ = _parses(_parse_flexible_date, _nonempty(raw_date, "missing-date"), "bad-date")
    time = _parses(_parse_military_time, _nonempty(raw_time, "missing-time"), "bad-time")
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
    for row_number, cells in _csv_rows(path, required, report):
        try:
            category = _nonempty(cells[0], "missing-category")
            location = _nonempty(cells[location_at], "missing-location")
            date, time, is_crime = when(cells)
        except _Rejected as exc:
            report.reject(exc.args[0])
            continue
        records.append(RawCrimeRecord(normalize_category(category), date, time,
                                      normalize_location(location), is_crime, row_number))
        report.accept()
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


def raw_from_json_dict(obj: Mapping) -> RawCrimeRecord:
    time = obj.get("time")
    return RawCrimeRecord(
        str(obj["category"]),
        dt.date.fromisoformat(obj["date"]),
        _parse_clock(time) if time is not None else None,
        str(obj["location"]),
        obj.get("is_crime"),
        int(obj.get("source_row", 0)),
    )


def write_raw_jsonl(records: Iterable[RawCrimeRecord], fp: TextIO) -> None:
    for record in records:
        fp.write(json.dumps(raw_to_json_dict(record), sort_keys=True))
        fp.write("\n")


def read_raw_jsonl(fp: TextIO) -> list[RawCrimeRecord]:
    records = []
    for line_number, line in enumerate(fp, start=1):
        if not line.strip():
            continue
        try:
            records.append(raw_from_json_dict(json.loads(line)))
        except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"bad raw record on line {line_number}: {exc}") from exc
    return records


# --- demographics -----------------------------------------------------------

# The shared default of the optional ``extras`` tables: read-only.
_NO_EXTRAS: Mapping = MappingProxyType({})


class DemographicsColumns(NamedTuple):
    """Column-name bindings that select the demographics subset from a wide CSV."""

    neighborhood: str
    population: str
    male: str
    female: str
    housing_units: str
    occupied: str
    vacant: str
    owned: str
    rented: str
    age_brackets: Mapping[str, str]
    extras: Mapping[str, str] = _NO_EXTRAS

    COUNT_FIELDS = (
        "population", "male", "female", "housing_units", "occupied", "vacant", "owned", "rented",
    )

    def scalar_columns(self) -> dict[str, str]:
        return {name: getattr(self, name) for name in self.COUNT_FIELDS}

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "DemographicsColumns":
        """Bindings from a parsed column map; a malformed map raises ``ValueError``."""
        if not isinstance(obj, Mapping):
            raise ValueError("column map must be a JSON object")
        names = ("neighborhood", *cls.COUNT_FIELDS)
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
        return cls(**{name: obj[name] for name in names}, **{k: dict(t) for k, t in tables.items()})

    @classmethod
    def from_json_file(cls, path) -> "DemographicsColumns":
        with open(path, encoding="utf-8") as fp:
            try:
                return cls.from_json_dict(json.load(fp))
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"{path}: {exc}") from None

    @classmethod
    def default(cls) -> "DemographicsColumns":
        text = resources.files("crimeminer.data").joinpath("demographics_columns.json").read_text("utf-8")
        return cls.from_json_dict(json.loads(text))


class DemographicsRecord(NamedTuple):
    """Population and housing counts for one neighborhood."""

    neighborhood: str
    population_total: int
    male: int
    female: int
    age_brackets: Mapping[str, int]
    housing_units_total: int
    occupied_units: int
    vacant_units: int
    owned_units: int
    rented_units: int
    extras: Mapping[str, int] = _NO_EXTRAS


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

    scalar_columns = columns.scalar_columns()
    required = [columns.neighborhood, *scalar_columns.values(),
                *columns.age_brackets.values(), *columns.extras.values()]
    for _, cells in _csv_rows(path, required, report):
        try:
            name = normalize_location(_nonempty(cells[0], "missing-neighborhood"))
            if name in seen:
                raise DuplicateNeighborhoodError(f"neighborhood {name!r} appears more than once")
            # Each zip stops at its labels, so the three take consecutive counts.
            counts = iter([_count(cell) for cell in cells[1:]])
            scalars = dict(zip(scalar_columns, counts))
            brackets = dict(zip(columns.age_brackets, counts))
            extras = dict(zip(columns.extras, counts))
            if scalars["occupied"] + scalars["vacant"] != scalars["housing_units"]:
                raise _Rejected("unit-sum-mismatch")
            if scalars["male"] + scalars["female"] != scalars["population"]:
                raise _Rejected("gender-sum-mismatch")
        except _Rejected as exc:
            report.reject(exc.args[0])
            continue

        seen.add(name)
        records.append(
            DemographicsRecord(
                neighborhood=name,
                population_total=scalars["population"],
                male=scalars["male"],
                female=scalars["female"],
                age_brackets=brackets,
                housing_units_total=scalars["housing_units"],
                occupied_units=scalars["occupied"],
                vacant_units=scalars["vacant"],
                owned_units=scalars["owned"],
                rented_units=scalars["rented"],
                extras=extras,
            )
        )
        report.accept()
    return records, report
