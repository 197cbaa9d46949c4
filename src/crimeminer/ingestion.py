"""CSV ingestion for the two city crime feeds and the neighborhood demographics table.

Loading keeps only the key attributes, cleans them, and rejects rows whose key
values are missing or unparseable. Every input row is accounted for:
``rows_read == rows_accepted + rows_rejected`` holds for any input.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Mapping, Sequence, TextIO

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


@dataclass(frozen=True, slots=True)
class RawCrimeRecord:
    """One crime event after key-attribute selection and cleaning."""

    offense_category: str
    date: dt.date
    time: dt.time | None
    location_name: str
    is_crime: bool | None
    source_row: int


@dataclass
class IngestReport:
    """Accounting of accepted and rejected rows for one input file."""

    rows_read: int = 0
    rows_accepted: int = 0
    rows_rejected: int = 0
    rejection_reasons: dict[str, int] = field(default_factory=dict)

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

    def write_json(self, fp: TextIO) -> None:
        json.dump(self.to_json_dict(), fp, indent=2, sort_keys=True)
        fp.write("\n")


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
    text = text.strip()
    if not text:
        raise ValueError("empty date")
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
    digits = text.strip()
    if not digits.isdigit() or len(digits) > 4:
        raise ValueError(f"bad military time {text!r}")
    padded = digits.zfill(4)
    return dt.time(int(padded[:2]), int(padded[2:]))


_FLAG_VALUES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_flag(text: str) -> bool | None:
    return _FLAG_VALUES.get(text.strip().lower())


def _column_index(header: Sequence[str], required: Iterable[str]) -> dict[str, int]:
    """Map required column names to header positions, case-insensitively."""
    positions = {name.strip().lower(): i for i, name in enumerate(header)}
    index: dict[str, int] = {}
    missing: list[str] = []
    for name in required:
        pos = positions.get(name.strip().lower())
        if pos is None:
            missing.append(name)
        else:
            index[name] = pos
    if missing:
        raise MissingColumnError(f"header is missing required column(s): {', '.join(missing)}")
    return index


def _open_csv(path) -> TextIO:
    try:
        return open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise FileUnreadableError(f"cannot read {path}: {exc}") from exc


def load_crime_csv(path, schema: Schema) -> tuple[list[RawCrimeRecord], IngestReport]:
    """Load a city crime CSV, keeping only cleaned key attributes.

    Rows with missing or unparseable key values are rejected and counted in
    the report, never silently dropped. A header-only file yields an empty
    list with ``rows_read == 0``.
    """
    report = IngestReport()
    records: list[RawCrimeRecord] = []
    with _open_csv(path) as fp:
        reader = csv.reader(fp)
        header = next(reader, None)
        if header is None:
            raise MissingColumnError(f"{path}: file is empty, no header row")
        if schema is Schema.DENVER:
            index = _column_index(header, DENVER_KEY_COLUMNS)
            cat_i, stamp_i, loc_i, flag_i = (index[c] for c in DENVER_KEY_COLUMNS)
        else:
            index = _column_index(header, LA_KEY_COLUMNS)
            cat_i, date_i, time_i, loc_i = (index[c] for c in LA_KEY_COLUMNS)

        for row_number, row in enumerate(reader, start=1):
            report.rows_read += 1
            if not any(cell.strip() for cell in row):
                report.reject("blank-row")
                continue

            def cell(i: int) -> str:
                return row[i].strip() if i < len(row) else ""

            category = cell(cat_i)
            if not category:
                report.reject("missing-category")
                continue
            location = cell(loc_i)
            if not location:
                report.reject("missing-location")
                continue

            if schema is Schema.DENVER:
                stamp = cell(stamp_i)
                if not stamp:
                    report.reject("missing-datetime")
                    continue
                try:
                    date, time = _parse_flexible_date(stamp)
                except ValueError:
                    report.reject("bad-datetime")
                    continue
                if time is None:
                    report.reject("missing-time")
                    continue
                is_crime = _parse_flag(cell(flag_i))
                if is_crime is None:
                    report.reject("bad-is-crime")
                    continue
            else:
                raw_date = cell(date_i)
                if not raw_date:
                    report.reject("missing-date")
                    continue
                try:
                    date, extra_time = _parse_flexible_date(raw_date)
                except ValueError:
                    report.reject("bad-date")
                    continue
                raw_time = cell(time_i)
                if not raw_time:
                    report.reject("missing-time")
                    continue
                try:
                    time = _parse_military_time(raw_time)
                except ValueError:
                    report.reject("bad-time")
                    continue
                is_crime = None

            records.append(
                RawCrimeRecord(
                    offense_category=normalize_category(category),
                    date=date,
                    time=time,
                    location_name=normalize_location(location),
                    is_crime=is_crime,
                    source_row=row_number,
                )
            )
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
        offense_category=str(obj["category"]),
        date=dt.date.fromisoformat(obj["date"]),
        time=_parse_clock(time) if time is not None else None,
        location_name=str(obj["location"]),
        is_crime=obj.get("is_crime"),
        source_row=int(obj.get("source_row", 0)),
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
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad raw record on line {line_number}: {exc}") from exc
    return records


# --- demographics -----------------------------------------------------------

@dataclass(frozen=True)
class DemographicsColumns:
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
    extras: Mapping[str, str] = field(default_factory=dict)

    def scalar_columns(self) -> dict[str, str]:
        return {
            "population": self.population,
            "male": self.male,
            "female": self.female,
            "housing_units": self.housing_units,
            "occupied": self.occupied,
            "vacant": self.vacant,
            "owned": self.owned,
            "rented": self.rented,
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "DemographicsColumns":
        return cls(
            neighborhood=obj["neighborhood"],
            population=obj["population"],
            male=obj["male"],
            female=obj["female"],
            housing_units=obj["housing_units"],
            occupied=obj["occupied"],
            vacant=obj["vacant"],
            owned=obj["owned"],
            rented=obj["rented"],
            age_brackets=dict(obj.get("age_brackets", {})),
            extras=dict(obj.get("extras", {})),
        )

    @classmethod
    def from_json_file(cls, path) -> "DemographicsColumns":
        with open(path, encoding="utf-8") as fp:
            return cls.from_json_dict(json.load(fp))

    @classmethod
    def default(cls) -> "DemographicsColumns":
        text = resources.files("crimeminer.data").joinpath("demographics_columns.json").read_text("utf-8")
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class DemographicsRecord:
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
    extras: Mapping[str, int] = field(default_factory=dict)


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

    required = [columns.neighborhood]
    required.extend(columns.scalar_columns().values())
    required.extend(columns.age_brackets.values())
    required.extend(columns.extras.values())

    with _open_csv(path) as fp:
        reader = csv.reader(fp)
        header = next(reader, None)
        if header is None:
            raise MissingColumnError(f"{path}: file is empty, no header row")
        index = _column_index(header, required)

        for row in reader:
            report.rows_read += 1
            if not any(cell.strip() for cell in row):
                report.reject("blank-row")
                continue

            def cell(name: str) -> str:
                i = index[name]
                return row[i].strip() if i < len(row) else ""

            name_raw = cell(columns.neighborhood)
            if not name_raw:
                report.reject("missing-neighborhood")
                continue
            name = normalize_location(name_raw)
            if name in seen:
                raise DuplicateNeighborhoodError(f"neighborhood {name!r} appears more than once")

            try:
                scalars = {k: _parse_count(cell(col)) for k, col in columns.scalar_columns().items()}
                brackets = {label: _parse_count(cell(col)) for label, col in columns.age_brackets.items()}
                extras = {label: _parse_count(cell(col)) for label, col in columns.extras.items()}
            except _NegativeCount:
                report.reject("negative-count")
                continue
            except ValueError:
                report.reject("bad-count")
                continue

            if scalars["occupied"] + scalars["vacant"] != scalars["housing_units"]:
                report.reject("unit-sum-mismatch")
                continue
            if scalars["male"] + scalars["female"] != scalars["population"]:
                report.reject("gender-sum-mismatch")
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


class _NegativeCount(ValueError):
    pass


def _parse_count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise _NegativeCount(text)
    return value
