"""Ingestion of the two city crime feeds: CSV to cleaned raw records.

Loading keeps only the key attributes, cleans them, and rejects rows whose key
values are missing or unparseable. Every input row is accounted for:
``rows_read == rows_accepted + rows_rejected`` holds for any input. The raw
records and their JSON Lines live in ``rawjsonl``, the demographics table in
``demographics_csv``.
"""

from __future__ import annotations

import datetime as dt
import functools
import re
from typing import Iterable, Mapping, Sequence

from .csvrows import IngestReport, csv_rows
# ``ingest`` writes through ``ingestion.write_raw_jsonl``; ``perfbench/tracer.py`` wraps both functions here.
from .rawjsonl import RawCrimeRecord, Memo, read_raw_jsonl, write_raw_jsonl  # noqa: F401
from .vocab import Schema, normalize_category, normalize_location


def __getattr__(name: str):
    # Kept only for ``perfbench/tracer.py``, which wraps it as ``ingestion.load_demographics_csv``, until
    # ROADMAP item 1's benchmark change: ``demographics`` loads it from ``demographics_csv``, not from here.
    if name == "load_demographics_csv":
        from .demographics_csv import load_demographics_csv
        return load_demographics_csv
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Key columns per schema; everything else in the file is discarded.
DENVER_KEY_COLUMNS = (
    "OFFENSE_CATEGORY_ID",
    "FIRST_OCCURRENCE_DATE",
    "NEIGHBORHOOD_ID",
    "IS_CRIME",
)
LA_KEY_COLUMNS = ("Crm Cd Desc", "DATE OCC", "TIME OCC", "AREA NAME")


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
    categories = Memo(lambda cell: normalize_category(cell) if cell.strip() else None)
    locations = Memo(lambda cell: normalize_location(cell) if cell.strip() else None)
    flags = Memo(lambda cell: _FLAG_VALUES.get(cell.strip().lower()))
    dates, clocks, times = Memo(_slash_date), Memo(_clock), Memo(_military_time)
    stamps = Memo(functools.partial(_parse_flexible_date if denver else _la_date, dates=dates, clocks=clocks))
    for row_number, cells in csv_rows(path, DENVER_KEY_COLUMNS if denver else LA_KEY_COLUMNS, report):
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
