"""Raw crime records and their JSON Lines interchange: the file that
``ingest`` writes and ``preprocess`` reads.

A raw record keeps the cleaned key attributes of one feed row. The writer
formats one line per record from per-call memos, and the reader matches
blocks of written lines against the writer's template; any other block goes
through the line-by-line decoder, so every file gives the same records or
the same error.
"""

from __future__ import annotations

import datetime as dt
import functools
import json
import re
from itertools import repeat
from operator import itemgetter, methodcaller
from typing import Iterable, Mapping, NamedTuple, TextIO


class RawCrimeRecord(NamedTuple):
    """One crime event after key-attribute selection and cleaning."""

    offense_category: str
    date: dt.date
    time: dt.time | None
    location_name: str
    is_crime: bool | None
    source_row: int


class Memo(dict):
    """``memo[key]`` is ``parse(key)``, computed once per distinct key."""

    def __init__(self, parse):
        self.parse = parse

    def __missing__(self, key):
        value = self[key] = self.parse(key)
        return value


_new = tuple.__new__  # builds a record as RawCrimeRecord._make does, without a Python frame


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
    quoted, dates, clocks = Memo(json.dumps), Memo(methodcaller("isoformat")), Memo(_clock_json)
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
                          dates: Memo, clocks: Memo, texts: Memo) -> tuple[list] | None:
    """The records of template lines' groups, as one column, or None when a date or clock is not real."""
    try:
        return (list(map(_new, repeat(RawCrimeRecord), zip(
            map(texts.__getitem__, categories), map(dates.__getitem__, date_texts),
            map(clocks.__getitem__, clock_texts), map(texts.__getitem__, places),
            map(_JSON_FLAGS.__getitem__, flags), map(int, source_rows)))),)
    except ValueError:
        return None


def read_raw_jsonl(fp: TextIO) -> list[RawCrimeRecord]:
    """What ``read_jsonl`` with ``raw_from_json_dict`` gives, reading blocks of
    written lines against ``_RAW_TEMPLATE``. Each distinct date and clock is
    parsed once, and each category and location kept as one string."""
    from .preprocess import read_jsonl_blocks  # imported here: the ingest stage loads no preprocess
    clocks = Memo(_written_clock)
    clocks[""] = None  # the template's null
    build = functools.partial(_raw_template_records, dates=Memo(_written_date), clocks=clocks, texts=Memo(str))
    return read_jsonl_blocks(fp, re.compile(_RAW_TEMPLATE, re.M), build, raw_from_json_dict, "raw",
                             lambda records: (records,))[0]
