"""Canonical vocabularies shared by every stage: attribute values in their
fixed orders, name normalization, feed schemas and the unified record.

Imports no stage module, so a CLI call needing only these names stays cheap.
"""

from __future__ import annotations

import re
from enum import Enum, IntEnum
from operator import attrgetter
from typing import Callable, NamedTuple

from .errors import CrimeMinerError

_WHITESPACE_RUN = re.compile(r"\s+")
_HYPHEN_RUN = re.compile(r"-{2,}")


def normalize_location(name: str) -> str:
    """Lowercase a neighborhood/area name, turning whitespace runs into hyphens.

    "Five Points", "five  points" and "five-points" all map to the same key.
    """
    collapsed = _WHITESPACE_RUN.sub("-", name.strip().lower())
    return _HYPHEN_RUN.sub("-", collapsed)


def normalize_category(name: str) -> str:
    """Lowercase an offense category and collapse internal whitespace."""
    return _WHITESPACE_RUN.sub(" ", name.strip().lower())


def round_half_up(value: float, places: int) -> str:
    """Decimal-string rounding with ties away from zero, e.g. 0.125 -> '0.13'."""
    from decimal import ROUND_HALF_UP, Decimal  # loaded on first use: ``predict`` never rounds
    return str(Decimal(repr(value)).quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_UP))


class Schema(Enum):
    """Which city layout a crime CSV follows."""

    DENVER = "denver"
    LOS_ANGELES = "la"

    @classmethod
    def parse(cls, text: str) -> "Schema":
        key = text.strip().lower().replace("_", "-")
        aliases = {
            "denver": cls.DENVER,
            "la": cls.LOS_ANGELES,
            "los-angeles": cls.LOS_ANGELES,
            "losangeles": cls.LOS_ANGELES,
        }
        if key not in aliases:
            raise ValueError(f"unknown schema {text!r}; expected 'denver' or 'la'")
        return aliases[key]


MONTH_NAMES = (
    "January", "February", "March", "April", "May", "June",
    "July", "August", "September", "October", "November", "December",
)
WEEKDAY_NAMES = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")


class TimeBin(Enum):
    """Four-hour slices of the day. T6 wraps midnight: 21:00 through 00:59."""

    T1 = "T1"
    T2 = "T2"
    T3 = "T3"
    T4 = "T4"
    T5 = "T5"
    T6 = "T6"

    # Members are singletons and compare by identity, so the C-level identity
    # hash is consistent with equality, and cheaper than ``Enum.__hash__``.
    __hash__ = object.__hash__

    @property
    def hours(self) -> tuple[int, ...]:
        """The bin's hours in clock order from 1 (T6 is 21, 22, 23, 0)."""
        return tuple(hour for hour in (*range(1, 24), 0) if HOUR_BINS[hour] is self)


TIME_BIN_ORDER = tuple(TimeBin)
# The bin of each hour 0..23: four hours a bin from 01:00, T6 wrapping midnight.
HOUR_BINS = tuple(TIME_BIN_ORDER[(hour - 1) // 4] if 0 < hour < 21 else TimeBin.T6 for hour in range(24))


def bin_time(hour: int) -> TimeBin:
    """Map an hour of day (0-23) to its four-hour bin; hour 0 belongs to T6."""
    if not isinstance(hour, int) or not 0 <= hour <= 23:
        raise CrimeMinerError(f"hour must be an integer in 0..23, got {hour!r}")
    return HOUR_BINS[hour]


class CrimeCategory(IntEnum):
    """The six unified crime types, numbered 1-6 in canonical order."""

    ASSAULT = 1
    DRUG_ALCOHOL = 2
    OTHER_CRIMES = 3
    PUBLIC_DISORDER = 4
    THEFT = 5
    WHITE_COLLAR_CRIME = 6

    @property
    def label(self) -> str:
        return _CATEGORY_LABELS[self]

    @classmethod
    def from_label(cls, text: str) -> "CrimeCategory":
        key = re.sub(r"[\s_-]+", " ", text.strip().lower())
        try:
            return _LABEL_LOOKUP[key]
        except KeyError:
            raise ValueError(f"unknown crime type {text!r}") from None


_CATEGORY_LABELS = {
    CrimeCategory.ASSAULT: "Assault",
    CrimeCategory.DRUG_ALCOHOL: "Drug Alcohol",
    CrimeCategory.OTHER_CRIMES: "Other Crimes",
    CrimeCategory.PUBLIC_DISORDER: "Public Disorder",
    CrimeCategory.THEFT: "Theft",
    CrimeCategory.WHITE_COLLAR_CRIME: "White Collar Crime",
}
_LABEL_LOOKUP = {label.lower(): category for category, label in _CATEGORY_LABELS.items()}


class UnifiedCrimeRecord(NamedTuple):
    """One preprocessed crime event in the unified categorical schema."""

    crime_type: CrimeCategory
    month: str
    day: str
    time: TimeBin
    location: str
    year: int
    hour: int  # raw clock hour 0-23, kept for hour-resolution statistics


class Attribute(NamedTuple):
    """How a categorical attribute reads as text and, for a closed vocabulary,
    the canonical order of its values (None for locations, an open one)."""

    read: Callable[[object], str]
    order: tuple[str, ...] | None = None


# Every categorical attribute of a record, in reporting order. The readers of
# the four model features also accept a ``classify.FeatureVector``.
ATTRIBUTES = {
    "month": Attribute(attrgetter("month"), MONTH_NAMES),
    "day": Attribute(attrgetter("day"), WEEKDAY_NAMES),
    "time": Attribute(attrgetter("time.value"), tuple(b.value for b in TIME_BIN_ORDER)),
    "location": Attribute(attrgetter("location")),
    "type": Attribute(attrgetter("crime_type.label"), tuple(c.label for c in CrimeCategory)),
    "hour": Attribute(lambda r: str(r.hour), tuple(str(h) for h in range(24))),
}

# Position of each canonical value in its order, for tie-breaks and sorting.
_RANKS = {name: {v: i for i, v in enumerate(a.order)} for name, a in ATTRIBUTES.items() if a.order}
MONTH_RANK = _RANKS["month"]
WEEKDAY_RANK = _RANKS["day"]
TIME_RANK = _RANKS["time"]
