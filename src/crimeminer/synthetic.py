"""Deterministic synthetic crime data for demos and end-to-end checks.

The generated dataset plants one (location, day, time) triple at a known
support and assigns crime types by a deterministic rule over the features,
so mining and classification behavior can be verified without real data.
"""

from __future__ import annotations

import random

from .vocab import MONTH_NAMES, WEEKDAY_NAMES, CrimeCategory, TimeBin, UnifiedCrimeRecord, bin_time

DEFAULT_SEED = 20140613
DATASET_SIZE = 1000

PLANTED_LOCATION = "riverside"
PLANTED_DAY = "Friday"
PLANTED_TIME = TimeBin.T5
PLANTED_COUNT = 50  # support 0.05 of the 1000 records

BACKGROUND_LOCATIONS = (
    "riverside",
    "old-town",
    "harbor-gate",
    "mill-creek",
    "sunset-ridge",
    "north-quarter",
    "east-meadows",
    "clearwater",
)

# Every other (location, day, time) triple must stay below this count so that
# the planted triple is cleanly recoverable at thresholds just under 0.05.
MAX_BACKGROUND_TRIPLE = 39


def rule_class(day: str, time: TimeBin) -> CrimeCategory:
    """Deterministic class rule: late evening is theft, otherwise Fridays are
    assaults and the rest public disorder."""
    if time is TimeBin.T6:
        return CrimeCategory.THEFT
    if day == "Friday":
        return CrimeCategory.ASSAULT
    return CrimeCategory.PUBLIC_DISORDER


def _make_record(rng: random.Random, location: str, day: str, hour: int) -> UnifiedCrimeRecord:
    time_bin = bin_time(hour)
    return UnifiedCrimeRecord(
        crime_type=rule_class(day, time_bin),
        month=rng.choice(MONTH_NAMES),
        day=day,
        time=time_bin,
        location=location,
        year=2014,
        hour=hour,
    )


def generate_synthetic_dataset(seed: int = DEFAULT_SEED) -> list[UnifiedCrimeRecord]:
    """1000 records: 50 planted (riverside, Friday, T5) plus diffuse background."""
    rng = random.Random(seed)
    records: list[UnifiedCrimeRecord] = []

    for _ in range(PLANTED_COUNT):
        hour = rng.choice(PLANTED_TIME.hours)
        records.append(_make_record(rng, PLANTED_LOCATION, PLANTED_DAY, hour))

    triple_counts: dict[tuple[str, str, str], int] = {}
    while len(records) < DATASET_SIZE:
        location = rng.choice(BACKGROUND_LOCATIONS)
        day = rng.choice(WEEKDAY_NAMES)
        hour = rng.randrange(24)
        time_bin = bin_time(hour)
        triple = (location, day, time_bin.value)
        if triple == (PLANTED_LOCATION, PLANTED_DAY, PLANTED_TIME.value):
            continue
        if triple_counts.get(triple, 0) >= MAX_BACKGROUND_TRIPLE:
            continue
        triple_counts[triple] = triple_counts.get(triple, 0) + 1
        records.append(_make_record(rng, location, day, hour))

    rng.shuffle(records)
    return records
