"""Seeded generator of raw Denver and Los Angeles crime feeds for the benchmark.

The program under test only ever sees the files written here. Each feed comes
with a demographics CSV for its locations and a manifest of what was planted:
row counts, the non-crime share and the dirty rows per ingest rejection
reason. The same (city, rows, seed) always writes byte-identical files.

The seed draws the rows. The shape of each city is fixed: which locations are
busy, each location's crime mix, the demographics. So every seed is a sample
of the same workload, and the work per row does not change with the seed.

    python3 perfbench/feeds.py --city denver --rows 20000 --seed 7 --out feed_dir
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import json
import random
from pathlib import Path

# The 78 Denver statistical neighborhoods, in the feed's slug form.
DENVER_NEIGHBORHOODS = (
    "athmar-park", "auraria", "baker", "barnum", "barnum-west", "bear-valley",
    "belcaro", "berkeley", "capitol-hill", "cbd", "chaffee-park", "cheesman-park",
    "cherry-creek", "city-park", "city-park-west", "civic-center", "clayton", "cole",
    "college-view-south-platte", "congress-park", "cory-merrill", "country-club",
    "dia", "east-colfax", "elyria-swansea", "five-points", "fort-logan",
    "gateway-green-valley-ranch", "globeville", "goldsmith", "hale", "hampden",
    "hampden-south", "harvey-park", "harvey-park-south", "highland", "hilltop",
    "indian-creek", "jefferson-park", "kennedy", "lincoln-park", "lowry-field",
    "mar-lee", "marston", "montbello", "montclair", "north-capitol-hill",
    "north-park-hill", "northeast-park-hill", "overland", "platt-park", "regis",
    "rosedale", "ruby-hill", "skyland", "sloan-lake", "south-park-hill",
    "southmoor-park", "speer", "stapleton", "sun-valley", "sunnyside",
    "union-station", "university", "university-hills", "university-park",
    "valverde", "villa-park", "virginia-village", "washington-park",
    "washington-park-west", "washington-virginia-vale", "wellshire", "west-colfax",
    "west-highland", "westwood", "whittier", "windsor",
)

# The 15 Denver offense categories with rough real-feed weights.
DENVER_CATEGORIES = {
    "all-other-crimes": 22, "larceny": 16, "theft-from-motor-vehicle": 11,
    "public-disorder": 11, "drug-alcohol": 8, "auto-theft": 7, "burglary": 7,
    "other-crimes-against-persons": 6, "aggravated-assault": 3, "robbery": 2,
    "white-collar-crime": 2, "sexual-assault": 1, "theft": 2, "arson": 0.3, "murder": 0.1,
}

LA_AREAS = (
    "77th Street", "Central", "Devonshire", "Foothill", "Harbor", "Hollenbeck",
    "Hollywood", "Mission", "N Hollywood", "Newton", "Northeast", "Olympic",
    "Pacific", "Rampart", "Southeast", "Southwest", "Topanga", "Van Nuys",
    "West LA", "West Valley", "Wilshire",
)

# Non-crime report categories of the LA feed; the packaged mapping leaves them
# out, so the benchmark removes them with ``ingest --exclude``.
LA_NONCRIME_CATEGORIES = ("LOST PROPERTY", "MISSING PERSON", "TRAFFIC COLLISION - NON INJURY")
LA_NONCRIME_SHARE = 0.03
LA_CURRENT_LAYOUT_SHARE = 0.01

DENVER_NONCRIME_SHARE = 0.25
DENVER_DIRTY_SHARE = 0.005
DENVER_DIRTY_REASONS = (
    "blank-row", "missing-category", "missing-location", "missing-datetime",
    "bad-datetime", "missing-time", "bad-is-crime",
)

DENVER_HEADER = (
    "INCIDENT_ID", "OFFENSE_ID", "OFFENSE_TYPE_ID", "OFFENSE_CATEGORY_ID",
    "FIRST_OCCURRENCE_DATE", "REPORTED_DATE", "GEO_LON", "GEO_LAT", "DISTRICT_ID",
    "NEIGHBORHOOD_ID", "IS_CRIME", "IS_TRAFFIC",
)
LA_HEADER = (
    "DR_NO", "Date Rptd", "DATE OCC", "TIME OCC", "AREA", "AREA NAME", "Rpt Dist No",
    "Crm Cd", "Crm Cd Desc", "Vict Age", "Vict Sex", "LAT", "LON",
)
DEMOGRAPHICS_HEADER = (
    "NBHD_NAME", "POPULATION_2010", "MALE", "FEMALE", "HOUSING_UNITS", "OCCUPIED_HU",
    "VACANT_HU", "OWNER_OCCUPIED_HU", "RENTER_OCCUPIED_HU", "AGE_0_TO_9", "AGE_10_TO_19",
    "AGE_20_TO_29", "AGE_30_TO_39", "AGE_40_TO_49", "AGE_50_TO_59", "AGE_60_TO_69",
    "AGE_70_TO_79", "AGE_80_PLUS",
)

FIRST_DAY = dt.date(2014, 1, 1)
DAYS = 730  # 2014 and 2015
# Crimes per hour of day (0-23): low before dawn, peaks at noon and evening.
HOUR_WEIGHTS = (5, 4, 4, 3, 2, 2, 3, 4, 6, 6, 6, 7, 8, 7, 7, 7, 8, 8, 8, 8, 7, 7, 6, 5)


def _zipf_weights(n: int, exponent: float) -> list[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(n)]


def _location_category_weights(rng, locations, base, spread):
    """Per-location category weights: the city-wide mix perturbed per location,
    so crime type depends on where it happens."""
    return {
        loc: [w * rng.lognormvariate(0.0, spread) for w in base]
        for loc in locations
    }


def _when(rng) -> tuple[dt.date, int, int]:
    day = FIRST_DAY + dt.timedelta(days=rng.randrange(DAYS))
    hour = rng.choices(range(24), weights=HOUR_WEIGHTS)[0]
    return day, hour, rng.randrange(60)


def _short_date(day: dt.date) -> str:
    return f"{day.month}/{day.day}/{day.year % 100:02d}"


def _ranked(structure, names) -> list:
    ranked = list(names)
    structure.shuffle(ranked)
    return ranked


def _draw_locations(rng, ranked, weights, rows):
    """Every location once (so models see the whole vocabulary), then skewed draws."""
    drawn = list(ranked[:rows])
    drawn += rng.choices(ranked, weights=weights, k=max(rows - len(drawn), 0))
    return drawn


def write_denver(out: Path, rows: int, seed: int) -> dict:
    """Denver layout: ``M/D/YY H:MM`` stamps, an IS_CRIME flag, dirty rows."""
    structure, rng = random.Random("denver"), random.Random(f"denver-{seed}")
    categories = list(DENVER_CATEGORIES)
    mix = _location_category_weights(structure, DENVER_NEIGHBORHOODS, list(DENVER_CATEGORIES.values()), 0.6)
    locations = _draw_locations(rng, _ranked(structure, DENVER_NEIGHBORHOODS),
                                _zipf_weights(len(DENVER_NEIGHBORHOODS), 0.9), rows)
    dirty = dict.fromkeys(DENVER_DIRTY_REASONS, 0)
    clean_crime = clean_noncrime = 0
    with open(out / "crimes.csv", "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(DENVER_HEADER)
        for i, location in enumerate(locations):
            day, hour, minute = _when(rng)
            is_crime = i < len(DENVER_NEIGHBORHOODS) or rng.random() >= DENVER_NONCRIME_SHARE
            category = (
                rng.choices(categories, weights=mix[location])[0] if is_crime else "traffic-accident"
            )
            stamp = f"{_short_date(day)} {hour}:{minute:02d}"
            flag = "1" if is_crime else "0"
            reason = None
            if i >= len(DENVER_NEIGHBORHOODS) and rng.random() < DENVER_DIRTY_SHARE:
                reason = rng.choice(DENVER_DIRTY_REASONS)
                dirty[reason] += 1
                if reason == "missing-category":
                    category = ""
                elif reason == "missing-location":
                    location = ""
                elif reason == "missing-datetime":
                    stamp = ""
                elif reason == "bad-datetime":
                    stamp = f"{day.month + 12}/{day.day}/{day.year % 100:02d} {hour}:{minute:02d}"
                elif reason == "missing-time":
                    stamp = _short_date(day)
                elif reason == "bad-is-crime":
                    flag = "unknown"
            if reason == "blank-row":
                writer.writerow([""] * len(DENVER_HEADER))
                continue
            if reason is None:
                if is_crime:
                    clean_crime += 1
                else:
                    clean_noncrime += 1
            reported = day + dt.timedelta(days=rng.randrange(3))
            writer.writerow([
                2014000000 + i, f"{i}{rng.randrange(10)}", f"{category}-type", category, stamp,
                f"{_short_date(reported)} {rng.randrange(24)}:{rng.randrange(60):02d}",
                f"{-104.9 - rng.random() / 10:.7f}", f"{39.7 + rng.random() / 10:.7f}",
                rng.randrange(1, 8), location, flag, "0" if is_crime else "1",
            ])
    _write_demographics(out, structure, [n.replace("-", " ").title() for n in DENVER_NEIGHBORHOODS])
    return {
        "city": "denver",
        "seed": seed,
        "rows": rows,
        "clean_rows": clean_crime + clean_noncrime,
        "clean_crime_rows": clean_crime,
        "noncrime_rows": clean_noncrime,
        "noncrime_share": clean_noncrime / (clean_crime + clean_noncrime),
        "dirty_rows": dirty,
        "current_layout_rows": 0,
        "current_layout_crime_rows": 0,
        "current_layout_reason": "bad-date",
        "locations": len(DENVER_NEIGHBORHOODS),
        "categories": len(categories),
        "exclude": [],
        "demographics_rows": len(DENVER_NEIGHBORHOODS),
    }


def _la_categories() -> list[str]:
    mapping = Path(__file__).resolve().parent.parent / "src/crimeminer/data/la_type_mapping.json"
    with open(mapping, encoding="utf-8") as fp:
        return sorted(key.upper() for key in json.load(fp))


def write_la(out: Path, rows: int, seed: int) -> dict:
    """LA layout: ``M/D/YY`` dates, 1-4 digit military ``TIME OCC``, and about
    1% of dates in the current export layout ``MM/DD/YYYY 12:00:00 AM``."""
    structure, rng = random.Random("la"), random.Random(f"la-{seed}")
    categories = _ranked(structure, _la_categories())
    mix = _location_category_weights(structure, LA_AREAS, _zipf_weights(len(categories), 1.1), 0.4)
    locations = _draw_locations(rng, _ranked(structure, LA_AREAS), _zipf_weights(len(LA_AREAS), 0.3), rows)
    clean_crime = clean_noncrime = current = current_crime = 0
    with open(out / "crimes.csv", "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(LA_HEADER)
        for i, area in enumerate(locations):
            day, hour, minute = _when(rng)
            is_crime = i < len(LA_AREAS) or rng.random() >= LA_NONCRIME_SHARE
            category = (
                rng.choices(categories, weights=mix[area])[0] if is_crime
                else rng.choice(LA_NONCRIME_CATEGORIES)
            )
            occurred = _short_date(day)
            if i >= len(LA_AREAS) and rng.random() < LA_CURRENT_LAYOUT_SHARE:
                occurred = f"{day.month:02d}/{day.day:02d}/{day.year} 12:00:00 AM"
                current += 1
                current_crime += is_crime
            elif is_crime:
                clean_crime += 1
            else:
                clean_noncrime += 1
            area_id = LA_AREAS.index(area) + 1
            writer.writerow([
                140100000 + i, _short_date(day + dt.timedelta(days=rng.randrange(5))), occurred,
                str(hour * 100 + minute), f"{area_id:02d}", area, f"{area_id:02d}{rng.randrange(100):02d}",
                rng.randrange(100, 999), category, rng.randrange(0, 90), rng.choice("MFX"),
                f"{33.7 + rng.random() / 2:.4f}", f"{-118.6 + rng.random() / 2:.4f}",
            ])
    _write_demographics(out, structure, LA_AREAS)
    return {
        "city": "la",
        "seed": seed,
        "rows": rows,
        "clean_rows": clean_crime + clean_noncrime,
        "clean_crime_rows": clean_crime,
        "noncrime_rows": clean_noncrime,
        "noncrime_share": clean_noncrime / (clean_crime + clean_noncrime),
        "dirty_rows": {},
        "current_layout_rows": current,
        "current_layout_crime_rows": current_crime,
        "current_layout_reason": "bad-date",
        "locations": len(LA_AREAS),
        "categories": len(categories),
        "exclude": list(LA_NONCRIME_CATEGORIES),
        "demographics_rows": len(LA_AREAS),
    }


def _write_demographics(out: Path, rng, names) -> None:
    """One consistent row per location: male + female == population and
    occupied + vacant == housing units, as the loader requires."""
    with open(out / "demographics.csv", "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(DEMOGRAPHICS_HEADER)
        for name in names:
            population = rng.randrange(2000, 40000)
            male = population * rng.randrange(45, 55) // 100
            units = population * rng.randrange(35, 55) // 100
            occupied = units * rng.randrange(85, 98) // 100
            owned = occupied * rng.randrange(20, 80) // 100
            shares = [rng.random() + 0.2 for _ in range(9)]
            ages = [int(population * s / sum(shares)) for s in shares]
            writer.writerow([
                name, population, male, population - male, units, occupied, units - occupied,
                owned, occupied - owned, *ages,
            ])


WRITERS = {"denver": write_denver, "la": write_la}


def location_keys(city: str) -> list[str]:
    """The feed's locations as the program keys them: lowercase, spaces to hyphens."""
    names = DENVER_NEIGHBORHOODS if city == "denver" else LA_AREAS
    return sorted(name.lower().replace(" ", "-") for name in names)


def generate(city: str, rows: int, seed: int, out: Path) -> dict:
    """Write ``crimes.csv``, ``demographics.csv`` and ``manifest.json`` under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    manifest = WRITERS[city](out, rows, seed)
    with open(out / "manifest.json", "w", encoding="utf-8") as fp:
        json.dump(manifest, fp, indent=2, sort_keys=True)
        fp.write("\n")
    return manifest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--city", required=True, choices=sorted(WRITERS))
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    print(json.dumps(generate(args.city, args.rows, args.seed, Path(args.out)), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
