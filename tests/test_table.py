"""The columnar read: ``read_unified_jsonl``, ``read_raw_jsonl`` and
``preprocess_dataset`` return a ``UnifiedTable`` of codes, and every consumer
gives on it what it gives on the record list."""

import datetime as dt
import gc
import io
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, LOCATIONS, make_record
from crimeminer import preprocess
from crimeminer.apriori import mine_hotspot_patterns
from crimeminer.demographics import crime_rate_by_location
from crimeminer.errors import CrimeMinerError
from crimeminer.preprocess import (
    HOUR_BINS, MONTH_NAMES, WEEKDAY_NAMES, CrimeCategory, Schema, TypeMapping, UnifiedCrimeRecord, preprocess_dataset,
    read_unified_jsonl, write_unified_jsonl,
)
from crimeminer.rawjsonl import RAW, RawCrimeRecord, read_raw_jsonl, write_raw_jsonl
from crimeminer.stats import crosstab, frequency_table, top_and_bottom_locations
from crimeminer.table import UnifiedTable, as_table
from crimeminer.training import Dataset, SplitSpec, split_train_test
from crimeminer.vocab import ATTRIBUTES

# Locations the writer escapes (a quote, a backslash, non-ASCII text): their
# lines miss the template, so their blocks are read line by line and projected.
ESCAPED = ('o"neil', "back\\slash", "caf\xe9", "€-park")

records_with_escapes = st.builds(
    make_record, st.sampled_from(list(CrimeCategory)), st.sampled_from(MONTH_NAMES), st.sampled_from(WEEKDAY_NAMES),
    st.integers(0, 23), st.sampled_from(LOCATIONS + ESCAPED), st.sampled_from((2013, 2014, 2015)))


def written(records, write=write_unified_jsonl) -> str:
    buffer = io.StringIO()
    write(records, buffer)
    return buffer.getvalue()


def outcome(fn, *args):
    """``fn(*args)``, or the type and text of the error it raises."""
    try:
        return fn(*args)
    except (CrimeMinerError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def dataset_fields(data: Dataset) -> tuple:
    return data.values, data.codes, data.columns, data.labels, data.joint, data.rows, data.histogram


def level_items(run) -> list:
    """Each level's itemsets and supports, in key order."""
    return [(size, list(level.items())) for size, level in run.itemsets.items()]


@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(records=st.lists(records_with_escapes, max_size=40), block_chars=st.integers(1, 2000),
       min_sup=st.sampled_from([0.01, 0.05, 0.2, 0.5, 1.0]))
def test_every_consumer_gives_on_the_table_what_it_gives_on_the_records(records, block_chars, min_sup):
    with mock.patch.object(preprocess, "_BLOCK_CHARS", block_chars):  # template and projected blocks mixed
        table = read_unified_jsonl(io.StringIO(written(records)))
    assert isinstance(table, UnifiedTable)
    assert list(table) == records and table == records and len(table) == len(records)

    for year in (None, 2014, 1999):  # 1999: a filter that keeps no row
        kept = [r for r in records if year is None or r.year == year]
        for attribute, how in ATTRIBUTES.items():
            got = frequency_table(table, attribute, year)
            assert got == frequency_table(records, attribute, year)
            assert {row.value: row.count for row in got.rows} == Counter(map(how.read, kept))
            assert got.total == len(kept)
        for rows, cols in (("type", "day"), ("location", "hour"), ("time", "month")):
            got = crosstab(table, rows, cols, year)
            assert got == crosstab(records, rows, cols, year)
            assert got.total == sum(got.row_sums()) == len(kept)
    assert outcome(top_and_bottom_locations, table, 1, 1, 1) == outcome(top_and_bottom_locations, records, 1, 1, 1)
    assert outcome(crime_rate_by_location, table) == outcome(crime_rate_by_location, records)
    if records:
        by_place = Counter(r.location for r in records)
        assert [(rate.neighborhood, rate.crime_count) for rate in crime_rate_by_location(table)] == sorted(
            by_place.items(), key=lambda kv: (-kv[1], kv[0]))
        mined, from_records = mine_hotspot_patterns(table, min_sup), mine_hotspot_patterns(records, min_sup)
        assert level_items(mined) == level_items(from_records) and mined.patterns == from_records.patterns
    assert dataset_fields(Dataset.from_records(table)) == dataset_fields(Dataset.from_records(records))


def test_a_record_list_becomes_a_table_once_and_a_table_stays_itself():
    records = [make_record(location=place, hour=hour) for place in LOCATIONS for hour in (0, 9, 18)]
    table = as_table(records)
    assert as_table(table) is table
    assert table == as_table(iter(records)) and list(table) == records
    assert table[4] == records[4] and table[-1] == records[-1]
    assert isinstance(table[2:9:3], UnifiedTable) and table[2:9:3] == records[2:9:3]
    assert repr(table) == repr(records)
    assert list(table * 3) == records * 3
    assert table.column("location") == [r.location for r in records]
    assert as_table([]) == [] and len(as_table([])) == 0


def test_the_table_holds_at_most_a_quarter_of_the_record_lists_bytes():
    """Five one-byte code columns and two lists (8 bytes a row each) replace
    one 7-field tuple a row (about 100 bytes with its list slot), 0.21 of its
    bytes: a table that held a list per coded field, a tuple or any object per
    row fails here."""
    with open(DATA_DIR / "synthetic_crimes.jsonl", encoding="utf-8") as fp:
        text = fp.read()
    read_unified_jsonl(io.StringIO(text[:text.index("\n") + 1]))  # the table module is loaded before tracing

    def retained(make):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            made = make()
            gc.collect()
            return made, tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    table, table_bytes = retained(lambda: read_unified_jsonl(io.StringIO(text)))
    records, record_bytes = retained(lambda: list(table))  # the values are the table's, shared
    assert len(records) == 1000
    assert table_bytes <= 0.25 * record_bytes, (table_bytes, record_bytes)


@pytest.mark.parametrize("bad", ['{"day": "Friday"}', "not json"])
def test_a_bad_line_after_template_blocks_names_its_line(bad):
    text = written([make_record()] * 300) + bad + "\n"
    with mock.patch.object(preprocess, "_BLOCK_CHARS", 4096):
        with pytest.raises(ValueError, match="bad unified record on line 301"):
            read_unified_jsonl(io.StringIO(text))


# Raw records as ``ingest`` writes them: categories and locations that
# normalization keeps (escaped ones included) and clocks to the minute; some
# rows lack a clock or map to no type, which ``preprocess_dataset`` rejects.
CATEGORIES = ("larceny", "burglary", "drug-alcohol", 'o"neil', "caf\xe9 theft")
MAPPING = TypeMapping.from_dict({"larceny": "Theft", "burglary": "Theft", 'o"neil': "Assault",
                                 "caf\xe9 theft": "White Collar Crime"})
raw_records = st.builds(
    RawCrimeRecord, st.sampled_from(CATEGORIES), st.dates(),
    st.none() | st.builds(dt.time, st.integers(0, 23), st.integers(0, 59)), st.sampled_from(LOCATIONS + ESCAPED),
    st.sampled_from((True, False, None)), st.integers(-10**12, 10**12))


def unified_of(record: RawCrimeRecord) -> UnifiedCrimeRecord | None:
    """The per-record oracle of ``preprocess_dataset``: None for a rejected record."""
    category = MAPPING.entries.get(record.offense_category)
    if record.time is None or category is None:
        return None
    date, hour = record.date, record.time.hour
    return UnifiedCrimeRecord(category, MONTH_NAMES[date.month - 1], WEEKDAY_NAMES[date.weekday()], HOUR_BINS[hour],
                              record.location_name, date.year, hour)


@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(records=st.lists(raw_records, max_size=40), block_chars=st.integers(1, 2000))
def test_the_raw_table_and_the_preprocessed_table_are_their_record_lists(records, block_chars):
    with mock.patch.object(preprocess, "_BLOCK_CHARS", block_chars):  # template and projected blocks mixed
        raw = read_raw_jsonl(io.StringIO(written(records, write_raw_jsonl)))
    assert isinstance(raw, UnifiedTable) and raw.layout is RAW
    assert list(raw) == records and raw == records and len(raw) == len(records)

    expected = [unified for unified in map(unified_of, records) if unified is not None]
    rejected = [r for r in records if unified_of(r) is None]
    for source in (raw, records):
        table, report = preprocess_dataset(source, Schema.DENVER, MAPPING, max_reject_fraction=1.0)
        assert isinstance(table, UnifiedTable) and list(table) == expected and table == as_table(expected)
        assert {field: type(column) for field, column in zip(UnifiedCrimeRecord._fields, table.columns)} == {
            "crime_type": bytearray, "month": bytearray, "day": bytearray, "time": bytearray, "location": list,
            "year": list, "hour": bytearray}
        assert (report.rows_in, report.rows_out) == (len(records), len(expected))
        assert report.reasons == Counter("missing-time" if r.time is None else "unmapped-category" for r in rejected)
        assert report.rejected_categories == Counter(r.offense_category for r in rejected if r.time is not None)
        assert written(table) == written(expected)


def test_closed_vocabularies_are_one_byte_codes_and_each_location_one_string():
    with open(DATA_DIR / "synthetic_crimes.jsonl", encoding="utf-8") as fp:
        table = read_unified_jsonl(fp)
    records = list(table)
    for field, order in (("crime_type", tuple(CrimeCategory)), ("month", MONTH_NAMES), ("day", WEEKDAY_NAMES),
                         ("hour", range(24))):
        column = table.column(field)
        assert type(column) is bytearray and [order[code] for code in column] == [getattr(r, field) for r in records]
    assert type(table.column("time")) is bytearray
    locations = table.column("location")
    assert len({id(place) for place in locations}) == len(set(locations))


def test_a_dataset_is_a_view_on_the_tables_code_columns():
    with open(DATA_DIR / "synthetic_crimes.jsonl", encoding="utf-8") as fp:
        table = read_unified_jsonl(fp)
    data = Dataset.from_records(table)
    for feature in ("month", "day", "time"):
        assert data.columns[feature] is table.column(feature)
    assert data.labels is table.column("crime_type")
    assert data.rows == range(len(table))
    assert [data.values["location"][code] for code in data.columns["location"]] == table.column("location")
    train, test = split_train_test(data, SplitSpec(0.8, seed=3))
    for part in (train, test):
        assert part.columns is data.columns and part.labels is data.labels and part.joint is data.joint
    assert sorted([*train.rows, *test.rows]) == list(range(len(table)))
