"""The columnar read: ``read_unified_jsonl`` returns a ``UnifiedTable``, and
every analytic consumer gives on it what it gives on the record list."""

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
    MONTH_NAMES, WEEKDAY_NAMES, CrimeCategory, read_unified_jsonl, write_unified_jsonl,
)
from crimeminer.stats import crosstab, frequency_table, top_and_bottom_locations
from crimeminer.table import UnifiedTable, as_table
from crimeminer.training import Dataset
from crimeminer.vocab import ATTRIBUTES

# Locations the writer escapes (a quote, a backslash, non-ASCII text): their
# lines miss the template, so their blocks are read line by line and projected.
ESCAPED = ('o"neil', "back\\slash", "caf\xe9", "€-park")

records_with_escapes = st.builds(
    make_record, st.sampled_from(list(CrimeCategory)), st.sampled_from(MONTH_NAMES), st.sampled_from(WEEKDAY_NAMES),
    st.integers(0, 23), st.sampled_from(LOCATIONS + ESCAPED), st.sampled_from((2013, 2014, 2015)))


def written(records) -> str:
    buffer = io.StringIO()
    write_unified_jsonl(records, buffer)
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


def test_the_table_holds_at_most_six_tenths_of_the_record_lists_bytes():
    """One list per field (8 bytes a row each) replaces one 7-field tuple a row
    (about 100 bytes with its list slot): a table that held a tuple, or any
    object, per row fails here."""
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
    assert table_bytes <= 0.6 * record_bytes, (table_bytes, record_bytes)


@pytest.mark.parametrize("bad", ['{"day": "Friday"}', "not json"])
def test_a_bad_line_after_template_blocks_names_its_line(bad):
    text = written([make_record()] * 300) + bad + "\n"
    with mock.patch.object(preprocess, "_BLOCK_CHARS", 4096):
        with pytest.raises(ValueError, match="bad unified record on line 301"):
            read_unified_jsonl(io.StringIO(text))
