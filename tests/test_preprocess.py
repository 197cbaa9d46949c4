"""Unified-schema transformation: time bins, temporal derivation, type grouping."""

import copy
import datetime as dt
import io
import json
import pickle
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import unified_records
from crimeminer.errors import CrimeMinerError
from crimeminer.ingestion import RawCrimeRecord, Schema
from crimeminer.preprocess import (
    MONTH_NAMES,
    WEEKDAY_NAMES,
    CrimeCategory,
    TimeBin,
    TypeMapping,
    UnifiedCrimeRecord,
    bin_time,
    normalize_location,
    preprocess_dataset,
    read_unified_jsonl,
    unified_from_json_dict,
    unified_to_json_dict,
    write_unified_jsonl,
)


def derive_temporal(when: dt.datetime) -> tuple[str, str, TimeBin, int]:
    """Month name, weekday name, time bin, and year of a civil timestamp, by
    the calendar alone: the per-record derivation ``preprocess_dataset`` memoises."""
    return MONTH_NAMES[when.month - 1], WEEKDAY_NAMES[when.weekday()], bin_time(when.hour), when.year


def map_crime_type(raw_category: str, mapping: TypeMapping) -> CrimeCategory:
    """Exact lookup of a normalized raw category in the mapping."""
    try:
        return mapping.entries[raw_category]
    except KeyError:
        raise CrimeMinerError(f"offense category {raw_category!r} has no type mapping") from None


class TestBinTime:
    @pytest.mark.parametrize(
        "hour,expected",
        [(21, TimeBin.T6), (0, TimeBin.T6), (5, TimeBin.T2), (12, TimeBin.T3), (16, TimeBin.T4),
         (1, TimeBin.T1), (4, TimeBin.T1), (17, TimeBin.T5), (20, TimeBin.T5), (23, TimeBin.T6)],
    )
    def test_boundary_hours(self, hour, expected):
        assert bin_time(hour) is expected

    def test_partition_each_bin_gets_exactly_four_hours(self):
        assignment = Counter(bin_time(h) for h in range(24))
        assert assignment == {b: 4 for b in TimeBin}

    def test_bin_hours_attribute_matches_bin_time(self):
        for b in TimeBin:
            assert all(bin_time(h) is b for h in b.hours)

    def test_a_dict_keyed_by_bin_finds_every_member_however_obtained(self):
        by_bin = {b: b.value for b in TimeBin}
        for b in TimeBin:
            for found in (TimeBin(b.value), TimeBin[b.name], bin_time(b.hours[0]), copy.deepcopy(b),
                          pickle.loads(pickle.dumps(b))):
                assert found is b and hash(found) == hash(b)
                assert by_bin[found] == b.value
        assert len({*TimeBin, *TimeBin}) == len(TimeBin)

    @pytest.mark.parametrize("hour", [-1, 24, 100])
    def test_out_of_range(self, hour):
        with pytest.raises(CrimeMinerError, match=f"hour must be an integer in 0..23, got {hour}"):
            bin_time(hour)


class TestDeriveTemporal:
    # Expected tuples come straight from the civil calendar (date.weekday()).
    @pytest.mark.parametrize(
        "when,expected",
        [
            (dt.datetime(2014, 6, 13, 21, 30), ("June", "Friday", TimeBin.T6, 2014)),
            (dt.datetime(2014, 1, 1, 0, 0), ("January", "Wednesday", TimeBin.T6, 2014)),
            (dt.datetime(2015, 3, 8, 4, 59), ("March", "Sunday", TimeBin.T1, 2015)),
        ],
    )
    def test_known_timestamps(self, when, expected):
        assert derive_temporal(when) == expected

    @given(
        st.datetimes(min_value=dt.datetime(2000, 1, 1), max_value=dt.datetime(2030, 12, 31))
    )
    def test_agrees_with_calendar(self, when):
        month, day, time_bin, year = derive_temporal(when)
        assert month == MONTH_NAMES[when.month - 1]
        assert day == WEEKDAY_NAMES[when.weekday()]
        assert time_bin is bin_time(when.hour)
        assert year == when.year


class TestTypeMapping:
    def test_default_denver_mapping_covers_known_categories(self):
        mapping = TypeMapping.for_schema(Schema.DENVER)
        assert map_crime_type("theft-from-motor-vehicle", mapping) is CrimeCategory.THEFT
        assert map_crime_type("white-collar-crime", mapping) is CrimeCategory.WHITE_COLLAR_CRIME
        assert map_crime_type("aggravated-assault", mapping) is CrimeCategory.ASSAULT
        assert map_crime_type("drug-alcohol", mapping) is CrimeCategory.DRUG_ALCOHOL
        assert map_crime_type("public-disorder", mapping) is CrimeCategory.PUBLIC_DISORDER
        assert map_crime_type("arson", mapping) is CrimeCategory.OTHER_CRIMES

    def test_default_la_mapping_loads_and_uses_all_six_types(self):
        mapping = TypeMapping.for_schema(Schema.LOS_ANGELES)
        assert set(mapping.entries.values()) == set(CrimeCategory)
        assert map_crime_type("burglary", mapping) is CrimeCategory.THEFT

    def test_lookup_miss_raises_with_the_offending_value(self):
        empty = TypeMapping.from_dict({})
        with pytest.raises(CrimeMinerError, match="offense category 'jaywalking' has no type mapping"):
            map_crime_type("jaywalking", empty)

    def test_mapping_is_order_independent(self):
        entries = {"larceny": "Theft", "arson": "Other Crimes", "murder": "Assault"}
        forward = TypeMapping.from_dict(entries)
        backward = TypeMapping.from_dict(dict(reversed(entries.items())))
        for category in entries:
            assert map_crime_type(category, forward) is map_crime_type(category, backward)

    def test_bad_unified_name_rejected(self):
        with pytest.raises(ValueError, match="unknown crime type"):
            TypeMapping.from_dict({"larceny": "Stealing"})

    def test_label_aliases(self):
        assert CrimeCategory.from_label("white-collar-crime") is CrimeCategory.WHITE_COLLAR_CRIME
        assert CrimeCategory.from_label("Drug Alcohol") is CrimeCategory.DRUG_ALCOHOL
        assert CrimeCategory.from_label("other_crimes") is CrimeCategory.OTHER_CRIMES

    def test_ids_are_one_through_six_in_canonical_order(self):
        assert [int(c) for c in CrimeCategory] == [1, 2, 3, 4, 5, 6]
        assert CrimeCategory.THEFT == 5


def raw(category="drug-alcohol", when=dt.datetime(2014, 6, 13, 21, 30), location="five-points", row=1):
    return RawCrimeRecord(category, when.date(), when.time(), location, True, row)


class TestPreprocessDataset:
    def test_composes_the_three_derivations(self):
        mapping = TypeMapping.for_schema(Schema.DENVER)
        unified, report = preprocess_dataset([raw()], Schema.DENVER, mapping)
        (record,) = unified
        assert record.crime_type is CrimeCategory.DRUG_ALCOHOL
        assert (record.month, record.day, record.time) == ("June", "Friday", TimeBin.T6)
        assert record.location == "five-points"
        assert record.year == 2014
        assert record.hour == 21
        assert report.rows_in == 1 and report.rows_out == 1

    def test_empty_input_empty_output(self):
        unified, report = preprocess_dataset([], Schema.DENVER, TypeMapping.from_dict({}))
        assert unified == [] and report.rows_in == 0

    def test_unmapped_category_is_counted_not_raised(self):
        mapping = TypeMapping.from_dict({"larceny": "Theft"})
        records = [raw("larceny", row=1)] * 99 + [raw("jaywalking", row=100)]
        unified, report = preprocess_dataset(records, Schema.DENVER, mapping)
        assert len(unified) == 99
        assert report.rejected_categories == {"jaywalking": 1}
        assert report.rows_in == report.rows_out + report.rows_rejected

    def test_rejection_threshold_aborts(self):
        mapping = TypeMapping.from_dict({"larceny": "Theft"})
        records = [raw("larceny"), raw("jaywalking")]
        with pytest.raises(CrimeMinerError, match=r"rejected 1/2 records \(> 1.00% allowed\); top unmapped: 'jaywalking' x1"):
            preprocess_dataset(records, Schema.DENVER, mapping)
        unified, _ = preprocess_dataset(records, Schema.DENVER, mapping, max_reject_fraction=0.5)
        assert len(unified) == 1

    def test_missing_clock_time_is_rejected(self):
        record = RawCrimeRecord("larceny", dt.date(2014, 6, 13), None, "baker", True, 1)
        mapping = TypeMapping.from_dict({"larceny": "Theft"})
        unified, report = preprocess_dataset([record], Schema.DENVER, mapping, max_reject_fraction=1.0)
        assert unified == []
        assert report.reasons == {"missing-time": 1}

    def test_order_preserved(self):
        mapping = TypeMapping.from_dict({"larceny": "Theft", "arson": "Other Crimes"})
        records = [raw("larceny", row=1), raw("arson", row=2), raw("larceny", row=3)]
        unified, _ = preprocess_dataset(records, Schema.DENVER, mapping)
        assert [r.crime_type for r in unified] == [
            CrimeCategory.THEFT,
            CrimeCategory.OTHER_CRIMES,
            CrimeCategory.THEFT,
        ]


class TestMemoisedDerivation:
    @given(st.lists(st.tuples(st.sampled_from(["larceny", "burglary", "jaywalking"]),
                              st.sampled_from([dt.date(2014, 6, 13), dt.date(2015, 1, 1)]) | st.dates(),
                              st.none() | st.times()), max_size=30))
    def test_matches_the_per_record_derivation(self, rows):
        records = [RawCrimeRecord(c, d, t, "cbd", True, i) for i, (c, d, t) in enumerate(rows)]
        mapping = TypeMapping.from_dict({"larceny": "Theft", "burglary": "Assault"})
        expected = []
        for r in records:
            if r.time is not None and r.offense_category != "jaywalking":
                month, day, time_bin, year = derive_temporal(dt.datetime.combine(r.date, r.time))
                expected.append(UnifiedCrimeRecord(map_crime_type(r.offense_category, mapping), month, day,
                                                   time_bin, r.location_name, year, r.time.hour))
        unified, report = preprocess_dataset(records, Schema.DENVER, mapping, max_reject_fraction=1.0)
        assert repr(unified) == repr(expected)
        assert (report.rows_in, report.rows_out) == (len(records), len(expected))


class TestUnifiedJsonl:
    @given(st.lists(unified_records(), max_size=20))
    def test_round_trip(self, records):
        buffer = io.StringIO()
        write_unified_jsonl(records, buffer)
        assert read_unified_jsonl(io.StringIO(buffer.getvalue())) == records

    @given(unified_records())
    def test_time_bin_matches_hour_round_trip(self, record):
        restored = unified_from_json_dict(unified_to_json_dict(record))
        assert restored.time is bin_time(restored.hour)

    def test_type_and_id_must_agree(self):
        obj = {
            "type": "Theft", "type_id": 2, "month": "June", "day": "Friday",
            "time": "T6", "location": "x", "year": 2014, "hour": 21,
        }
        with pytest.raises(ValueError, match="does not match"):
            unified_from_json_dict(obj)

    @pytest.mark.parametrize(
        "patch",
        [{"month": "Juneteenth"}, {"day": "Fridayish"}, {"time": "T7"}, {"hour": 24}, {"location": " "}],
    )
    def test_invalid_fields_rejected(self, patch):
        obj = {
            "type": "Theft", "type_id": 5, "month": "June", "day": "Friday",
            "time": "T6", "location": "x", "year": 2014, "hour": 21,
        }
        obj.update(patch)
        with pytest.raises(ValueError):
            unified_from_json_dict(obj)

    # Any location ``normalize_location`` keeps, and any year ``datetime.date`` holds: what ``preprocess`` writes.
    @given(unified_records(), st.text(min_size=1).map(normalize_location).filter(
        lambda text: text and normalize_location(text) == text), st.integers(1, 9999))
    def test_written_records_decode_as_themselves(self, record, location, year):
        for r in (record, record._replace(location=location, year=year)):
            assert repr(unified_from_json_dict(unified_to_json_dict(r))) == repr(r)  # same type, same fields

    CANONICAL = {"type": "Theft", "type_id": 5, "month": "June", "day": "Friday",
                 "time": "T6", "location": "cbd", "year": 2014, "hour": 21}

    @pytest.mark.parametrize("line", [
        pytest.param(json.dumps(CANONICAL), id="canonical"),
        pytest.param(json.dumps({**CANONICAL, "type_id": "5"}), id="type_id-text"),
        pytest.param(json.dumps({**CANONICAL, "type_id": 5.0}), id="type_id-float"),
        pytest.param(json.dumps({**CANONICAL, "type_id": True}), id="type_id-bool"),
        pytest.param(json.dumps({**CANONICAL, "type": "theft"}), id="type-lowercase"),
        pytest.param(json.dumps({k: v for k, v in CANONICAL.items() if k != "type"}), id="no-type"),
        pytest.param(json.dumps({k: v for k, v in CANONICAL.items() if k != "year"}), id="no-year"),
        pytest.param(json.dumps({**CANONICAL, "year": 2014.0}), id="year-float"),
        pytest.param(json.dumps({**CANONICAL, "year": "2014"}), id="year-text"),
        pytest.param(json.dumps({**CANONICAL, "location": " cbd "}), id="location-padded"),
        pytest.param(json.dumps({**CANONICAL, "location": "   "}), id="location-blank"),
        pytest.param(json.dumps({**CANONICAL, "location": 7}), id="location-number"),
        pytest.param(json.dumps({**CANONICAL, "hour": True}), id="hour-bool"),
        pytest.param(json.dumps({**CANONICAL, "hour": 24}), id="hour-24"),
        pytest.param(json.dumps({**CANONICAL, "hour": 20.5}), id="hour-fraction"),
        pytest.param(json.dumps({**CANONICAL, "month": ["June"]}), id="month-list"),
        pytest.param(json.dumps({**CANONICAL, "time": "t6"}), id="time-lowercase"),
        pytest.param('[1, 2]', id="array"),
        pytest.param('"June"', id="string"),
        pytest.param('null', id="null"),
        pytest.param('{}', id="empty-object"),
    ])
    def test_reader_gives_the_checked_paths_record_or_error(self, line):
        try:
            expected = [unified_from_json_dict(json.loads(line))]
        except (KeyError, TypeError, ValueError) as exc:
            expected = f"bad unified record on line 1: {exc}"
        try:
            got = read_unified_jsonl(io.StringIO(line + "\n"))
        except ValueError as exc:
            got = str(exc)
        assert repr(got) == repr(expected)  # repr tells hour=1 from hour=True
