"""Crime and demographics CSV loading."""

import csv
import datetime as dt
import io
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import reference_load_crime_csv

from crimeminer.errors import CrimeMinerError
from crimeminer.ingestion import (
    DemographicsColumns,
    RawCrimeRecord,
    Schema,
    filter_crimes,
    load_crime_csv,
    load_demographics_csv,
    normalize_category,
    normalize_location,
    read_raw_jsonl,
    write_raw_jsonl,
)

DENVER_HEADER = "INCIDENT_ID,OFFENSE_CATEGORY_ID,FIRST_OCCURRENCE_DATE,NEIGHBORHOOD_ID,IS_CRIME\n"
LA_HEADER = "DR No,Crm Cd Desc,DATE OCC,TIME OCC,AREA NAME\n"


def write_csv(tmp_path, text, name="input.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestDenverLoading:
    def test_sample_row_parses_date_and_time(self, tmp_path):
        path = write_csv(tmp_path, DENVER_HEADER + "1,drug-alcohol,6/13/14 21:30,five-points,1\n")
        records, report = load_crime_csv(path, Schema.DENVER)
        assert report.rows_read == 1 and report.rows_accepted == 1
        (record,) = records
        assert record.date == dt.date(2014, 6, 13)
        assert record.time == dt.time(21, 30)
        assert record.offense_category == "drug-alcohol"
        assert record.location_name == "five-points"
        assert record.is_crime is True
        assert record.source_row == 1

    def test_header_only_file_is_empty_not_an_error(self, tmp_path):
        records, report = load_crime_csv(write_csv(tmp_path, DENVER_HEADER), Schema.DENVER)
        assert records == []
        assert report.rows_read == 0

    def test_missing_key_column_raises(self, tmp_path):
        path = write_csv(tmp_path, "OFFENSE_CATEGORY_ID,NEIGHBORHOOD_ID\nx,y\n")
        with pytest.raises(CrimeMinerError, match=r"^header is missing required column\(s\): FIRST_OCCURRENCE_DATE, IS_CRIME$"):
            load_crime_csv(path, Schema.DENVER)

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "does-not-exist.csv"
        with pytest.raises(CrimeMinerError, match=f"^cannot read {re.escape(str(path))}: .*No such file"):
            load_crime_csv(path, Schema.DENVER)

    def test_rejections_are_counted_never_dropped(self, tmp_path):
        rows = (
            "1,larceny,6/13/14 21:30,baker,1\n"      # good
            "2,,6/13/14 21:30,baker,1\n"             # missing category
            "3,larceny,,baker,1\n"                   # missing datetime
            "4,larceny,2/30/14 10:00,baker,1\n"      # impossible date
            "5,larceny,6/13/14,baker,1\n"            # date without clock time
            "6,larceny,6/13/14 21:30,,1\n"           # missing location
            "7,larceny,6/13/14 21:30,baker,maybe\n"  # bad flag
        )
        records, report = load_crime_csv(write_csv(tmp_path, DENVER_HEADER + rows), Schema.DENVER)
        assert len(records) == 1
        assert report.rows_read == 7
        assert report.rows_accepted == 1
        assert report.rows_rejected == 6
        assert report.rejection_reasons == {
            "missing-category": 1,
            "missing-datetime": 1,
            "bad-datetime": 1,
            "missing-time": 1,
            "missing-location": 1,
            "bad-is-crime": 1,
        }

    def test_loading_is_deterministic_and_order_preserving(self, tmp_path):
        text = DENVER_HEADER + "".join(
            f"{i},larceny,6/{i}/14 2{i % 4}:15,baker,1\n" for i in range(1, 9)
        )
        path = write_csv(tmp_path, text)
        first, _ = load_crime_csv(path, Schema.DENVER)
        second, _ = load_crime_csv(path, Schema.DENVER)
        assert first == second
        assert [r.source_row for r in first] == sorted(r.source_row for r in first)

    def test_two_digit_year_pivots_to_2000s(self, tmp_path):
        path = write_csv(tmp_path, DENVER_HEADER + "1,larceny,6/13/99 10:00,baker,1\n")
        records, _ = load_crime_csv(path, Schema.DENVER)
        assert records[0].date.year == 2099


class TestLosAngelesLoading:
    def test_military_time_parse(self, tmp_path):
        path = write_csv(
            tmp_path,
            LA_HEADER
            + "1,BURGLARY,8/23/14,2200,77th Street\n"
            + "2,ROBBERY,8/23/14,800,Pacific\n"
            + "3,ROBBERY,8/23/14,30,Pacific\n",
        )
        records, report = load_crime_csv(path, Schema.LOS_ANGELES)
        assert report.rows_accepted == 3
        assert [r.time for r in records] == [dt.time(22, 0), dt.time(8, 0), dt.time(0, 30)]
        assert records[0].location_name == "77th-street"
        assert records[0].offense_category == "burglary"
        assert records[0].is_crime is None

    def test_bad_clock_values_rejected(self, tmp_path):
        path = write_csv(
            tmp_path,
            LA_HEADER + "1,BURGLARY,8/23/14,2400,Pacific\n2,BURGLARY,8/23/14,abc,Pacific\n",
        )
        records, report = load_crime_csv(path, Schema.LOS_ANGELES)
        assert records == []
        assert report.rejection_reasons == {"bad-time": 2}

    def test_current_export_date_layout(self, tmp_path):
        path = write_csv(
            tmp_path,
            LA_HEADER
            + "1,BURGLARY,01/08/2020 12:00:00 AM,2200,Pacific\n"
            + "2,BURGLARY,01/08/2020 12:00:00 PM,0030,Pacific\n"
            + "3,BURGLARY,8/23/14 noon,2200,Pacific\n"
            + "4,BURGLARY,01/08/2020 noon PM,2200,Pacific\n",
        )
        records, report = load_crime_csv(path, Schema.LOS_ANGELES)
        assert [(r.date, r.time) for r in records] == [
            (dt.date(2020, 1, 8), dt.time(22, 0)),
            (dt.date(2020, 1, 8), dt.time(0, 30)),
        ]
        assert report.rejection_reasons == {"bad-date": 2}


class TestMemoisedParsing:
    """Each distinct value is parsed once per load; a failed parse is not
    kept, so every row with a bad value is rejected alike."""

    def test_repeated_bad_and_good_denver_stamps(self, tmp_path):
        path = write_csv(
            tmp_path,
            DENVER_HEADER
            + "1,larceny,2/30/14 10:00,Five Points,1\n"
            + "2,Larceny,6/13/14 21:30,five  points,1\n"
            + "3,larceny,2/30/14 10:00,cbd,1\n"
            + "4,larceny,6/13/14 25:00,cbd,1\n"
            + "5,LARCENY ,6/13/14 21:30,CBD,1\n"
            + "6,larceny,6/13/14 25:00,baker,1\n"
            + "7,larceny,2/30/14 10:00,baker,1\n",
        )
        records, report = load_crime_csv(path, Schema.DENVER)
        assert report.to_json_dict() == {"rows_read": 7, "rows_accepted": 2, "rows_rejected": 5,
                                         "rejection_reasons": {"bad-datetime": 5}}
        assert records == [
            RawCrimeRecord("larceny", dt.date(2014, 6, 13), dt.time(21, 30), "five-points", True, 2),
            RawCrimeRecord("larceny", dt.date(2014, 6, 13), dt.time(21, 30), "cbd", True, 5),
        ]

    def test_repeated_bad_and_good_la_values(self, tmp_path):
        path = write_csv(
            tmp_path,
            LA_HEADER
            + "1,BURGLARY,8/23/14,2460,Pacific\n"
            + "2,BURGLARY,8/23/14,2200,Pacific\n"
            + "3,ROBBERY,8/23/14,2460,77th Street\n"
            + "4,BURGLARY,8/32/14,2200,Pacific\n"
            + "5,ROBBERY,8/23/14,2200,77th  Street\n"
            + "6,BURGLARY,8/32/14,2200,Pacific\n"
            + "7,BURGLARY,8/23/14,2460,Pacific\n",
        )
        records, report = load_crime_csv(path, Schema.LOS_ANGELES)
        assert report.to_json_dict() == {"rows_read": 7, "rows_accepted": 2, "rows_rejected": 5,
                                         "rejection_reasons": {"bad-date": 2, "bad-time": 3}}
        assert [(r.source_row, r.offense_category, r.location_name, r.date, r.time) for r in records] == [
            (2, "burglary", "pacific", dt.date(2014, 8, 23), dt.time(22, 0)),
            (5, "robbery", "77th-street", dt.date(2014, 8, 23), dt.time(22, 0)),
        ]

    @pytest.mark.parametrize("stamp", ["1/1/99999999999 10:00", "1/1/14 99999999999:00",
                                       "99999999999999999999/1/14 10:00"])
    def test_number_too_large_for_a_date_is_rejected(self, tmp_path, stamp):
        path = write_csv(tmp_path, DENVER_HEADER + f"1,larceny,{stamp},baker,1\n2,larceny,{stamp},cbd,1\n")
        records, report = load_crime_csv(path, Schema.DENVER)
        assert records == [] and report.rejection_reasons == {"bad-datetime": 2}


class TestStampDigits:
    """Stamp fields take ASCII digits only, and a clock's seconds must be 0-59."""

    @pytest.mark.parametrize("stamp, time", [
        ("6/13/14 21:30:59", dt.time(21, 30)), ("6/13/14 21:30:00", dt.time(21, 30)),
        ("6/13/14 21:30:5", dt.time(21, 30)), ("06/13/2014 7:05", dt.time(7, 5)),
        ("6/13/14 21:30:xx", None), ("6/1_3/14 2:3_0", None), ("6/13/14 2:3_0", None),
        ("6/13/14 21:30:60", None), ("\uff16/13/14 21:30", None), ("6/13/14 \uff12\uff11:30", None),
        ("6/13/\u0661\u0664 21:30", None), ("+6/13/14 21:30", None), ("6/13/14 -1:30", None),
        ("6/13/14 21:30:+5", None), ("6/13/14 21:30: 5", None),
    ])
    def test_denver_stamp(self, tmp_path, stamp, time):
        path = write_csv(tmp_path, DENVER_HEADER + f"1,larceny,{stamp},baker,1\n")
        records, report = load_crime_csv(path, Schema.DENVER)
        assert [r.time for r in records] == ([time] if time else [])
        assert report.rejection_reasons == ({} if time else {"bad-datetime": 1})

    @pytest.mark.parametrize("date, clock, reason", [
        ("8/2_3/14", "2200", "bad-date"), ("\u0668/23/14", "2200", "bad-date"),
        ("01/08/2020 12:00:xx AM", "2200", "bad-date"), ("01/08/2020 12:00:60 AM", "2200", "bad-date"),
        ("01/08/2020 12:00:59 AM", "2200", None), ("8/23/14", "\uff12\uff12\uff10\uff10", "bad-time"),
        ("8/23/14", "\u0668\u0660\u0660", "bad-time"), ("8/23/14", "22_0", "bad-time"),
    ])
    def test_la_date_and_time(self, tmp_path, date, clock, reason):
        path = write_csv(tmp_path, LA_HEADER + f"1,BURGLARY,{date},{clock},Pacific\n")
        records, report = load_crime_csv(path, Schema.LOS_ANGELES)
        assert len(records) == (reason is None)
        assert report.rejection_reasons == ({reason: 1} if reason else {})


# Cell pools for the oracle comparison: good values, padded ones, and each
# kind of bad value a reason is counted for.
PAD = st.sampled_from(["", "", " ", "  ", "\t", "\u3000"])
CATEGORIES = ["larceny", "Larceny", "THEFT  From\tCar", "", " ", "drug-alcohol"]
LOCATIONS = ["Five Points", "five-points", "  FIVE    POINTS ", "", "\u00a0", "baker", "77th Street"]
SLASH_DATES = ["6/13/14", "06/13/2014", "12/31/99", "2/30/14", "13/1/14", "6/1_3/14", "\uff16/13/14", "+6/13/14",
               "0/1/14", "6/13/999", "6/13/14/1", "6//14", "1/1/99999999999", "6/13/14x", "6-13-14"]
CLOCKS = ["21:30", "7:5", "0:00", "23:59", "21:30:00", "21:30:59", "21:30:60", "21:30:xx", "2:3_0", "24:00",
          "21:30:5", "\uff12\uff11:30", "+7:05", "21", "21:30:00:00", "99999999999:00", "12:00:00"]
ISO_STAMPS = ["2014-06-13", "2014-06-13 21:30", "2014-06-13T21:30:45", "2014-02-30", "20140613",
              "2014-06-13 25:00", "2014-06-13T21:30:00+05:00", "2014-06-13  21:30"]
SEPARATORS = [" ", " ", " ", "  ", "\t", "", "\u3000"]
FLAGS = ["1", "0", "true", "YES", "no", "False", "maybe", "", "\u0661"]
MILITARY = ["2200", "800", "30", "0030", "0", "2359", "2400", "2460", "abc", "", "\uff12\uff12\uff10\uff10",
            "12345", "-100", "22_0", "+800"]
LA_DATE_LAYOUTS = ["01/08/2020 12:00:00 AM", "01/08/2020 12:00:00 PM", "8/23/14 12:00 am", "8/23/14 noon",
                   "01/08/2020 noon PM", "01/08/2020 12:00:xx AM", "01/08/2020 12:00:60 PM", "8/23/14 AM"]
NOISE = st.text(st.sampled_from("0123456789/: -T\t\u0661\uff11aAmMpP"), max_size=12)


def padded(values):
    return st.tuples(PAD, st.sampled_from(values), PAD).map("".join)


slash_stamps = st.tuples(*map(st.sampled_from, (SLASH_DATES, SEPARATORS, CLOCKS))).map("".join)
denver_stamps = st.tuples(PAD, slash_stamps | padded(SLASH_DATES + ISO_STAMPS) | NOISE, PAD).map("".join)
DENVER_CELLS = (padded(CATEGORIES), denver_stamps, padded(LOCATIONS), padded(FLAGS))
la_dates = padded(SLASH_DATES + ISO_STAMPS + LA_DATE_LAYOUTS) | slash_stamps | NOISE
LA_CELLS = (padded([c.upper() for c in CATEGORIES]), la_dates, padded(MILITARY) | NOISE, padded(LOCATIONS))


@st.composite
def crime_rows(draw, schema):
    """One CSV row: an id, then the key cells in header order; sometimes cut
    short, blank, or with an extra cell."""
    row = [str(draw(st.integers(0, 99)))] + [draw(cell) for cell in (DENVER_CELLS if schema is Schema.DENVER
                                                                       else LA_CELLS)]
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return row[:draw(st.integers(0, 4))]
    if kind == 1:
        return [draw(PAD) for _ in row]
    return row + ["extra"] if kind == 2 else row


@settings(max_examples=400, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_loader_matches_the_per_row_oracle(tmp_path_factory, data):
    """Same records (repr tells 1 from True) and same report as the per-row loader."""
    schema = data.draw(st.sampled_from(Schema))
    rows = data.draw(st.lists(crime_rows(schema), max_size=12))
    path = tmp_path_factory.mktemp("oracle") / "crimes.csv"
    header = (DENVER_HEADER if schema is Schema.DENVER else LA_HEADER).strip().split(",")
    with open(path, "w", encoding="utf-8", newline="") as fp:
        csv.writer(fp).writerows([header, *rows])
    records, report = load_crime_csv(path, schema)
    expected, expected_report = reference_load_crime_csv(path, schema)
    assert repr(records) == repr(expected)
    assert report.to_json_dict() == expected_report.to_json_dict()


@pytest.mark.parametrize("schema, rows", [
    (Schema.DENVER, ["larceny,6/13/14 21:30,baker,1", ",6/13/14 21:30,baker,1", "larceny,6/13/14 21:30, ,1",
                     "larceny, ,baker,1", "larceny,6/31/14 21:30,baker,1", "larceny,6/13/14,baker,1",
                     "larceny,6/13/14 21:30,baker,maybe", " , , , ", "larceny,6/13/14 21:30",
                     " LARCENY , 6/13/14 21:30:59 , Five  Points , yes "]),
    (Schema.LOS_ANGELES, ["BURGLARY,8/23/14,2200,Pacific", ",8/23/14,2200,Pacific", "BURGLARY,8/23/14,2200,",
                          "BURGLARY,,2200,Pacific", "BURGLARY,8/32/14,2200,Pacific", "BURGLARY,8/23/14,,Pacific",
                          "BURGLARY,8/23/14,2400,Pacific", ",,,", "BURGLARY,01/08/2020 12:00:00 AM,30,Pacific"]),
])
def test_every_reason_matches_the_per_row_oracle(tmp_path, schema, rows):
    header = DENVER_HEADER if schema is Schema.DENVER else LA_HEADER
    lines = [f"{i},{row}" if row.strip(" ,") else row for i, row in enumerate(rows)]  # a blank row has no id
    path = write_csv(tmp_path, header + "\n".join(lines) + "\n")
    records, report = load_crime_csv(path, schema)
    expected, expected_report = reference_load_crime_csv(path, schema)
    assert repr(records) == repr(expected) and len(records) == 2
    assert report.to_json_dict() == expected_report.to_json_dict()
    assert len(report.rejection_reasons) == 7  # every reason the schema counts, blank rows among them


class TestNormalization:
    def test_location_spellings_unify(self):
        assert normalize_location("Five Points") == "five-points"
        assert normalize_location("five-points") == "five-points"
        assert normalize_location("  FIVE    POINTS ") == "five-points"
        assert normalize_location("CBD") == "cbd"

    def test_category_whitespace_collapses(self):
        assert normalize_category("  Theft  From   Motor Vehicle ") == "theft from motor vehicle"

    @given(st.text(min_size=1).filter(lambda s: s.strip()))
    def test_location_normalization_is_idempotent(self, name):
        once = normalize_location(name)
        assert normalize_location(once) == once


def _denver_record(flag, row=1):
    return RawCrimeRecord("larceny", dt.date(2014, 6, 13), dt.time(12, 0), "baker", flag, row)


class TestFilterCrimes:
    def test_denver_flag_filter(self):
        records = [_denver_record(True, 1), _denver_record(False, 2), _denver_record(True, 3)]
        kept = filter_crimes(records, Schema.DENVER)
        assert [r.source_row for r in kept] == [1, 3]

    def test_la_empty_exclusion_is_identity(self):
        records = [
            RawCrimeRecord("burglary", dt.date(2014, 8, 23), dt.time(22, 0), "pacific", None, i)
            for i in range(1, 4)
        ]
        assert filter_crimes(records, Schema.LOS_ANGELES) == records

    def test_la_exclusion_list_removes_categories(self):
        records = [
            RawCrimeRecord("burglary", dt.date(2014, 8, 23), dt.time(22, 0), "pacific", None, 1),
            RawCrimeRecord("traffic collision", dt.date(2014, 8, 23), dt.time(8, 0), "pacific", None, 2),
        ]
        kept = filter_crimes(records, Schema.LOS_ANGELES, exclude=["Traffic  Collision"])
        assert [r.source_row for r in kept] == [1]

    @given(st.lists(st.booleans(), max_size=20))
    def test_filter_is_idempotent(self, flags):
        records = [_denver_record(flag, i) for i, flag in enumerate(flags)]
        once = filter_crimes(records, Schema.DENVER)
        assert filter_crimes(once, Schema.DENVER) == once


class TestRawJsonl:
    def test_round_trip(self):
        records = [
            _denver_record(True, 7),
            RawCrimeRecord("robbery", dt.date(2015, 1, 2), dt.time(0, 5), "cbd", None, 8),
        ]
        buffer = io.StringIO()
        write_raw_jsonl(records, buffer)
        assert read_raw_jsonl(io.StringIO(buffer.getvalue())) == records

    def test_serialization_is_byte_stable(self):
        records = [_denver_record(True, 1)]
        first, second = io.StringIO(), io.StringIO()
        write_raw_jsonl(records, first)
        write_raw_jsonl(records, second)
        assert first.getvalue() == second.getvalue()

    def test_bad_line_reports_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            read_raw_jsonl(io.StringIO('{"category":"x","date":"2014-01-01","time":"10:00","location":"a","is_crime":null,"source_row":1}\n{"broken": true}\n'))


DEMO_HEADER = (
    "NBHD_NAME,POPULATION_2010,MALE,FEMALE,HOUSING_UNITS,OCCUPIED_HU,VACANT_HU,"
    "OWNER_OCCUPIED_HU,RENTER_OCCUPIED_HU,AGE_0_TO_9,AGE_10_TO_19,AGE_20_TO_29,"
    "AGE_30_TO_39,AGE_40_TO_49,AGE_50_TO_59,AGE_60_TO_69,AGE_70_TO_79,AGE_80_PLUS\n"
)


def demo_row(name, population=100, male=60, female=40, units=50, occupied=45, vacant=5):
    ages = [10, 10, 20, 15, 15, 10, 10, 5, 5]
    return f"{name},{population},{male},{female},{units},{occupied},{vacant},30,15," + ",".join(map(str, ages)) + "\n"


class TestDemographics:
    def test_loads_one_record_per_row(self, tmp_path):
        text = DEMO_HEADER + demo_row("Five Points") + demo_row("Wellshire")
        records, report = load_demographics_csv(write_csv(tmp_path, text))
        assert report.rows_accepted == 2
        assert [r.neighborhood for r in records] == ["five-points", "wellshire"]
        assert records[0].metrics["population"] == 100
        assert records[0].metrics["age_20-29"] == 20

    def test_unit_sum_mismatch_rejected(self, tmp_path):
        text = DEMO_HEADER + demo_row("baker", units=50, occupied=40, vacant=5)
        records, report = load_demographics_csv(write_csv(tmp_path, text))
        assert records == []
        assert report.rejection_reasons == {"unit-sum-mismatch": 1}

    def test_gender_sum_mismatch_rejected(self, tmp_path):
        text = DEMO_HEADER + demo_row("baker", population=100, male=10, female=10)
        _, report = load_demographics_csv(write_csv(tmp_path, text))
        assert report.rejection_reasons == {"gender-sum-mismatch": 1}

    def test_header_only_gives_empty_list(self, tmp_path):
        records, report = load_demographics_csv(write_csv(tmp_path, DEMO_HEADER))
        assert records == [] and report.rows_read == 0

    def test_duplicate_neighborhood_is_hard_error(self, tmp_path):
        text = DEMO_HEADER + demo_row("Baker") + demo_row("baker")
        with pytest.raises(CrimeMinerError, match="neighborhood 'baker' appears more than once"):
            load_demographics_csv(write_csv(tmp_path, text))

    def test_missing_configured_column_raises(self, tmp_path):
        with pytest.raises(CrimeMinerError, match=r"^header is missing required column\(s\): MALE, FEMALE, HOUSING_UNITS, "):
            load_demographics_csv(write_csv(tmp_path, "NBHD_NAME,POPULATION_2010\nbaker,5\n"))

    def test_negative_and_unparseable_counts_rejected(self, tmp_path):
        text = DEMO_HEADER + demo_row("baker", male=-1, female=101) + demo_row("cbd").replace("100", "lots", 1)
        _, report = load_demographics_csv(write_csv(tmp_path, text))
        assert report.rejection_reasons == {"negative-count": 1, "bad-count": 1}

    @pytest.mark.parametrize("cell, reason", [
        ("1_00", "bad-count"), ("+100", "bad-count"), ("10٠", "bad-count"), ("１００", "bad-count"),
        ("1e2", "bad-count"), ("100.0", "bad-count"), ("", "bad-count"), ("-", "bad-count"), ("--100", "bad-count"),
        ("-1_00", "bad-count"), ("1 00", "bad-count"), ("-100", "negative-count"), ("-0100", "negative-count"),
    ])
    def test_a_count_is_an_optional_minus_and_ascii_digits(self, tmp_path, cell, reason):
        text = DEMO_HEADER + demo_row("baker", population=cell)
        records, report = load_demographics_csv(write_csv(tmp_path, text))
        assert records == [] and report.rejection_reasons == {reason: 1}

    @pytest.mark.parametrize("cell", ["100", "0100", " 100 "])
    def test_ascii_digit_counts_load(self, tmp_path, cell):
        records, report = load_demographics_csv(write_csv(tmp_path, DEMO_HEADER + demo_row("baker", population=cell)))
        assert report.rows_accepted == 1 and records[0].metrics["population"] == 100

    def test_seventy_eight_neighborhood_table(self, tmp_path):
        rows = "".join(demo_row(f"nbhd-{i:02d}") for i in range(78))
        records, report = load_demographics_csv(write_csv(tmp_path, DEMO_HEADER + rows))
        assert len(records) == 78
        assert report.rows_accepted == 78

    def test_custom_column_map(self, tmp_path):
        columns = DemographicsColumns.from_json_dict({
            "neighborhood": "hood",
            "population": "pop",
            "male": "m",
            "female": "f",
            "housing_units": "hu",
            "occupied": "occ",
            "vacant": "vac",
            "owned": "own",
            "rented": "rent",
            "age_brackets": {"20-29": "a2029"},
            "extras": {"race_white": "white"},
        })
        text = "hood,pop,m,f,hu,occ,vac,own,rent,a2029,white\nBaker,10,6,4,5,4,1,2,2,3,7\n"
        records, _ = load_demographics_csv(write_csv(tmp_path, text), columns)
        assert records[0].metrics == {
            "population": 10, "male": 6, "female": 4, "housing_units_total": 5, "occupied_units": 4,
            "vacant_units": 1, "owned_units": 2, "rented_units": 2, "age_20-29": 3, "race_white": 7,
        }
        assert list(records[0].metrics)[-2:] == ["age_20-29", "race_white"]

    def test_column_named_twice(self, tmp_path):
        default = DemographicsColumns.default()
        columns = default._replace(metrics={**default.metrics, "residents": "POPULATION_2010", "men": "male"})
        records, report = load_demographics_csv(write_csv(tmp_path, DEMO_HEADER + demo_row("baker")), columns)
        assert report.rows_accepted == 1
        assert records[0].metrics["population"] == 100 and records[0].metrics["age_80+"] == 5
        extras = dict(list(records[0].metrics.items())[17:])  # after 8 counts and 9 age brackets
        assert extras == {"residents": 100, "men": 60}


@given(
    st.lists(
        st.tuples(st.booleans(), st.booleans(), st.booleans()),
        max_size=30,
    )
)
def test_row_accounting_sum_law(tmp_path_factory, row_flags):
    """Every row is either accepted or rejected; nothing disappears."""
    tmp_path = tmp_path_factory.mktemp("sumlaw")
    denver, la, demo = [DENVER_HEADER], [LA_HEADER], [DEMO_HEADER]
    for i, (good_category, good_date, good_flag) in enumerate(row_flags):
        if not (good_category or good_date or good_flag):
            for lines in (denver, la, demo):
                lines.append(",,,\n")  # blank row
            continue
        category = "larceny" if good_category else ""
        date = "6/13/14 21:30" if good_date else "not-a-date"
        flag = "1" if good_flag else "maybe"
        denver.append(f"{i},{category},{date},baker,{flag}\n")
        la_date = "01/08/2020 12:00:00 AM" if good_date else "8/23/14 noon"
        la.append(f"{i},{category},{la_date},{2200 if good_flag else 2400},Pacific\n")
        demo.append(demo_row(f"n{i}" if good_category else "", male=60 if good_date else -60,
                             female=40 if good_flag else 41))
    loaders = (
        (denver, lambda path: load_crime_csv(path, Schema.DENVER)),
        (la, lambda path: load_crime_csv(path, Schema.LOS_ANGELES)),
        (demo, load_demographics_csv),
    )
    for lines, load in loaders:
        path = tmp_path / "rows.csv"
        path.write_text("".join(lines), encoding="utf-8")
        records, report = load(path)
        assert report.rows_read == len(row_flags)
        assert report.rows_read == report.rows_accepted + report.rows_rejected
        assert report.rows_rejected == sum(report.rejection_reasons.values())
        assert len(records) == report.rows_accepted
