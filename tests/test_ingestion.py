"""Crime and demographics CSV loading."""

import datetime as dt
import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crimeminer.errors import (
    DuplicateNeighborhoodError,
    FileUnreadableError,
    MissingColumnError,
)
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
        with pytest.raises(MissingColumnError) as err:
            load_crime_csv(path, Schema.DENVER)
        assert "FIRST_OCCURRENCE_DATE" in str(err.value)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(FileUnreadableError):
            load_crime_csv(tmp_path / "does-not-exist.csv", Schema.DENVER)

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
        assert records[0].population_total == 100
        assert records[0].age_brackets["20-29"] == 20

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
        with pytest.raises(DuplicateNeighborhoodError):
            load_demographics_csv(write_csv(tmp_path, text))

    def test_missing_configured_column_raises(self, tmp_path):
        with pytest.raises(MissingColumnError):
            load_demographics_csv(write_csv(tmp_path, "NBHD_NAME,POPULATION_2010\nbaker,5\n"))

    def test_negative_and_unparseable_counts_rejected(self, tmp_path):
        text = DEMO_HEADER + demo_row("baker", male=-1, female=101) + demo_row("cbd").replace("100", "lots", 1)
        _, report = load_demographics_csv(write_csv(tmp_path, text))
        assert report.rejection_reasons == {"negative-count": 1, "bad-count": 1}

    def test_seventy_eight_neighborhood_table(self, tmp_path):
        rows = "".join(demo_row(f"nbhd-{i:02d}") for i in range(78))
        records, report = load_demographics_csv(write_csv(tmp_path, DEMO_HEADER + rows))
        assert len(records) == 78
        assert report.rows_accepted == 78

    def test_custom_column_map(self, tmp_path):
        columns = DemographicsColumns(
            neighborhood="hood",
            population="pop",
            male="m",
            female="f",
            housing_units="hu",
            occupied="occ",
            vacant="vac",
            owned="own",
            rented="rent",
            age_brackets={"20-29": "a2029"},
            extras={"race_white": "white"},
        )
        text = "hood,pop,m,f,hu,occ,vac,own,rent,a2029,white\nBaker,10,6,4,5,4,1,2,2,3,7\n"
        records, _ = load_demographics_csv(write_csv(tmp_path, text), columns)
        assert records[0].age_brackets == {"20-29": 3}
        assert records[0].extras == {"race_white": 7}

    def test_column_named_twice(self, tmp_path):
        columns = DemographicsColumns.default()._replace(
            extras={"residents": "POPULATION_2010", "men": "male"}
        )
        records, report = load_demographics_csv(write_csv(tmp_path, DEMO_HEADER + demo_row("baker")), columns)
        assert report.rows_accepted == 1
        assert records[0].population_total == 100 and records[0].age_brackets["80+"] == 5
        assert records[0].extras == {"residents": 100, "men": 60}


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
