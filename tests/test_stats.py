"""Frequency tables, crosstabs, and location rankings."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import LOCATIONS, datasets, make_record
from crimeminer.errors import CrimeMinerError
from crimeminer.preprocess import CrimeCategory
from crimeminer.stats import (
    crosstab,
    frequency_table,
    round_half_up,
    top_and_bottom_locations,
    write_crosstab_csv,
    write_frequency_csv,
)


class TestFrequencyTable:
    def test_day_counts_and_percentages(self):
        dataset = [make_record(day=d) for d in ("Friday", "Friday", "Sunday", "Monday")]
        table = frequency_table(dataset, "day")
        assert [(r.value, r.count, r.percentage) for r in table.rows] == [
            ("Monday", 1, 25.0),
            ("Friday", 2, 50.0),
            ("Sunday", 1, 25.0),
        ]
        assert table.total == 4

    def test_year_filter(self):
        dataset = [make_record(year=2014), make_record(year=2015), make_record(year=2014)]
        table = frequency_table(dataset, "month", year_filter=2014)
        assert table.total == 2
        assert table.filter_year == 2014

    def test_filtered_to_nothing_is_flagged_empty(self):
        table = frequency_table([make_record(year=2014)], "day", year_filter=1999)
        assert table.empty
        assert table.total == 0 and table.rows == ()

    def test_location_rows_rank_by_count_then_name(self):
        dataset = (
            [make_record(location="cbd")] * 2
            + [make_record(location="baker")] * 2
            + [make_record(location="wellshire")]
        )
        table = frequency_table(dataset, "location")
        assert [r.value for r in table.rows] == ["baker", "cbd", "wellshire"]

    def test_hour_attribute_uses_raw_hours(self):
        dataset = [make_record(hour=h) for h in (23, 0, 0, 9)]
        table = frequency_table(dataset, "hour")
        assert [(r.value, r.count) for r in table.rows] == [("0", 2), ("9", 1), ("23", 1)]

    def test_unknown_attribute_rejected(self):
        with pytest.raises(ValueError):
            frequency_table([make_record()], "weekday")

    @given(datasets)
    def test_percentages_sum_to_100(self, dataset):
        for attribute in ("month", "day", "time", "location", "type", "hour"):
            table = frequency_table(dataset, attribute)
            assert abs(sum(r.percentage for r in table.rows) - 100.0) < 0.01
            assert sum(r.count for r in table.rows) == table.total

    @given(datasets, st.randoms())
    def test_permutation_invariance(self, dataset, rng):
        shuffled = list(dataset)
        rng.shuffle(shuffled)
        assert frequency_table(dataset, "day") == frequency_table(shuffled, "day")


class TestCrossTab:
    def test_small_example(self):
        dataset = [
            make_record(crime_type=CrimeCategory.THEFT, day="Friday"),
            make_record(crime_type=CrimeCategory.ASSAULT, day="Friday"),
        ]
        table = crosstab(dataset, "type", "day")
        assert table.col_labels == ("Friday",)
        assert table.row_labels == ("Assault", "Theft")
        assert table.cells == ((1,), (1,))
        assert sum(table.col_sums()) == 2

    def test_identical_attributes_rejected(self):
        with pytest.raises(ValueError):
            crosstab([make_record()], "day", "day")

    @given(datasets)
    def test_marginals_match_frequency_tables(self, dataset):
        table = crosstab(dataset, "type", "day")
        type_table = frequency_table(dataset, "type")
        day_table = frequency_table(dataset, "day")
        assert list(table.row_labels) == [r.value for r in type_table.rows]
        assert list(table.row_sums()) == [r.count for r in type_table.rows]
        assert list(table.col_labels) == [r.value for r in day_table.rows]
        assert list(table.col_sums()) == [r.count for r in day_table.rows]
        assert table.total == len(dataset)

    @given(datasets)
    def test_grand_total_under_year_filter(self, dataset):
        table = crosstab(dataset, "location", "time", year_filter=2014)
        assert sum(map(sum, table.cells)) == sum(1 for r in dataset if r.year == 2014)


def ranked_dataset(counts: dict[str, int]):
    dataset = []
    for location, count in counts.items():
        dataset.extend(make_record(location=location) for _ in range(count))
    return dataset


class TestTopAndBottomLocations:
    def test_three_four_three_out_of_many(self):
        # 12 locations with strictly decreasing counts 12..1
        counts = {f"loc-{chr(ord('a') + i)}": 12 - i for i in range(12)}
        table = top_and_bottom_locations(ranked_dataset(counts), 3, 3, 4)
        picked = [r.value for r in table.rows]
        # top 3 ranks, middle window starting at rank (12-4)//2+1 = 5, bottom 3
        assert picked == [
            "loc-a", "loc-b", "loc-c",
            "loc-e", "loc-f", "loc-g", "loc-h",
            "loc-j", "loc-k", "loc-l",
        ]
        counts_selected = [r.count for r in table.rows]
        assert counts_selected == sorted(counts_selected, reverse=True)

    def test_selection_covers_everything_when_sizes_add_up(self):
        counts = {loc: 10 - i for i, loc in enumerate(LOCATIONS)}
        table = top_and_bottom_locations(ranked_dataset(counts), 2, 2, 2)
        assert len(table.rows) == 6
        values = [r.count for r in table.rows]
        assert values == sorted(values, reverse=True)

    def test_top_one_bottom_one_of_two(self):
        table = top_and_bottom_locations(ranked_dataset({"a": 2, "b": 1}), 1, 1, 0)
        assert [r.value for r in table.rows] == ["a", "b"]

    def test_ties_break_alphabetically(self):
        table = top_and_bottom_locations(ranked_dataset({"zeta": 1, "alpha": 1, "mid": 1}), 1, 1, 1)
        assert [r.value for r in table.rows] == ["alpha", "mid", "zeta"]

    def test_insufficient_locations(self):
        with pytest.raises(CrimeMinerError, match=r"requested 1\+1\+1 locations but only 2 are distinct"):
            top_and_bottom_locations(ranked_dataset({"a": 1, "b": 1}), 1, 1, 1)


class TestCsvOutput:
    def test_frequency_golden(self):
        dataset = [make_record(day=d) for d in ("Friday", "Friday", "Sunday")]
        buffer = io.StringIO()
        write_frequency_csv(frequency_table(dataset, "day"), buffer)
        assert buffer.getvalue() == (
            "value,count,percentage\n"
            "Friday,2,66.67\n"
            "Sunday,1,33.33\n"
        )

    def test_crosstab_golden(self):
        dataset = [
            make_record(crime_type=CrimeCategory.THEFT, day="Friday"),
            make_record(crime_type=CrimeCategory.THEFT, day="Monday"),
            make_record(crime_type=CrimeCategory.ASSAULT, day="Friday"),
        ]
        buffer = io.StringIO()
        write_crosstab_csv(crosstab(dataset, "type", "day"), buffer)
        assert buffer.getvalue() == (
            "type,Monday,Friday\n"
            "Assault,0,1\n"
            "Theft,1,1\n"
        )

    def test_rounding_is_half_up(self):
        assert round_half_up(0.125, 2) == "0.13"
        assert round_half_up(33.333333333333336, 2) == "33.33"
        assert round_half_up(0.0015, 3) == "0.002"
        assert round_half_up(2.675, 2) == "2.68"
