"""Neighborhood crime ranking and dangerous-vs-safe group comparison."""

import hashlib
import io
import random

import pytest
from hypothesis import given

from conftest import datasets, make_record
from crimeminer.demographics import (
    compare_groups,
    comparison_to_json_dict,
    crime_rate_by_location,
    write_comparison_csv,
    write_comparison_json,
)
from crimeminer.errors import CrimeMinerError, UnmatchedNeighborhoodError
from crimeminer.demographics_csv import DemographicsColumns, DemographicsRecord, load_demographics_csv


def demo(name, population=100, male=None, female=None, units=50, occupied=45, vacant=5, ages=None):
    male = population * 6 // 10 if male is None else male
    female = population - male if female is None else female
    ages = ages or {"20-29": population // 4, "50-59": population // 10}
    return DemographicsRecord(name, {
        "population": population,
        "male": male,
        "female": female,
        "housing_units_total": units,
        "occupied_units": occupied,
        "vacant_units": vacant,
        "owned_units": 30,
        "rented_units": 15,
        **{f"age_{label}": count for label, count in ages.items()},
    })


class TestCrimeRateByLocation:
    def test_counts_and_shares(self):
        dataset = [make_record(location=loc) for loc in ("a", "a", "b", "c")]
        rates = crime_rate_by_location(dataset)
        assert [(r.neighborhood, r.crime_count, r.crime_share) for r in rates] == [
            ("a", 2, 0.5),
            ("b", 1, 0.25),
            ("c", 1, 0.25),
        ]

    def test_single_location(self):
        rates = crime_rate_by_location([make_record(location="solo")])
        assert rates == [type(rates[0])("solo", 1, 1.0)]

    def test_empty_dataset(self):
        with pytest.raises(CrimeMinerError, match="cannot rank locations of an empty dataset"):
            crime_rate_by_location([])

    @given(datasets)
    def test_shares_sum_to_one(self, dataset):
        rates = crime_rate_by_location(dataset)
        assert abs(sum(r.crime_share for r in rates) - 1.0) < 1e-9
        counts = [r.crime_count for r in rates]
        assert counts == sorted(counts, reverse=True)


def six_neighborhood_setup():
    """Crime volume decreasing a > b > c > d > e > f; population tracks danger."""
    dataset = []
    for i, name in enumerate("abcdef"):
        dataset.extend(make_record(location=name) for _ in range(60 - i * 10))
    demographics = [demo(name, population=1000 - i * 150) for i, name in enumerate("abcdef")]
    return dataset, demographics


class TestCompareGroups:
    def test_group_membership_and_ordering(self):
        dataset, demographics = six_neighborhood_setup()
        comparison = compare_groups(crime_rate_by_location(dataset), demographics)
        assert comparison.dangerous == ("a", "b", "c")
        assert comparison.safe == ("f", "e", "d")  # safest first

    def test_dangerous_population_exceeds_safe_in_the_constructed_setup(self):
        dataset, demographics = six_neighborhood_setup()
        comparison = compare_groups(crime_rate_by_location(dataset), demographics)
        assert (
            comparison.group_sums["dangerous"]["population"]
            > comparison.group_sums["safe"]["population"]
        )

    def test_metrics_are_exact_sums_and_means(self):
        dataset, demographics = six_neighborhood_setup()
        comparison = compare_groups(crime_rate_by_location(dataset), demographics)
        by_name = {d.neighborhood: d for d in demographics}
        expected_sum = sum(by_name[n].metrics["vacant_units"] for n in comparison.dangerous)
        assert comparison.group_sums["dangerous"]["vacant_units"] == expected_sum
        assert comparison.group_means["dangerous"]["vacant_units"] == pytest.approx(expected_sum / 3)
        assert comparison.metrics["a"]["age_20-29"] == by_name["a"].metrics["age_20-29"]

    def test_demographics_row_order_is_irrelevant(self):
        dataset, demographics = six_neighborhood_setup()
        rates = crime_rate_by_location(dataset)
        forward = compare_groups(rates, demographics)
        backward = compare_groups(rates, list(reversed(demographics)))
        assert forward == backward

    def test_unmatched_neighborhood_raises_with_suggestion(self):
        dataset, demographics = six_neighborhood_setup()
        rates = crime_rate_by_location(dataset + [make_record(location="aa-ville")] * 100)
        with pytest.raises(UnmatchedNeighborhoodError) as err:
            compare_groups(rates, demographics)
        assert err.value.name == "aa-ville"

    def test_suggestion_names_the_closest_match(self):
        dataset = [make_record(location="five-pointz")] * 3 + [
            make_record(location=n) for n in ("x", "y", "z")
        ]
        demographics = [demo(n) for n in ("five-points", "x", "y", "z")]
        with pytest.raises(UnmatchedNeighborhoodError) as err:
            compare_groups(crime_rate_by_location(dataset), demographics, top_k=1, bottom_k=1)
        assert err.value.suggestion == "five-points"

    def test_oversized_groups_rejected(self):
        dataset, demographics = six_neighborhood_setup()
        with pytest.raises(CrimeMinerError, match=r"cannot pick 4\+3 neighborhoods out of 6 ranked"):
            compare_groups(crime_rate_by_location(dataset), demographics, top_k=4, bottom_k=3)

    def test_extra_columns_are_echoed_into_metrics(self):
        dataset = [make_record(location=n) for n in ("a", "a", "b")]
        records = [
            DemographicsRecord(n, {
                "population": 10,
                "male": 5,
                "female": 5,
                "housing_units_total": 6,
                "occupied_units": 5,
                "vacant_units": 1,
                "owned_units": 3,
                "rented_units": 2,
                "age_20-29": 4,
                "race_white": 7 + i,
            })
            for i, n in enumerate(("a", "b"))
        ]
        comparison = compare_groups(
            crime_rate_by_location(dataset), records, top_k=1, bottom_k=1
        )
        assert "race_white" in comparison.metric_names
        assert comparison.metrics["a"]["race_white"] == 7
        assert comparison.group_sums["safe"]["race_white"] == 8

    def test_per_capita_ranking_can_reorder(self):
        # b has fewer crimes than a but a tiny population: per capita it leads
        dataset = [make_record(location="a")] * 50 + [make_record(location="b")] * 25
        dataset += [make_record(location="c")] * 10
        demographics = [
            demo("a", population=1000),
            demo("b", population=100),
            demo("c", population=1000),
        ]
        rates = crime_rate_by_location(dataset)
        raw = compare_groups(rates, demographics, top_k=1, bottom_k=1)
        capita = compare_groups(rates, demographics, top_k=1, bottom_k=1, per_capita=True)
        assert raw.dangerous == ("a",)
        assert capita.dangerous == ("b",)


class TestComparisonOutput:
    def test_csv_has_a_row_per_neighborhood_metric_plus_aggregates(self):
        dataset, demographics = six_neighborhood_setup()
        comparison = compare_groups(crime_rate_by_location(dataset), demographics)
        buffer = io.StringIO()
        write_comparison_csv(comparison, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "group,neighborhood,metric,value"
        n_metrics = len(comparison.metric_names)
        # 2 groups x (3 neighborhoods + sum + mean) x metrics
        assert len(lines) - 1 == 2 * (3 + 2) * n_metrics
        assert f"dangerous,a,population,{comparison.metrics['a']['population']}" in lines

    def test_json_mirror_round_trips_through_dict(self):
        dataset, demographics = six_neighborhood_setup()
        comparison = compare_groups(crime_rate_by_location(dataset), demographics)
        obj = comparison_to_json_dict(comparison)
        assert obj["dangerous"] == ["a", "b", "c"]
        assert obj["group_sums"]["safe"]["population"] == comparison.group_sums["safe"]["population"]


PINNED_COLUMNS = {
    "neighborhood": "NBHD", "population": "POP", "male": "M", "female": "F",
    "housing_units": "HU", "occupied": "OCC", "vacant": "VAC", "owned": "OWN", "rented": "RENT",
    "age_brackets": {"20-29": "AGE_20_29"},
    "extras": {"median_income": "INCOME"},
}


def pinned_comparison_inputs(tmp_path):
    """2000 seeded crimes over 16 neighborhoods, and their demographics
    through a column map with one age bracket and one extra."""
    rng = random.Random(2010)
    path = tmp_path / "pinned_demo.csv"
    lines = ["NBHD,POP,M,F,HU,OCC,VAC,OWN,RENT,AGE_20_29,INCOME"]
    for i in range(16):
        population, units = rng.randrange(500, 20000), rng.randrange(200, 8000)
        male, occupied = rng.randrange(population + 1), rng.randrange(units + 1)
        owned = rng.randrange(occupied + 1)
        lines.append(f"Nbhd {i:02d},{population},{male},{population - male},{units},{occupied},"
                     f"{units - occupied},{owned},{occupied - owned},{rng.randrange(population + 1)},"
                     f"{rng.randrange(20000, 150000)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    records, report = load_demographics_csv(path, DemographicsColumns.from_json_dict(PINNED_COLUMNS))
    assert report.rows_accepted == 16
    weights = [rng.random() ** 2 for _ in range(16)]
    locations = rng.choices([f"nbhd-{i:02d}" for i in range(16)], weights, k=2000)
    return crime_rate_by_location([make_record(location=name) for name in locations]), records


def sha256_of(write, obj) -> str:
    buffer = io.StringIO()
    write(obj, buffer)
    return hashlib.sha256(buffer.getvalue().encode()).hexdigest()


class TestPinnedComparisonBytes:
    """groups.csv and groups.json bytes as the per-field record wrote them."""

    @pytest.mark.parametrize("per_capita, csv_sha, json_sha", [
        (False, "d33f6ea0b291eae1acd6e171aa4340e28d2a4bd16da949ace85478d0707e3f37",
         "3762c815b7d42fd561a96f79f03c76407a42ae0096e2d93f48a43b3c11c89ec0"),
        (True, "49e5434d172d543c3b1556d8878f4e2d2e001867fe46d7e24c73763bfcdb9413",
         "0460bbc60554d3639321743b5db114f278ff6d3f586651bcd063e678a1710e18"),
    ], ids=["raw", "per-capita"])
    def test_csv_and_json_bytes(self, tmp_path, per_capita, csv_sha, json_sha):
        rates, records = pinned_comparison_inputs(tmp_path)
        comparison = compare_groups(rates, records, top_k=4, bottom_k=3, per_capita=per_capita)
        assert sha256_of(write_comparison_csv, comparison) == csv_sha
        assert sha256_of(write_comparison_json, comparison) == json_sha
