"""Neighborhood crime rates joined with demographics.

Ranks neighborhoods by crime volume, selects the most dangerous and the
safest, and tabulates their population, housing, gender, and age profiles
with per-group sums and means.
"""

from __future__ import annotations

import csv
import difflib
import json
from collections import Counter
from typing import Mapping, NamedTuple, Sequence, TextIO

from .errors import CrimeMinerError, UnmatchedNeighborhoodError
# ``demographics`` loads the table through ``demographics.load_demographics_csv``, where
# ``perfbench/tracer.py`` wraps it.
from .demographics_csv import DemographicsRecord, load_demographics_csv  # noqa: F401
from .vocab import UnifiedCrimeRecord


class NeighborhoodCrimeRate(NamedTuple):
    neighborhood: str
    crime_count: int
    crime_share: float


def crime_rate_by_location(dataset: Sequence[UnifiedCrimeRecord]) -> list[NeighborhoodCrimeRate]:
    """Per-location crime counts and shares, descending with alphabetical ties."""
    if not dataset:
        raise CrimeMinerError("cannot rank locations of an empty dataset")
    counts = Counter(r.location for r in dataset)
    total = len(dataset)
    return [
        NeighborhoodCrimeRate(name, count, count / total)
        for name, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    ]


class GroupComparison(NamedTuple):
    """Dangerous vs. safe neighborhoods with per-neighborhood and group metrics."""

    dangerous: tuple[str, ...]
    safe: tuple[str, ...]
    metric_names: tuple[str, ...]
    metrics: Mapping[str, Mapping[str, int]]  # neighborhood -> metric -> value
    group_sums: Mapping[str, Mapping[str, int]]  # "dangerous"/"safe" -> metric -> sum
    group_means: Mapping[str, Mapping[str, float]]


def compare_groups(
    rates: Sequence[NeighborhoodCrimeRate],
    demographics: Sequence[DemographicsRecord],
    top_k: int = 3,
    bottom_k: int = 3,
    *,
    per_capita: bool = False,
) -> GroupComparison:
    """Compare the ``top_k`` highest-crime neighborhoods with the ``bottom_k`` lowest.

    By default neighborhoods rank by raw crime count; ``per_capita`` ranks by
    count divided by population instead (requiring demographics for every
    ranked neighborhood). Any selected neighborhood missing from the
    demographics table is a hard error with a nearest-name suggestion.
    """
    if top_k < 1 or bottom_k < 1:
        raise CrimeMinerError("group sizes must be at least 1")
    if top_k + bottom_k > len(rates):
        raise CrimeMinerError(
            f"cannot pick {top_k}+{bottom_k} neighborhoods out of {len(rates)} ranked"
        )
    by_name = {record.neighborhood: record for record in demographics}

    def resolve(name: str) -> DemographicsRecord:
        record = by_name.get(name)
        if record is None:
            close = difflib.get_close_matches(name, by_name, n=1)
            raise UnmatchedNeighborhoodError(name, close[0] if close else None)
        return record

    if per_capita:
        def rate_key(r: NeighborhoodCrimeRate) -> float:
            population = resolve(r.neighborhood).metrics["population"]
            return r.crime_count / population if population else float("inf")
        ordered = sorted(rates, key=lambda r: (-rate_key(r), r.neighborhood))
    else:
        ordered = sorted(rates, key=lambda r: (-r.crime_count, r.neighborhood))

    dangerous = tuple(r.neighborhood for r in ordered[:top_k])
    safe = tuple(r.neighborhood for r in reversed(ordered[len(ordered) - bottom_k :]))

    metrics = {name: dict(resolve(name).metrics) for name in (*dangerous, *safe)}
    metric_names = list(next(iter(metrics.values())))
    group_sums: dict[str, dict[str, int]] = {}
    group_means: dict[str, dict[str, float]] = {}
    for group_name, members in (("dangerous", dangerous), ("safe", safe)):
        sums = {
            metric: sum(metrics[name][metric] for name in members)
            for metric in metric_names
        }
        group_sums[group_name] = sums
        group_means[group_name] = {m: sums[m] / len(members) for m in metric_names}

    return GroupComparison(
        dangerous=dangerous,
        safe=safe,
        metric_names=tuple(metric_names),
        metrics=metrics,
        group_sums=group_sums,
        group_means=group_means,
    )


def comparison_to_json_dict(comparison: GroupComparison) -> dict:
    return {
        "dangerous": list(comparison.dangerous),
        "safe": list(comparison.safe),
        "metrics": {name: dict(row) for name, row in comparison.metrics.items()},
        "group_sums": {g: dict(v) for g, v in comparison.group_sums.items()},
        "group_means": {g: dict(v) for g, v in comparison.group_means.items()},
    }


def write_comparison_json(comparison: GroupComparison, fp: TextIO) -> None:
    json.dump(comparison_to_json_dict(comparison), fp, indent=2, sort_keys=True)
    fp.write("\n")


def write_comparison_csv(comparison: GroupComparison, fp: TextIO) -> None:
    """One row per (neighborhood, metric), then group sum and mean rows."""
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["group", "neighborhood", "metric", "value"])
    for group_name, members in (("dangerous", comparison.dangerous), ("safe", comparison.safe)):
        for name in members:
            for metric in comparison.metric_names:
                writer.writerow([group_name, name, metric, comparison.metrics[name][metric]])
        for metric in comparison.metric_names:
            writer.writerow([group_name, "(sum)", metric, comparison.group_sums[group_name][metric]])
        for metric in comparison.metric_names:
            writer.writerow([group_name, "(mean)", metric, comparison.group_means[group_name][metric]])
