"""Frequency and cross-tabulation summaries over the unified dataset.

Every operation counts the columns it names (``table.UnifiedTable.counts``),
optionally restricted to one year, and emits plot-ready tables. Percentages
are computed in full precision and rounded half-up to two decimals only when
written to CSV.
"""

from __future__ import annotations

import csv
from collections import Counter
from typing import NamedTuple, Sequence, TextIO

from .errors import CrimeMinerError
from .table import as_table
from .vocab import ATTRIBUTES, UnifiedCrimeRecord, round_half_up

CATEGORICAL_ATTRIBUTES = tuple(ATTRIBUTES)


class FrequencyRow(NamedTuple):
    value: str
    count: int
    percentage: float


class FrequencyTable(NamedTuple):
    """Counts and percentages of one attribute's values.

    ``total`` is the size of the (year-filtered) dataset; an all-filtered-out
    dataset yields a table with ``total == 0`` and no rows.
    """

    attribute: str
    rows: tuple[FrequencyRow, ...]
    total: int
    filter_year: int | None = None

    @property
    def empty(self) -> bool:
        return self.total == 0


class CrossTab(NamedTuple):
    """Counts of joint (row value, column value) occurrences."""

    row_attribute: str
    col_attribute: str
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    cells: tuple[tuple[int, ...], ...]
    total: int
    filter_year: int | None = None

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.cells)

    def col_sums(self) -> tuple[int, ...]:
        return tuple(sum(col) for col in zip(*self.cells)) if self.cells else ()


def _check_attribute(attribute: str) -> None:
    if attribute not in CATEGORICAL_ATTRIBUTES:
        raise ValueError(
            f"unknown attribute {attribute!r}; expected one of {', '.join(CATEGORICAL_ATTRIBUTES)}"
        )


def _ordered_values(attribute: str, counts: Counter) -> list[str]:
    order = ATTRIBUTES[attribute].order
    if order is not None:
        return [v for v in order if v in counts]
    return sorted(counts, key=lambda v: (-counts[v], v))


def frequency_table(
    dataset: Sequence[UnifiedCrimeRecord],
    attribute: str,
    year_filter: int | None = None,
) -> FrequencyTable:
    """Count distinct values of one attribute, optionally for a single year."""
    _check_attribute(attribute)
    counts, total = as_table(dataset).counts(attribute, year=year_filter)
    if total == 0:
        return FrequencyTable(attribute, (), 0, year_filter)
    rows = tuple(
        FrequencyRow(v, counts[v], 100.0 * counts[v] / total)
        for v in _ordered_values(attribute, counts)
    )
    return FrequencyTable(attribute, rows, total, year_filter)


def crosstab(
    dataset: Sequence[UnifiedCrimeRecord],
    row_attribute: str,
    col_attribute: str,
    year_filter: int | None = None,
) -> CrossTab:
    """Joint counts of two distinct attributes."""
    _check_attribute(row_attribute)
    _check_attribute(col_attribute)
    if row_attribute == col_attribute:
        raise ValueError("row and column attributes must differ")
    pair_counts, total = as_table(dataset).counts(row_attribute, col_attribute, year=year_filter)
    row_counts: Counter = Counter()
    col_counts: Counter = Counter()
    for (rv, cv), n in pair_counts.items():
        row_counts[rv] += n
        col_counts[cv] += n
    row_labels = tuple(_ordered_values(row_attribute, row_counts))
    col_labels = tuple(_ordered_values(col_attribute, col_counts))
    cells = tuple(
        tuple(pair_counts.get((rv, cv), 0) for cv in col_labels) for rv in row_labels
    )
    return CrossTab(row_attribute, col_attribute, row_labels, col_labels, cells, total, year_filter)


def top_and_bottom_locations(
    dataset: Sequence[UnifiedCrimeRecord],
    top_k: int,
    bottom_k: int,
    middle_k: int,
) -> FrequencyTable:
    """Pick the top, a centered middle block, and the bottom of the location ranking.

    Locations rank by descending count with alphabetical tie-breaks. The middle
    block of ``middle_k`` consecutive ranks is centered on the median rank
    (window start ``(n - middle_k) // 2 + 1``), clamped so it never overlaps
    the top or bottom picks. Percentages stay relative to the full dataset.
    """
    if min(top_k, bottom_k, middle_k) < 0:
        raise ValueError("selection sizes must be non-negative")
    ranking = frequency_table(dataset, "location")
    n = len(ranking.rows)
    if top_k + bottom_k + middle_k > n:
        raise CrimeMinerError(
            f"requested {top_k}+{middle_k}+{bottom_k} locations but only {n} are distinct"
        )
    start = (n - middle_k) // 2 + 1  # 1-based rank of the first middle pick
    start = max(start, top_k + 1)
    start = min(start, n - bottom_k - middle_k + 1)
    picks: list[FrequencyRow] = []
    picks.extend(ranking.rows[:top_k])
    if middle_k:
        picks.extend(ranking.rows[start - 1 : start - 1 + middle_k])
    if bottom_k:
        picks.extend(ranking.rows[n - bottom_k :])
    return FrequencyTable("location", tuple(picks), ranking.total, None)


def write_frequency_csv(table: FrequencyTable, fp: TextIO) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["value", "count", "percentage"])
    for row in table.rows:
        writer.writerow([row.value, row.count, round_half_up(row.percentage, 2)])


def write_crosstab_csv(table: CrossTab, fp: TextIO) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow([table.row_attribute, *table.col_labels])
    for label, row in zip(table.row_labels, table.cells):
        writer.writerow([label, *row])
