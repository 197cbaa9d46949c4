"""The per-neighborhood demographics table: its column map and its loader.

Loading keeps the neighborhood column and the mapped count columns, and
rejects rows whose counts break an invariant, each under a counted reason.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Mapping, NamedTuple

from .csvrows import IngestReport, csv_rows
from .errors import CrimeMinerError
from .vocab import normalize_location

# Column-map key -> metric name of the eight counts, in comparison order;
# ``age_<label>`` per age bracket and the extras' labels follow them.
COUNT_METRICS = {
    "population": "population",
    "male": "male",
    "female": "female",
    "housing_units": "housing_units_total",
    "occupied": "occupied_units",
    "vacant": "vacant_units",
    "owned": "owned_units",
    "rented": "rented_units",
}


class DemographicsColumns(NamedTuple):
    """Column-name bindings that select the demographics subset from a wide CSV."""

    neighborhood: str
    metrics: Mapping[str, str]  # metric name -> CSV column, in comparison order

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "DemographicsColumns":
        """Bindings from a parsed column map; a malformed map raises ``ValueError``."""
        if not isinstance(obj, Mapping):
            raise ValueError("column map must be a JSON object")
        names = ("neighborhood", *COUNT_METRICS)
        unknown = ", ".join(sorted(set(obj) - {*names, "age_brackets", "extras"}))
        if unknown:
            raise ValueError(f"column map has unknown keys: {unknown}")
        for name in names:
            if not isinstance(obj.get(name), str):
                raise ValueError(f"column map needs a column name for {name!r}")
        tables = {name: obj.get(name, {}) for name in ("age_brackets", "extras")}
        for name, table in tables.items():
            if not isinstance(table, Mapping) or not all(isinstance(v, str) for v in table.values()):
                raise ValueError(f"column map {name!r} must map labels to column names")
        metrics = {metric: obj[key] for key, metric in COUNT_METRICS.items()}
        metrics.update((f"age_{label}", column) for label, column in tables["age_brackets"].items())
        for label, column in tables["extras"].items():
            if label in metrics:
                raise ValueError(f"column map extras label {label!r} collides with metric {label!r}")
            metrics[label] = column
        return cls(obj["neighborhood"], metrics)

    @classmethod
    def default(cls) -> "DemographicsColumns":
        text = resources.files("crimeminer.data").joinpath("demographics_columns.json").read_text("utf-8")
        return cls.from_json_dict(json.loads(text))


class DemographicsRecord(NamedTuple):
    """Population and housing counts for one neighborhood."""

    neighborhood: str
    metrics: Mapping[str, int]  # metric name -> count, in the column map's order


class _Rejected(Exception):
    """A row fails a check; the one argument is the reason it is counted under."""


def _count(text: str) -> int:
    """A count cell: an optional ``-`` and ASCII digits, else ``bad-count``."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise _Rejected("bad-count")
    value = int(text)
    if value < 0:
        raise _Rejected("negative-count")
    return value


def load_demographics_csv(
    path,
    columns: DemographicsColumns | None = None,
) -> tuple[list[DemographicsRecord], IngestReport]:
    """Load the per-neighborhood demographics table.

    Rows violating count invariants (negative counts, occupied+vacant !=
    total units, male+female != population) are rejected with a counted
    reason. A repeated neighborhood key is a hard error.
    """
    columns = columns or DemographicsColumns.default()
    report = IngestReport()
    records: list[DemographicsRecord] = []
    seen: set[str] = set()
    for _, cells in csv_rows(path, [columns.neighborhood, *columns.metrics.values()], report):
        cells = [cell.strip() for cell in cells]
        try:
            if not cells[0]:
                raise _Rejected("missing-neighborhood")
            name = normalize_location(cells[0])
            if name in seen:
                raise CrimeMinerError(f"neighborhood {name!r} appears more than once")
            metrics = dict(zip(columns.metrics, [_count(cell) for cell in cells[1:]]))
            if metrics["occupied_units"] + metrics["vacant_units"] != metrics["housing_units_total"]:
                raise _Rejected("unit-sum-mismatch")
            if metrics["male"] + metrics["female"] != metrics["population"]:
                raise _Rejected("gender-sum-mismatch")
        except _Rejected as exc:
            report.reject(exc.args[0])
            continue
        seen.add(name)
        records.append(DemographicsRecord(name, metrics))
    report.rows_accepted = len(records)
    return records, report
