"""``crimeminer demographics``: the dangerous and safe neighborhood groups
and their demographics."""

from __future__ import annotations

import argparse
import functools
import json

from . import demographics
from .cli import ranged, read_dataset, read_text
from .demographics_csv import DemographicsColumns
from .errors import CrimeMinerError, UnmatchedNeighborhoodError


def add_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dataset", required=True, help="unified dataset JSONL path")
    sub.add_argument("--demographics", required=True, help="demographics CSV path")
    sub.add_argument("--columns", help="column-map JSON (default: packaged bindings)")
    sub.add_argument("--top", type=ranged(int, 1), default=3, help="dangerous group size")
    sub.add_argument("--bottom", type=ranged(int, 1), default=3, help="safe group size")
    sub.add_argument("--per-capita", action="store_true",
                     help="rank by crimes per resident instead of raw counts")
    sub.add_argument("--json", help="also write the comparison as JSON here")


def run(args):
    dataset = read_dataset(args.dataset)
    columns = (read_text(args.columns, lambda fp: DemographicsColumns.from_json_dict(json.load(fp)))
               if args.columns else None)
    # ``demographics.load_demographics_csv`` is the loader of ``demographics_csv``, wrapped there by the tracer.
    records, report = demographics.load_demographics_csv(args.demographics, columns)
    if report.rows_rejected:
        reasons = ", ".join(f"{k}: {n}" for k, n in sorted(report.rejection_reasons.items()))
        args.warning = (f"{args.demographics}: {report.rows_rejected} of {report.rows_read} "
                        f"demographics rows rejected ({reasons})")
    rates = demographics.crime_rate_by_location(dataset)
    try:
        comparison = demographics.compare_groups(
            rates, records, args.top, args.bottom, per_capita=args.per_capita
        )
    except UnmatchedNeighborhoodError as exc:
        if args.warning:  # a rejected row may be why
            raise CrimeMinerError(f"{exc}; {args.warning}") from None
        raise
    return [(args.output, functools.partial(demographics.write_comparison_csv, comparison)),
            (args.json, functools.partial(demographics.write_comparison_json, comparison))]
