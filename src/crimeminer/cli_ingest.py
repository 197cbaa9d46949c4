"""``crimeminer ingest``: a city crime CSV to raw records and the ingest report."""

from __future__ import annotations

import argparse
import functools

from . import ingestion
from .cli import UsageError, feed_schema, write_json


def add_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--schema", required=True, type=feed_schema, help="denver or la")
    sub.add_argument("--input", required=True, help="crime CSV path")
    sub.add_argument("--report", help="write the ingest report JSON here")
    sub.add_argument("--exclude", action="append", default=[],
                     help="offense category to drop for the LA feed (repeatable)")
    sub.add_argument("--no-filter", action="store_true", help="skip the crime/non-crime filter")


def run(args):
    if args.exclude and (args.no_filter or args.schema is ingestion.Schema.DENVER):
        raise UsageError(f"--exclude has no effect with {'--no-filter' if args.no_filter else '--schema denver'}")
    records, report = ingestion.load_crime_csv(args.input, args.schema)
    if not args.no_filter:
        records = ingestion.filter_crimes(records, args.schema, args.exclude)
    return [(args.output, functools.partial(ingestion.write_raw_jsonl, records)),
            (args.report, functools.partial(write_json, report.to_json_dict()))]
