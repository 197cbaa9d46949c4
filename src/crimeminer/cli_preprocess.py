"""``crimeminer preprocess``: raw records to the unified dataset and the
preprocess report."""

from __future__ import annotations

import argparse
import functools
import json

from . import preprocess
from .cli import feed_schema, ranged, read_text, write_json


def add_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--schema", required=True, type=feed_schema, help="denver or la")
    sub.add_argument("--input", required=True, help="raw-records JSONL path")
    sub.add_argument("--mapping", help="type-mapping JSON (default: packaged mapping for the schema)")
    sub.add_argument("--report", help="write the preprocess report JSON here")
    sub.add_argument("--max-reject-fraction", type=ranged(float, 0), default=0.01,
                     help="abort when more than this fraction of rows is rejected")


def run(args):
    # ``preprocess.read_raw_jsonl`` is the raw reader of ``rawjsonl``; the CSV loader is not loaded.
    records = read_text(args.input, preprocess.read_raw_jsonl)
    mapping = (read_text(args.mapping, lambda fp: preprocess.TypeMapping.from_dict(json.load(fp)))
               if args.mapping else preprocess.TypeMapping.for_schema(args.schema))
    unified, report = preprocess.preprocess_dataset(
        records, args.schema, mapping, max_reject_fraction=args.max_reject_fraction
    )
    return [(args.output, functools.partial(preprocess.write_unified_jsonl, unified)),
            (args.report, functools.partial(write_json, report.to_json_dict()))]
