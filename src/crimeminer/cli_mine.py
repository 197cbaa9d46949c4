"""``crimeminer mine``: the hotspot patterns and the run summary."""

from __future__ import annotations

import argparse
import functools
from pathlib import Path

from . import apriori
from .cli import UsageError, destination, no_threads, ranged, read_dataset, write_json


def add_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dataset", required=True, help="unified dataset JSONL path")
    sub.add_argument("--min-sup", type=ranged(float, 0, 1), help="minimum support as a decimal fraction")
    sub.add_argument("--min-count", type=ranged(int, 1),
                     help="minimum absolute count (converted by dividing by the dataset size)")
    sub.add_argument("--summary", help="run summary JSON path (default: alongside the pattern CSV)")
    sub.add_argument("--threads", type=ranged(int, 1), default=1,
                     help="no effect, kept for old calls and config files: counting runs on one thread")
    sub.set_defaults(output="patterns.csv")


def run(args):
    no_threads(args)
    if (args.min_sup is None) == (args.min_count is None):
        raise UsageError("give exactly one of --min-sup or --min-count")
    dataset = read_dataset(args.dataset)
    if args.min_count is not None:
        if args.min_count > len(dataset):
            raise UsageError(f"--min-count {args.min_count} exceeds the dataset size {len(dataset)}")
        min_sup = args.min_count / len(dataset)
    else:
        min_sup = args.min_sup
    mined = apriori.mine_hotspot_patterns(dataset, min_sup)
    summary = args.summary
    if summary is None and destination(args.output)[1] is not None:  # beside a file only
        summary = str(Path(args.output).with_suffix(".summary.json"))
    return [(args.output, functools.partial(apriori.write_patterns_csv, mined)),
            (summary, functools.partial(write_json, apriori.run_summary_dict(mined)))]
