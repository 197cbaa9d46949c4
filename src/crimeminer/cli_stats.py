"""``crimeminer stats``: a frequency table, a crosstab or the location ranking."""

from __future__ import annotations

import argparse
import functools

from . import stats
from .cli import UsageError, ranged, read_dataset
from .vocab import ATTRIBUTES


def _attribute(text):
    """An argparse ``type``: the name of a categorical attribute."""
    if text not in ATTRIBUTES:
        raise argparse.ArgumentTypeError(f"unknown attribute {text!r}; expected one of {', '.join(ATTRIBUTES)}")
    return text


def add_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dataset", required=True, help="unified dataset JSONL path")
    sub.add_argument("--year", type=int, help="restrict to one year")
    sub.add_argument("--attribute", type=_attribute,
                     help="frequency table over month/day/time/location/type/hour")
    sub.add_argument("--rows", type=_attribute, help="crosstab row attribute")
    sub.add_argument("--cols", type=_attribute, help="crosstab column attribute")
    sub.add_argument("--top", type=ranged(int, 0), help="location ranking: top picks")
    sub.add_argument("--middle", type=ranged(int, 0), help="location ranking: centered middle picks")
    sub.add_argument("--bottom", type=ranged(int, 0), help="location ranking: bottom picks")


def run(args):
    # Every check of the flags alone comes before the dataset is read.
    wants_freq = args.attribute is not None
    wants_crosstab = args.rows is not None or args.cols is not None
    wants_locations = any(v is not None for v in (args.top, args.middle, args.bottom))
    if sum([wants_freq, wants_crosstab, wants_locations]) != 1:
        raise UsageError(
            "pick exactly one mode: --attribute, --rows/--cols, or --top/--middle/--bottom"
        )
    if wants_crosstab:
        if args.rows is None or args.cols is None:
            raise UsageError("crosstab needs both --rows and --cols")
        if args.rows == args.cols:
            raise UsageError(f"--rows and --cols both name {args.rows}; a crosstab needs two attributes")
    if wants_locations:
        if None in (args.top, args.middle, args.bottom):
            raise UsageError("location ranking needs --top, --middle, and --bottom")
        if args.year is not None:
            raise UsageError("--year does not apply to the location ranking")
    dataset = read_dataset(args.dataset)
    if wants_freq:
        table = stats.frequency_table(dataset, args.attribute, args.year)
        write = stats.write_frequency_csv
    elif wants_crosstab:
        table = stats.crosstab(dataset, args.rows, args.cols, args.year)
        write = stats.write_crosstab_csv
    else:
        table = stats.top_and_bottom_locations(dataset, args.top, args.bottom, args.middle)
        write = stats.write_frequency_csv
    return [(args.output, functools.partial(write, table))]
