"""``crimeminer evaluate``: k-fold cross-validation of a classifier kind."""

from __future__ import annotations

import argparse
import functools

from . import evaluate
from .cli import no_threads, ranged, read_dataset


def add_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dataset", required=True, help="unified dataset JSONL path")
    sub.add_argument("--model", required=True, choices=["nb", "dt"], help="classifier kind")
    sub.add_argument("--alpha", type=ranged(float, 0), default=1.0)
    sub.add_argument("--max-leaves", type=ranged(int, 2), default=10)
    sub.add_argument("--folds", type=ranged(int, 2), default=5)
    sub.add_argument("--seed", type=int, default=42, help="seed of the fold assignment")
    sub.add_argument("--threads", type=ranged(int, 1), default=1,
                     help="no effect, kept for old calls and config files: the folds run on one thread")
    sub.add_argument("--csv", help="also write the per-class metrics table as CSV here")


def run(args):
    no_threads(args)
    dataset = read_dataset(args.dataset)
    result = evaluate.cross_validate(dataset, args.model, k=args.folds, seed=args.seed, alpha=args.alpha,
                                     max_leaves=args.max_leaves)
    return [(args.output, functools.partial(evaluate.write_cv_result_json, result)),
            (args.csv, functools.partial(evaluate.write_report_csv, result.report))]
