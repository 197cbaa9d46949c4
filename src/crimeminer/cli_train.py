"""``crimeminer train``: a model file, and with ``--eval-report`` its
held-out evaluation."""

from __future__ import annotations

import argparse
import functools

from . import classify, training
from .cli import UsageError, ranged, read_dataset


def add_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dataset", required=True, help="unified dataset JSONL path")
    sub.add_argument("--model", required=True, choices=["nb", "dt"], help="classifier kind")
    sub.add_argument("--alpha", type=ranged(float, 0), default=1.0, help="Bayes smoothing pseudo-count")
    sub.add_argument("--max-leaves", type=ranged(int, 2), default=10, help="decision tree leaf cap")
    sub.add_argument("--seed", type=int, default=42, help="seed of the train/test split")
    sub.add_argument("--train-fraction", type=ranged(float, 0, 1), default=0.8,
                     help="training share of the seeded split; 1.0 trains on everything")
    sub.add_argument("--eval-report", help="evaluate on the held-out split and write the report JSON here")
    sub.set_defaults(output="model.json")


def run(args):
    if args.train_fraction == 1.0 and args.eval_report is not None:
        raise UsageError("--eval-report needs --train-fraction < 1.0")
    dataset = training.Dataset.from_records(read_dataset(args.dataset))  # the table is not kept
    if args.train_fraction == 1.0:
        train, test = dataset, []
    else:
        spec = training.SplitSpec(train_fraction=args.train_fraction, seed=args.seed)
        train, test = classify.split_train_test(dataset, spec)  # through ``classify``, for the tracer
        if not train or (args.eval_report is not None and not test):
            short = "training" if not train else "--eval-report"
            raise UsageError(f"--train-fraction {args.train_fraction} splits the {len(dataset)} records "
                             f"into {len(train)} to train and {len(test)} to test; {short} needs at least one")
    model = training.fit_model(args.model, train, alpha=args.alpha, max_leaves=args.max_leaves)
    outputs = [(args.output, functools.partial(classify.save_model, model))]
    if args.eval_report is not None:
        from . import evaluate
        report = evaluate.evaluate_model(model, test)
        outputs.append((args.eval_report, functools.partial(evaluate.write_report_json, report)))
    return outputs
