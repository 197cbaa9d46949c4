"""``crimeminer predict``: one feature vector's class from a model file."""

from __future__ import annotations

import argparse
import functools

from . import classify
from .cli import UsageError, read_text, write_json
from .vocab import MONTH_NAMES, WEEKDAY_NAMES, TimeBin, normalize_location


def add_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", required=True, help="model JSON path")
    sub.add_argument("--month", required=True)
    sub.add_argument("--day", required=True)
    sub.add_argument("--time", required=True, help="time bin T1..T6")
    sub.add_argument("--location", required=True)


def _match_name(text: str, names: tuple[str, ...], what: str) -> str:
    lowered = text.strip().lower()
    for name in names:
        if name.lower() == lowered:
            return name
    raise UsageError(f"unknown {what} {text!r}; expected one of {', '.join(names)}")


def run(args):
    model = read_text(args.model, classify.load_model)
    try:
        time_bin = TimeBin(args.time.strip().upper())
    except ValueError:
        raise UsageError(f"unknown time bin {args.time!r}; expected T1..T6") from None
    location = normalize_location(args.location)
    if not location:
        raise UsageError("location must be non-empty")
    vector = classify.FeatureVector(
        month=_match_name(args.month, MONTH_NAMES, "month"),
        day=_match_name(args.day, WEEKDAY_NAMES, "weekday"),
        time=time_bin,
        location=location,
    )
    if isinstance(model, classify.NaiveBayesModel):
        predicted, posterior = classify.nb_predict(model, vector)
        result = {
            "class_id": int(predicted),
            "class_name": predicted.label,
            "posterior": {c.label: p for c, p in posterior.items()},
        }
    else:
        predicted = classify.dt_predict(model, vector)
        result = {"class_id": int(predicted), "class_name": predicted.label}
    return [(args.output, functools.partial(write_json, result))]
