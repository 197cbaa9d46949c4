"""Command-line front end wiring the pipeline stages together.

Subcommands: ingest, preprocess, stats, mine, train, predict, evaluate,
demographics. Stages communicate through files (raw/unified JSON Lines,
JSON models, CSV tables). Exit codes: 0 success, 1 usage error, 2 data
error. Diagnostics go to stderr; data goes to files or stdout. A run's
output files appear whole or not at all.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from pathlib import Path

# Stage modules are imported inside the handlers that run them, so one call
# (``predict``, ``--help``) does not load and compile the others.
from .errors import CrimeMinerError, UnmatchedNeighborhoodError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to exit code 1
        raise UsageError(message)


def _ranged(kind, low, high=None):
    """An argparse ``type``: a ``kind`` of at least ``low``, or in (low, high]
    when ``high`` is given. ``--config`` values pass the same check."""
    span = f"at least {low}" if high is None else f"in ({low}, {high}]"

    def parse(text):
        value = kind(text)
        if not (value >= low if high is None else low < value <= high):
            raise argparse.ArgumentTypeError(f"must be {span}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _schema(text):
    """An argparse ``type``: a feed schema by any name ``Schema.parse`` takes."""
    from .vocab import Schema  # imported here: --help loads only cli and errors
    try:
        return Schema.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _attribute(text):
    """An argparse ``type``: the name of a categorical attribute."""
    from .vocab import ATTRIBUTES
    if text not in ATTRIBUTES:
        raise argparse.ArgumentTypeError(f"unknown attribute {text!r}; expected one of {', '.join(ATTRIBUTES)}")
    return text


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file supplying defaults for any flag of this subcommand")
    sub.add_argument("--output", default="-", help="output path ('-' = stdout, the default unless noted)")
    sub.set_defaults(warning=None)  # a handler's note, printed once its outputs are in place


def _ingest_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--schema", required=True, type=_schema, help="denver or la")
    sub.add_argument("--input", required=True, help="crime CSV path")
    sub.add_argument("--report", help="write the ingest report JSON here")
    sub.add_argument("--exclude", action="append", default=[],
                     help="offense category to drop for the LA feed (repeatable)")
    sub.add_argument("--no-filter", action="store_true", help="skip the crime/non-crime filter")
    sub.set_defaults(handler=_cmd_ingest)


def _preprocess_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--schema", required=True, type=_schema, help="denver or la")
    sub.add_argument("--input", required=True, help="raw-records JSONL path")
    sub.add_argument("--mapping", help="type-mapping JSON (default: packaged mapping for the schema)")
    sub.add_argument("--report", help="write the preprocess report JSON here")
    sub.add_argument("--max-reject-fraction", type=_ranged(float, 0), default=0.01,
                     help="abort when more than this fraction of rows is rejected")
    sub.set_defaults(handler=_cmd_preprocess)


def _stats_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dataset", required=True, help="unified dataset JSONL path")
    sub.add_argument("--year", type=int, help="restrict to one year")
    sub.add_argument("--attribute", type=_attribute,
                     help="frequency table over month/day/time/location/type/hour")
    sub.add_argument("--rows", type=_attribute, help="crosstab row attribute")
    sub.add_argument("--cols", type=_attribute, help="crosstab column attribute")
    sub.add_argument("--top", type=_ranged(int, 0), help="location ranking: top picks")
    sub.add_argument("--middle", type=_ranged(int, 0), help="location ranking: centered middle picks")
    sub.add_argument("--bottom", type=_ranged(int, 0), help="location ranking: bottom picks")
    sub.set_defaults(handler=_cmd_stats)


def _mine_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dataset", required=True, help="unified dataset JSONL path")
    sub.add_argument("--min-sup", type=_ranged(float, 0, 1), help="minimum support as a decimal fraction")
    sub.add_argument("--min-count", type=_ranged(int, 1),
                     help="minimum absolute count (converted by dividing by the dataset size)")
    sub.add_argument("--summary", help="run summary JSON path (default: alongside the pattern CSV)")
    sub.add_argument("--threads", type=_ranged(int, 1), default=1,
                     help="no effect, kept for old calls and config files: counting runs on one thread")
    sub.set_defaults(handler=_cmd_mine, output="patterns.csv")


def _train_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dataset", required=True, help="unified dataset JSONL path")
    sub.add_argument("--model", required=True, choices=["nb", "dt"], help="classifier kind")
    sub.add_argument("--alpha", type=_ranged(float, 0), default=1.0, help="Bayes smoothing pseudo-count")
    sub.add_argument("--max-leaves", type=_ranged(int, 2), default=10, help="decision tree leaf cap")
    sub.add_argument("--seed", type=int, default=42, help="seed of the train/test split")
    sub.add_argument("--train-fraction", type=_ranged(float, 0, 1), default=0.8,
                     help="training share of the seeded split; 1.0 trains on everything")
    sub.add_argument("--eval-report", help="evaluate on the held-out split and write the report JSON here")
    sub.set_defaults(handler=_cmd_train, output="model.json")


def _predict_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", required=True, help="model JSON path")
    sub.add_argument("--month", required=True)
    sub.add_argument("--day", required=True)
    sub.add_argument("--time", required=True, help="time bin T1..T6")
    sub.add_argument("--location", required=True)
    sub.set_defaults(handler=_cmd_predict)


def _evaluate_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dataset", required=True, help="unified dataset JSONL path")
    sub.add_argument("--model", required=True, choices=["nb", "dt"], help="classifier kind")
    sub.add_argument("--alpha", type=_ranged(float, 0), default=1.0)
    sub.add_argument("--max-leaves", type=_ranged(int, 2), default=10)
    sub.add_argument("--folds", type=_ranged(int, 2), default=5)
    sub.add_argument("--seed", type=int, default=42, help="seed of the fold assignment")
    sub.add_argument("--threads", type=_ranged(int, 1), default=1,
                     help="no effect, kept for old calls and config files: the folds run on one thread")
    sub.add_argument("--csv", help="also write the per-class metrics table as CSV here")
    sub.set_defaults(handler=_cmd_evaluate)


def _demographics_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dataset", required=True, help="unified dataset JSONL path")
    sub.add_argument("--demographics", required=True, help="demographics CSV path")
    sub.add_argument("--columns", help="column-map JSON (default: packaged bindings)")
    sub.add_argument("--top", type=_ranged(int, 1), default=3, help="dangerous group size")
    sub.add_argument("--bottom", type=_ranged(int, 1), default=3, help="safe group size")
    sub.add_argument("--per-capita", action="store_true",
                     help="rank by crimes per resident instead of raw counts")
    sub.add_argument("--json", help="also write the comparison as JSON here")
    sub.set_defaults(handler=_cmd_demographics)


# Each subcommand's help line and the function adding its own flags, in help order.
_COMMANDS = {
    "ingest": ("load a city crime CSV into cleaned raw records", _ingest_flags),
    "preprocess": ("transform raw records into the unified dataset", _preprocess_flags),
    "stats": ("frequency tables, crosstabs, and location rankings", _stats_flags),
    "mine": ("mine (location, day, time) hotspot patterns", _mine_flags),
    "train": ("train a crime-type classifier on a seeded split", _train_flags),
    "predict": ("predict a crime type for one feature vector", _predict_flags),
    "evaluate": ("k-fold cross-validation of a classifier", _evaluate_flags),
    "demographics": ("compare dangerous vs. safe neighborhood demographics", _demographics_flags),
}


def build_parser(only: str | None = None) -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    """The parser and each subcommand's parser, or with ``only`` naming a
    subcommand, that one alone: it parses and prints its own arguments as
    the full parser does."""
    parser = _Parser(prog="crimeminer", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}
    for name, (help_text, add_flags) in _COMMANDS.items():
        if only is None or only == name:
            sub = subparsers.add_parser(name, help=help_text)
            _add_common(sub)
            add_flags(sub)
            commands[name] = sub
    return parser, commands


def _config_default(action: argparse.Action, value, config: str):
    """A config value as its flag would store it; a value the flag would
    reject is a usage error."""
    if action.nargs == 0:  # on/off switch
        ok = isinstance(value, bool)
    elif isinstance(action, argparse._AppendAction):  # repeatable flag
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
    else:  # a scalar, read as if it were typed on the command line
        ok = isinstance(value, (str, int, float)) and not isinstance(value, bool)
        if ok:
            try:
                value = (action.type or str)(str(value))
            except (ValueError, argparse.ArgumentTypeError):
                ok = False
        ok = ok and (action.choices is None or value in action.choices)
    if not ok:
        flag = action.option_strings[0]
        raise UsageError(f"config {config}: {flag} cannot take {json.dumps(value)}")
    return value


def _config_path(sub: argparse.ArgumentParser, argv: list[str]) -> str | None:
    """The last ``--config`` value in ``argv``, found as argparse finds it:
    ``--config F``, ``--config=F`` or a prefix that names no other flag."""
    found = None
    for i, token in enumerate(argv):
        if token == "--":
            break
        name, eq, value = token.partition("=")
        if name.startswith("--") and [o for o in sub._option_string_actions if o.startswith(name)] == ["--config"]:
            if eq:
                found = value
            elif i + 1 < len(argv):
                found = argv[i + 1]
    return found


def _apply_config(sub: argparse.ArgumentParser, command: str, config: str) -> None:
    """Make the config file's values the defaults of ``sub``'s flags, so that
    explicit flags still win and a config value satisfies a required flag."""
    try:
        with open(config, encoding="utf-8") as fp:
            overrides = json.load(fp)
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"cannot load config {config}: {exc}") from None
    if not isinstance(overrides, dict):
        raise UsageError(f"config {config} must hold a JSON object")
    flags = {a.dest: a for a in sub._actions if a.option_strings and a.dest not in ("help", "config")}
    unknown = ", ".join(sorted(set(overrides) - set(flags)))
    if unknown:
        raise UsageError(f"config {config}: {command} has no flag for {unknown}")
    sub.set_defaults(**{k: _config_default(flags[k], v, config) for k, v in overrides.items()})
    for key in overrides:
        flags[key].required = False


def _parse(argv: list[str]) -> argparse.Namespace:
    # Only the subcommand that runs gets built; with none named, argparse
    # needs every one for its help text or its error.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    parser, commands = build_parser(command)
    config = command and _config_path(commands[command], argv[1:])
    if config:
        _apply_config(commands[command], command, config)
    return parser.parse_args(argv)


def _write_json(obj, fp) -> None:
    json.dump(obj, fp, indent=2, sort_keys=True)
    fp.write("\n")


def _descriptor(path: str) -> int | None:
    """The open descriptor that ``path`` names, as ``/dev/stdout`` and
    ``/dev/fd/N`` do, or None."""
    fd_dir = os.path.realpath("/dev/fd")
    for _ in range(40):  # symlink hops, as many as the kernel follows
        head, tail = os.path.split(os.path.abspath(path))
        if tail.isdigit() and os.path.realpath(head) == fd_dir:
            return int(tail)
        if not os.path.islink(path):
            return None
        path = os.path.join(head, os.readlink(path))
    return None


def _destination(path: str) -> tuple[int | None, str | None]:
    """``(fd, None)`` for a path naming an open descriptor, ``(None, None)``
    for ``-`` and any other target that is no regular file (``/dev/null``, a
    FIFO), else ``(None, file)`` with the real file that ``path`` reaches."""
    if path == "-":
        return None, None
    fd = _descriptor(path)
    if fd is not None:
        return fd, None
    target = os.path.realpath(path)  # through a symlink, as open() goes
    if os.path.exists(target) and not os.path.isfile(target):
        return None, None
    return None, target


def _write_outputs(outputs) -> None:
    """Write each ``(path, write)`` output: ``-`` is stdout, ``None`` not asked for.

    Files go to temp files beside their targets and are moved into place
    once all are complete, so a failure leaves every target as it was. Two
    outputs naming one file are a usage error, raised before any write. A
    target that is no regular file (``/dev/null``, a FIFO) is written in
    place, and one naming an open descriptor (``/dev/stdout``) through that
    descriptor: renaming over either would replace it, and reopening a
    descriptor's file would truncate what it already holds.
    """
    plan = [(path, write, *_destination(path)) for path, write in outputs if path is not None]
    named: set[str] = set()
    for path, _, _, target in plan:
        if target in named:
            raise UsageError(f"two outputs name the file {path}")
        if target is not None:
            named.add(target)
    staged: list[tuple[str, str]] = []
    try:
        for path, write, fd, target in plan:
            if path == "-":
                write(sys.stdout)
                continue
            try:
                if fd is not None:
                    sys.stdout.flush()  # what went to stdout before comes first
                    fp = open(os.dup(fd), "w", encoding="utf-8", newline="")
                elif target is None:
                    fp = open(path, "w", encoding="utf-8", newline="")
                else:
                    temp = f"{target}.{os.getpid()}.{len(staged)}.tmp"
                    fp = open(temp, "x", encoding="utf-8", newline="")
                    staged.append((temp, target))
            except OSError as exc:
                raise OSError(f"cannot write {path}: {exc.strerror or exc}") from None
            with fp:
                write(fp)
        for temp, target in staged:
            os.replace(temp, target)
    except BaseException:
        for temp, _ in staged:
            with contextlib.suppress(OSError):  # already moved into place
                os.remove(temp)
        raise


# --- handlers: each returns its outputs as (path, write) pairs -----------------

def _cmd_ingest(args):
    from . import ingestion
    if args.exclude and (args.no_filter or args.schema is ingestion.Schema.DENVER):
        raise UsageError(f"--exclude has no effect with {'--no-filter' if args.no_filter else '--schema denver'}")
    records, report = ingestion.load_crime_csv(args.input, args.schema)
    if not args.no_filter:
        records = ingestion.filter_crimes(records, args.schema, args.exclude)
    return [(args.output, functools.partial(ingestion.write_raw_jsonl, records)),
            (args.report, functools.partial(_write_json, report.to_json_dict()))]


def _read_text(path, read):
    """``read(fp)`` over a UTF-8 file; undecodable bytes or malformed content
    are an error naming it."""
    with open(path, encoding="utf-8") as fp:
        try:
            return read(fp)
        except UnicodeDecodeError as exc:
            raise ValueError(f"cannot read {path}: not UTF-8 text: {exc.reason}") from None
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def _cmd_preprocess(args):
    from . import ingestion, preprocess
    records = _read_text(args.input, ingestion.read_raw_jsonl)
    mapping = (_read_text(args.mapping, lambda fp: preprocess.TypeMapping.from_dict(json.load(fp)))
               if args.mapping else preprocess.TypeMapping.for_schema(args.schema))
    unified, report = preprocess.preprocess_dataset(
        records, args.schema, mapping, max_reject_fraction=args.max_reject_fraction
    )
    return [(args.output, functools.partial(preprocess.write_unified_jsonl, unified)),
            (args.report, functools.partial(_write_json, report.to_json_dict()))]


def _read_dataset(path):
    from . import preprocess
    return _read_text(path, preprocess.read_unified_jsonl)


def _cmd_stats(args):
    from . import stats
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
    dataset = _read_dataset(args.dataset)
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


def _no_threads(args) -> None:
    """``--threads`` is still accepted, but a value above 1 is named as ignored."""
    if args.threads > 1:
        args.warning = f"--threads {args.threads} has no effect; counting runs on one thread"


def _cmd_mine(args):
    from . import apriori
    _no_threads(args)
    if (args.min_sup is None) == (args.min_count is None):
        raise UsageError("give exactly one of --min-sup or --min-count")
    dataset = _read_dataset(args.dataset)
    if args.min_count is not None:
        if args.min_count > len(dataset):
            raise UsageError(f"--min-count {args.min_count} exceeds the dataset size {len(dataset)}")
        min_sup = args.min_count / len(dataset)
    else:
        min_sup = args.min_sup
    run = apriori.mine_hotspot_patterns(dataset, min_sup)
    summary = args.summary
    if summary is None and _destination(args.output)[1] is not None:  # beside a file only
        summary = str(Path(args.output).with_suffix(".summary.json"))
    return [(args.output, functools.partial(apriori.write_patterns_csv, run)),
            (summary, functools.partial(_write_json, apriori.run_summary_dict(run)))]


def _cmd_train(args):
    from . import classify
    if args.train_fraction == 1.0 and args.eval_report is not None:
        raise UsageError("--eval-report needs --train-fraction < 1.0")
    dataset = _read_dataset(args.dataset)
    if args.train_fraction == 1.0:
        train, test = list(dataset), []
    else:
        spec = classify.SplitSpec(train_fraction=args.train_fraction, seed=args.seed)
        train, test = classify.split_train_test(dataset, spec)
        if not train or (args.eval_report is not None and not test):
            short = "training" if not train else "--eval-report"
            raise UsageError(f"--train-fraction {args.train_fraction} splits the {len(dataset)} records "
                             f"into {len(train)} to train and {len(test)} to test; {short} needs at least one")
    model = classify.fit_model(args.model, train, alpha=args.alpha, max_leaves=args.max_leaves)
    outputs = [(args.output, functools.partial(classify.save_model, model))]
    if args.eval_report is not None:
        from . import evaluate
        report = evaluate.evaluate_model(model, test)
        outputs.append((args.eval_report, functools.partial(evaluate.write_report_json, report)))
    return outputs


def _match_name(text: str, names: tuple[str, ...], what: str) -> str:
    lowered = text.strip().lower()
    for name in names:
        if name.lower() == lowered:
            return name
    raise UsageError(f"unknown {what} {text!r}; expected one of {', '.join(names)}")


def _cmd_predict(args):
    from . import classify
    from .vocab import MONTH_NAMES, WEEKDAY_NAMES, TimeBin, normalize_location
    model = _read_text(args.model, classify.load_model)
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
    return [(args.output, functools.partial(_write_json, result))]


def _cmd_evaluate(args):
    from . import evaluate
    _no_threads(args)
    dataset = _read_dataset(args.dataset)
    result = evaluate.cross_validate(dataset, args.model, k=args.folds, seed=args.seed, alpha=args.alpha,
                                     max_leaves=args.max_leaves)
    return [(args.output, functools.partial(evaluate.write_cv_result_json, result)),
            (args.csv, functools.partial(evaluate.write_report_csv, result.report))]


def _cmd_demographics(args):
    from . import demographics, ingestion
    dataset = _read_dataset(args.dataset)
    columns = (_read_text(args.columns, lambda fp: ingestion.DemographicsColumns.from_json_dict(json.load(fp)))
               if args.columns else None)
    records, report = ingestion.load_demographics_csv(args.demographics, columns)
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


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _parse(argv)
        _write_outputs(args.handler(args))
        if args.warning:
            print(f"warning: {args.warning}", file=sys.stderr)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CrimeMinerError, OSError, ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
