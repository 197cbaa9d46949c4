"""Command-line front end wiring the pipeline stages together.

Subcommands: ingest, preprocess, stats, mine, train, predict, evaluate,
demographics. Stages communicate through files (raw/unified JSON Lines,
JSON models, CSV tables). Exit codes: 0 success, 1 usage error, 2 data
error, 130 interrupted, 141 an output's reader closed it. Diagnostics go to
stderr; data goes to files or stdout. A run's output files appear whole or
not at all.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from importlib import import_module

# Each subcommand's flags and handler live in its own module, and the stage
# modules are imported there, so one call (``predict``, ``--help``) does not
# load and compile the others.
from .errors import CrimeMinerError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a process the signal ended
EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to exit code 1
        raise UsageError(message)


def ranged(kind, low, high=None):
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


def feed_schema(text):
    """An argparse ``type``: a feed schema by any name ``Schema.parse`` takes."""
    from .vocab import Schema
    try:
        return Schema.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file supplying defaults for any flag of this subcommand")
    sub.add_argument("--output", default="-", help="output path ('-' = stdout, the default unless noted)")
    sub.set_defaults(warning=None)  # a handler's note, printed once its outputs are in place


# Each subcommand's help line, in help order. Module ``cli_<name>`` adds its
# flags (``add_flags``) and runs it (``run``, which returns its outputs as
# ``(path, write)`` pairs).
_COMMANDS = {
    "ingest": "load a city crime CSV into cleaned raw records",
    "preprocess": "transform raw records into the unified dataset",
    "stats": "frequency tables, crosstabs, and location rankings",
    "mine": "mine (location, day, time) hotspot patterns",
    "train": "train a crime-type classifier on a seeded split",
    "predict": "predict a crime type for one feature vector",
    "evaluate": "k-fold cross-validation of a classifier",
    "demographics": "compare dangerous vs. safe neighborhood demographics",
}


def build_parser(only: str | None = None, *,
                 flags: bool = True) -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    """The parser and each subcommand's parser, or with ``only`` naming a
    subcommand, that one alone: it parses and prints its own arguments as
    the full parser does. Without ``flags`` the subcommands get no flags or
    handler: enough for the top-level help and errors, which name none."""
    parser = _Parser(prog="crimeminer", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}
    for name, help_text in _COMMANDS.items():
        if only is None or only == name:
            sub = subparsers.add_parser(name, help=help_text)
            if flags:
                module = import_module(f".cli_{name}", __package__)
                _add_common(sub)
                module.add_flags(sub)
                sub.set_defaults(handler=module.run)
            commands[name] = sub
    return parser, commands


def _may_name_config(token: str) -> bool:
    """Whether ``token`` is ``--config``, ``--config=F`` or could abbreviate it."""
    name = token.partition("=")[0]
    return len(name) > 2 and "--config".startswith(name)


def _parse(argv: list[str]) -> argparse.Namespace:
    # Only the subcommand that runs gets built. With none named first, argparse
    # needs every one for its help text or its error, and their flags only if
    # one of them is named later and parses the rest.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    if command or not _COMMANDS.keys().isdisjoint(argv):
        parser, commands = build_parser(command)
    else:
        parser, commands = build_parser(flags=False)
    if command and any(map(_may_name_config, argv[1:])):
        from . import cli_config  # compiled only for a call that may pass --config
        cli_config.apply(commands[command], command, argv[1:])
    return parser.parse_args(argv)


def write_json(obj, fp) -> None:
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


def destination(path: str) -> tuple[int | None, str | None]:
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
    plan = [(path, write, *destination(path)) for path, write in outputs if path is not None]
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


def read_text(path, read):
    """``read(fp)`` over a UTF-8 file; undecodable bytes or malformed content
    are an error naming it."""
    with open(path, encoding="utf-8") as fp:
        try:
            return read(fp)
        except UnicodeDecodeError as exc:
            raise ValueError(f"cannot read {path}: not UTF-8 text: {exc.reason}") from None
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def read_dataset(path):
    from . import preprocess
    return read_text(path, preprocess.read_unified_jsonl)


def no_threads(args) -> None:
    """``--threads`` is still accepted, but a value above 1 is named as ignored."""
    if args.threads > 1:
        args.warning = f"--threads {args.threads} has no effect; counting runs on one thread"


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _parse(argv)
        _write_outputs(args.handler(args))
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        if args.warning:
            print(f"warning: {args.warning}", file=sys.stderr)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:  # the reader of an output is gone (``| head``): nothing to say
        with contextlib.suppress(OSError, ValueError):  # and what stdout still buffers goes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CrimeMinerError, OSError, ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":  # ``python -m crimeminer.cli``: the handlers raise ``crimeminer.cli``'s UsageError,
    from . import __main__  # noqa: F401 -- so run that module's ``main``, as ``python -m crimeminer`` does
