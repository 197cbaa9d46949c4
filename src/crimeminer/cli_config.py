"""``--config FILE``: a JSON object whose values become the defaults of a
subcommand's flags. ``cli`` loads this module only for a call that may pass
the flag.
"""

from __future__ import annotations

import argparse
import json

from .cli import UsageError


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


def apply(sub: argparse.ArgumentParser, command: str, argv: list[str]) -> None:
    """Make the values of the config file that ``argv`` names, if any, the
    defaults of ``sub``'s flags, so that explicit flags still win and a config
    value satisfies a required flag."""
    config = _config_path(sub, argv)
    if not config:
        return
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
