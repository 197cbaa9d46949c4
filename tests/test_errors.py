"""The error module holds only types that the program raises or catches by name."""

import ast
import inspect
from pathlib import Path

import crimeminer
from crimeminer import errors

SRC = Path(crimeminer.__file__).parent


def _names(node: ast.expr | None) -> set[str]:
    """The bare names that a ``raise`` or ``except`` clause spells out."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Tuple):
        return set().union(*map(_names, node.elts))
    return {node.id} if isinstance(node, ast.Name) else set()


def test_every_error_class_is_raised_or_caught_by_name_elsewhere_in_src():
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                used |= _names(node.exc)
            elif isinstance(node, ast.ExceptHandler):
                used |= _names(node.type)
    defined = {name for name, value in vars(errors).items()
               if inspect.isclass(value) and issubclass(value, BaseException) and value.__module__ == errors.__name__}
    assert defined - used == set()
