"""Every private module-level name in the package is used somewhere in it."""

import ast
import textwrap
from pathlib import Path

import crimeminer

SRC = Path(crimeminer.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _defined(tree: ast.Module) -> set[str]:
    """The private names that a module's top-level statements define."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return set(filter(_private, names))


def _used(tree: ast.Module) -> set[str]:
    """The names that a module reads, imports by name or looks up as an attribute."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used |= {alias.name for alias in node.names}
    return used


def _unused(sources: dict[str, str]) -> set[str]:
    """``module:name`` of each private module-level name that no module uses.

    A name counts as used when any module reads it, imports it by name or
    looks it up as an attribute; its definition alone is not a use.
    """
    trees = {module: ast.parse(textwrap.dedent(source)) for module, source in sources.items()}
    used = set().union(*map(_used, trees.values()))
    return {f"{module}:{name}" for module, tree in trees.items() for name in _defined(tree) - used}


def test_every_private_module_level_name_is_used_in_src():
    assert _unused({path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}) == set()


def test_a_dead_private_helper_is_reported():
    assert _unused({"apriori.py": """
        def _count_occurring(frequent, weighted, k):
            return {}

        def _count_pairs(frequent, weighted):
            return {}

        def mine_frequent(transactions):
            return _count_occurring([], [], 2)
    """}) == {"apriori.py:_count_pairs"}


def test_an_import_or_attribute_lookup_in_another_module_is_a_use():
    assert _unused({
        "errors.py": "_ONE = 1\n_TWO = 2\n_THREE: int = 3\n",
        "cli.py": "from .errors import _ONE\nfrom . import errors\nprint(errors._TWO)\n",
    }) == {"errors.py:_THREE"}


def test_dunder_and_public_names_are_not_checked():
    assert _unused({"apriori.py": """
        def __getattr__(name):
            raise AttributeError(name)

        def mine_frequent(transactions):
            return transactions
    """}) == set()
