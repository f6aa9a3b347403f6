"""Static check, standing in for a linter: no module in ``src/twrc`` or
``tests`` imports a name it never uses. ``__init__.py`` re-exports and
``from __future__`` imports are exempt; instead ``__all__`` must name
exactly what ``__init__.py`` binds."""

import ast
from pathlib import Path

import pytest

import twrc

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for folder in ("src/twrc", "tests") for path in (ROOT / folder).glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_flags_only_unused_names():
    source = "import os.path\nimport json as j\nfrom math import pi, tau\nprint(os.sep, tau)\n"
    assert unused_imports(source) == ["j", "pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_all_names_exactly_what_init_binds():
    """Every name ``twrc/__init__.py`` imports or assigns, other than
    ``__all__`` itself, is in ``__all__`` once, and nothing else is, so a
    removed name cannot leave a stale entry; ``from twrc import *``
    binds them all."""
    tree = ast.parse((ROOT / "src" / "twrc" / "__init__.py").read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(target.id for target in node.targets)
    bound.discard("__all__")
    namespace: dict = {}
    exec("from twrc import *", namespace)
    assert len(twrc.__all__) == len(set(twrc.__all__))
    assert set(twrc.__all__) == bound
    assert bound <= namespace.keys()
