"""Static check, standing in for a linter: no module in ``src/twrc`` or
``tests`` imports a name it never uses. ``__init__.py``, which
re-exports each module by star import, and ``from __future__`` imports
are exempt; instead each module's ``__all__`` must list only names the
module defines, and ``twrc.__all__`` must be exactly those lists."""

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
    """Each module ``twrc/__init__.py`` star-imports lists in its own
    ``__all__`` only names it defines at top level, so a removed name
    cannot leave a stale entry; ``twrc.__all__`` is ``__version__``
    followed by those lists, each name once, and ``from twrc import *``
    binds them all."""
    init = ast.parse((ROOT / "src" / "twrc" / "__init__.py").read_text(encoding="utf-8"))
    starred = [node.module for node in init.body
               if isinstance(node, ast.ImportFrom) and [alias.name for alias in node.names] == ["*"]]
    assert starred
    exported = ["__version__"]
    for module in starred:
        tree = ast.parse((ROOT / "src" / "twrc" / f"{module}.py").read_text(encoding="utf-8"))
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(target.id for target in targets if isinstance(target, ast.Name))
        listed = getattr(twrc, module).__all__
        assert set(listed) <= defined - {"__all__"}, module
        exported += listed
    namespace: dict = {}
    exec("from twrc import *", namespace)
    assert twrc.__all__ == exported
    assert len(exported) == len(set(exported))
    assert set(exported) <= namespace.keys()
