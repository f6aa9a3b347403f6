"""Static check that ``src/twrc`` carries no code kept only for the tests:
every private top-level function or class is loaded somewhere in the
package outside its own body. A test-only reference belongs in
``tests``."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def loaded_names(tree: ast.AST) -> Counter:
    """How often each name is loaded in ``tree``, by name or as an
    attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                   if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)) or isinstance(n, ast.Attribute))


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each private top-level function or class in
    ``sources`` (module name to source text) that no code in any of them
    loads, by name or as an attribute, outside the definition itself."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loads = sum(map(loaded_names, trees.values()), Counter())
    return sorted(f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
                  and not node.name.endswith("__") and loads[node.name] == loaded_names(node)[node.name])


def test_checker_flags_only_unloaded_private_definitions():
    sources = {
        "a": "def _used():\n    return _self()\n\ndef _self():\n    return _self()\n\n"
             "class _Lonely:\n    x = _Lonely\n\ndef public():\n    return _used()\n",
        "b": "from a import _via_attribute\n\ndef _via_attribute():\n    pass\n\n"
             "def _only_stored():\n    pass\n\nimport b\nb._via_attribute()\n_only_stored = None\n",
    }
    assert unused_private_definitions(sources) == ["a._Lonely", "b._only_stored"]


def test_package_has_no_test_only_private_definitions():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "twrc").glob("*.py"))}
    assert unused_private_definitions(sources) == []
