"""Every private function, method and class in the package is named elsewhere.

A private helper that no other code names is dead: nothing outside the
package may call it, so a helper left behind when its callers move to
another path (a second polynomial engine, say) lingers unseen.  This test
parses every module in `src/sympow` and names each definition whose name
starts with one underscore, other than dunders, that no code outside its
own body mentions, as a bare name or as an attribute.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sympow"

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _mentions(tree: ast.AST) -> Counter:
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_definitions(paths: list[Path]) -> list[tuple[str, bool]]:
    """(path:line name, named elsewhere) for each private definition."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    mentioned = sum((_mentions(tree) for tree in trees.values()), Counter())
    out = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, DEFINITIONS) and _private(node.name):
                named = mentioned[node.name] > _mentions(node)[node.name]
                out.append((f"{path.name}:{node.lineno} {node.name}", named))
    return out


def test_scan_sees_an_unnamed_private_definition(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text("def _used():\n    return 0\n\n\ndef _recursive(n):\n"
                 "    return _recursive(n - 1)\n\n\nclass _Dead:\n    def _m(self):\n"
                 "        return self\n\n    def __init__(self):\n        pass\n")
    b.write_text("from a import _used\n\nx = _used()\n")
    assert private_definitions([a, b]) == [("a.py:1 _used", True), ("a.py:5 _recursive", False),
                                           ("a.py:9 _Dead", False), ("a.py:10 _m", False)]


def test_every_private_definition_is_named():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = private_definitions(files)
    assert found
    unnamed = [where for where, named in found if not named]
    assert not unnamed, f"private definitions no other code names: {unnamed}"
