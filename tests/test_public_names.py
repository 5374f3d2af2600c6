"""Every public function, method and class in the package is named elsewhere.

A library API that no package code names exists only for its tests, and
the tests then check a path no job takes.  This test parses every module in
`src/sympow` and names each definition whose name does not start with an
underscore that no package code outside its own body mentions, as a bare
name or as an attribute.  A method is named only as an attribute: a local
variable that shares its name does not call it.  The one exemption is the span targets of
`perfbench/tracer.py`: the benchmark wraps those by name, so they must stay
bound even when no package code calls them.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sympow"
TRACER = ROOT / "perfbench" / "tracer.py"

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _mentions(tree: ast.AST) -> tuple[Counter, Counter]:
    """(bare names, attribute names) mentioned under tree."""
    names, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
    return names, attrs


def _definitions(node: ast.AST, prefix: str = "", in_class: bool = False):
    """(dotted name within the module, node, whether it is a method) for
    every definition under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFINITIONS):
            name = f"{prefix}{child.name}"
            yield name, child, in_class
            yield from _definitions(child, f"{name}.", isinstance(child, ast.ClassDef))
        else:
            yield from _definitions(child, prefix, in_class)


def public_definitions(paths: list[Path], package: str,
                       exempt: set[tuple[str, str]]) -> list[tuple[str, bool]]:
    """(path:line name, named elsewhere) for each public definition.

    `exempt` holds (module, dotted name) pairs that count as named.
    """
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    names, attrs = Counter(), Counter()
    for tree in trees.values():
        tree_names, tree_attrs = _mentions(tree)
        names += tree_names
        attrs += tree_attrs
    out = []
    for path, tree in trees.items():
        for dotted, node, method in _definitions(tree):
            if node.name.startswith("_"):
                continue
            own_names, own_attrs = _mentions(node)
            elsewhere = attrs[node.name] - own_attrs[node.name]
            if not method:
                elsewhere += names[node.name] - own_names[node.name]
            named = elsewhere > 0 or (f"{package}.{path.stem}", dotted) in exempt
            out.append((f"{path.name}:{node.lineno} {dotted}", named))
    return out


def tracer_targets() -> set[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return {(modname, attr) for modname, attr, *_ in mod.TARGETS}


def test_scan_sees_an_unnamed_public_definition(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text("def used():\n    return 0\n\n\ndef recursive(n):\n"
                 "    return recursive(n - 1)\n\n\nclass Dead:\n    def m(self):\n"
                 "        return self\n\n    def traced(self):\n        pass\n\n"
                 "    def _private(self):\n        pass\n")
    b.write_text("from a import used\n\nx = used()\n")
    found = public_definitions([a, b], "pkg", {("pkg.a", "Dead.traced")})
    assert found == [("a.py:1 used", True), ("a.py:5 recursive", False),
                     ("a.py:9 Dead", False), ("a.py:10 Dead.m", False),
                     ("a.py:13 Dead.traced", True)]


def test_scan_names_a_method_only_through_an_attribute(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text("class Field:\n    def add(self, x):\n        return x\n\n"
                 "    def sub(self, x):\n        return x\n")
    b.write_text("from a import Field\n\nsub = Field().add(1)\n")
    found = public_definitions([a, b], "pkg", set())
    assert found == [("a.py:1 Field", True), ("a.py:2 Field.add", True),
                     ("a.py:5 Field.sub", False)]


def test_every_public_definition_is_named():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = public_definitions(files, "sympow", tracer_targets())
    assert found
    unnamed = [where for where, named in found if not named]
    assert not unnamed, f"public definitions no other package code names: {unnamed}"
