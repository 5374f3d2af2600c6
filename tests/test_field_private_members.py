"""No module but `gf` names a private member of `Field`.

`Field`'s private members (its op tables, the fused tables, the x-power
product, ...) are the tiers behind its vector ops.  Code that reaches into
them branches on those tiers itself, and so keeps a second path for field
arithmetic next to the vector ops.  This test reads the private names from
the class body (methods, and attributes set on `self`) and names every other
module in `src/sympow` that mentions one, as an attribute or as a string.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sympow"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_members(path: Path, cls: str = "Field") -> set[str]:
    """The private names class `cls` in `path` defines or sets on self."""
    tree = ast.parse(path.read_text(), filename=str(path))
    body = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == cls)
    out = set()
    for node in ast.walk(body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "self"):
            out.add(node.attr)
    return {name for name in out if _private(name)}


def reaches(paths: list[Path], names: set[str]) -> list[str]:
    """path:line name for each mention of one of `names` in `paths`."""
    out = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name in names:
                out.append(f"{path.name}:{node.lineno} {name}")
    return out


def test_scan_sees_a_reach_into_private_members(tmp_path):
    home, other = tmp_path / "home.py", tmp_path / "other.py"
    home.write_text("class Field:\n    def __init__(self):\n        self._t = None\n"
                    "        self.q = 4\n\n    def _tables(self):\n        return self._t\n\n"
                    "    def vec_add(self, a):\n        return a\n")
    other.write_text("def f(F):\n    F.vec_add(1)\n    x = F._tables()\n"
                     "    return getattr(F, '_t'), x, F.q\n")
    names = private_members(home)
    assert names == {"_t", "_tables"}
    assert reaches([other], names) == ["other.py:3 _tables", "other.py:4 _t"]


def test_no_module_reaches_into_field():
    names = private_members(SRC / "gf.py")
    assert {"_tables", "_fused", "_mul_xpow"} <= names
    others = sorted(path for path in SRC.glob("*.py") if path.name != "gf.py")
    assert others
    found = reaches(others, names)
    assert not found, f"private Field members named outside gf: {found}"
