"""No function in the package takes a parameter its body never reads.

A parameter nothing reads makes every caller compute and pass a value for
nothing, and lets two handles for one datum (say, a group and the generators
it was closed from) drift apart unchecked.  This test parses every function
and lambda in `src/sympow` and names each parameter, other than `self` or
`cls`, that its body never mentions; nested functions count as the body.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sympow"


def _params(fn: ast.AST) -> list[str]:
    a = fn.args
    names = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
    names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
    return [n for n in names if n not in ("self", "cls")]


def _read_names(fn: ast.AST) -> set[str]:
    body = fn.body if isinstance(fn.body, list) else [fn.body]
    return {node.id for stmt in body for node in ast.walk(stmt) if isinstance(node, ast.Name)}


def unread_parameters(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            read = _read_names(fn)
            name = getattr(fn, "name", "<lambda>")
            out += [f"{path.name}:{fn.lineno} {name}({p})" for p in _params(fn) if p not in read]
    return out


def test_scan_sees_an_unread_parameter(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def f(a, b):\n    return a\n\n\nclass C:\n    def g(self, x):\n"
                   "        return lambda y: 0\n")
    assert unread_parameters(mod) == ["mod.py:1 f(b)", "mod.py:6 g(x)", "mod.py:7 <lambda>(y)"]


def test_every_parameter_is_read():
    files = sorted(SRC.glob("*.py"))
    assert files
    unread = [hit for path in files for hit in unread_parameters(path)]
    assert not unread, f"parameters no function body reads: {unread}"
