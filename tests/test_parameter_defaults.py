"""No parameter default in the package is overridden by every package call.

A default that no call in the package uses is an option only tests (or
nobody) set: it widens the API, and lets a test exercise a branch the
program never takes.  This test parses `src/sympow`, pairs each call with
the functions of that name, and names each defaulted parameter that every
call binds, by position or keyword.  A call that spreads `*args` or
`**kwargs` may bind anything, so it counts as using every default.  A
function no package code calls directly (one passed as a value, say) has no
call to judge by and is skipped.
"""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sympow"


def _defaulted(fn: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """The defaulted parameters as (name, position when a call binds it by
    position, else None); a method's position skips `self`/`cls`."""
    a = fn.args
    pos = [*a.posonlyargs, *a.args][1 if method else 0:]
    out = [(p.arg, i) for i, p in enumerate(pos) if i >= len(pos) - len(a.defaults)]
    out += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _callee(call: ast.Call) -> str | None:
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def _binds(call: ast.Call, name: str, i: int | None) -> bool:
    """Whether the call surely binds the parameter `name` (position i)."""
    if any(isinstance(x, ast.Starred) for x in call.args):
        return False
    kws = {k.arg for k in call.keywords}
    return None not in kws and (name in kws or (i is not None and i < len(call.args)))


def overridden_defaults(paths: list[Path]) -> list[str]:
    defs, calls = [], defaultdict(list)
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {fn for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                defs.append((path.name, node, node in methods))
            elif isinstance(node, ast.Call) and (name := _callee(node)):
                calls[name].append(node)
    out = []
    for fname, fn, method in defs:
        sites = calls.get(fn.name, [])
        if not sites:
            continue
        for name, i in _defaulted(fn, method):
            if all(_binds(c, name, i) for c in sites):
                out.append(f"{fname}:{fn.lineno} {fn.name}({name})")
    return out


def test_scan_sees_a_default_every_call_overrides(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def f(a, b=1, *, c=2):\n    return a + b + c\n\n\n"
                   "class C:\n    def g(self, x=0):\n        return x\n\n\n"
                   "def h(y=0):\n    return y\n\n\n"
                   "def k(y=0):\n    return y\n\n\n"
                   "def unused(z=0):\n    return z\n\n\n"
                   "f(1, 2, c=3)\nf(1, b=2)\nC().g(5)\nh(*[1])\nk(**{'y': 1})\n")
    assert overridden_defaults([mod]) == ["mod.py:1 f(b)", "mod.py:6 g(x)"]


def test_every_default_is_used_by_some_package_call():
    files = sorted(SRC.glob("*.py"))
    assert files
    hits = overridden_defaults(files)
    assert not hits, f"defaults every package call overrides: {hits}"
