"""The benchmark tracer's span targets must exist in the package.

`perfbench/tracer.py` wraps sympow functions by name and raises "bound
nowhere" when one of them is gone, so a rename or a deletion in the package
breaks the benchmark.  This test reads the target list and resolves every
entry without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_tracer_target_resolves():
    missing = []
    for modname, attr, *_ in _load_tracer().TARGETS:
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, method = attr.split(".")
            ok = callable(vars(getattr(owner, cls_name, object)).get(method))
        else:
            ok = callable(getattr(owner, attr, None))
        if not ok:
            missing.append(f"{modname}.{attr}")
    assert not missing, f"tracer targets missing from sympow: {missing}"
