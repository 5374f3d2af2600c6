"""Outside-in span tracer for sympow and the per-layer metrics built from it.

The tracer wraps public functions of each layer from outside the package:
`install` rebinds every `sympow.*` module attribute that refers to a wrapped
function, because `pipeline`, `koszul` and `chars` import `decompose`,
`sym_matrix_stream`, `sym_brauer_sequence` and others by name.  A generator
function is spanned once per `next()`.  Spans record their parent and stay
in memory; `dump` writes them out once, when the job ends.

`layer_metrics` turns a span dump into the per-layer metric values.  A span's
self time is its duration minus the durations of its direct children (spans
nest strictly, since a job is one thread).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time


# -- span targets ----------------------------------------------------------------
#
# (module, attribute, span name, measure, outcome).  `measure(args)` gives a
# work count taken before the call; `outcome(args, result, before)` gives one
# taken after it.  A dotted attribute names a method on a class.


def _macs(args):
    F, A, B = args[0], args[1], args[2]
    return A.shape[0] * A.shape[1] * B.shape[1] * F.e ** 2


def _cells(args):
    return args[1].shape[0] * args[1].shape[1]


def _entries(args):
    return len(args[0].entries)


def _inserted(args, result, before):
    return int(len(args[0].entries) > before)


def _iso_true(args, result, before):
    return int(bool(result[0]))


TARGETS = [
    *[("sympow.gf", f"Field.{op}", "gf.vec_ops", None, None)
      for op in ("vec_add", "vec_neg", "vec_sub", "vec_mul", "vec_submul",
                 "vec_addmul", "vec_inv")],
    ("sympow.linalg", "mat_mul", "linalg.mat_mul", _macs, None),
    *[("sympow.linalg", fn, "linalg.echelon", _cells, None)
      for fn in ("rref", "rank", "kernel_basis", "solve", "inv")],
    ("sympow.groups", "close_group", "groups.close_group", None, None),
    ("sympow.groups", "sym_matrix_stream", "groups.sym_matrix_stream", None, None),
    ("sympow.modules", "decompose", "modules.decompose", None, None),
    ("sympow.modules", "fitting_decompose", "modules.fitting_decompose", None, None),
    ("sympow.modules", "hom_basis", "modules.hom_basis", None, None),
    ("sympow.modules", "Registry.match_or_insert", "modules.registry.match",
     _entries, _inserted),
    # the registry calls the iso test behind `is_iso` directly, so the span
    # sits on that function to see every trial
    ("sympow.modules", "_iso_detail", "modules.is_iso", None, _iso_true),
    ("sympow.modules", "save_registry", "modules.registry_io", None, None),
    ("sympow.modules", "load_registry", "modules.registry_io", None, None),
    ("sympow.chars", "sym_brauer_sequence", "chars.sym_brauer_sequence", None, None),
    ("sympow.chars", "root_space_dims", "chars.root_space_dims", None, None),
    ("sympow.koszul", "build_complex", "koszul.build_complex", None, None),
    ("sympow.koszul", "check_exact", "koszul.check_exact", None, None),
    ("sympow.koszul", "check_split_stagewise", "koszul.check_split_stagewise", None, None),
    ("sympow.koszul", "euler_identity", "koszul.euler_identity", None, None),
    ("sympow.polyfit", "detect_description", "polyfit.detect_description", None, None),
    ("sympow.geometry", "ramification", "geometry.ramification", None, None),
    ("sympow.pipeline", "run", "pipeline.run", None, None),
    ("sympow.pipeline", "emit", "pipeline.emit", None, None),
]


class Tracer:
    """Spans as [name, parent index, start, end, work]; one open-span stack."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.generators: dict[str, int] = {}

    def _open(self, name: str, work) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, work])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name, measure=None, outcome=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = measure(args) if measure else None
            idx = self._open(name, work)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if outcome:
                self.spans[idx][4] = outcome(args, result, work)
            return result
        return traced

    def wrap_generator(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.generators[name] = self.generators.get(name, 0) + 1
            return self._steps(fn(*args, **kwargs), name)
        return traced

    def _steps(self, gen, name):
        """Re-yield `gen`, one span per next(); work is 1 for a yielded item."""
        while True:
            idx = self._open(name, 0)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(idx)
            self.spans[idx][4] = 1
            yield item

    def dump(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names, "generators": self.generators,
                       "spans": [[code[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]},
                      fh, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Wrap every target in place; every `sympow` module must be imported first."""
    mods = [m for n, m in list(sys.modules.items())
            if (n == "sympow" or n.startswith("sympow.")) and m is not None]
    for modname, attr, name, measure, outcome in TARGETS:
        owner = sys.modules[modname]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, tracer.wrap(original, name, measure, outcome))
            continue
        original = getattr(owner, attr)
        if inspect.isgeneratorfunction(original):
            wrapped = tracer.wrap_generator(original, name)
        else:
            wrapped = tracer.wrap(original, name, measure, outcome)
        bound = 0
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    bound += 1
        if not bound:
            raise RuntimeError(f"trace target {modname}.{attr} is bound nowhere")


# -- per-layer metrics ----------------------------------------------------------


def span_stats(dump: dict) -> dict[str, dict]:
    """Per span name: calls, work, self_s and incl_s.

    calls, work and incl_s count only outermost spans of a name (no ancestor
    of the same name), so `kernel_basis` calling `rref` is one echelon call
    and recursion is not counted twice; self_s sums over every span.
    """
    names = dump["names"]
    spans = dump["spans"]
    child = [0.0] * len(spans)
    for code, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {n: {"calls": 0, "work": 0, "self_s": 0.0, "incl_s": 0.0} for n in names}
    for i, (code, parent, start, end, work) in enumerate(spans):
        st = stats[names[code]]
        st["self_s"] += (end - start) - child[i]
        up = parent
        while up >= 0 and spans[up][0] != code:
            up = spans[up][1]
        if up < 0:
            st["calls"] += 1
            st["incl_s"] += end - start
            st["work"] += work or 0
    return stats


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(dump: dict, cache: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit), from one traced job."""
    st = span_stats(dump)
    zero = {"calls": 0, "work": 0, "self_s": 0.0, "incl_s": 0.0}

    def s(name):
        return st.get(name, zero)

    stream = s("groups.sym_matrix_stream")
    match = s("modules.registry.match")
    iso = s("modules.is_iso")
    out = {
        "gf.vec_ops.calls": (s("gf.vec_ops")["calls"], "count"),
        "gf.vec_ops.self_s": (s("gf.vec_ops")["self_s"], "s"),
        "linalg.mat_mul.calls": (s("linalg.mat_mul")["calls"], "count"),
        "linalg.mat_mul.self_s": (s("linalg.mat_mul")["self_s"], "s"),
        "linalg.mat_mul.macs": (s("linalg.mat_mul")["work"], "mac"),
        "linalg.echelon.calls": (s("linalg.echelon")["calls"], "count"),
        "linalg.echelon.self_s": (s("linalg.echelon")["self_s"], "s"),
        "linalg.echelon.cells": (s("linalg.echelon")["work"], "cell"),
        "groups.close_group.s": (s("groups.close_group")["incl_s"], "s"),
        "groups.sym_matrix_stream.calls":
            (dump["generators"].get("groups.sym_matrix_stream", 0), "count"),
        "groups.sym_matrix_stream.degrees": (stream["work"], "count"),
        "groups.sym_matrix_stream.self_s": (stream["self_s"], "s"),
        "modules.decompose.calls": (s("modules.decompose")["calls"], "count"),
        "modules.decompose.incl_s": (s("modules.decompose")["incl_s"], "s"),
        "modules.fitting_decompose.calls": (s("modules.fitting_decompose")["calls"], "count"),
        "modules.fitting_decompose.self_s": (s("modules.fitting_decompose")["self_s"], "s"),
        "modules.hom_basis.calls": (s("modules.hom_basis")["calls"], "count"),
        "modules.hom_basis.self_s": (s("modules.hom_basis")["self_s"], "s"),
        "modules.registry.match.calls": (match["calls"], "count"),
        "modules.registry.match.self_s": (match["self_s"], "s"),
        "modules.registry.insert_ratio": (_ratio(match["work"], match["calls"]), "ratio"),
        "modules.is_iso.calls": (iso["calls"], "count"),
        "modules.is_iso.true_ratio": (_ratio(iso["work"], iso["calls"]), "ratio"),
        "modules.registry_io.s": (s("modules.registry_io")["incl_s"], "s"),
        "chars.sym_brauer_sequence.calls": (s("chars.sym_brauer_sequence")["calls"], "count"),
        "chars.sym_brauer_sequence.incl_s": (s("chars.sym_brauer_sequence")["incl_s"], "s"),
        "chars.root_space_dims.calls": (s("chars.root_space_dims")["calls"], "count"),
        "chars.root_space_dims.incl_s": (s("chars.root_space_dims")["incl_s"], "s"),
        "koszul.build_complex.incl_s": (s("koszul.build_complex")["incl_s"], "s"),
        "koszul.check_exact.incl_s": (s("koszul.check_exact")["incl_s"], "s"),
        "koszul.check_split_stagewise.incl_s": (s("koszul.check_split_stagewise")["incl_s"], "s"),
        "koszul.euler_identity.incl_s": (s("koszul.euler_identity")["incl_s"], "s"),
        "koszul.complexes": (s("koszul.build_complex")["calls"], "count"),
        "polyfit.detect_description.incl_s": (s("polyfit.detect_description")["incl_s"], "s"),
        "geometry.ramification.incl_s": (s("geometry.ramification")["incl_s"], "s"),
        "pipeline.run.self_s": (s("pipeline.run")["self_s"], "s"),
        "pipeline.emit.s": (s("pipeline.emit")["incl_s"], "s"),
        "pipeline.cache.hits": (cache.get("hits", 0), "count"),
        "pipeline.cache.misses": (cache.get("misses", 0), "count"),
    }
    return out
