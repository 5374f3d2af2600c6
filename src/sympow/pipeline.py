"""Job configuration, orchestration, caching, and report emission.

A job is one linear action: a field, generator matrices as text blocks, and
a degree range.  The pipeline decomposes every symmetric power once, then
runs the requested checks over the shared data.  Reports serialize to
canonical JSON (sorted keys, exact fraction strings); wall-clock timing and
cache counters live in a `volatile` section that the canonical form drops,
which is what makes the determinism contract byte-exact.

A job has one degree sweep (`Sweep`), and every class of a Sym^n that a
check reads comes from it: the checks that read vectors sweep to `n_max`,
and the Koszul check extends the sweep to the top degree its complexes
read.  The sweep runs in this process, in ascending degree order, and
decomposes every degree into one job registry, so kG is decomposed at most
once and each part is matched once.  On P¹ the sweep first looks for an
invariant form f of some degree m.  With one, each degree n >= m whose
cokernel Q_n = Sym^n / f·Sym^(n−m) is projective is vec(n − m) plus the
vector of the m-dimensional Q_n, and Sym^n is never built (`Cokernels`);
every other degree decomposes Sym^n directly.  The report's
`volatile.sweep` gives the form's degree and how many degrees each route
took.

With a cache directory, a job keeps one JSON document, `<job_key>.json`: the
registry's classes in id order and the vectors over them, keyed by degree,
under a digest of both (`modules.save_registry`).  A sweep reads it whole or
not at all; a document that fails to load or fails its digest is a miss on
every degree.  A sweep that computed any degree replaces the document with
one atomic write, keeping the degrees it already held.  The Koszul
extension runs before any Koszul module is decomposed, so the document
holds only classes a sweep minted.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import __version__ as VERSION
from . import koszul as kz
from . import linalg as la
from .chars import char_growth_check, delta_vanishing_report, sym_brauer_sequence
from .geometry import fixed_dims, ramification
from .gf import make_field
from .groups import (CapacityError, GroupData, ModuleRep, SYM_DIM_CAP, close_group, p_part,
                     sym_dim, sym_power)
from .modules import (Registry, child_rng, child_seed, decompose, dvec_add, load_registry,
                      projective_part_dim, save_registry)
from .polyfit import HOLDOUT, detect_description, growth_degree

CHECKS = ("decompose", "description", "delta_vanishing", "growth",
          "ramification", "koszul", "surface_progression", "char_growth")

_NEED_VECTORS = {"decompose", "description", "surface_progression"}

CHAR_TABLE_MAX_N = 40


class ConfigError(ValueError):
    """A config file failed to parse or validate; the message names the offender."""


@dataclass
class JobConfig:
    p: int
    e: int
    generators: list[str]
    n_max: int
    seed: int
    checks: tuple[str, ...]
    m_candidates: list[int] | None = None
    cache_dir: str | None = None
    output_path: str | None = None
    output_format: str = "json"

    def echo(self) -> dict:
        """Analysis-relevant fields only: anything here may change results.

        Delivery knobs (output target, cache location) are echoed in the
        volatile section instead, so runs that differ only in where they
        write stay byte-identical.
        """
        out = asdict(self)
        out["checks"] = sorted(self.checks)
        for key in ("cache_dir", "output_path", "output_format"):
            del out[key]
        return out

    def delivery(self) -> dict:
        return {"cache_dir": self.cache_dir, "output_path": self.output_path,
                "output_format": self.output_format}


def load_config(path: str) -> JobConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return config_from_dict(raw)


def _int(value, key: str) -> int:
    """A JSON integer; floats, booleans and numeric strings are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def config_from_dict(raw: dict) -> JobConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    fld = raw.get("field")
    if not isinstance(fld, dict) or "p" not in fld:
        raise ConfigError("field {p, e} required")
    p, e = _int(fld["p"], "field.p"), _int(fld.get("e", 1), "field.e")
    try:
        F = make_field(p, e)
    except Exception as exc:
        raise ConfigError(f"bad field: {exc}") from None
    gens = raw.get("generators")
    if not isinstance(gens, list) or not gens or not all(isinstance(g, str) for g in gens):
        raise ConfigError("generators must be a nonempty list of matrix text blocks")
    size = None
    for i, text in enumerate(gens):
        try:
            A = la.mat_from_text(F, text)
        except ValueError as exc:
            raise ConfigError(f"generator {i}: {exc}") from None
        if A.shape[0] != A.shape[1]:
            raise ConfigError(f"generator {i} is not square: shape {A.shape}")
        if not A.shape[0]:
            raise ConfigError(f"generator {i} has size 0")
        if size is None:
            size = A.shape[0]
        elif A.shape[0] != size:
            raise ConfigError(f"generator {i} has size {A.shape[0]}, expected {size}")
    if "seed" not in raw:
        raise ConfigError("seed required")
    seed = _int(raw["seed"], "seed")
    n_max = _int(raw.get("n_max", 0), "n_max")
    if n_max < 4:
        raise ConfigError("n_max must be at least 4")
    checks = raw.get("checks", list(CHECKS))
    if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
        raise ConfigError("checks must be a list of check names")
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise ConfigError(f"unknown checks: {unknown}; valid names are {list(CHECKS)}")
    if not checks:
        raise ConfigError("checks must not be empty; omit it to run every check")
    m_cands = raw.get("m_candidates")
    if m_cands is not None:
        if not isinstance(m_cands, list):
            raise ConfigError("m_candidates must be a list of positive integers")
        m_cands = [_int(m, "m_candidates entry") for m in m_cands]
        if not m_cands:
            raise ConfigError("m_candidates must not be empty; omit it for the divisors of |G|^2")
        if any(m < 1 for m in m_cands):
            raise ConfigError("m_candidates must be positive")
    out = raw.get("output", {})
    if not isinstance(out, dict):
        raise ConfigError("output must be an object with optional format and path")
    fmt = out.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ConfigError(f"output format must be json or csv, got {fmt!r}")
    for key, value in (("cache_dir", raw.get("cache_dir")), ("output.path", out.get("path"))):
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"{key} must be a path string, got {value!r}")
    return JobConfig(
        p=p, e=e, generators=list(gens), n_max=n_max, seed=seed,
        checks=tuple(dict.fromkeys(checks)), m_candidates=m_cands,
        cache_dir=raw.get("cache_dir"), output_path=out.get("path"),
        output_format=fmt,
    )


# -- cache ---------------------------------------------------------------------


def job_key(cfg: JobConfig) -> str:
    """Stable digest over field, normalized generator bytes, and version."""
    F = make_field(cfg.p, cfg.e)
    norm = [la.mat_to_text(F, la.mat_from_text(F, g)) for g in cfg.generators]
    payload = json.dumps({"p": cfg.p, "e": cfg.e, "generators": norm,
                          "version": VERSION}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def _cache_path(cfg: JobConfig) -> str | None:
    return os.path.join(cfg.cache_dir, f"{job_key(cfg)}.json") if cfg.cache_dir else None


# -- the P¹ recursion -----------------------------------------------------------

FORM_DRAWS = 4


class Cokernels:
    """Q_n = Sym^n / f·Sym^(n−m) on P¹ as m×m matrices, one degree after another.

    f is an invariant form of degree m with f(1:0) ≠ 0, so f(X, 1) has
    degree m.  For n ≥ m − 1, setting y = 1 maps Sym^n onto
    R = k[X]/(f(X, 1)), F ↦ F(X, 1) mod f(X, 1): the monomials x^i y^(n−i),
    i < m, go to the basis 1, X, …, X^(m−1).  Its kernel is f·Sym^(n−m):
    when f(X, 1) divides F(X, 1), F = f·H for a form H, because y does not
    divide f.  The map is G-equivariant for the action R inherits from
    Sym^n, so R in the basis X^i carries Q_n.  So:

    * Q_(m−1) is Sym^(m−1), since f·Sym^(−1) = 0.  Graded-lex order puts
      x^i y^(m−1−i) at position m − 1 − i, so Q_(m−1)(g) is the group's
      Sym^(m−1)(g) with its rows and columns reversed.
    * Q_n(g) = V·Q_(n−1)(g) for n ≥ m: F ↦ yF is the identity on R after
      y = 1, and a generator with matrix A (column j the image of z_j;
      x = z_0, y = z_1) sends y to A₀₁x + A₁₁y, which acts on R as
      V = A₀₁C + A₁₁I, C the companion matrix of the monic f(X, 1).

    So Q_n(g) = V^(n−m+1)·Q_(m−1)(g).  Each V is invertible (g·y vanishes
    nowhere on V(f), since f is invariant and f(1:0) ≠ 0), so the tuple of
    matrices repeats with the lcm of the orders of the V's: on S3 over
    GF(2) the Q_n for n ≥ 2 fall into three classes by n mod 3.  The tower
    decomposes each distinct tuple once (`vector`).

    Multiplication by f is injective (k[x, y] is a domain), so
    0 → Sym^(n−m) → Sym^n → Q_n → 0 is exact, and it splits when Q_n is
    projective, which `projective_part_dim` decides exactly (Benson,
    *Representations and Cohomology I*, §3.6).
    """

    def __init__(self, G: GroupData, form: np.ndarray):
        F, m = G.field, len(form) - 1
        self.group, self.m, self.n = G, m, m - 1
        I = la.identity(m)
        C = la.zeros(m, m)
        C[np.arange(1, m), np.arange(m - 1)] = 1
        # X^m = −Σ c_i X^i, where c_i = form[m − i] / form[0] is the X^i
        # coefficient of the monic f(X, 1)
        C[:, m - 1] = F.vec_neg(F.vec_mul(form[m:0:-1], np.int64(F.inv(int(form[0])))))
        self._vs = [F.vec_add(F.vec_mul(C, np.int64(int(A[0, 1]))),
                              F.vec_mul(I, np.int64(int(A[1, 1])))) for A in G.gens]
        self.mats = [S[::-1, ::-1].copy() for S in G.sym(m - 1)]
        # Q_n.key() -> vec(Q_n), or None for a Q_n that is not projective
        self._memo: dict[bytes, dict[int, int] | None] = {}

    def at(self, n: int) -> ModuleRep:
        """Q_n; n must be no lower than the degree of the previous call.

        The tower only steps forward, so a lower n raises ValueError rather
        than return the current degree's matrices under the wrong degree.
        """
        if n < self.n:
            raise ValueError(f"cokernel tower is at degree {self.n}, cannot return to {n}")
        F = self.group.field
        while self.n < n:
            self.mats = [la.mat_mul(F, V, Q) for V, Q in zip(self._vs, self.mats)]
            self.n += 1
        return ModuleRep(self.group, self.mats)

    def vector(self, n: int, vectors, registry: Registry, seed: int) -> dict[int, int] | None:
        """vec(n − m) + vec(Q_n), or None when degree n takes the direct route.

        The direct route takes the degree when Q_n is not projective, or when
        Q_n mints two or more classes: the direct route might number those in
        another order.  Each class Sym^n holds that the registry lacks is a
        class of Q_n, so with at most one of them the ids agree.  A rejected
        trial is rolled back, kG's vector included, which the free peel of a
        Q_n with m ≥ |G| may have computed.

        The memo is read before any check.  An equal key means equal
        matrices, so the same module: the projectivity check gives the same
        answer, and every class of the first occurrence is already in the
        registry, so decomposing again would only match them and return the
        same vector.  A rolled-back trial is not stored: its classes left the
        registry with the rollback, and the direct route may have minted them
        under other ids, so the next degree with that key tries again.
        """
        Q = self.at(n)
        key = Q.key()
        if key not in self._memo:
            q = None
            if projective_part_dim(Q) == self.m:
                mark = registry.mark()
                q = decompose(Q, registry, seed)
                if len(registry.entries) - mark[0] >= 2:
                    registry.rollback(mark)
                    return None
            self._memo[key] = q
        q = self._memo[key]
        return None if q is None else dvec_add(vectors[n - self.m], q)


def _find_form(G: GroupData, seed: int, top: int) -> Cokernels | None:
    """The cokernel tower of an invariant form for the P¹ recursion, or None.

    Degrees k = 1..min(|G|, top) are tried in turn.  At each, FORM_DRAWS
    seeded elements of the invariants ker(Sym^k(g) − I) are drawn, and the
    first f that has f(1:0) ≠ 0 (its x^k coefficient) and a projective
    first cokernel Q_k is kept.  When the invariants are one-dimensional,
    the first draw is the only one: every nonzero draw is then a multiple of
    the same form, with the same tower.
    Dickson invariants show such forms of low degree (Dickson, *Trans. AMS*
    12, 1911): x² + xy + y² for S3 over GF(2), of degree 6 for GL2(F3).
    """
    F = G.field
    for k in range(1, min(G.order, top) + 1):
        I = la.identity(k + 1)
        inv = la.kernel_basis(F, np.vstack([F.vec_sub(S, I) for S in G.sym(k)]))
        if not inv.shape[1]:
            continue
        rng = child_rng(seed, "recursion", k)
        for _ in range(FORM_DRAWS):
            c = la.rand_mat(F, rng, inv.shape[1], 1)
            if not c.any():
                c[0] = 1
            f = la.mat_mul(F, inv, c)[:, 0]
            if f[0]:
                tower = Cokernels(G, f)
                if projective_part_dim(tower.at(k)) == k:
                    return tower
            if inv.shape[1] == 1:
                break
    return None


# -- the degree sweep --------------------------------------------------------------


class Sweep:
    """The job's degree sweep: vec(Sym^n) for n = 0, 1, ... in one registry.

    It opens with the job's cache document (`stored`); one that does not
    load counts once in `cache["corrupt"]` and is a miss on every degree.
    `extend(top)` is the one loop over degrees: in ascending order, it takes
    each degree up to top that `vectors` lacks from the document, from the
    recursion (`Cokernels.vector`), or directly.  On P¹ the first degree the
    document lacks starts the form search.  `cache` counts hits, misses and
    corrupt documents, and `counts` the form's degree and each route's degrees.

    The first degree that fails (a capacity overflow, say) raises and ends
    the sweep, keeping the prefix; an extension past it raises the same
    error, since later degrees can only be larger.  `sym_power` raises
    before `decompose` touches the registry, so an overflow degree leaves no
    classes behind.
    """

    def __init__(self, cfg: JobConfig, G: GroupData):
        self.cfg, self.group, self.path = cfg, G, _cache_path(cfg)
        self.cache = {"hits": 0, "misses": 0, "corrupt": 0}
        self.registry, self.stored = Registry(G), {}
        if self.path:
            try:
                self.registry, self.stored = load_registry(self.path, G)
            except FileNotFoundError:
                pass
            except (OSError, ValueError):
                self.cache["corrupt"] += 1
        self.vectors: dict[int, dict[int, int]] = {}
        self.search, self.tower = G.dim == 2, None
        self.counts = {"form_degree": None, "recursion": 0, "direct": 0}
        self.failure: Exception | None = None

    def extend(self, top: int):
        degrees = range(len(self.vectors), top + 1)
        if degrees and self.failure is not None:
            raise self.failure
        cfg, misses = self.cfg, self.cache["misses"]
        try:
            for n in degrees:
                if n in self.stored:
                    self.vectors[n] = self.stored[n]
                    self.cache["hits"] += 1
                    continue
                if self.search:
                    self.search, self.tower = False, _find_form(self.group, cfg.seed, cfg.n_max)
                    self.counts["form_degree"] = self.tower.m if self.tower else None
                seed = child_seed(cfg.seed, "sym", n)
                route, vec = "recursion", None
                if self.tower is not None and n >= self.tower.m:
                    vec = self.tower.vector(n, self.vectors, self.registry, seed)
                if vec is None:
                    route = "direct"
                    vec = decompose(sym_power(self.group, n), self.registry, seed)
                self.vectors[n] = vec
                self.counts[route] += 1
                self.cache["misses"] += 1
        except Exception as exc:
            self.failure = exc
            raise
        finally:
            if self.path and self.cache["misses"] > misses:
                os.makedirs(cfg.cache_dir, exist_ok=True)
                save_registry(self.registry, self.path, {**self.stored, **self.vectors})


# -- checks ----------------------------------------------------------------------


def _divisors(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if n % k == 0]


def _char_window(d1: int, stride: int, floor: int, want: int) -> int:
    """Largest window <= want (but >= floor) whose top degree fits the sym cap."""
    nw = want
    while nw > floor and sym_dim(d1, stride * nw + stride - 1) > SYM_DIM_CAP:
        nw -= 1
    return nw


def _run_description(cfg: JobConfig, G: GroupData, vectors) -> dict:
    seq = [vectors[n] for n in sorted(vectors)]
    cands = cfg.m_candidates or _divisors(G.order ** 2)
    desc = detect_description(seq, cands, dmax=G.dim - 1)
    if desc is None:
        return {"found": False}
    return {"found": True, **desc.to_json()}


def _run_delta(G: GroupData) -> dict:
    d = G.dim - 1
    m = G.order ** 2
    hi, lo = d + 1, d
    # The window's top degree must fit the sym cap, which bounds the one
    # character sequence below (degrees 0..m*nw + m - 1).  Groups whose
    # only p-regular class is the identity are exempt, window included:
    # their characters are the dimensions C(n+d, d).
    if len(G.p_regular_class_reps()) == 1:
        nw = max(hi + 3, 8)
    else:
        nw = _char_window(G.dim, m, hi + 1, max(hi + 3, 8))
        if sym_dim(G.dim, m * nw + m - 1) > SYM_DIM_CAP:
            raise CapacityError(f"sym dimension exceeds cap {SYM_DIM_CAP}")
    top = m * nw + m - 1
    chars = sym_brauer_sequence(G, range(top + 1))
    hi_reports = [delta_vanishing_report(chars, j, m, hi, nw) for j in range(m)]
    lo_reports = [delta_vanishing_report(chars, j, m, lo, nw) for j in range(m)]
    return {
        "stride": m,
        "window": nw,
        "order_hi": hi_reports,
        "order_lo": lo_reports,
        "all_vanish_hi": all(r["vanishes_from"] is not None for r in hi_reports),
        "any_vanish_lo": any(r["vanishes_from"] is not None for r in lo_reports),
    }


def _run_growth(cfg: JobConfig, G: GroupData) -> dict:
    dims = [sym_dim(G.dim, n) for n in range(cfg.n_max + 1)]
    fit = growth_degree(dims, 1)
    fit["expected_degree"] = G.dim - 1
    return fit


def _run_koszul(cfg: JobConfig, G: GroupData, sweep: Sweep) -> dict:
    """One report entry per (t, j) complex, t = d..d+2.

    The first complex, (d, 0), is the one `choose_forms` certified its forms
    with.  The sweep is then extended to the top degree the complexes read,
    m(d + 2) + max j, before any Koszul module is decomposed, so every term's
    class is read from it.  Each complex is built, checked and dropped in
    turn, so at most one complex is alive at a time: the next one is built
    only after the last is garbage.
    """
    d = G.dim - 1
    forms, K = kz.choose_forms(G, d, child_seed(cfg.seed, "forms"))
    m = K.m
    js = range(m) if m <= 4 else range(2)
    sweep.extend(m * (d + 2) + js[-1])
    seed = child_seed(cfg.seed, "koszul")
    registry, vectors, entries = sweep.registry, sweep.vectors, []
    for t in range(d, d + 3):
        for j in js:
            if K is None:
                K = kz.build_complex(G, forms, t=t, j=j)
            ex = kz.check_exact(K)
            sp = kz.check_split_stagewise(K, registry, seed, vectors)
            eu = kz.euler_identity(registry, vectors, d, m, j, t, seed)
            entries.append({"t": t, "j": j, "exact": ex["exact"], "coker_dim": ex["coker_dim"],
                            "stages": [{"r": s["r"], "split": s["split"]} for s in sp["stages"]],
                            "all_split": sp["all_split"], "coker_free": sp["coker_free"],
                            "euler_free_multiple": eu["free_multiple"]})
            K = None
    return {"form_degree": m, "complexes": entries}


def _run_surface(cfg: JobConfig, G: GroupData, registry: Registry, vectors) -> dict:
    m = G.order
    n_top = max(vectors, default=-1)
    seed = child_seed(cfg.seed, "surface")
    out = []
    for j in range(min(m, 4)):
        ts = range(1, (n_top - j) // m + 1)
        if len(ts) < HOLDOUT + 1:
            raise ValueError("n_max too small for a progression window at stride #G")
        out.append(kz.surface_progression_check(registry, vectors, m, j, ts, seed))
    return {"stride": m, "progressions": out}


def _run_char_growth(G: GroupData) -> dict:
    windows = []
    for g in G.p_regular_class_reps():
        d_fix = max((dim for _, dim in fixed_dims(G, g)), default=-1)
        floor = d_fix + 3
        windows.append((g, d_fix, _char_window(G.dim, G.order, floor, max(floor, 10))))
    # one sequence covers every class's window n = 0..nw
    top = max(nw for _, _, nw in windows)
    chars = sym_brauer_sequence(G, [n * G.order for n in range(top + 1)])
    reports = [char_growth_check(G, chars, g, 0, d_fix, nw) for g, d_fix, nw in windows]
    return {"classes": reports, "ok": all(r["ok"] for r in reports)}


def _char_table(cfg: JobConfig, G: GroupData) -> dict:
    top = min(cfg.n_max, CHAR_TABLE_MAX_N)
    chars = sym_brauer_sequence(G, range(top + 1))
    reps = G.p_regular_class_reps()
    values = {n: dict(zip(reps, chars[n].tolist())) for n in range(top + 1)}
    return {"modulus": chars[0].shape[1], "n_max": top, "values": values}


def _group(cfg: JobConfig) -> GroupData:
    """The group the job's generators generate.

    Generators `close_group` refuses (a singular one, say) raise ConfigError.
    """
    F = make_field(cfg.p, cfg.e)
    try:
        return close_group(F, [la.mat_from_text(F, g) for g in cfg.generators])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def run(cfg: JobConfig) -> dict:
    """Execute the requested checks; failures are recorded, not raised.

    The returned report is deterministic given (config, seed, version) once
    the volatile section is dropped; `canonical_json` does exactly that.
    """
    t0 = time.monotonic()
    G = _group(cfg)
    if "koszul" in cfg.checks and G.dim < 2:  # P^0 has no forms to take
        raise ConfigError("the koszul check needs an action on at least two coordinates")
    checks: dict = {}
    errors: dict = {}
    echo = cfg.echo()
    echo["m_candidates"] = cfg.m_candidates or _divisors(G.order ** 2)
    report = {
        "artifact_version": VERSION,
        "echo": echo,
        "group": {"order": G.order, "dim": G.dim, "p_part": p_part(G.order, G.field.p)},
        "checks": checks,
        "errors": errors,
        "volatile": {"delivery": cfg.delivery()},
    }
    sweep = vectors = registry = None
    if _NEED_VECTORS & set(cfg.checks) or "koszul" in cfg.checks:
        sweep = Sweep(cfg, G)
        registry = sweep.registry
        report["volatile"].update(cache=sweep.cache, sweep=sweep.counts)
    if _NEED_VECTORS & set(cfg.checks):
        try:
            sweep.extend(cfg.n_max)
        except Exception as exc:
            errors[f"decompose_n{len(sweep.vectors)}"] = f"{type(exc).__name__}: {exc}"
        vectors = dict(sweep.vectors)
        if "decompose" in cfg.checks:
            checks["decompose"] = {
                "vectors": {n: dict(sorted(v.items())) for n, v in vectors.items()},
                "registry_size": len(registry.entries),
                "class_dims": {mid: registry.entries[mid].dim for mid in registry.entries},
            }
        try:
            checks["characters"] = _char_table(cfg, G)
        except Exception as exc:
            errors["characters"] = f"{type(exc).__name__}: {exc}"

    def guarded(name, fn, *args):
        if name not in cfg.checks:
            return
        try:
            checks[name] = fn(*args)
        except Exception as exc:
            errors[name] = f"{type(exc).__name__}: {exc}"

    guarded("description", _run_description, cfg, G, vectors)
    guarded("delta_vanishing", _run_delta, G)
    guarded("growth", _run_growth, cfg, G)
    guarded("ramification", ramification, G)
    guarded("koszul", _run_koszul, cfg, G, sweep)
    guarded("surface_progression", _run_surface, cfg, G, registry, vectors)
    guarded("char_growth", _run_char_growth, G)
    report["volatile"]["elapsed_s"] = round(time.monotonic() - t0, 3)
    return report


def run_single(cfg: JobConfig, n: int) -> dict:
    """Decompose one symmetric power, reusing the cache read-only.

    The job's `Sweep` opens the document but is never extended (a sweep to
    n would multiply the cost on P^d, d >= 2), so nothing is written: a
    sweep assigns registry ids in ascending-degree first-appearance order,
    and a stray single-degree write would bake a different numbering into
    the shared registry.  Without a document from an `analyze` run the
    class ids are this call's own and can differ from `analyze`'s; with
    one they agree, as its classes keep their ids.
    """
    G = _group(cfg)
    sweep = Sweep(cfg, G)
    registry, vec = sweep.registry, sweep.stored.get(n)
    if vec is None:
        vec = decompose(sym_power(G, n), registry, child_seed(cfg.seed, "sym", n))
    return {
        "artifact_version": VERSION,
        "n": n,
        "vec": dict(sorted(vec.items())),
        "class_dims": {mid: registry.entries[mid].dim for mid in sorted(vec)},
    }


# -- emission ------------------------------------------------------------------


def _jsonify(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def canonical_json(report: dict) -> str:
    """Sorted-key JSON with the volatile section removed; the determinism unit."""
    slim = {k: v for k, v in report.items() if k != "volatile"}
    return json.dumps(slim, sort_keys=True, indent=1, default=_jsonify) + "\n"


def _csv_decompositions(report: dict) -> str | None:
    dec = report["checks"].get("decompose")
    if dec is None:
        return None
    lines = ["n,id,mult"]
    for n in sorted(dec["vectors"]):
        for mid in sorted(dec["vectors"][n]):
            lines.append(f"{n},{mid},{dec['vectors'][n][mid]}")
    return "\n".join(lines) + "\n"


def _csv_characters(report: dict) -> str | None:
    chars = report["checks"].get("characters")
    if chars is None:
        return None
    lines = ["n,class_rep,coord,value"]
    for n in sorted(chars["values"]):
        for r in sorted(chars["values"][n]):
            for coord, v in enumerate(chars["values"][n][r]):
                lines.append(f"{n},{r},{coord},{v}")
    return "\n".join(lines) + "\n"


def _csv_growth(report: dict) -> str | None:
    fit = report["checks"].get("growth")
    if fit is None:
        return None
    lines = ["residue,degree,coeffs"]
    for res in fit["residues"]:
        coeffs = ";".join(res.get("coeffs", []))
        lines.append(f"{res['a']},{res['degree']},{coeffs}")
    return "\n".join(lines) + "\n"


def emit(report: dict, fmt: str, path: str | None) -> list[str]:
    """Write the report; JSON to one file, CSV tables into a directory."""
    if fmt == "json":
        text = canonical_json(report)
        if path is None:
            print(text, end="")
            return []
        with open(path, "w") as fh:
            fh.write(text)
        return [path]
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    outdir = path or "."
    os.makedirs(outdir, exist_ok=True)
    written = []
    tables = {
        "decompositions.csv": _csv_decompositions(report),
        "characters.csv": _csv_characters(report),
        "growth.csv": _csv_growth(report),
    }
    for name, text in tables.items():
        if text is None:
            continue
        target = os.path.join(outdir, name)
        with open(target, "w") as fh:
            fh.write(text)
        written.append(target)
    return written
