"""End-to-end acceptance suite: ten structural criteria, one line each.

Each criterion prints a single PASS line with its wall time; a failure shows
up as an ordinary pytest failure naming the criterion.  Expensive data is
built once in cached helpers: the cyclic sequences feed criteria 1 and 2,
the plane fixture feeds 8 and 9.  Budgets follow the stated limits; the
golden constants frozen here (the S3 bound, the Klein registry size, the
progression constant, the empirical splitting thresholds) were recorded on
the first verified run and must not drift.
"""

import math
import shutil
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np

from sympow import linalg as la
from sympow.chars import delta_vanishing_report, sym_brauer_sequence
from sympow.geometry import ramification
from sympow.gf import make_field
from sympow.groups import ModuleRep, close_group, sym_power
from sympow.koszul import (build_complex, check_exact, check_split_stagewise,
                           choose_forms, euler_identity,
                           surface_progression_check)
from sympow.modules import (Registry, child_seed, decompose, nonfree,
                            projective_part_dim)
from sympow.pipeline import canonical_json, config_from_dict, run
from sympow.polyfit import detect_description

from oracles import (direct_sum, extend_scalars, is_iso, is_projective, rand_invertible,
                     unipotent_jordan)


def _pass(num, label, elapsed, budget=None):
    bound = f" < {budget:.0f}s" if budget is not None else ""
    print(f"[criterion {num:2d}] PASS {label} ({elapsed:.1f}s{bound})", flush=True)


def _mat(rows):
    return np.array(rows, dtype=np.int64)


@lru_cache(maxsize=None)
def cyclic_data(p):
    """C_p as a transvection on the line: vectors and sym matrices, n <= 60."""
    F = make_field(p)
    G = close_group(F, [_mat([[1, 1], [0, 1]])])
    reg = Registry(G)
    vecs, mats = [], []
    for n in range(61):
        M = sym_power(G, n)
        vecs.append(decompose(M, reg, seed=child_seed(1, "cyc", p, n)))
        mats.append(M.mats[0])
    return G, reg, vecs, mats


def test_criterion_01_cyclic_oracle_equivalence():
    t0 = time.monotonic()
    cases = 0
    for p in (2, 3, 5):
        G, reg, vecs, mats = cyclic_data(p)
        for n in range(61):
            got = sorted(reg.entries[mid].dim
                         for mid, mult in vecs[n].items() for _ in range(mult))
            oracle = sorted(unipotent_jordan(G.field, mats[n]))
            assert got == oracle, (p, n, got, oracle)
            cases += 1
    elapsed = time.monotonic() - t0
    assert cases == 183
    assert elapsed < 10
    _pass(1, f"cyclic decompositions match the Jordan rank oracle, {cases} cases",
          elapsed, 10)


def test_criterion_02_polynomial_description():
    t0 = time.monotonic()
    for p in (2, 3, 5):
        _, reg, vecs, _ = cyclic_data(p)
        cands = [k for k in range(1, p * p + 1) if (p * p) % k == 0]
        desc = detect_description(vecs, cands, dmax=1)
        assert desc is not None and desc.m == p
        assert max(len(c) - 1 for c in desc.polys.values()) == 1
        jp = next(mid for mid in desc.ids if reg.entries[mid].dim == p)
        for a in range(p):
            full_block = desc.polys.get((a, jp))
            assert full_block is not None and len(full_block) == 2
            assert full_block[1] > 0
            if a < p - 1:
                small = next(mid for mid in desc.ids if reg.entries[mid].dim == a + 1)
                assert desc.polys[(a, small)] == [Fraction(1)]
    _pass(2, "C_p descriptions have m = p, degree 1 = d, unit small block",
          time.monotonic() - t0)


def _seeded_registry(G, n_top, seed):
    reg = Registry(G)
    for n in range(n_top + 1):
        decompose(sym_power(G, n), reg, seed=child_seed(seed, "seed", n))
    return reg


def _random_module(reg, rng, dim_cap):
    ids = sorted(reg.entries)
    picks, total = [], 0
    while True:
        mid = ids[int(rng.integers(len(ids)))]
        d = reg.entries[mid].dim
        if total + d > dim_cap:
            if picks:
                break
            continue
        picks.append(mid)
        total += d
        if len(picks) >= 2 and rng.random() < 0.4:
            break
    mod = reg.entries[picks[0]]
    for mid in picks[1:]:
        mod = direct_sum(mod, reg.entries[mid])
    F = mod.field
    P = rand_invertible(F, rng, mod.dim)
    Pi = la.inv(F, P)
    mats = [la.mat_mul(F, la.mat_mul(F, Pi, A), P) for A in mod.mats]
    return ModuleRep(mod.group, mats)


def test_criterion_03_projective_part_identity():
    t0 = time.monotonic()
    F2, F3 = make_field(2), make_field(3)
    fixtures = [
        (close_group(F2, [_mat([[1, 0, 1], [0, 1, 0], [0, 0, 1]]),
                          _mat([[1, 0, 0], [0, 1, 1], [0, 0, 1]])]), 6),
        (close_group(F2, [_mat([[0, 1], [1, 0]]), _mat([[1, 1], [0, 1]])]), 8),
        (close_group(F3, [_mat([[1, 1], [0, 1]])]), 8),
    ]
    cases = 0
    for fi, (G, n_top) in enumerate(fixtures):
        reg = _seeded_registry(G, n_top, seed=fi)
        rng = np.random.default_rng(100 + fi)
        for trial in range(35):
            M = _random_module(reg, rng, dim_cap=24)
            vec = decompose(M, reg, seed=child_seed(3, "rand", fi, trial))
            from_vec = sum(reg.entries[mid].dim * mult for mid, mult in vec.items()
                           if is_projective(reg.entries[mid]))
            assert projective_part_dim(M) == from_vec, (fi, trial)
            cases += 1
    elapsed = time.monotonic() - t0
    assert cases == 105
    assert elapsed < 30
    _pass(3, f"Sylow trace rank equals projective part on {cases} random modules",
          elapsed, 30)


def test_criterion_04_delta_vanishing():
    t0 = time.monotonic()
    F2, F4 = make_field(2), make_field(2, 2)
    fixtures = [
        close_group(F2, [_mat([[1, 1], [0, 1]])]),
        close_group(F2, [_mat([[0, 1], [1, 0]]), _mat([[1, 1], [0, 1]])]),
        close_group(F4, [_mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]])]),
    ]
    for G in fixtures:
        d = G.dim - 1
        m = G.order ** 2
        nw = max(d + 3, 6)
        chars = sym_brauer_sequence(G, range(m * (nw + 1)))
        for j in range(m):
            hi = delta_vanishing_report(chars, j, m, d + 1, nw)
            assert hi["vanishes_from"] is not None, (G.order, j)
            lo = delta_vanishing_report(chars, j, m, d, nw)
            assert lo["vanishes_from"] is None, (G.order, j)
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    _pass(4, "character differences of order d+1 vanish, order d do not", elapsed, 120)


S3_NONFREE_BOUND = 5  # golden: sup over n <= 200, attained at n = 196


def test_criterion_05_growth_bounds():
    t0 = time.monotonic()
    for p in (2, 3, 5):
        F = make_field(p)
        G = close_group(F, [_mat([[1, 1], [0, 1]])])
        assert ramification(G)["cp"] == 0
        reg = Registry(G)
        pdims = []
        for n in range(201):
            vec = decompose(sym_power(G, n), reg, seed=child_seed(5, "cp", p, n))
            ppdim = sum(reg.entries[mid].dim * mult for mid, mult in vec.items()
                        if not is_projective(reg.entries[mid]))
            assert ppdim == (n + 1) % p, (p, n)
            pdims.append(ppdim)
        assert max(pdims) == p - 1
    F2 = make_field(2)
    G = close_group(F2, [_mat([[0, 1], [1, 0]]), _mat([[1, 1], [0, 1]])])
    assert ramification(G)["c"] == 0
    reg = Registry(G)
    fdims = []
    for n in range(201):
        vec = decompose(sym_power(G, n), reg, seed=child_seed(5, "s3", n))
        fdims.append(reg.dim_of(nonfree(vec, reg, 5)))
    assert max(fdims) == S3_NONFREE_BOUND
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _pass(5, f"nonprojective dims bounded by p-1; S3 nonfree bound {max(fdims)}",
          elapsed, 60)


def test_criterion_06_semisimple_sanity():
    t0 = time.monotonic()
    F2 = make_field(2)
    G = close_group(F2, [_mat([[0, 1], [1, 1]])])
    assert G.order == 3
    reg = Registry(G)
    vecs = []
    for n in range(101):
        vec = decompose(sym_power(G, n), reg, seed=child_seed(6, "ss", n))
        assert all(is_projective(reg.entries[mid]) for mid in vec), n
        vecs.append(vec)
    desc = detect_description(vecs, [1, 3, 9], dmax=1)
    assert desc is not None
    assert all(is_projective(reg.entries[mid]) for mid in desc.ids)
    _pass(6, "coprime order: no nonprojective part, all-projective description",
          time.monotonic() - t0)


KLEIN_STABLE_SIZE = 4  # golden: registry size from n = 3 on


def test_criterion_07_klein_four_family():
    t0 = time.monotonic()
    F4 = make_field(2, 2)
    V4 = close_group(F4, [_mat([[1, 0, 1], [0, 1, 0], [0, 0, 1]]),
                          _mat([[1, 0, 0], [0, 1, 1], [0, 0, 1]])])
    assert V4.order == 4

    def rho(c):
        return ModuleRep(V4, [_mat([[1, 1], [0, 1]]), _mat([[1, c], [0, 1]])])

    units = (1, 2, 3)
    mods = {c: rho(c) for c in units}
    ext = {c: extend_scalars(mods[c], 2) for c in units}
    for a in units:
        for b in units:
            assert is_iso(mods[a], mods[b]) == (a == b), (a, b)
            assert is_iso(ext[a], ext[b]) == (a == b), ("GF(16)", a, b)
    G = close_group(F4, [_mat([[1, 1], [0, 1]]), _mat([[1, 2], [0, 1]])])
    assert G.order == 4
    reg = Registry(G)
    sizes = []
    for n in range(41):
        decompose(sym_power(G, n), reg, seed=child_seed(7, "klein", n))
        sizes.append(len(reg.entries))
    assert sizes[-1] == KLEIN_STABLE_SIZE
    assert all(s == KLEIN_STABLE_SIZE for s in sizes[3:])
    _pass(7, f"rho_c family separates; registry stabilizes at {sizes[-1]} classes",
          time.monotonic() - t0)


MU0_PLANE = 2   # golden empirical splitting thresholds
MU0_SPACE = 3


@lru_cache(maxsize=None)
def plane_data():
    F4 = make_field(2, 2)
    G = close_group(F4, [_mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]])])
    forms, K = choose_forms(G, 2, seed=11)
    m = K.m
    reg = Registry(G)
    sv = {}
    for n in range(22):
        sv[n] = decompose(sym_power(G, n), reg, seed=child_seed(8, "p2", n))
    return G, forms, m, reg, sv


def _koszul_sweep(G, forms, m, reg, sv, d, t_first, expect_q):
    """Least complete-splitting level in [t_first, t_first+3], then 5 levels."""
    results = {}

    def pair(t, j):
        if (t, j) not in results:
            K = build_complex(G, forms, t, j)
            ex = check_exact(K)
            sp = check_split_stagewise(K, reg, seed=8, sym_vectors=sv)
            eu = euler_identity(reg, sv, d, m, j, t, seed=8)
            results[(t, j)] = (ex["exact"], sp["all_split"], sp["coker_free"],
                               eu["free_multiple"])
        return results[(t, j)]

    mu0 = next(t for t in range(t_first, t_first + 4)
               if all(pair(t, j)[:3] == (True, True, True) for j in range(m)))
    for t in range(mu0, mu0 + 5):
        for j in range(m):
            assert pair(t, j) == (True, True, True, expect_q), (t, j, pair(t, j))
    return mu0


def test_criterion_08_koszul_splitting_and_euler():
    t0 = time.monotonic()
    G2, forms2, m2, reg2, sv2 = plane_data()
    assert m2 == 2
    mu0 = _koszul_sweep(G2, forms2, m2, reg2, sv2, d=2, t_first=2, expect_q=2)
    assert mu0 == MU0_PLANE
    F9 = make_field(3, 2)
    G3 = close_group(F9, [_mat([[0, 0, 1, 0], [1, 0, 0, 0],
                                [0, 1, 0, 0], [0, 0, 0, 1]])])
    forms3, K3 = choose_forms(G3, 3, seed=11)
    m3 = K3.m
    assert m3 == 3
    reg3 = Registry(G3)
    sv3 = {}
    for n in range(m3 * (MU0_SPACE + 4) + m3):
        sv3[n] = decompose(sym_power(G3, n), reg3, seed=child_seed(8, "p3", n))
    mu0 = _koszul_sweep(G3, forms3, m3, reg3, sv3, d=3, t_first=3, expect_q=9)
    assert mu0 == MU0_SPACE
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    _pass(8, "Koszul complexes exact, all stages split, q|G| = m^d on P2 and P3",
          elapsed, 600)


PROGRESSION_STABLE_FROM = 2     # golden: stride differences constant from t = 2
PROGRESSION_CONSTANT_DIMS = {1: 1}   # golden: one 1-dim class per stride step


def test_criterion_09_surface_progression():
    t0 = time.monotonic()
    G, forms, m, reg, sv = plane_data()
    for j in range(m):
        out = surface_progression_check(reg, sv, m, j, range(1, 10), seed=8)
        assert out["ok"] and out["stable_from"] == PROGRESSION_STABLE_FROM
        const_dims = {}
        for mid, mult in out["constant"].items():
            dim = reg.entries[mid].dim
            const_dims[dim] = const_dims.get(dim, 0) + mult
        assert const_dims == PROGRESSION_CONSTANT_DIMS, (j, const_dims)
    _pass(9, "nonfree stride differences stabilize to one trivial-line class",
          time.monotonic() - t0)


def test_criterion_10_determinism_and_cache(tmp_path):
    t0 = time.monotonic()
    for p in (2, 3, 5):
        cache = tmp_path / f"cache{p}"
        cfg_dict = {
            "field": {"p": p, "e": 1},
            "generators": ["2 2\n1 1\n0 1\n"],
            "n_max": 60,
            "seed": 7,
            "checks": ["decompose"],
            "cache_dir": str(cache),
        }
        cold = canonical_json(run(config_from_dict(cfg_dict)))
        warm = canonical_json(run(config_from_dict(cfg_dict)))
        shutil.rmtree(cache)
        again = canonical_json(run(config_from_dict(cfg_dict)))
        assert cold == warm == again, p
    _pass(10, "repeat and warm-cache runs are byte-identical", time.monotonic() - t0)
