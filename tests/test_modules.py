"""Decomposition engine tests.

The closed form for C_p symmetric powers acts as the independent oracle here:
Sym^n of the nontrivial 2-dim module splits as J_(a+1) + t*J_p where
n = t*p + a, 0 <= a < p.  The Jordan type of the Sym matrix itself gives the
same answer through a completely separate code path (unipotent_jordan), so
the two routes cross-check each other.
"""

import os

import numpy as np
import pytest

from sympow import linalg as la
from sympow.gf import make_field
from sympow.groups import ModuleRep, close_group, p_part, regular_rep, sym_dim, sym_power
from sympow.modules import (Registry, decompose, dvec_add, dvec_scale, fitting_decompose,
                            free_rank, hom_basis, load_registry, nonfree,
                            projective_part_dim, save_registry, submodule)
from sympow import modules
from sympow.modules import (_colspace_canonical, _iso_detail, _monomial_perms, _peel_free,
                            _peel_orbits, _peel_trace, _quotient_from_rowspace,
                            _span_element, _trace)

from oracles import (_echelon_naive, direct_sum, extend_scalars, extended_group, is_iso,
                     is_projective, quotient_module, rand_invertible, unipotent_jordan)


def cyclic_group(p: int):
    F = make_field(p)
    return close_group(F, [np.array([[1, 1], [0, 1]], dtype=np.int64)])


def s3_group():
    F = make_field(2)
    return close_group(F, [np.array([[0, 1], [1, 0]], dtype=np.int64),
                           np.array([[1, 1], [0, 1]], dtype=np.int64)])


def klein_group():
    F4 = make_field(2, 2)
    return close_group(F4, [np.array([[1, 1], [0, 1]], dtype=np.int64),
                            np.array([[1, 2], [0, 1]], dtype=np.int64)])


def _conjugate(M: ModuleRep, rng) -> ModuleRep:
    F = M.field
    P = rand_invertible(F, rng, M.dim)
    Pi = la.inv(F, P)
    return ModuleRep(M.group, [la.mat_mul(F, la.mat_mul(F, Pi, A), P) for A in M.mats])


def _klein_rho(G, c):
    """The 2-dim Klein module where the second generator translates by c."""
    return ModuleRep(G, [np.array([[1, 1], [0, 1]], dtype=np.int64),
                         np.array([[1, c], [0, 1]], dtype=np.int64)])


@pytest.fixture(scope="module")
def c2():
    return cyclic_group(2)


@pytest.fixture(scope="module")
def s3():
    return s3_group()


def test_end_of_regular_c2(c2):
    G = c2
    V2 = sym_power(G, 1)
    assert len(hom_basis(V2, V2)) == 2


def test_hom_trivial_into_regular_c2(c2):
    G = c2
    assert len(hom_basis(sym_power(G, 0), sym_power(G, 1))) == 1


def test_hom_intertwines(s3):
    G = s3
    M = sym_power(G, 2)
    N = sym_power(G, 4)
    F = G.field
    acts_m, acts_n = M.orbit(la.identity(M.dim)), N.orbit(la.identity(N.dim))
    for phi in hom_basis(M, N):
        for g in range(G.order):
            left = la.mat_mul(F, phi, acts_m[g])
            right = la.mat_mul(F, acts_n[g], phi)
            assert np.array_equal(left, right)


def test_sym5_c2_three_free_copies(c2):
    G = c2
    reg = Registry(G)
    vec = decompose(sym_power(G, 5), reg, seed=11)
    assert len(vec) == 1
    ((mid, mult),) = vec.items()
    assert mult == 3 and reg.entries[mid].dim == 2


def test_regular_c3_indecomposable():
    G = cyclic_group(3)
    parts = fitting_decompose(regular_rep(G), seed=5)
    assert [p.dim for p in parts] == [3]


def test_cp_closed_form_vs_jordan_type():
    for p in (2, 3, 5):
        G = cyclic_group(p)
        reg = Registry(G)
        for n in range(26):
            t, a = divmod(n, p)
            expected = sorted([p] * t + [a + 1])
            vec = decompose(sym_power(G, n), reg, seed=n)
            got = sorted(
                d for mid, mult in vec.items() for d in [reg.entries[mid].dim] * mult
            )
            assert got == expected, (p, n)
            # second route: Jordan type of the Sym matrix directly
            S = G.sym(n)[0]
            part = unipotent_jordan(G.field, S)
            assert sorted(part) == expected, (p, n)


def test_decompose_seed_invariant(s3):
    G = s3
    reg = Registry(G)
    M = sym_power(G, 7)
    base = decompose(M, reg, seed=0)
    for seed in range(1, 50):
        assert decompose(M, reg, seed=seed) == base


def _random_known_sum(reg, rng, count):
    """A random conjugate of a random direct sum of registry entries."""
    ids = sorted(reg.entries)
    picks = [ids[rng.integers(len(ids))] for _ in range(count)]
    mod = reg.entries[picks[0]]
    for mid in picks[1:]:
        mod = direct_sum(mod, reg.entries[mid])
    F = mod.field
    P = rand_invertible(F, rng, mod.dim)
    Pi = la.inv(F, P)
    mats = [la.mat_mul(F, la.mat_mul(F, Pi, A), P) for A in mod.mats]
    expected: dict[int, int] = {}
    for mid in picks:
        expected[mid] = expected.get(mid, 0) + 1
    return ModuleRep(mod.group, mats), expected


def test_decompose_recovers_known_sums(s3):
    G = s3
    reg = Registry(G)
    for n in range(6):
        decompose(sym_power(G, n), reg, seed=n)
    rng = np.random.default_rng(42)
    for trial in range(30):
        M, expected = _random_known_sum(reg, rng, int(rng.integers(2, 5)))
        assert decompose(M, reg, seed=trial) == expected


def test_decompose_additive(s3):
    G = s3
    reg = Registry(G)
    rng = np.random.default_rng(7)
    mods = [sym_power(G, n) for n in range(6)]
    for trial in range(30):
        i, j = rng.integers(len(mods)), rng.integers(len(mods))
        va = decompose(mods[i], reg, seed=trial)
        vb = decompose(mods[j], reg, seed=trial + 100)
        vs = decompose(direct_sum(mods[i], mods[j]), reg, seed=trial + 200)
        assert vs == dvec_add(va, vb)


def test_projective_part_matches_trace_rank(s3):
    G = s3
    reg = Registry(G)
    for n in range(6):
        decompose(sym_power(G, n), reg, seed=n)
    rng = np.random.default_rng(3)
    for trial in range(100):
        M, _ = _random_known_sum(reg, rng, int(rng.integers(1, 4)))
        vec = decompose(M, reg, seed=trial)
        proj = {mid: mult for mid, mult in vec.items() if is_projective(reg.entries[mid])}
        assert projective_part_dim(M) == reg.dim_of(proj) <= M.dim


def test_split_projective_classes(s3):
    G = s3
    reg = Registry(G)
    kg = reg.regular_vec(0)
    for mid in kg:
        assert is_projective(reg.entries[mid])
    triv_vec = decompose(sym_power(G, 0), reg, seed=1)
    ((triv_id, _),) = triv_vec.items()
    assert not is_projective(reg.entries[triv_id])


def test_free_rank_s3(s3):
    G = s3
    reg = Registry(G)
    vec = decompose(sym_power(G, 30), reg, seed=2)
    assert free_rank(vec, reg, 0) == 5
    leftover = nonfree(vec, reg, 0)
    assert reg.dim_of(leftover) == 31 - 5 * 6


def test_klein_family_non_isomorphic():
    G = klein_group()
    assert G.order == 4
    M2 = sym_power(G, 1)
    M3 = _klein_rho(G, 3)
    assert len(hom_basis(M2, M3)) == 1
    assert not is_iso(M2, M3)
    assert is_iso(M2, M2)


def test_iso_conjugation_invariant(s3):
    G = s3
    M = sym_power(G, 3)
    assert is_iso(M, _conjugate(M, np.random.default_rng(9)))
    assert not is_iso(M, sym_power(G, 2))


def _iso_by_enumeration(M: ModuleRep, N: ModuleRep) -> bool:
    """Oracle: does any nonzero combination of the Hom(M, N) basis have full rank?"""
    if M.dim != N.dim:
        return False
    F, H = M.field, hom_basis(M, N)
    for code in range(1, F.q ** len(H)):
        coeffs = code // F.q ** np.arange(len(H)) % F.q
        if la.rank(F, _span_element(F, H, coeffs)) == M.dim:
            return True
    return False


def test_iso_detail_matches_enumeration():
    F9 = make_field(3, 2)
    klein = klein_group()
    c3_on_p3 = close_group(F9, [np.array([[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0],
                                          [0, 0, 0, 1]], dtype=np.int64)])
    rng = np.random.default_rng(21)
    seen = {True: 0, False: 0}
    for G, n_max in ((s3_group(), 14), (klein, 8), (c3_on_p3, 5)):
        reg = Registry(G)
        for n in range(n_max + 1):
            decompose(sym_power(G, n), reg, seed=n)
        classes = list(reg.entries.values())
        if G is klein:
            classes += [_klein_rho(G, c) for c in (1, 2, 3)]
        for M in classes:
            for N in classes + [_conjugate(M, rng)]:
                ok, phi = _iso_detail(M, N)
                assert ok == _iso_by_enumeration(M, N)
                seen[ok] += M.dim == N.dim
                if ok:
                    F = M.field
                    assert la.rank(F, phi) == M.dim
                    assert all(np.array_equal(la.mat_mul(F, phi, A), la.mat_mul(F, B, phi))
                               for A, B in zip(M.mats, N.mats))
                else:
                    assert phi is None
    assert seen == {True: 26, False: 12}, seen  # same-dimension pairs


def test_is_iso_on_decomposable_modules(s3):
    G = s3
    rng = np.random.default_rng(13)
    for n in range(2, 9):
        M = sym_power(G, n)
        assert is_iso(M, _conjugate(M, rng)), n
    K = klein_group()
    r1, r2, r3 = (_klein_rho(K, c) for c in (1, 2, 3))
    assert is_iso(direct_sum(r1, r2), _conjugate(direct_sum(r2, r1), rng))
    assert not is_iso(direct_sum(r1, r2), direct_sum(r1, r3))
    with pytest.raises(ValueError):
        is_iso(r1, sym_power(G, 1))


def test_extend_scalars_preserves_structure():
    G = cyclic_group(2)
    V2 = sym_power(G, 1)
    E = extend_scalars(V2, 2)
    assert (E.field.p, E.field.e) == (2, 2)
    assert E.group.order == 2
    reg = Registry(E.group)
    vec = decompose(E, reg, seed=3)
    assert len(vec) == 1 and reg.dim_of(vec) == 2


def test_extend_scalars_keeps_klein_family_apart():
    G = klein_group()
    M2 = sym_power(G, 1)
    M3 = _klein_rho(G, 3)
    E2, E3 = extend_scalars(M2, 2), extend_scalars(M3, 2)
    assert E2.field.q == 16 and E2.group is E3.group
    assert not is_iso(E2, E3)


def test_extend_scalars_group_belongs_to_the_source_group():
    G = s3_group()
    M, N = sym_power(G, 1), sym_power(G, 3)
    E = extend_scalars(M, 2)
    assert E.group is extend_scalars(N, 2).group
    assert E.group is extended_group(G, 2) and E.group.order == 6
    other = s3_group()
    assert extend_scalars(sym_power(other, 1), 2).group is not E.group


def test_sub_and_quotient_rows_match_full_products(s3):
    """Both constructions compute only the rows they keep; the full products
    cut down to those rows afterwards must agree with them exactly."""
    G = s3
    rng = np.random.default_rng(3)
    ranks = set()
    for M in (sym_power(G, 5), extend_scalars(sym_power(G, 6), 2)):
        F = M.field
        H = hom_basis(M, M)
        for _ in range(4):
            phi = _span_element(F, H, rng.integers(0, F.q, len(H)))
            B, piv = _colspace_canonical(F, phi)
            ranks.add(len(piv) / M.dim)
            sub = submodule(M, phi)
            assert all(np.array_equal(X, la.mat_mul(F, A, B)[piv])
                       for X, A in zip(sub.mats, M.mats))
            R, rk, rpiv = la.rref(F, phi.T)
            free = [c for c in range(M.dim) if c not in rpiv]
            quo = quotient_module(M, phi)
            for X, A in zip(quo.mats, M.mats):
                W = A[:, free]
                assert np.array_equal(X, F.vec_sub(W, la.mat_mul(F, R[:rk].T, W[rpiv]))[free])
    assert any(0 < x < 1 for x in ranks)


def test_quotient_module_dims(c2):
    G = c2
    M = sym_power(G, 3)
    # the trace image spans an invariant line inside the free part
    T = _trace(G.field, M.orbit(la.identity(M.dim)))
    Q = quotient_module(M, T)
    assert Q.dim == M.dim - la.rank(G.field, T)


def test_registry_roundtrip(tmp_path, s3):
    G = s3
    reg = Registry(G)
    vectors = {n: decompose(sym_power(G, n), reg, seed=n) for n in range(5)}
    path = str(tmp_path / "reg.json")
    save_registry(reg, path, vectors)
    reg2, vectors2 = load_registry(path, G)
    assert vectors2 == vectors
    assert list(reg2.entries) == list(reg.entries)
    for mid, mod in reg.entries.items():
        assert reg2.entries[mid].dim == mod.dim
        assert all(np.array_equal(A, B) for A, B in zip(reg2.entries[mid].mats, mod.mats))
    # matching against the reloaded registry reuses the same ids
    vec = decompose(sym_power(G, 4), reg2, seed=99)
    assert vec == decompose(sym_power(G, 4), reg, seed=99)
    # the document is one file, and saving what was loaded gives the same bytes
    assert os.listdir(tmp_path) == ["reg.json"]
    save_registry(reg2, str(tmp_path / "again.json"), vectors2)
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "reg.json").read_bytes()


def test_registry_ids_follow_isomorphism_classes():
    """Non-isomorphic classes of one dimension get their own ids, and a
    conjugate of each matches its own id without minting a new one."""
    G = klein_group()
    reg = Registry(G)
    classes = [_klein_rho(G, c) for c in (1, 2, 3)]
    assert [reg.match_or_insert(M) for M in classes] == [0, 1, 2]
    rng = np.random.default_rng(5)
    assert [reg.match_or_insert(_conjugate(M, rng)) for M in classes] == [0, 1, 2]
    assert len(reg.entries) == 3


def test_registry_rollback_forgets_classes_and_kg(s3):
    G = s3
    reg = Registry(G)
    assert reg.match_or_insert(ModuleRep(G, [la.identity(1)] * 2)) == 0
    mark = reg.mark()
    kg = reg.regular_vec(0)
    classes = len(reg.entries)
    assert classes > 1
    reg.rollback(mark)
    assert list(reg.entries) == [0]
    # kG is split again, and its classes get the ids they got the first time
    assert reg.regular_vec(0) == kg
    assert len(reg.entries) == classes
    mark = reg.mark()
    reg.match_or_insert(ModuleRep(G, [la.identity(5)] * 2))
    reg.rollback(mark)
    assert reg.mark() == mark


def test_dvec_helpers():
    a = {0: 2, 1: 1}
    b = {1: 1, 2: 3}
    assert dvec_add(a, b) == {0: 2, 1: 2, 2: 3}
    assert dvec_scale(a, 0) == {}
    assert dvec_add(a, dvec_scale(a, -1)) == {}


def test_trivial_isotypic_blocks_split_deterministically():
    # identity action of any multiplicity must come apart into trivial lines,
    # even conjugated away from the obvious basis
    F9 = make_field(3, 2)
    g = np.array([[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.int64)
    G = close_group(F9, [g])
    rng = np.random.default_rng(14)
    for s in range(2, 9):
        P = rand_invertible(F9, rng, s)
        mats = [la.mat_mul(F9, la.mat_mul(F9, la.inv(F9, P), la.identity(s)), P)]
        M = ModuleRep(G, mats)
        reg = Registry(G)
        vec = decompose(M, reg, seed=s)
        assert len(vec) == 1
        ((mid, mult),) = vec.items()
        assert mult == s and reg.entries[mid].dim == 1


def test_permutation_cycle_plus_fixed_line_sym_powers():
    # cyclic shift of three coordinates plus a fixed one: every symmetric power
    # is a permutation module, so it splits into free orbits plus one trivial
    # line per monomial of shape (i, i, i, n-3i)
    F9 = make_field(3, 2)
    g = np.array([[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.int64)
    G = close_group(F9, [g])
    reg = Registry(G)
    for n in range(13):
        vec = decompose(sym_power(G, n), reg, seed=n)
        by_dim = {}
        for mid, mult in vec.items():
            d = reg.entries[mid].dim
            by_dim[d] = by_dim.get(d, 0) + mult
        fixed = n // 3 + 1
        dim = (n + 1) * (n + 2) * (n + 3) // 6
        assert by_dim.get(1, 0) == fixed, n
        assert by_dim.get(3, 0) == (dim - fixed) // 3, n
    assert len(reg.entries) == 2


def _perm(n, images):
    P = np.zeros((n, n), dtype=np.int64)
    P[images, np.arange(n)] = 1
    return P


@pytest.mark.parametrize("p,e,gens,degrees", [
    (2, 2, [[1, 0]], (3, 6)),                              # C2 on P^1 over GF(4)
    (3, 1, [[1, 2, 0]], (4, 7)),                           # C3 on P^2 over GF(3)
    (3, 2, [[1, 2, 0, 3]], (3, 5)),                        # C3 on P^3 over GF(9)
    (2, 1, [[1, 0, 3, 2], [2, 3, 0, 1]], (2, 4)),          # Klein four, regular, GF(2)
], ids=["C2-GF4", "C3-GF3", "C3-GF9", "Klein-GF2"])
def test_orbit_rref_skips_unit_rows_and_keeps_the_quotient(p, e, gens, degrees):
    """The p-group peel against `la.rref` of the whole orbit stack.

    Permutation Sym^n modules and dense conjugates of them: the quotient
    `_peel_free` returns is the one the full stack gives.
    """
    F = make_field(p, e)
    G = close_group(F, [_perm(len(g), g) for g in gens])
    assert p_part(G.order, p) == G.order > 1
    rng = np.random.default_rng(2024 + F.q)
    for n in degrees:
        S = sym_power(G, n)
        for M in (S, _conjugate(S, rng)):
            acts = M.orbit(la.identity(M.dim))
            T = acts[0]
            for a in acts[1:]:
                T = F.vec_add(T, a)
            pivT = la.pivot_columns(F, T)
            assert pivT == la.rref(F, T)[2] and pivT
            want = la.rref(F, np.vstack([a[:, pivT].T for a in acts]))
            assert want[1] == len(pivT) * G.order
            s, Q = _peel_free(M, None)
            Qw = _quotient_from_rowspace(M, want[0][:want[1]], want[2])
            assert s == len(pivT) and Q.dim == Qw.dim == M.dim - want[1]
            assert all(np.array_equal(X, Y) for X, Y in zip(Q.mats, Qw.mats))


def _same_peel(got, want):
    (s1, Q1), (s2, Q2) = got, want
    return s1 == s2 and Q1.dim == Q2.dim and all(
        X.dtype == Y.dtype and np.array_equal(X, Y) for X, Y in zip(Q1.mats, Q2.mats))


def _monomial_2group_gf4():
    """g = [[0, w], [w^2, 0]] over GF(4) (order 2), and the Klein four-group
    generated by diag(g, g) and the block swap, whose orbits on monomials
    include ones of size 2 as well as regular ones and fixed lines."""
    F = make_field(2, 2)
    w = 2
    w2 = F.mul(w, w)
    assert w2 not in (0, 1) and F.mul(w, w2) == 1
    g = np.array([[0, w], [w2, 0]], dtype=np.int64)
    swap = np.zeros((4, 4), dtype=np.int64)
    swap[[0, 1, 2, 3], [2, 3, 0, 1]] = 1
    return [close_group(F, [g]), close_group(F, [la.block_diag([g, g]), swap])]


@pytest.mark.parametrize("case", ["C3-GF9", "C3-on-P3-GF9", "C2-GF4-scalars", "Klein-GF4-scalars"])
def test_orbit_route_matches_the_trace_route(case):
    """The monomial peel against the trace-pivot route, kept as its oracle.

    Sym^n of the 3-cycle over GF(9) for n = 0..12 (free when 3 does not
    divide n on P^2, never free on P^3) and monomial 2-group actions over
    GF(4) with non-unit scalars (Sym^n on P^1 free for odd n, Sym^1 of the
    Klein action regular): the same s and the same quotient arrays, and
    `_peel_free` takes the orbit route.
    """
    F9 = make_field(3, 2)
    groups = {"C3-GF9": close_group(F9, [_perm(3, [1, 2, 0])]),
              "C3-on-P3-GF9": close_group(F9, [_perm(4, [1, 2, 0, 3])])}
    groups["C2-GF4-scalars"], groups["Klein-GF4-scalars"] = _monomial_2group_gf4()
    G = groups[case]
    assert p_part(G.order, G.field.p) == G.order > 1
    free_seen = partial_seen = False
    for n in range(13 if G.field.q == 9 else 9):
        M = sym_power(G, n)
        if M.dim < G.order:
            continue
        perms = _monomial_perms(M)
        assert perms is not None, (case, n)
        got = _peel_orbits(M, perms)
        assert _same_peel(got, _peel_trace(M)), (case, n)
        assert _same_peel(_peel_free(M, None), got), (case, n)
        free_seen |= got[1].dim == 0
        partial_seen |= 0 < got[1].dim < M.dim and got[0] > 0
    assert partial_seen
    assert free_seen == (case != "C3-on-P3-GF9")  # z_3^n is fixed on P^3


def test_dense_conjugate_takes_the_trace_route(monkeypatch):
    """A conjugated Sym^n is not monomial: `_peel_free` gives it to the trace
    route, with the free rank of the monomial module it came from."""
    F = make_field(3, 2)
    G = close_group(F, [_perm(4, [1, 2, 0, 3])])
    M = sym_power(G, 7)
    C = _conjugate(M, np.random.default_rng(31))
    assert _monomial_perms(C) is None
    routes = []
    for name in ("_peel_orbits", "_peel_trace"):
        real = getattr(modules, name)
        monkeypatch.setattr(modules, name, lambda *a, real=real, name=name:
                            routes.append(name) or real(*a))
    s, Q = _peel_free(C, None)
    assert routes == ["_peel_trace"]
    assert s == _peel_free(M, None)[0] > 0 and Q.dim == M.dim - s * G.order
    assert routes == ["_peel_trace", "_peel_orbits"]


def test_p_group_peel_hashes_nothing(monkeypatch):
    """With `ModuleRep.key` refusing, Sym^n of C3 permuting P^3's coordinates
    over GF(9), n = 0..12, still splits as it does with the key: the fixed
    monomials z0^a z1^a z2^a z3^b give the trivial summands (id 0) and the
    other lines, in regular orbits, kG (id 1).  So does a dense conjugate,
    which the trace route peels.  The ramp of a group that is not a p-group
    (S3 on P^1 over GF(2)) still seeds from the key of the module it peels."""
    class Hashed(Exception):
        pass

    def refuse(M):
        raise Hashed(M)

    F = make_field(3, 2)
    G = close_group(F, [_perm(4, [1, 2, 0, 3])])
    reg, rng = Registry(G), np.random.default_rng(5)
    monkeypatch.setattr(ModuleRep, "key", refuse)
    for n in range(13):
        fixed = n // 3 + 1
        want = {mid: k for mid, k in ((0, fixed), (1, (sym_dim(4, n) - fixed) // 3)) if k}
        S = sym_power(G, n)
        assert decompose(S, reg, seed=n) == want, n
        assert decompose(_conjugate(S, rng), reg, seed=n) == want, n
    M = sym_power(s3_group(), 7)
    with pytest.raises(Hashed) as hashed:
        decompose(M, Registry(M.group), seed=7)
    assert hashed.value.args[0] is M


def test_ramp_extends_its_rref_from_leads(monkeypatch):
    """The ramp of a peel over a group that is not a p-group (S3 permuting
    P^2's coordinates over GF(2)) stacks new orbit rows, of unknown lead,
    above its RREF and extends it with `la.echelon_from_leads`.  For every
    call the pivots, and the RREF after back-substitution, are those of the
    reference elimination of the same rows, and some step onto a nonempty
    basis is accepted."""
    F = make_field(2)
    G = close_group(F, [_perm(3, [1, 0, 2]), _perm(3, [1, 2, 0])])
    assert p_part(G.order, F.p) < G.order
    real = la.echelon_from_leads
    steps = []

    def from_leads(F, W, leads):
        A = W.copy()
        W, piv = real(F, W, leads)
        R, p = _echelon_naive(F, A)
        assert piv == p
        B = W.copy()
        la.back_substitute(F, B, piv)
        assert np.array_equal(B, R)
        steps.append((int(np.count_nonzero(leads >= 0)), len(piv) == len(leads)))
        return W, piv

    monkeypatch.setattr(la, "echelon_from_leads", from_leads)
    for n in range(2, 13):
        s, Q = _peel_free(sym_power(G, n), n)
        assert Q.dim == sym_power(G, n).dim - s * G.order
    assert any(basis and accepted for basis, accepted in steps)
