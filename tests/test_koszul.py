"""Koszul complex construction, exactness, and splitting checks.

The C2-on-the-plane fixture over GF(4) is small enough that each complex
builds in milliseconds, yet its cokernel and stage behavior are the real
thing.  The fast paths (the quotients read off each map's image RREF,
stage classes from the quotients C_s / im tau_(s+1)) are differentially
tested against direct eliminations and against the direct
short-exact-sequence route so they cannot drift, and the multiplication
blocks a complex holds against the dense assembly of its maps
(`oracles.koszul_map`).  The P^3 fixture over GF(9)
adds complexes where the cokernel is not free or exactness fails, so the
fallback routes meet the same oracle.
"""

import dataclasses
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from sympow import koszul as kz
from sympow import linalg as la
from sympow.gf import make_field
from sympow.groups import ModuleRep, close_group, monomials, sym_dim, sym_power
from sympow.koszul import (_verify_complex, build_complex,
                           check_exact, check_split_stagewise, choose_forms,
                           euler_identity, form_product, is_invariant_form,
                           mul_form_matrix, surface_progression_check)
from sympow.modules import (Registry, _colspace_canonical, child_seed, decompose, dvec_add,
                            dvec_scale, free_rank, module_on_basis)
from sympow.pipeline import (JobConfig, Sweep, _run_koszul, canonical_json, config_from_dict,
                             job_key, run)
from sympow.polyfit import HOLDOUT

from oracles import direct_sum, koszul_map, quotient_module, rand_invertible, ses_split_check

SEED = 11


def plane_fixture():
    F = make_field(2, 2)
    G = close_group(F, [np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=np.int64)])
    forms, K = choose_forms(G, 2, SEED)
    return G, forms, K.m


@pytest.fixture(scope="module")
def plane():
    return plane_fixture()


@pytest.fixture(scope="module")
def p3():
    """The 3-cycle on three of four coordinates of P^3 over GF(9)."""
    F = make_field(3, 2)
    P = np.zeros((4, 4), dtype=np.int64)
    P[[0, 1, 2, 3], [2, 0, 1, 3]] = 1
    G = close_group(F, [P])
    forms, K = choose_forms(G, 3, SEED)
    return G, forms, K.m


@pytest.fixture(scope="module")
def complexes(plane, p3):
    """Exact and inexact complexes over GF(4) and GF(9)."""
    G2, f2, _ = plane
    G3, f3, _ = p3
    return [build_complex(G2, f2, t=3, j=0), build_complex(G2, f2, t=2, j=1),
            build_complex(G2, [f2[0], f2[0]], t=2, j=0),
            build_complex(G3, f3, t=3, j=1),
            build_complex(G3, [f3[0], f3[0], f3[1]], t=3, j=0)]


def test_trivial_group_line_complex():
    F = make_field(3)
    G = close_group(F, [np.eye(2, dtype=np.int64)])
    forms, K = choose_forms(G, 1, seed=4)
    assert K.m == 1 and len(forms) == 1 and forms[0].shape == (2,)
    for t in (1, 2, 5):
        K = build_complex(G, forms, t=t, j=0)
        assert [K.dim(r) for r in range(K.top + 1)] == [t + 1, t]
        rep = check_exact(K)
        assert rep["exact"] and rep["coker_dim"] == 1


def test_term_dims_follow_binomials(plane):
    G, forms, m = plane
    K = build_complex(G, forms, t=3, j=1)
    expect = [math.comb(m * (3 - r) + 1 + 2, 2) * math.comb(2, r) for r in range(3)]
    assert [K.dim(r) for r in range(K.top + 1)] == expect


def test_build_rejects_bad_levels(plane):
    G, forms, m = plane
    with pytest.raises(ValueError):
        build_complex(G, forms, t=0, j=0)
    with pytest.raises(ValueError):
        build_complex(G, forms, t=2, j=m)


def test_norm_forms_are_invariant_and_generic_forms_are_not(plane):
    G, forms, m = plane
    for N in forms:
        assert is_invariant_form(G, N, m)
    y_sq = np.zeros(len(monomials(3, m)), dtype=np.int64)
    y_sq[monomials(3, m).tolist().index([0, 2, 0])] = 1
    assert not is_invariant_form(G, y_sq, m)


def test_form_product_expands_linear_factors():
    F = make_field(3)
    prod = form_product(F, [np.array([1, 1], dtype=np.int64),
                            np.array([1, 2], dtype=np.int64)])
    # (x + y)(x + 2y) = x^2 + 2y^2 over GF(3)
    assert prod.tolist() == [1, 0, 2]


def _poly_mul(F, a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = tuple(x + y for x, y in zip(ma, mb))
            out[key] = F.add(out.get(key, 0), F.mul(ca, cb))
    return {k: v for k, v in out.items() if v}


def test_mul_form_matrix_matches_dict_oracle():
    F = make_field(2, 2)
    rng = np.random.default_rng(9)
    form = rng.integers(0, 4, size=len(monomials(3, 2)), dtype=np.int64)
    form[0] = 1
    M = mul_form_matrix(form, 2, 2, 3)
    src = [tuple(m) for m in monomials(3, 2).tolist()]
    fdict = {m: int(c) for m, c in zip(src, form) if c}
    dst_index = {tuple(m): i for i, m in enumerate(monomials(3, 4).tolist())}
    for col, mono in enumerate(src):
        prod = _poly_mul(F, fdict, {mono: 1})
        expect = np.zeros(M.shape[0], dtype=np.int64)
        for m, c in prod.items():
            expect[dst_index[m]] = c
        assert np.array_equal(M[:, col], expect)


def test_complex_identities_hold_densely(complexes, p3_noncoker):
    """tau o tau = 0 and tau rho = rho tau as dense products, on every
    fixture complex: the oracle for the build's checks, which multiply no
    block (equivariance is read off the forms' invariance)."""
    for K in complexes + [p3_noncoker]:
        F = K.group.field
        maps = [K.map(r) for r in range(K.top)]
        for r in range(K.top - 1):
            assert not np.any(la.mat_mul(F, maps[r], maps[r + 1])), (K.t, K.j, r)
        for r in range(K.top):
            src, dst = K.term(r + 1), K.term(r)
            for A, B in zip(src.mats, dst.mats):
                left = la.mat_mul(F, maps[r], A)
                assert np.array_equal(left, la.mat_mul(F, B, maps[r])), (K.t, K.j, r)


def test_blocks_assemble_the_dense_maps(complexes, p3_noncoker):
    """`map(r)`, assembled from the stored multiplication blocks, is the
    dense signed-multiplication differential, on every fixture complex."""
    for K in complexes + [p3_noncoker]:
        for r in range(K.top):
            assert np.array_equal(K.map(r), koszul_map(K, r)), (K.t, K.j, r)


def test_exactness_across_levels(plane):
    G, forms, m = plane
    for t in (2, 3, 4):
        for j in (0, 1):
            rep = check_exact(build_complex(G, forms, t=t, j=j))
            assert rep["exact"], (t, j)
            assert rep["coker_dim"] == m ** 2


def test_repeated_form_breaks_exactness(plane):
    G, forms, _ = plane
    K = build_complex(G, [forms[0], forms[0]], t=2, j=0)
    rep = check_exact(K)
    assert not rep["exact"] and 1 in rep["inexact_at"]


def oracle_vectors(K, reg):
    """The Sym class of every term of K, each Sym^k decomposed directly into reg."""
    degs = sorted({K.m * (K.t - r) + K.j for r in range(K.top + 1)})
    return {k: decompose(sym_power(K.group, k), reg, SEED) for k in degs}


def test_stagewise_matches_direct_ses_route(plane):
    G, forms, _ = plane
    for j in (0, 1):
        reg = Registry(G)
        K = build_complex(G, forms, t=3, j=j)
        out = check_split_stagewise(K, reg, seed=SEED, sym_vectors=oracle_vectors(K, reg))
        assert out["all_split"] and out["coker_free"]
        assert out["coker_free_rank"] * G.order == 4
        for stage in out["stages"]:
            r = stage["r"]
            Kb, _ = K.kernel(r - 1)
            assert ses_split_check(K.term(r), Kb, reg, seed=SEED) == stage["split"], (j, r)


def test_stagewise_accepts_precomputed_sym_vectors(plane):
    G, forms, m = plane
    reg = Registry(G)
    degs = {m * (3 - r) + 1 for r in range(3)}
    sv = {k: decompose(sym_power(G, k), reg, SEED) for k in degs}
    K = build_complex(G, forms, t=3, j=1)
    out = check_split_stagewise(K, reg, seed=SEED, sym_vectors=sv)
    assert out["all_split"] and out["coker_free"]


def test_kernel_is_the_canonical_rref_basis(complexes):
    assert any(not check_exact(K)["exact"] for K in complexes)
    for K in complexes:
        F = K.group.field
        for r in range(K.top):
            A = K.map(r)
            B, lead = _colspace_canonical(F, la.kernel_from_rref(F, *la.rref(F, A), A.shape[1]))
            Kb, klead = K.kernel(r)
            assert np.array_equal(Kb, B) and klead == lead
            assert not np.any(la.mat_mul(F, A, Kb))


def test_cokernel_from_pivot_columns_matches_full_quotient(complexes):
    for K in complexes:
        full = quotient_module(K.term(0), K.map(0))
        coker = K.cokernel()
        assert coker.dim == full.dim
        assert all(np.array_equal(a, b) for a, b in zip(coker.mats, full.mats))


@pytest.fixture(scope="module")
def p3_noncoker(p3):
    """The forms job seed 1241856672 draws (benchmark seed 43), at t = 3, j = 0.

    The complex is exact, but its cokernel is not free, and stage 1 does not
    split.
    """
    G, _, _ = p3
    _, K = choose_forms(G, 3, child_seed(1241856672, "forms"))
    assert (K.t, K.j) == (3, 0)
    return K


def test_seed_43_job_reports_a_cokernel_that_is_not_free():
    """The benchmark's P^3 job at job seed 1241856672 (benchmark seed 43):
    every complex is exact, but its cokernel is not free and stage 1 does
    not split, so the benchmark gate refuses it.  The report's bytes are
    pinned: the first 16 hex digits of the sha256 of `canonical_json`."""
    cfg = config_from_dict({
        "field": {"p": 3, "e": 2},
        "generators": ["4 4\n00 00 10 00\n10 00 00 00\n00 10 00 00\n00 00 00 10\n"],
        "n_max": 17, "checks": ["decompose", "koszul"], "seed": 1241856672})
    report = run(cfg)
    assert report["errors"] == {}
    complexes = report["checks"]["koszul"]["complexes"]
    assert len(complexes) == 9
    for c in complexes:
        assert c["exact"] and not c["all_split"] and not c["coker_free"], (c["t"], c["j"])
        assert c["stages"][0] == {"r": 1, "split": False}
    text = canonical_json(report)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "b7a3e2ce079778c2"


def test_stage_routes_match_the_ses_oracle(complexes, p3_noncoker):
    """Every stage verdict against `ses_split_check` on the P^3 / GF(9) group.

    (a) exact with a free cokernel, where every class comes from the
    quotients Q_s; (b) exact with a cokernel that is not free, where stage 1
    decomposes Q_1; (c) inexact, where kernels are
    eliminated and decomposed.  The oracle's kernel comes from the map
    directly, not from `KoszulComplex.kernel`.
    """
    cases = {"a": complexes[3], "b": p3_noncoker, "c": complexes[4]}
    verdicts = {}
    for name, K in cases.items():
        F = K.group.field
        reg = Registry(K.group)
        out = check_split_stagewise(K, reg, seed=SEED, sym_vectors=oracle_vectors(K, reg))
        for stage in out["stages"]:
            r = stage["r"]
            Kb = la.kernel_basis(F, K.map(r - 1))
            assert stage["kernel_dim"] == Kb.shape[1], (name, r)
            assert ses_split_check(K.term(r), Kb, reg, seed=SEED) == stage["split"], (name, r)
        verdicts[name] = (check_exact(K)["exact"], out["coker_free"],
                          [s["split"] for s in out["stages"]])
        if name == "b":
            kg = reg.regular_vec(SEED)
            q = free_rank(out["coker_vector"], reg, SEED)
            rest = {mid: v for mid, v in out["coker_vector"].items() if v != kg.get(mid, 0) * q}
            assert q == 7 and sorted((reg.entries[mid].dim, v) for mid, v in rest.items()) \
                == [(1, 2), (2, 2)]
        for r in range(K.top):
            R, rk, piv = la.rref(F, K.map(r).T)
            got, got_rk, got_piv = K.image_rref(r)
            assert got_rk == rk and got_piv == piv, (name, r)
            assert np.array_equal(got[:rk], R[:rk]) and not np.any(got[rk:]), (name, r)
    assert verdicts["a"] == (True, True, [True, True, True])
    assert verdicts["b"][:2] == (True, False) and verdicts["b"][2][0] is False
    assert verdicts["c"][0] is False


def _count_eliminations(monkeypatch):
    """Record every elimination from here on: (scattered, forward, back).

    `scattered` gets, per `la.echelon_from_leads` call, the shape of the
    rows scattered from a complex's blocks, how many of them repeat a lead,
    and the input shapes of the forward eliminations made inside it;
    `forward` and `back` get the input shape of every forward elimination
    and back-substitution.
    """
    scattered, forward, back = [], [], []
    real_leads, real_forward, real_back = (la.echelon_from_leads, la.forward_echelon,
                                           la.back_substitute)

    def from_leads(F, W, leads):
        seen, shape = len(forward), W.shape
        out = real_leads(F, W, leads)
        scattered.append((shape, len(leads) - len(np.unique(leads)), forward[seen:]))
        return out

    monkeypatch.setattr(la, "echelon_from_leads", from_leads)
    monkeypatch.setattr(la, "forward_echelon",
                        lambda F, A, **kw: forward.append(A.shape) or real_forward(F, A, **kw))
    monkeypatch.setattr(la, "back_substitute",
                        lambda F, W, pivots: back.append(W.shape) or real_back(F, W, pivots))
    return scattered, forward, back


def _only_repeats_eliminated(scattered, forward):
    """Whether every forward elimination ran inside `la.echelon_from_leads`,
    on exactly the scattered rows whose lead repeats."""
    inner = [x for _, _, calls in scattered for x in calls]
    return sorted(inner) == sorted(forward) and all(
        [rows for rows, _ in calls] == ([repeats] if repeats else [])
        for _, repeats, calls in scattered)


def test_signature_leads_are_the_pivots_of_tau_2(complexes, p3_noncoker):
    """L, the leading positions of im tau_2 that the signature rule finds,
    is the pivot set of a full RREF of tau_2 transposed on every fixture
    complex: the exact ones, whose forms are regular sequences, and the
    repeated-form ones, whose only extra syzygy is the trivial one."""
    for K in complexes + [p3_noncoker]:
        assert K.top >= 2
        piv = la.rref(K.group.field, K.map(1).T)[2]
        assert K._signature_leads().tolist() == piv, (K.t, K.j)


def test_row_leads_match_a_dense_scan(complexes, p3_noncoker):
    """The leads read off the shift forms are the first nonzero columns of
    the scattered rows, which are the rows of the dense map sorted by lead.
    The top map's rows and one form's rows (a one-form Leads) all lead at
    distinct columns, so they eliminate nothing."""
    for K in complexes + [p3_noncoker]:
        for r in range(K.top):
            n = K.dim(r + 1)
            W, lead = K._rows_by_lead(r, K.faces[r], np.ones(n, dtype=bool), K.dim(r))
            nonzero = W != 0
            assert nonzero.any(axis=1).all() and np.array_equal(lead, nonzero.argmax(axis=1))
            assert np.all(np.diff(lead) >= 0)
            dense = K.map(r).T
            order = np.argsort((dense != 0).argmax(axis=1), kind="stable")
            assert np.array_equal(W, dense[order]), (K.t, K.j, r)
            if r == K.top - 1 and K.copies(r + 1) == 1:
                assert len(np.unique(lead)) == n, (K.t, K.j)
            one = [(0, 0, 1, K.d - 1)]
            _, lead = K._rows_by_lead(r, one, np.ones(K.block_dim(r + 1), dtype=bool),
                                      K.block_dim(r))
            assert len(np.unique(lead)) == len(lead), (K.t, K.j, r)


def _count_maps(monkeypatch):
    """Record the r of every dense tau_(r+1) assembled (`KoszulComplex.map`)
    from here on."""
    assembled = []
    real_map = kz.KoszulComplex.map
    monkeypatch.setattr(kz.KoszulComplex, "map",
                        lambda self, r: assembled.append(r) or real_map(self, r))
    return assembled


def test_exact_complex_eliminates_each_map_once(p3, monkeypatch):
    """On an all-exact complex with a free cokernel the split check
    assembles no dense map and never eliminates the middle map: rank tau_2
    is |L| and tau_1 drops the rows at L.  tau_1 and tau_3 each have their
    rows scattered once, only the rows whose lead repeats reach
    `forward_echelon` (none of tau_3's), and only the RREFs that are read,
    for Q_0 and Q_2, are reduced.  Reading Q_1 (`quotient(1)`) then
    scatters tau_2's rows once, those tau_3's pivots leave free.  The
    eliminations inside `decompose` are not the complex's and are not
    counted.
    """
    G, forms, _ = p3
    K = build_complex(G, forms, t=3, j=1)
    F = G.field
    maps = [K.map(r) for r in range(K.top)]
    ranks = [la.rank(F, A) for A in maps] + [0]
    reg = Registry(G)
    sv = oracle_vectors(K, reg)
    scattered, forward, back = _count_eliminations(monkeypatch)
    assembled = _count_maps(monkeypatch)
    real_decompose = kz.decompose

    def uncounted(M, registry, seed):
        seen = len(scattered), len(forward), len(back)
        out = real_decompose(M, registry, seed)
        for calls, n in zip((scattered, forward, back), seen):
            del calls[n:]
        return out

    monkeypatch.setattr(kz, "decompose", uncounted)
    out = check_split_stagewise(K, reg, seed=SEED, sym_vectors=sv)
    assert check_exact(K)["exact"] and K.top == 3
    assert out["coker_free"] and out["all_split"]
    by_map = [[x for x in scattered if x[0][1] == A.shape[0]] for A in maps]
    L = K._signature_leads()
    assert [[x[0] for x in xs] for xs in by_map] == \
        [[(K.dim(1) - len(L), K.dim(0))], [], [(K.dim(3), K.dim(2))]]
    assert by_map[0][0][1] > 0 and by_map[2][0][1] == 0
    assert _only_repeats_eliminated(scattered, forward)
    assert len(L) == ranks[1] == K.rank(1)
    assert back == [by_map[0][0][0], by_map[2][0][0]]
    seen = len(scattered)
    K.quotient(1)
    tau_2 = (K.dim(2) - ranks[2], K.dim(1))
    assert [x[0] for x in scattered[seen:]] == [tau_2] and back[2:] == [tau_2]
    assert _only_repeats_eliminated(scattered, forward)
    assert assembled == []


def test_complement_ranks_match_full_eliminations(p3, complexes, p3_noncoker, monkeypatch):
    """Ranks, exactness and RREFs from the complement rows against whole maps.

    Exact complexes over GF(4) and GF(9), the seed-43 complex (exact, with a
    cokernel that is not free) and the repeated-form complexes, which are
    inexact.  tau_1 is eliminated on the rows outside L, and each other map
    on the rows of C_(r+1) outside the pivots of im tau_(r+2), once, with
    only the rows whose lead repeats sent to `forward_echelon`.  rank
    tau_2 eliminates tau_2 (the fallback) exactly when |L| falls short of
    dim ker tau_1, here wherever exactness fails at 1.  L lies within the
    pivots of tau_2 and equals them except with (f_0, f_1, f_1), whose
    repeated pair the signature rule does not see.
    """
    G3, f3, _ = p3
    cases = [complexes[0], complexes[1], complexes[2], complexes[3],
             build_complex(G3, f3, t=4, j=2), p3_noncoker, complexes[4],
             build_complex(G3, [f3[0], f3[1], f3[1]], t=3, j=0)]
    scattered, forward, _ = _count_eliminations(monkeypatch)
    inexact_seen, short_leads = 0, 0
    for K in cases:
        K = dataclasses.replace(K, echelons={}, reduced=set(), leads={})
        F = K.group.field
        maps = [K.map(r) for r in range(K.top)]
        full = [la.rref(F, A.T) for A in maps]
        ranks = [rk for _, rk, _ in full] + [0]
        L = set(K._signature_leads().tolist())
        assert L <= set(full[1][2])
        short_leads += len(L) < ranks[1]
        scattered.clear()
        forward.clear()
        assert [K.rank(r) for r in range(K.top)] == ranks[:-1]
        for r in range(1, K.top + 1):
            exact = K.dim(r) - ranks[r - 1] == ranks[r]
            assert K.is_exact(r) == exact
            inexact_seen += not exact
        tau_2_eliminated = [x for x in scattered if x[0][1] == K.dim(1)]
        assert bool(tau_2_eliminated) == (len(L) != K.dim(1) - ranks[0])
        assert len(tau_2_eliminated) <= 1
        assert [x[0] for x in scattered if x[0][1] == K.dim(0)] == [(K.dim(1) - len(L), K.dim(0))]
        assert _only_repeats_eliminated(scattered, forward)
        for r, (R, rk, piv) in enumerate(full):
            got, got_rk, got_piv = K.image_rref(r)
            assert got_rk == rk and got_piv == piv
            assert np.array_equal(got[:rk], R[:rk]) and not np.any(got[rk:])
    assert inexact_seen == 3 and short_leads == 1


def _dense_verdict(K):
    """The first tau_(r+1) o tau_(r+2) whose dense product is nonzero, or None."""
    F = K.group.field
    for r in range(K.top - 1):
        if np.any(la.mat_mul(F, K.map(r), K.map(r + 1))):
            return f"tau_{r + 1} o tau_{r + 2}"
    return None


def _block_verdict(K):
    """The composite `_verify_complex` rejects, or None when it passes."""
    try:
        _verify_complex(K)
    except AssertionError as exc:
        return str(exc).removesuffix(" != 0")
    return None


def _faces_changed(K, change):
    """K with the first face of tau_2 changed by `change`."""
    faces = [list(f) for f in K.faces]
    faces[1][0] = change(*faces[1][0])
    return dataclasses.replace(K, faces=faces)


def _mults_changed(K, change):
    """K with the shift form of M_0 in tau_2 replaced by `change(K, R, v)`."""
    mults = [list(level) for level in K.mults]
    mults[1][0] = change(K, *mults[1][0])
    return dataclasses.replace(K, mults=mults)


def _row_moved(K, R, v, overlap=False):
    """R with its first entry moved onto the next row of its column, or
    onto the first row the column does not hold."""
    R = R.copy()
    R[0, 0] = R[1, 0] if overlap else min(set(range(K.block_dim(1))) - set(R[:, 0].tolist()))
    return R, v


def _coefficient_changed(K, R, v):
    v = v.copy()
    v[0] = v[0] % (K.group.field.q - 1) + 1  # another nonzero code
    return R, v


DAMAGES = {
    "sign": lambda K: _faces_changed(K, lambda T, S, sign, i: (T, S, -sign, i)),
    # the P^3 fixture has three forms
    "form": lambda K: _faces_changed(K, lambda T, S, sign, i: (T, S, sign, (i + 1) % 3)),
    "row": lambda K: _mults_changed(K, _row_moved),
    "row-overlap": lambda K: _mults_changed(K, lambda K, R, v: _row_moved(K, R, v, True)),
    "coefficient": lambda K: _mults_changed(K, _coefficient_changed),
    "level": lambda K: _mults_changed(K, lambda K, R, v: K.mults[1][1]),
}


OVERLAP = "entries of M_0 into C_1 overlap or leave it"


@pytest.mark.parametrize("fixture, damage, verdict, rejected_by", [
    ("p3", "sign", "tau_1 o tau_2", "tau_1 o tau_2"),
    ("p3", "form", "tau_1 o tau_2", "tau_1 o tau_2"),
    ("plane", "sign", None, None),
    ("p3", "row", "tau_1 o tau_2", "tau_1 o tau_2"),
    ("p3", "row-overlap", "tau_1 o tau_2", OVERLAP),
    ("p3", "coefficient", "tau_1 o tau_2", "tau_1 o tau_2"),
    ("p3", "level", "tau_1 o tau_2", "tau_1 o tau_2"),
], ids=["sign", "form", "sign-char-2", "row", "row-overlap", "coefficient", "level"])
def test_verify_complex_rejects_a_damaged_block(request, fixture, damage, verdict, rejected_by):
    """One block of tau_2 damaged: a face's sign flipped, or its block taken
    from the next form; or M_0's multiplication entries with one row index
    moved (onto a row its column lacks, or onto one it holds), one
    coefficient changed, or the whole level taken from form 1 (an invariant
    form, so only the tau o tau check can see it).  The check passes only
    where the dense composite is zero.  Over GF(9) every damage makes it
    nonzero and is rejected, an entry moved onto another by the placement
    check; over GF(4) a flipped sign changes nothing, and both pass."""
    G, forms, _ = request.getfixturevalue(fixture)
    K = build_complex(G, forms, t=3, j=0)
    assert _block_verdict(K) is None and _dense_verdict(K) is None
    bad = DAMAGES[damage](K)
    assert np.array_equal(bad.map(1), K.map(1)) == (verdict is None)
    assert _dense_verdict(bad) == verdict
    assert _block_verdict(bad) == rejected_by
    assert _block_verdict(bad) is not None or _dense_verdict(bad) is None


def test_block_checks_run_once_per_map_and_pair(monkeypatch):
    """With four linear forms on P^4 the pair {a, b} meets several blocks of
    each composite, with both signs; each (r, {a, b}) is checked once."""
    F = make_field(5)
    G = close_group(F, [la.identity(5)])
    forms, _ = choose_forms(G, 4, seed=3)
    calls = []
    real = kz._commute_termwise
    monkeypatch.setattr(kz, "_commute_termwise",
                        lambda K, r, a, b: calls.append((r, {a, b})) or real(K, r, a, b))
    K = build_complex(G, forms, t=4, j=0)
    pairs = [(r, frozenset(ab)) for r, ab in calls]
    assert len(pairs) == len(set(pairs)) == (K.top - 1) * math.comb(4, 2)
    for r in range(K.top - 1):
        assert not np.any(la.mat_mul(F, K.map(r), K.map(r + 1)))


@pytest.mark.parametrize("fixture", ["plane", "p3"])
def test_build_rejects_a_non_invariant_form(request, fixture):
    """y^2 w^(m-2), w the last variable, in place of the first form: the
    transvection over GF(4) (dense Sym matrices) and the 3-cycle over GF(9)
    (permutation Sym matrices) both move y.  Multiplication by it is not
    equivariant, and the build refuses it; the dense identity agrees."""
    G, forms, m = request.getfixturevalue(fixture)
    e = np.zeros(G.dim, dtype=np.int64)
    e[1], e[-1] = 2, m - 2
    y_sq = np.zeros(len(monomials(G.dim, m)), dtype=np.int64)
    y_sq[monomials(G.dim, m).tolist().index(e.tolist())] = 1
    assert not is_invariant_form(G, y_sq, m)
    with pytest.raises(AssertionError, match="form 0 is not invariant"):
        build_complex(G, [y_sq] + forms[1:], t=2, j=0)
    M = mul_form_matrix(y_sq, m, 2, G.dim)
    assert not all(np.array_equal(la.mat_mul(G.field, M, S), la.mat_mul(G.field, T, M))
                   for S, T in zip(G.sym(2), G.sym(2 + m)))


def test_permutation_action_products_skip_the_dense_routes(p3, complexes, monkeypatch):
    # the 3-cycle makes every Sym^n matrix a permutation matrix, so the
    # products with it are gathers (la._mm_monomial)
    G, forms, _ = p3
    F = G.field
    K = complexes[3]
    Kb, lead = K.kernel(0)
    expect = [la._mm_xpow(F, A[lead], Kb) for A in K.term(1).mats]
    rng = np.random.default_rng(SEED)
    A2, B = la.identity(4), la.rand_mat(F, rng, 4, 5)
    A2[1, 3] = 1
    B[:2] = rng.integers(1, F.q, (2, 5))  # two nonzeros in every column of B
    P = G.sym(4)[0]
    F3 = make_field(3)
    B3 = la.rand_mat(F3, rng, P.shape[0], 6)

    def dense(*args, **kwargs):
        raise AssertionError("dense product")

    monkeypatch.setattr(la, "_mm_kron", dense)
    monkeypatch.setattr(la, "_mm_xpow", dense)
    # the build's checks: tau o tau term by term, the forms' invariance by gathers
    build_complex(G, forms, t=3, j=1)
    ker = module_on_basis(K.term(1), Kb, lead)
    assert all(np.array_equal(X, Y) for X, Y in zip(ker.mats, expect))
    with pytest.raises(AssertionError, match="dense product"):
        la.mat_mul(F, A2, B)
    # prime fields keep the BLAS product, with no gather in front of it
    primes = []
    real_prime = la._mm_prime
    monkeypatch.setattr(la, "_mm_monomial", dense)
    monkeypatch.setattr(la, "_mm_prime", lambda *a: primes.append(1) or real_prime(*a))
    assert np.array_equal(la.mat_mul(F3, P, B3), real_prime(3, P, B3))
    assert primes == [1]


def test_koszul_stage_holds_one_complex_at_a_time(plane, monkeypatch):
    """`pipeline._run_koszul` drops each complex before it builds the next:
    when a complex is built, every earlier one is garbage.  The first entry
    reports on the level-d complex `choose_forms` built, so (d, 0) is not
    built again."""
    G, _, _ = plane
    built = []
    real = kz.build_complex

    def tracked(G, forms, t, j):
        gc.collect()
        alive = [i for i, (ref, _) in enumerate(built) if ref() is not None]
        assert not alive, f"complexes {alive} are still alive at build {len(built)}"
        K = real(G, forms, t=t, j=j)
        built.append((weakref.ref(K), (t, j)))
        return K

    monkeypatch.setattr(kz, "build_complex", tracked)
    cfg = JobConfig(p=2, e=2, generators=[], n_max=0, seed=SEED, checks=("koszul",))
    out = _run_koszul(cfg, G, Sweep(cfg, G))
    levels = [(c["t"], c["j"]) for c in out["complexes"]]
    # choose_forms builds (2, 0) at least once, then one complex per other (t, j)
    assert levels == [(t, j) for t in (2, 3, 4) for j in (0, 1)]
    assert [tj for _, tj in built[-5:]] == levels[1:]
    assert all(tj == (2, 0) for _, tj in built[:-5])


S3_P1_GENS = ["2 2\n0 1\n1 0\n", "2 2\n1 1\n0 1\n"]
P3_GENS = ["4 4\n00 00 10 00\n10 00 00 00\n00 10 00 00\n00 00 00 10\n"]

# name: (field, generators, the Koszul top degree m(d + 2) + max j)
KOSZUL_ACTIONS = {
    "S3-P1-GF2": ({"p": 2, "e": 1}, S3_P1_GENS, 19),
    "C3-P3-GF9": ({"p": 3, "e": 2}, P3_GENS, 17),
}


def koszul_job(name, checks, n_max, **extra):
    field, gens, _ = KOSZUL_ACTIONS[name]
    return config_from_dict({"field": field, "generators": gens, "n_max": n_max, "seed": 7,
                             "checks": checks, **extra})


def _carries_a_term(M, terms):
    """Whether the module M has the matrices of a term C_r, C(d, r) copies
    of one Sym block on the diagonal, among `terms` (the (syms, copies) of
    each term of each complex built)."""
    for syms, n in terms:
        if M.dim == syms[0].shape[0] * n and all(
                np.array_equal(A, la.block_diag([B] * n)) for A, B in zip(M.mats, syms)):
            return True
    return False


@pytest.mark.parametrize("name", sorted(KOSZUL_ACTIONS))
def test_koszul_only_job_reads_every_term_class_from_the_sweep(name, monkeypatch):
    """A job that checks `koszul` alone sweeps to the top degree its
    complexes read: every complex reports its Euler multiple, the section
    equals that of a job whose `n_max` reaches that degree, and no module
    with a term's matrices, one Sym block or C(d, r) block copies, is
    decomposed for its class, whatever object carries them."""
    top = KOSZUL_ACTIONS[name][2]
    full = run(koszul_job(name, ["decompose", "koszul"], top))
    terms, carried = [], []
    real_build, real_decompose = kz.build_complex, kz.decompose

    def recording_build(G, forms, t, j):
        K = real_build(G, forms, t=t, j=j)
        terms.extend((G.sym(K.degs[r]), K.copies(r)) for r in range(K.top + 1))
        return K

    def recording_decompose(M, registry, seed):
        carried.append(_carries_a_term(M, terms))
        return real_decompose(M, registry, seed)

    monkeypatch.setattr(kz, "build_complex", recording_build)
    monkeypatch.setattr(kz, "decompose", recording_decompose)
    report = run(koszul_job(name, ["koszul"], 8))
    assert report["errors"] == {}
    complexes = report["checks"]["koszul"]["complexes"]
    assert all(c["euler_free_multiple"] is not None for c in complexes)
    assert report["checks"]["koszul"] == full["checks"]["koszul"]
    assert carried and not any(carried)
    assert report["volatile"]["cache"]["misses"] == top + 1


def test_a_koszul_only_cache_serves_a_longer_sweep(tmp_path):
    """A Koszul-only job writes the degrees its sweep took to the cache
    document, before any Koszul module is decomposed; a job to a higher
    `n_max` on that cache reads them and reports a cold run's bytes.  At the
    benchmark's seed-43 job seed the cokernels hold a 2-dimensional class
    that no Sym^k up to the top degree holds, so a document written after
    the Koszul checks would carry a class a cold sweep never mints."""
    name, top, seed = "C3-P3-GF9", KOSZUL_ACTIONS["C3-P3-GF9"][2], 1241856672
    cache = str(tmp_path / "cache")
    run(koszul_job(name, ["koszul"], 8, seed=seed, cache_dir=cache))
    warm = run(koszul_job(name, ["decompose"], top + 2, seed=seed, cache_dir=cache))
    assert warm["volatile"]["cache"] == {"hits": top + 1, "misses": 2, "corrupt": 0}
    cold = run(koszul_job(name, ["decompose"], top + 2, seed=seed))
    assert canonical_json(warm) == canonical_json(cold)


def test_koszul_past_n_max_leaves_the_sweep_sections_alone():
    """S3 on P^1 at `n_max` 12, below the Koszul top degree 19: the sections
    read off the sweep to `n_max` are those of the same job without
    `koszul`, and every complex reports its Euler multiple."""
    name = "S3-P1-GF2"
    report = run(koszul_job(name, ["decompose", "description", "koszul"], 12))
    alone = run(koszul_job(name, ["decompose", "description"], 12))
    assert report["errors"] == {}
    for key in ("decompose", "description"):
        assert report["checks"][key] == alone["checks"][key], key
    complexes = report["checks"]["koszul"]["complexes"]
    assert len(complexes) == 6
    assert all(c["euler_free_multiple"] is not None for c in complexes)


def test_terms_are_built_only_when_read(p3, monkeypatch):
    """On an all-exact complex with a free cokernel, the rank checks and the
    stages read C_0 (the cokernel) and C_2 (Q_2) alone.
    C_1 and C_top are never built, and the one-copy C_0 holds the group's
    Sym matrices: the only block-diagonal copy is C_2's."""
    G, forms, m = p3
    t, j = 4, 0
    reg = Registry(G)
    sv = {m * (t - r) + j: decompose(sym_power(G, m * (t - r) + j), reg, SEED)
          for r in range(4)}
    copies = []
    real_block_diag = la.block_diag
    monkeypatch.setattr(la, "block_diag",
                        lambda blocks: copies.append([B.shape for B in blocks])
                        or real_block_diag(blocks))
    K = build_complex(G, forms, t=t, j=j)
    assert check_exact(K)["exact"] and K.top == 3
    out = check_split_stagewise(K, reg, seed=SEED, sym_vectors=sv)
    assert out["coker_free"] and out["all_split"]
    d2 = sym_dim(4, m * (t - 2) + j)
    assert copies == [[(d2, d2)] * 3] * len(G.gens)
    assert sorted(K.built) == [0, 2]
    assert all(np.array_equal(A, S) for A, S in zip(K.term(0).mats, G.sym(m * t + j)))


def test_complex_holds_blocks_not_dense_maps(p3, monkeypatch):
    """Traced memory of one P^3 complex against the bytes of its dense maps.

    Building it keeps the multiplication entries alone, a small fraction of
    the dense maps, and no step of the build, the block checks included,
    comes near holding them.  The exact and split checks assemble no map,
    but their peaks are not bounded here: the kept echelon forms and the
    quotient modules take them past the dense maps' bytes.
    """
    G, forms, m = p3
    t, j = 4, 2
    reg = Registry(G)
    sv = {m * (t - r) + j: decompose(sym_power(G, m * (t - r) + j), reg, SEED)
          for r in range(4)}
    real_map = kz.KoszulComplex.map
    assembled = _count_maps(monkeypatch)
    tracemalloc.start()
    try:
        K = build_complex(G, forms, t=t, j=j)
        held, build_peak = tracemalloc.get_traced_memory()
        assert check_exact(K)["exact"]
        assert check_split_stagewise(K, reg, seed=SEED, sym_vectors=sv)["all_split"]
    finally:
        tracemalloc.stop()
    assert assembled == []
    dense = sum(real_map(K, r).nbytes for r in range(K.top))
    assert held < dense / 8 and build_peak < dense


def jordan_module(G, size):
    J = np.eye(size, dtype=np.int64)
    J[np.arange(size - 1), np.arange(1, size)] = 1
    return ModuleRep(G, [J])


def test_ses_split_check_soundness():
    """Direct-sum embeddings split; Jordan-block filtrations never do."""
    F = make_field(5)
    G = close_group(F, [np.array([[1, 1], [0, 1]], dtype=np.int64)])
    reg = Registry(G)
    rng = np.random.default_rng(13)
    cases = 0
    for a in (1, 2, 3):
        for b in (2, 4):
            Mb = jordan_module(G, b)
            if a < b:
                # (sigma - 1)^(b-a) maps J_b onto its unique submodule J_a
                N = (Mb.mats[0] - np.eye(b, dtype=np.int64)) % 5
                P = N.copy()
                for _ in range(b - a - 1):
                    P = la.mat_mul(F, P, N)
                cols = P[:, la.rref(F, P)[2]]
                assert cols.shape[1] == a
                assert not ses_split_check(Mb, cols, reg, seed=1)
                cases += 1
            D = direct_sum(jordan_module(G, a), Mb)
            U = rand_invertible(F, rng, a + b)
            mats = [la.mat_mul(F, la.mat_mul(F, U, D.mats[0]), la.inv(F, U))]
            C = ModuleRep(G, mats)
            sub_cols = la.mat_mul(F, U, np.eye(a + b, a, dtype=np.int64))
            assert ses_split_check(C, sub_cols, reg, seed=1)
            cases += 1
    assert cases >= 10


def test_euler_identity_on_plane(plane):
    G, forms, m = plane
    reg = Registry(G)
    degs = {m * (2 - r) + j for r in range(3) for j in (0, 1)}
    sv = {k: decompose(sym_power(G, k), reg, SEED) for k in degs}
    for j in (0, 1):
        out = euler_identity(reg, sv, d=2, m=m, j=j, t=2, seed=SEED)
        assert out["free_multiple"] is not None
        assert out["free_multiple"] * G.order == m ** 2
    with pytest.raises(ValueError):
        euler_identity(reg, sv, d=2, m=m, j=0, t=1, seed=SEED)
    # signed classes, with d = m = t = 1 and j = 0: [Sym^1] - [Sym^0].  A
    # negative multiple of [kG] is found; a class that is none is refused
    kg, triv = reg.regular_vec(SEED), sv[0]
    assert not set(triv) & set(kg)
    out = euler_identity(reg, {1: {}, 0: dvec_scale(kg, 2)}, d=1, m=1, j=0, t=1, seed=SEED)
    assert out["class"] == dvec_scale(kg, -2) and out["free_multiple"] == -2
    for sv0 in (kg, dvec_add(dvec_scale(kg, 2), triv), triv):
        out = euler_identity(reg, {1: kg, 0: sv0}, d=1, m=1, j=0, t=1, seed=SEED)
        assert out["free_multiple"] == (0 if sv0 is kg else None)
        assert sv0 is kg or min(out["class"].values()) < 0


def test_surface_progression_stabilizes(plane):
    G, forms, m = plane
    reg = Registry(G)
    sv = {}
    for t in range(1, 7):
        for j in (0, 1):
            k = m * t + j
            if k not in sv:
                sv[k] = decompose(sym_power(G, k), reg, SEED)
    for j in (0, 1):
        out = surface_progression_check(reg, sv, m=m, j=j, t_range=range(1, 7), seed=SEED)
        assert out["ok"] and out["stable_from"] is not None


class _KgIsClassZero:
    """A registry stand-in for `nonfree`: kG is class 0, so class 1 is nonfree."""

    def regular_vec(self, seed):
        return {0: 1}


@pytest.mark.parametrize("mults", [
    [t * t for t in range(1, 9)],      # t^2 growth: the differences 3, 5, ..., 15
    [4, 9, 1, 7, 3, 8, 2, 6],          # noise
    [1, 4, 9, 16, 20, 24, 29, 34],     # only the last two differences equal
], ids=["quadratic", "noise", "two-equal"])
def test_surface_progression_fails_without_a_constant_tail(mults):
    sv = {2 * t + 1: {0: 5, 1: c} for t, c in zip(range(1, 9), mults)}
    out = surface_progression_check(_KgIsClassZero(), sv, m=2, j=1, t_range=range(1, 9),
                                     seed=SEED)
    assert (out["ok"], out["stable_from"], out["constant"]) == (False, None, None)


def test_surface_progression_needs_holdout_equal_differences():
    # differences 3, 5, 7, 4, 4, 4, 4: the constant run starts at t = 5
    mults = [1, 4, 9, 16, 20, 24, 28, 32]
    sv = {2 * t + 1: {1: c} for t, c in zip(range(1, 9), mults)}
    out = surface_progression_check(_KgIsClassZero(), sv, m=2, j=1, t_range=range(1, 9),
                                    seed=SEED)
    assert (out["ok"], out["stable_from"], out["constant"]) == (True, 5, {1: 4})
    # HOLDOUT + 1 points with HOLDOUT equal differences pass; one fewer fails
    for n_points, ok in ((HOLDOUT + 1, True), (HOLDOUT, False)):
        ts = range(9 - n_points, 9)
        out = surface_progression_check(_KgIsClassZero(), sv, m=2, j=1, t_range=ts, seed=SEED)
        assert out["ok"] is ok


def test_koszul_job_does_not_import_numpy_ma(tmp_path):
    """A Koszul job leaves `numpy.ma` unimported: no `np.setdiff1d`, whose
    first call imports it (12-17 ms in a fresh interpreter)."""
    cfg = {"field": {"p": 2, "e": 2}, "generators": ["3 3\n10 10 00\n00 10 00\n00 00 10\n"],
           "n_max": 21, "checks": ["decompose", "koszul"], "seed": 7}
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    script = (
        "import sys\n"
        "from sympow.cli import main\n"
        "code = main(['analyze', '--config', 'config.json', '--output', 'report.json',"
        " '--cache-dir', 'cache'])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split()[-2:] == ["0", "False"]
    assert json.loads((tmp_path / "report.json").read_text())["checks"]["koszul"]
