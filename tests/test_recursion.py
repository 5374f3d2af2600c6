"""The P^1 degree sweep's recursion vec(n) = vec(n - m) + vec(Q_n).

The direct route (decompose every Sym^n) is the oracle: with the form search
patched away, `pipeline.run` takes it for every degree, and each test here
asks for its canonical report byte for byte.
"""

import json

import numpy as np
import pytest

import sympow.pipeline as pipeline
from sympow import groups
from sympow import koszul as kz
from sympow import linalg as la
from sympow.gf import make_field
from sympow.groups import ModuleRep, close_group
from sympow.modules import _content_digest
from sympow.pipeline import canonical_json, config_from_dict, job_key, run

S3_GENS = ["2 2\n0 1\n1 0\n", "2 2\n1 1\n0 1\n"]

GROUPS = {
    "S3-GF2": ({"p": 2, "e": 1}, S3_GENS, 40, 2),
    "GL2F3-GF3": ({"p": 3, "e": 1}, ["2 2\n1 1\n0 1\n", "2 2\n1 0\n1 1\n", "2 2\n2 0\n0 1\n"], 16, 6),
    "SL2F4-GF4": ({"p": 2, "e": 2}, ["2 2\n10 10\n00 10\n", "2 2\n10 00\n10 10\n",
                                     "2 2\n10 01\n00 10\n"], 18, 12),
    "C3-GF4": ({"p": 2, "e": 2}, ["2 2\n00 10\n10 10\n"], 30, 2),
}


def job(field, gens, n_max, checks=("decompose",), **extra):
    return config_from_dict({"field": field, "generators": gens, "n_max": n_max, "seed": 7,
                             "checks": list(checks), **extra})


def direct_report(cfg, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(pipeline, "_find_form", lambda *args: None)
        return run(cfg)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_recursion_matches_the_direct_route(name, monkeypatch):
    field, gens, n_max, m = GROUPS[name]
    cfg = job(field, gens, n_max)
    fast = run(cfg)
    slow = direct_report(cfg, monkeypatch)
    assert fast["errors"] == {}
    assert fast["volatile"]["sweep"] == {"form_degree": m, "recursion": n_max + 1 - m,
                                         "direct": m}
    assert slow["volatile"]["sweep"] == {"form_degree": None, "recursion": 0,
                                         "direct": n_max + 1}
    # vectors over registry ids, the registry size and every class dimension
    assert fast["checks"]["decompose"] == slow["checks"]["decompose"]
    assert canonical_json(fast) == canonical_json(slow)


def _reduce_power(F, monic, a):
    """X^a mod the monic polynomial (little-endian coefficients), by long division."""
    m = len(monic) - 1
    poly = [0] * a + [1]
    for top in range(a, m - 1, -1):
        c = poly[top]
        if c:
            for i in range(m + 1):
                poly[top - m + i] = F.add(poly[top - m + i], F.neg(F.mul(c, monic[i])))
    return (poly + [0] * m)[:m]


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_cokernel_tower_is_the_quotient_by_the_form(name):
    # psi_n: Sym^n -> k[X]/(f(X, 1)) sends x^(n-j) y^j to X^(n-j); it must be
    # onto, kill exactly f*Sym^(n-m), and intertwine Sym^n(g) with Q_n(g)
    field, gens, _, m = GROUPS[name]
    F = make_field(field["p"], field["e"])
    G = close_group(F, [la.mat_from_text(F, g) for g in gens])
    inv = la.kernel_basis(F, np.vstack([F.vec_sub(S, la.identity(m + 1)) for S in G.sym(m)]))
    rng = np.random.default_rng(5)
    f = np.zeros(m + 1, dtype=np.int64)
    while not f[0]:
        f = la.mat_mul(F, inv, la.rand_mat(F, rng, inv.shape[1], 1))[:, 0]
    assert kz.is_invariant_form(G, f, m)
    lead = F.inv(int(f[0]))
    monic = [F.mul(int(f[m - i]), lead) for i in range(m + 1)]
    tower = pipeline.Cokernels(G, f)
    for n in range(m - 1, m + 8):
        Q = tower.at(n)
        psi = np.array([_reduce_power(F, monic, n - j) for j in range(n + 1)],
                       dtype=np.int64).T
        assert la.rank(F, psi) == m
        if n >= m:
            mul_f = kz.mul_form_matrix(f, m, n - m, 2)
            assert not la.mat_mul(F, psi, mul_f).any()
            assert la.rank(F, mul_f) == n - m + 1
        for S, A in zip(G.sym(n), Q.mats):
            assert np.array_equal(la.mat_mul(F, psi, S), la.mat_mul(F, A, psi))


def _record_cokernels(monkeypatch):
    """[(n, Q_n)] for every cokernel the sweep asks the tower for."""
    seen = []
    real_at = pipeline.Cokernels.at

    def recording_at(self, n):
        Q = real_at(self, n)
        seen.append((n, Q))
        return Q

    monkeypatch.setattr(pipeline.Cokernels, "at", recording_at)
    return seen


def _is_trial(seen, M, n):
    return any(k == n and Q is M for k, Q in seen)


def test_two_new_classes_in_one_trial_take_the_direct_route(monkeypatch):
    # the trial at degree 2, the first cokernel with its matrices, computes
    # kG's vector and mints two extra classes; the rollback must forget all
    # of it before Sym^2 is decomposed, and must not store the result, so
    # Q_5 (the same matrices) reaches decompose again
    cfg = job({"p": 2}, S3_GENS, 30, checks=("decompose", "surface_progression"))
    ref = direct_report(cfg, monkeypatch)
    seen = _record_cokernels(monkeypatch)
    real_decompose = pipeline.decompose
    decomposed = []

    def minting_decompose(M, registry, seed):
        decomposed.append(M)
        if _is_trial(seen, M, 2):
            registry.regular_vec(seed)
            for dim in (97, 98):
                registry.match_or_insert(ModuleRep(M.group, [la.identity(dim)] * 2))
        return real_decompose(M, registry, seed)

    monkeypatch.setattr(pipeline, "decompose", minting_decompose)
    report = run(cfg)
    assert report["volatile"]["sweep"] == {"form_degree": 2, "recursion": 28, "direct": 3}
    assert any(_is_trial(seen, M, 5) for M in decomposed)
    assert canonical_json(report) == canonical_json(ref)


def test_a_degree_whose_cokernel_fails_its_check_takes_the_direct_route(monkeypatch):
    # every cokernel with Q_7's matrices fails the check: on S3 those are
    # the degrees n = 1 mod 3 from 4 on, so 4, 7, ..., 19 all go direct
    cfg = job({"p": 2}, S3_GENS, 20, checks=("decompose", "description"))
    ref = direct_report(cfg, monkeypatch)
    key7 = pipeline._find_form(pipeline._group(cfg), cfg.seed, cfg.n_max).at(7).key()
    real = pipeline.projective_part_dim

    def failing_like_seven(M):
        return 0 if M.key() == key7 else real(M)

    monkeypatch.setattr(pipeline, "projective_part_dim", failing_like_seven)
    report = run(cfg)
    assert report["volatile"]["sweep"] == {"form_degree": 2, "recursion": 13, "direct": 8}
    assert canonical_json(report) == canonical_json(ref)


def test_each_distinct_cokernel_is_decomposed_once(monkeypatch):
    # on S3 the Q_n repeat with period 3, so only degrees 0 and 1 (direct)
    # and Q_2, Q_3, Q_4 reach decompose
    cfg = job({"p": 2}, S3_GENS, 150)
    real_decompose = pipeline.decompose
    calls = []

    def counting_decompose(M, registry, seed):
        calls.append(M.dim)
        return real_decompose(M, registry, seed)

    monkeypatch.setattr(pipeline, "decompose", counting_decompose)
    report = run(cfg)
    assert report["volatile"]["sweep"] == {"form_degree": 2, "recursion": 149, "direct": 2}
    assert calls == [1, 2, 2, 2, 2]


def test_the_sweep_builds_no_sym_past_the_form_search(monkeypatch):
    # on S3 the form search stops at degree 2 and every later degree comes
    # from the cokernel tower, so no Sym^n with n > 2 is ever built
    real_stream = groups.sym_matrix_stream
    degrees = []

    def recording_stream(F, A, n, start):
        for k, S in real_stream(F, A, n, start):
            degrees.append(k)
            yield k, S

    monkeypatch.setattr(groups, "sym_matrix_stream", recording_stream)
    report = run(job({"p": 2}, S3_GENS, 150))
    assert report["volatile"]["sweep"] == {"form_degree": 2, "recursion": 149, "direct": 2}
    assert max(degrees) == 2


def test_two_runs_in_one_process_give_equal_bytes():
    cfg = job({"p": 2}, S3_GENS, 60, checks=("decompose", "description"))
    first, second = run(cfg), run(cfg)
    assert first["volatile"]["sweep"] == second["volatile"]["sweep"]
    assert canonical_json(first) == canonical_json(second)


def test_cokernel_tower_refuses_a_lower_degree():
    cfg = job({"p": 2}, S3_GENS, 40)
    tower = pipeline._find_form(pipeline._group(cfg), cfg.seed, cfg.n_max)
    Q5 = tower.at(5)
    with pytest.raises(ValueError, match="degree 5"):
        tower.at(4)
    assert all(np.array_equal(A, B) for A, B in zip(tower.at(5).mats, Q5.mats))
    assert tower.at(8).key() == Q5.key()


def test_no_form_found_sweeps_directly(monkeypatch):
    cfg = job({"p": 2}, S3_GENS, 20, checks=("decompose", "description"))
    ref = direct_report(cfg, monkeypatch)
    monkeypatch.setattr(pipeline, "FORM_DRAWS", 0)
    report = run(cfg)
    assert report["volatile"]["sweep"] == {"form_degree": None, "recursion": 0, "direct": 21}
    assert canonical_json(report) == canonical_json(ref)


def test_a_form_vanishing_at_one_zero_is_skipped(monkeypatch):
    # diag(w, 1) over GF(4) fixes y, and Q_1 = Sym^1 / y is projective (C3 is
    # a p'-group), but y(1:0) = 0: y and y^2 are passed over for a cubic
    cfg = job({"p": 2, "e": 2}, ["2 2\n01 00\n00 10\n"], 20)
    report = run(cfg)
    assert report["volatile"]["sweep"] == {"form_degree": 3, "recursion": 18, "direct": 3}
    assert canonical_json(report) == canonical_json(direct_report(cfg, monkeypatch))


def test_recursion_reads_degrees_from_the_cache(tmp_path):
    cfg = job({"p": 2}, S3_GENS, 20, cache_dir=str(tmp_path))
    cold = run(cfg)
    doc = tmp_path / f"{job_key(cfg)}.json"
    whole = doc.read_bytes()
    warm = run(cfg)
    assert warm["volatile"]["sweep"] == {"form_degree": None, "recursion": 0, "direct": 0}
    raw = json.loads(whole)
    del raw["vectors"]["9"]
    # a whole document without degree 9, digest and all
    del raw["sha256"]
    doc.write_text(json.dumps({"sha256": _content_digest(raw), **raw}))
    # degree 9 comes back from the cached degree 7 and Q_9
    partial = run(cfg)
    assert partial["volatile"]["sweep"] == {"form_degree": 2, "recursion": 1, "direct": 0}
    assert canonical_json(cold) == canonical_json(warm) == canonical_json(partial)
    assert doc.read_bytes() == whole
