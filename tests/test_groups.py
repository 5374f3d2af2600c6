"""Group closure, Sylow subgroups, symmetric powers, derived modules."""

import itertools
import math

import numpy as np
import pytest

from sympow.gf import CapacityError, make_field
from sympow import groups
from sympow import linalg as la
from sympow.groups import (
    ModuleRep,
    close_group,
    monomial_index,
    monomials,
    p_part,
    regular_rep,
    sym_matrix_stream,
    sym_power,
)
from sympow.modules import _orbit_stack, _trace, projective_part_dim

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)


def mk(F, rows):
    return np.array(rows, dtype=np.int64)


def sym_of(F, A, n):
    """Sym^n(A) for any square A: the last degree `sym_matrix_stream` yields."""
    return list(sym_matrix_stream(F, A, n, None))[-1][1]


def c2_gens():
    return [mk(F2, [[1, 1], [0, 1]])]


def c3_gens():
    return [mk(F3, [[1, 1], [0, 1]])]


def s3_gens():
    return [mk(F2, [[0, 1], [1, 0]]), mk(F2, [[1, 1], [0, 1]])]


def klein_gens(c=2):
    """Klein four group on P^1 over GF(4): two unipotent translations."""
    return [mk(F4, [[1, 1], [0, 1]]), mk(F4, [[1, c], [0, 1]])]


def gl2_f3_gens():
    return [mk(F3, [[1, 1], [0, 1]]), mk(F3, [[0, 1], [1, 0]]), mk(F3, [[2, 0], [0, 1]])]


def c2_group():
    return close_group(F2, c2_gens())


def c3_group():
    return close_group(F3, c3_gens())


def s3_group():
    return close_group(F2, s3_gens())


def klein_group():
    return close_group(F4, klein_gens())


def test_close_group_orders():
    assert c3_group().order == 3
    assert s3_group().order == 6
    assert klein_group().order == 4
    c3_plane = close_group(F2, [mk(F2, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])])
    assert (c3_plane.order, c3_plane.dim) == (3, 3)


def test_close_group_determinism_and_identity():
    G1, G2 = s3_group(), s3_group()
    assert [m.tobytes() for m in G1.elements] == [m.tobytes() for m in G2.elements]
    assert np.array_equal(G1.elements[0], la.identity(2))


@pytest.mark.parametrize("gens,fragment", [
    ([], "at least one generator"),
    ([mk(F2, [[1, 1, 0], [0, 1, 1]])], "square"),
    ([mk(F2, [1, 1])], "square"),
    ([mk(F2, [[0, 1], [1, 0]]), la.identity(3)], "share a dimension"),
], ids=["empty", "non-square", "vector", "two-sizes"])
def test_close_group_rejects_malformed_generators(gens, fragment):
    with pytest.raises(ValueError, match=fragment):
        close_group(F2, gens)


def test_close_group_rejects_singular_generator():
    for gens in ([mk(F2, [[1, 1], [1, 1]])], [mk(F2, [[0, 1], [1, 0]]), mk(F2, [[1, 1], [1, 1]])]):
        with pytest.raises(ValueError, match="not invertible"):
            close_group(F2, gens)


def test_group_cap(monkeypatch):
    F5 = make_field(5)
    big = [mk(F5, [[2, 0], [0, 1]]), mk(F5, [[1, 1], [0, 1]])]
    assert close_group(F5, big).order == 20
    monkeypatch.setattr(groups, "GROUP_CAP", 10)
    with pytest.raises(CapacityError, match="cap 10"):
        close_group(F5, big)


def test_element_orders_and_inverse():
    G = s3_group()
    assert sorted(G.element_orders) == [1, 2, 2, 2, 3, 3]
    for i in range(G.order):
        assert G.mult(i, G.inv(i)) == 0


def test_sylow_examples():
    G3 = c3_group()
    assert len(G3.sylow()) == 3 == p_part(G3.order, 3)
    GS3 = s3_group()
    syl = GS3.sylow()
    assert len(syl) == 2 == p_part(GS3.order, 2)
    assert set(GS3.subgroup_closure(syl)) == set(syl)
    G3over2 = close_group(F2, [mk(F2, [[0, 1], [1, 1]])])  # order 3 in GL2(F2)
    assert G3over2.order == 3
    assert G3over2.sylow() == (0,)


def test_p_regular_class_reps():
    GS3 = s3_group()  # char 2: regular classes are {e} and the 3-cycles
    reps = GS3.p_regular_class_reps()
    assert len(reps) == 2 and reps[0] == 0
    assert GS3.element_order(reps[1]) == 3
    G3 = c3_group()  # char 3: only the identity class
    assert G3.p_regular_class_reps() == [0]


def test_monomial_order():
    assert monomials(2, 2).tolist() == [[2, 0], [1, 1], [0, 2]]
    assert monomials(3, 2)[0].tolist() == [2, 0, 0]
    assert monomials(3, 2).tolist() == sorted(monomials(3, 2).tolist(), reverse=True)


def test_monomial_index_inverts_the_enumeration():
    rng = np.random.default_rng(19)
    for nvars in range(1, 5):
        descending = sorted(itertools.product(range(13), repeat=nvars), reverse=True)
        for n in range(13):
            E = monomials(nvars, n)
            assert E.dtype == np.int64
            assert E.tolist() == [list(a) for a in descending if sum(a) == n]
            assert np.array_equal(monomial_index(E), np.arange(len(E)))
            perm = rng.permutation(len(E))
            assert np.array_equal(monomial_index(E[perm]), perm)


def _expand_images(F, A, a):
    """Prod_j (A z_j)^(a_j) as {exponent tuple: coefficient}, A z_j = sum_i A[i, j] z_i."""
    d1 = A.shape[0]
    poly = {(0,) * d1: 1}
    for j, power in enumerate(a):
        image = {tuple(int(i == v) for v in range(d1)): int(A[i, j]) for i in range(d1) if A[i, j]}
        for _ in range(power):
            out: dict = {}
            for mp, cp in poly.items():
                for mi, ci in image.items():
                    key = tuple(x + y for x, y in zip(mp, mi))
                    out[key] = F.add(out.get(key, 0), F.mul(cp, ci))
            poly = out
    return poly


@pytest.mark.parametrize("p,e,d1,n", [(3, 1, 3, 4), (3, 2, 3, 3), (3, 1, 4, 3), (3, 2, 4, 2)])
def test_sym_matrix_columns_expand_products_of_images(p, e, d1, n):
    """Column z^a of Sym^n(A) is the expansion of prod_j (A z_j)^(a_j).

    The basis order is spelled out here independently of `monomials`: all
    degree-n exponent tuples, lexicographically descending.  A basis order
    bug that the homomorphism tests cannot see fails here.
    """
    F = make_field(p, e)
    rng = np.random.default_rng(100 * p + 10 * e + d1)
    A = rng.integers(0, F.q, size=(d1, d1)).astype(np.int64)
    A[:, 0] = np.arange(1, d1 + 1) % F.q  # not monomial: column 0 has several entries
    basis = sorted((a for a in itertools.product(range(n + 1), repeat=d1) if sum(a) == n),
                   reverse=True)
    S = sym_of(F, A, n)
    assert S.shape == (len(basis), len(basis))
    for col, a in enumerate(basis):
        expect = np.zeros(len(basis), dtype=np.int64)
        for mono, c in _expand_images(F, A, a).items():
            expect[basis.index(mono)] = c
        assert np.array_equal(S[:, col], expect), a


def test_sym_power_dims():
    G = close_group(F2, [la.identity(4)])
    assert sym_power(G, 20).dim == math.comb(23, 3) == 1771
    assert sym_power(G, 0).dim == 1
    with pytest.raises(CapacityError):
        sym_power(G, 200)


def test_group_sym_towers_resume_and_stay_per_group():
    G1, G2 = s3_group(), s3_group()
    for n in (5, 2, 9, 9):  # resume above, read below, resume again, reread
        got = G1.sym(n)
        assert len(got) == len(s3_gens())
        for S, A in zip(got, s3_gens()):
            assert np.array_equal(S, sym_of(F2, A, n))
    assert G1.sym(9)[0] is G1.sym(9)[0]
    assert G2.sym(9)[0] is not G1.sym(9)[0]


def test_sym_square_hand_expansion():
    """sigma z0 = z0, sigma z1 = z0+z1 forces the stated 3x3 matrix in char 2."""
    S = sym_of(F2, mk(F2, [[1, 1], [0, 1]]), 2)
    assert np.array_equal(S, mk(F2, [[1, 1, 1], [0, 1, 0], [0, 0, 1]]))


def test_sym_functoriality_random_pairs():
    G = s3_group()
    rng = np.random.default_rng(2026)
    for _ in range(20):
        gi, hi = rng.integers(0, G.order, size=2)
        n = int(rng.integers(1, 9))
        g, h = G.elements[int(gi)], G.elements[int(hi)]
        gh = la.mat_mul(F2, g, h)
        lhs = la.mat_mul(F2, sym_of(F2, g, n), sym_of(F2, h, n))
        assert np.array_equal(lhs, sym_of(F2, gh, n))


def test_sym_functoriality_extension_field():
    G = klein_group()
    rng = np.random.default_rng(7)
    for _ in range(10):
        gi, hi = rng.integers(0, G.order, size=2)
        n = int(rng.integers(1, 7))
        g, h = G.elements[int(gi)], G.elements[int(hi)]
        lhs = la.mat_mul(F4, sym_of(F4, g, n), sym_of(F4, h, n))
        assert np.array_equal(lhs, sym_of(F4, la.mat_mul(F4, g, h), n))


def test_trace_operator_examples():
    G = c2_group()
    M = sym_power(G, 1)
    acts = M.orbit(la.identity(2))
    assert np.array_equal(_trace(F2, acts[:1]), la.identity(2))
    assert np.array_equal(_trace(F2, acts), mk(F2, [[0, 1], [0, 0]]))
    assert projective_part_dim(M) == 2
    triv = ModuleRep(G, [la.identity(1)])
    assert _trace(F2, triv.orbit(la.identity(1)))[0, 0] == 0
    assert projective_part_dim(triv) == 0


def test_trace_operator_invariance():
    G = s3_group()
    M = sym_power(G, 3)
    H = G.sylow()
    acts = M.orbit(la.identity(M.dim))
    T = _trace(F2, [acts[h] for h in H])
    for h in H:
        assert np.array_equal(la.mat_mul(F2, acts[h], T), T)
        assert np.array_equal(la.mat_mul(F2, T, acts[h]), T)
    assert projective_part_dim(M) == len(H) * la.rank(F2, T) > 0


def test_regular_rep():
    G = c2_group()
    R = regular_rep(G)
    assert R.dim == 2
    assert np.array_equal(R.mats[0], mk(F2, [[0, 1], [1, 0]]))
    GS3 = s3_group()
    RR = regular_rep(GS3)
    for m in RR.mats:
        assert np.array_equal(m.sum(axis=0), np.ones(6, dtype=np.int64))


def test_word_evaluation_matches_elements():
    G = s3_group()
    acts = ModuleRep(G, list(G.gens)).orbit(la.identity(G.dim))
    assert len(acts) == G.order
    for i in range(G.order):
        assert np.array_equal(acts[i], G.elements[i])


@pytest.mark.parametrize("F,gens", [(F2, s3_gens()), (F4, klein_gens()), (F3, gl2_f3_gens())],
                         ids=["S3", "Klein", "GL2(F3)"])
def test_left_words_rebuild_elements_and_orbits(F, gens):
    G = close_group(F, gens)
    F = G.field
    assert G.words[0] == (-1, -1)
    for i, (parent, gi) in enumerate(G.words[1:], start=1):
        assert parent < i
        assert np.array_equal(G.elements[i], la.mat_mul(F, G.gens[gi], G.elements[parent]))
    # the walk spells each element as a word in the generators, leftmost first
    for i, word in enumerate(G.walk((), lambda gi, w: (gi,) + w)):
        X = la.identity(G.dim)
        for gi in reversed(word):
            X = la.mat_mul(F, G.gens[gi], X)
        assert np.array_equal(X, G.elements[i])
    M = sym_power(G, 3)
    acts = M.orbit(la.identity(M.dim))
    for i in range(G.order):
        assert np.array_equal(acts[i], sym_of(F, G.elements[i], 3))
    V = la.rand_mat(F, np.random.default_rng(4), M.dim, 2)
    want = np.vstack([la.mat_mul(F, acts[i], V).T for i in range(G.order)])
    assert np.array_equal(_orbit_stack(M, V), want)
