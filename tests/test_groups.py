"""Group closure, Sylow subgroups, symmetric powers, derived modules."""

import math

import numpy as np
import pytest

from sympow.gf import CapacityError, make_field
from sympow import linalg as la
from sympow.groups import (
    GroupData,
    ModuleRep,
    Representation,
    close_group,
    monomials,
    regular_rep,
    sym_matrix,
    sym_power,
    trace_operator,
)
from sympow.modules import _orbit_stack

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)


def mk(F, rows):
    return np.array(rows, dtype=np.int64)


def c2_rep():
    return Representation(F2, (mk(F2, [[1, 1], [0, 1]]),))


def c3_rep():
    return Representation(F3, (mk(F3, [[1, 1], [0, 1]]),))


def s3_rep():
    return Representation(F2, (mk(F2, [[0, 1], [1, 0]]), mk(F2, [[1, 1], [0, 1]])))


def klein_rep(c=2):
    """Klein four group on P^1 over GF(4): two unipotent translations."""
    return Representation(F4, (mk(F4, [[1, 1], [0, 1]]), mk(F4, [[1, c], [0, 1]])))


def gl2_f3_rep():
    return Representation(F3, (mk(F3, [[1, 1], [0, 1]]), mk(F3, [[0, 1], [1, 0]]),
                               mk(F3, [[2, 0], [0, 1]])))


def test_close_group_orders():
    assert close_group(c3_rep()).order == 3
    assert close_group(s3_rep()).order == 6
    assert close_group(klein_rep()).order == 4


def test_close_group_determinism_and_identity():
    G1, G2 = close_group(s3_rep()), close_group(s3_rep())
    assert [m.tobytes() for m in G1.elements] == [m.tobytes() for m in G2.elements]
    assert np.array_equal(G1.elements[0], la.identity(2))


def test_close_group_rejects_singular_generator():
    with pytest.raises(ValueError):
        close_group(Representation(F2, (mk(F2, [[1, 1], [1, 1]]),)))


def test_group_cap():
    big = Representation(make_field(5), (mk(F3, [[2, 0], [0, 1]]), mk(F3, [[1, 1], [0, 1]])))
    assert close_group(big).order == 20
    with pytest.raises(CapacityError):
        close_group(big, cap=10)


def test_element_orders_and_inverse():
    G = close_group(s3_rep())
    assert sorted(G.element_orders) == [1, 2, 2, 2, 3, 3]
    for i in range(G.order):
        assert G.mult(i, G.inv(i)) == 0


def test_sylow_examples():
    G3 = close_group(c3_rep())
    assert len(G3.sylow()) == 3 == G3.p_part
    GS3 = close_group(s3_rep())
    syl = GS3.sylow()
    assert len(syl) == 2 == GS3.p_part
    assert set(GS3.subgroup_closure(syl)) == set(syl)
    G3over2 = close_group(Representation(F2, (mk(F2, [[0, 1], [1, 1]]),)))  # order 3 in GL2(F2)
    assert G3over2.order == 3
    assert G3over2.sylow() == (0,)


def test_p_regular_class_reps():
    GS3 = close_group(s3_rep())  # char 2: regular classes are {e} and the 3-cycles
    reps = GS3.p_regular_class_reps()
    assert len(reps) == 2 and reps[0] == 0
    assert GS3.element_order(reps[1]) == 3
    G3 = close_group(c3_rep())  # char 3: only the identity class
    assert G3.p_regular_class_reps() == [0]


def test_monomial_order():
    assert monomials(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomials(3, 2)[0] == (2, 0, 0)
    assert monomials(3, 2) == sorted(monomials(3, 2), reverse=True)


def test_sym_power_dims():
    rep = Representation(F2, (la.identity(4),))
    G = close_group(rep)
    assert sym_power(rep, G, 20).dim == math.comb(23, 3) == 1771
    assert sym_power(rep, G, 0).dim == 1
    with pytest.raises(CapacityError):
        sym_power(rep, G, 200)


def test_group_sym_towers_resume_and_stay_per_group():
    rep = s3_rep()
    G1, G2 = close_group(rep), close_group(rep)
    for n in (5, 2, 9, 9):  # resume above, read below, resume again, reread
        got = G1.sym(n)
        assert len(got) == len(rep.gens)
        for S, A in zip(got, rep.gens):
            assert np.array_equal(S, sym_matrix(F2, A, n))
    assert G1.sym(9)[0] is G1.sym(9)[0]
    assert G2.sym(9)[0] is not G1.sym(9)[0]


def test_sym_square_hand_expansion():
    """sigma z0 = z0, sigma z1 = z0+z1 forces the stated 3x3 matrix in char 2."""
    S = sym_matrix(F2, mk(F2, [[1, 1], [0, 1]]), 2)
    assert np.array_equal(S, mk(F2, [[1, 1, 1], [0, 1, 0], [0, 0, 1]]))


def test_sym_functoriality_random_pairs():
    G = close_group(s3_rep())
    rng = np.random.default_rng(2026)
    for _ in range(20):
        gi, hi = rng.integers(0, G.order, size=2)
        n = int(rng.integers(1, 9))
        g, h = G.elements[int(gi)], G.elements[int(hi)]
        gh = la.mat_mul(F2, g, h)
        lhs = la.mat_mul(F2, sym_matrix(F2, g, n), sym_matrix(F2, h, n))
        assert np.array_equal(lhs, sym_matrix(F2, gh, n))


def test_sym_functoriality_extension_field():
    G = close_group(klein_rep())
    rng = np.random.default_rng(7)
    for _ in range(10):
        gi, hi = rng.integers(0, G.order, size=2)
        n = int(rng.integers(1, 7))
        g, h = G.elements[int(gi)], G.elements[int(hi)]
        lhs = la.mat_mul(F4, sym_matrix(F4, g, n), sym_matrix(F4, h, n))
        assert np.array_equal(lhs, sym_matrix(F4, la.mat_mul(F4, g, h), n))


def test_trace_operator_examples():
    rep = c2_rep()
    G = close_group(rep)
    M = sym_power(rep, G, 1)
    assert np.array_equal(trace_operator(M, [0]), la.identity(2))
    T = trace_operator(M, range(G.order))
    assert np.array_equal(T, mk(F2, [[0, 1], [0, 0]]))
    triv = ModuleRep(G, [la.identity(1)])
    assert trace_operator(triv, range(G.order))[0, 0] == 0


def test_trace_operator_invariance():
    rep = s3_rep()
    G = close_group(rep)
    M = sym_power(rep, G, 3)
    H = G.sylow()
    T = trace_operator(M, H)
    for h in H:
        A = M.act(h)
        assert np.array_equal(la.mat_mul(F2, A, T), T)
        assert np.array_equal(la.mat_mul(F2, T, A), T)


def test_trace_operator_rejects_non_subgroup():
    G = close_group(s3_rep())
    M = regular_rep(G)
    bad = [0, next(i for i in range(G.order) if G.element_order(i) == 3)]
    with pytest.raises(ValueError):
        trace_operator(M, bad)


def test_regular_rep():
    G = close_group(c2_rep())
    R = regular_rep(G)
    assert R.dim == 2
    assert np.array_equal(R.mats[0], mk(F2, [[0, 1], [1, 0]]))
    GS3 = close_group(s3_rep())
    RR = regular_rep(GS3)
    for m in RR.mats:
        assert np.array_equal(m.sum(axis=0), np.ones(6, dtype=np.int64))


def test_word_evaluation_matches_elements():
    G = close_group(s3_rep())
    M = ModuleRep(G, list(G.gens))
    for i in range(G.order):
        assert np.array_equal(M.act(i), G.elements[i])


@pytest.mark.parametrize("rep", [s3_rep(), klein_rep(), gl2_f3_rep()], ids=["S3", "Klein", "GL2(F3)"])
def test_left_words_rebuild_elements_and_orbits(rep):
    G = close_group(rep)
    F = G.field
    assert G.words[0] == (-1, -1)
    for i, (parent, gi) in enumerate(G.words[1:], start=1):
        assert parent < i
        assert np.array_equal(G.elements[i], la.mat_mul(F, G.gens[gi], G.elements[parent]))
    M = sym_power(rep, G, 3)
    for i in range(G.order):
        assert np.array_equal(M.act(i), sym_matrix(F, G.elements[i], 3))
    V = la.rand_mat(F, np.random.default_rng(4), M.dim, 2)
    want = np.vstack([la.mat_mul(F, M.act(i), V).T for i in range(G.order)])
    assert np.array_equal(_orbit_stack(M, V), want)
