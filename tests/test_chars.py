"""Brauer character tests.

A character is an int64 array of root-of-unity multiplicities, one row per
p-regular class and one column per N-th root of unity; its `reduced` form
modulo the cyclotomic polynomial is what carries class-function meaning.
The S3 fixture over GF(2) has p-regular classes {e, 3-cycles} and N = 3, so
everything here is checkable by hand.
"""

import math

import numpy as np
import pytest

from sympow.gf import make_field
from sympow.groups import SYM_DIM_CAP, close_group, regular_rep, sym_power
from sympow.chars import (char_growth_check, cyclotomic, delta_vanishing_report,
                          reduce_root_vector, reduced, root_space_dims, sym_brauer_sequence)
from sympow.polyfit import HOLDOUT, delta

from oracles import brauer_char, char_zero, direct_sum


@pytest.fixture(scope="module")
def s3():
    return close_group(make_field(2), [np.array([[0, 1], [1, 0]], dtype=np.int64),
                                       np.array([[1, 1], [0, 1]], dtype=np.int64)])


def test_cyclotomic_small():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(3) == (1, 1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)


def test_reduce_root_vector():
    # 2 + 2w + 2w^2 = 0 for w a primitive cube root
    assert reduce_root_vector((2, 2, 2), 3) == (0, 0)
    assert reduce_root_vector((0, 1, 1), 3) == (-1, 0)
    assert reduce_root_vector((5,), 1) == (5,)
    assert reduce_root_vector((1, 1), 2) == (0,)


def test_root_space_dims_order3():
    F = make_field(2)
    A = np.array([[0, 1], [1, 1]], dtype=np.int64)  # order 3 in GL2(F2)
    assert root_space_dims(F, A, 3) == [0, 1, 1]


def test_root_space_dims_split_case():
    F = make_field(7)
    A = np.diag(np.array([1, 2, 4, 2], dtype=np.int64))
    # 2 = 3^2 and 4 = 3^4 for the canonical primitive root 3 of GF(7)
    assert root_space_dims(F, A, 6) == [1, 0, 2, 0, 1, 0]


def test_splitting_field_and_root_of_unity():
    F2 = make_field(2)
    assert F2.splitting(1) == (F2, None, 1)
    K, table, w = F2.splitting(7)
    assert K is make_field(2, 3) and table.tolist() == [0, 1]
    assert K.pow(w, 7) == 1 and w != 1
    assert F2.splitting(7)[0] is K  # cached per order
    with pytest.raises(ValueError):
        F2.splitting(6)


def test_reduced_is_reduce_root_vector_on_every_row():
    rng = np.random.default_rng(3)
    for N in (1, 2, 3, 4, 6, 8, 12, 15, 21):
        raw = rng.integers(-5, 6, size=(4, 3, N))
        red = reduced(raw)
        assert red.shape == (4, 3, len(cyclotomic(N)) - 1)
        for row, rrow in zip(raw.reshape(-1, N), red.reshape(12, -1)):
            assert tuple(rrow) == reduce_root_vector(row.tolist(), N)


def test_trivial_and_natural_char(s3):
    G = s3
    reps = G.p_regular_class_reps()
    triv = brauer_char(sym_power(G, 0))
    assert triv.shape == (len(reps), 3) and triv[0].sum() == 1
    assert reduced(triv).tolist() == [[1, 0]] * len(reps)
    nat = brauer_char(sym_power(G, 1))
    three_cycle = [i for i, r in enumerate(reps) if G.element_order(r) == 3][0]
    assert nat[three_cycle].tolist() == [0, 1, 1]
    assert reduced(nat)[three_cycle].tolist() == [-1, 0]


def test_regular_char_vanishes_off_identity(s3):
    G = s3
    red = reduced(brauer_char(regular_rep(G)))
    for r, value in zip(G.p_regular_class_reps(), red.tolist()):
        assert value == ([6, 0] if r == 0 else [0, 0])


def test_char_additive(s3):
    G = s3
    mods = [sym_power(G, n) for n in range(5)]
    rng = np.random.default_rng(1)
    for _ in range(30):
        i, j = rng.integers(5), rng.integers(5)
        total = brauer_char(mods[i]) + brauer_char(mods[j])
        assert np.array_equal(reduced(brauer_char(direct_sum(mods[i], mods[j]))), reduced(total))


def test_char_matches_decomposition(s3):
    G = s3
    from sympow.modules import Registry, decompose

    reg = Registry(G)
    for n in range(8):
        M = sym_power(G, n)
        vec = decompose(M, reg, seed=n)
        acc = char_zero(G)
        for mid, mult in vec.items():
            acc = acc + mult * brauer_char(reg.entries[mid])
        assert np.array_equal(reduced(acc), reduced(brauer_char(M)))


def test_char_arithmetic_and_frame_mismatch(s3):
    G = s3
    a = brauer_char(sym_power(G, 1))
    assert not reduced(a - a).any()
    assert (3 * a)[0].sum() == 6


def _mat(rows):
    return np.array(rows, dtype=np.int64)


ORACLE_FIXTURES = {
    "s3_gf2_line": (make_field(2), [[[0, 1], [1, 0]], [[1, 1], [0, 1]]], 16),
    "c2_gf2_line": (make_field(2), [[[1, 1], [0, 1]]], 16),
    "gf4_plane_transvection": (make_field(2, 2), [[[1, 1, 0], [0, 1, 0], [0, 0, 1]]], 12),
    # GL2(F3), order 48: its order-8 elements split only over GF(9)
    "gl2_gf3_line": (make_field(3), [[[1, 1], [0, 1]], [[0, 1], [1, 0]], [[2, 0], [0, 1]]], 12),
    "gl3_gf2_plane": (make_field(2), [[[1, 1, 0], [0, 1, 0], [0, 0, 1]],
                                      [[0, 0, 1], [1, 0, 0], [0, 1, 0]]], 10),
}


def test_stream_matches_module_chars():
    """The eigenvalue-exponent count agrees with ranks on Sym^n matrices.

    Raw multiplicity tuples must agree, not just their reductions: the
    character table reports the raw values.
    """
    for name, (F, gens, top) in ORACLE_FIXTURES.items():
        G = close_group(F, [_mat(A) for A in gens])
        seq = sym_brauer_sequence(G, range(top + 1))
        assert sorted(seq) == list(range(top + 1))
        for n in range(top + 1):
            assert np.array_equal(seq[n], brauer_char(sym_power(G, n))), (name, n)


def test_sequence_keeps_only_requested_degrees(s3):
    G = s3
    seq = sym_brauer_sequence(G, [7, 3, 7, 12])
    assert sorted(seq) == [3, 7, 12]
    full = sym_brauer_sequence(G, range(13))
    assert all(np.array_equal(seq[n], full[n]) for n in (3, 7, 12))
    assert sym_brauer_sequence(G, []) == {}
    with pytest.raises(ValueError):
        sym_brauer_sequence(G, [-1])


def test_sequence_past_sym_cap(s3):
    G = s3
    n = 60_000
    assert math.comb(n + 1, 1) > SYM_DIM_CAP
    seq = sym_brauer_sequence(G, [n])
    assert seq[n][0].sum() == math.comb(n + G.dim - 1, G.dim - 1)
    # a 3-cycle's eigenvalues w, w^2 give the monomials x^a y^b exponent a + 2b
    reps = G.p_regular_class_reps()
    three_cycle = [i for i, r in enumerate(reps) if G.element_order(r) == 3][0]
    counts = [0, 0, 0]
    for a in range(n + 1):
        counts[(a + 2 * (n - a)) % 3] += 1
    assert seq[n][three_cycle].tolist() == counts


def test_delta_seq_ints():
    # the k-fold differences the delta and growth checks take
    assert delta([1, 4, 9, 16, 25], 2) == [2, 2, 2]
    assert delta([5], 0) == [5]


def test_delta_vanishing_c2_line():
    G = close_group(make_field(2), [np.array([[1, 1], [0, 1]], dtype=np.int64)])
    chars = sym_brauer_sequence(G, [4 * n + 1 for n in range(13)])
    r1 = delta_vanishing_report(chars, j=1, m=4, k=1, n_max=12)
    assert r1["vanishes_from"] is None
    r2 = delta_vanishing_report(chars, j=1, m=4, k=2, n_max=12)
    assert r2["vanishes_from"] == 0 and r2["zero_tail"] == 11


def test_delta_vanishing_s3_line(s3):
    G = s3
    chars = sym_brauer_sequence(G, [36 * n + 1 for n in range(7)])
    r1 = delta_vanishing_report(chars, j=1, m=36, k=1, n_max=6)
    assert r1["vanishes_from"] is None
    r2 = delta_vanishing_report(chars, j=1, m=36, k=2, n_max=6)
    assert r2["vanishes_from"] == 0


@pytest.mark.parametrize("values,expected", [
    ([0, 1, 3, 6, 10, 10], (None, 0)),        # only the last difference is zero
    ([0, 1, 3, 6, 6, 6], (None, 0)),          # a zero tail one short of HOLDOUT
    ([0, 1, 3, 6, 6, 6, 6], (3, HOLDOUT)),    # HOLDOUT zero differences
])
def test_delta_vanishing_needs_holdout_zero_differences(values, expected):
    """A zero tail counts as vanishing only from HOLDOUT differences on."""
    chars = {n: np.array([[v]], dtype=np.int64) for n, v in enumerate(values)}
    r = delta_vanishing_report(chars, j=0, m=1, k=1, n_max=len(values) - 1)
    assert (r["vanishes_from"], r["zero_tail"]) == expected


def test_char_growth_three_cycle(s3):
    G = s3
    g = [r for r in G.p_regular_class_reps() if G.element_order(r) == 3][0]
    chars = sym_brauer_sequence(G, [1 + n * G.order for n in range(9)])
    # a 3-cycle acts on P^1 with two fixed points, so the fixed locus is 0-dim
    report = char_growth_check(G, chars, g, a=1, d_fix=0, n_max=8)
    assert report["ok"] and report["class_rep"] == g
    assert report["difference_order"] == 2


def test_non_p_regular_rejected(s3):
    G = s3
    swap = [r for r in range(G.order) if G.element_order(r) == 2][0]
    chars = sym_brauer_sequence(G, [n * G.order for n in range(7)])
    with pytest.raises(ValueError):
        char_growth_check(G, chars, swap, a=0, d_fix=0, n_max=6)
