"""Exact linear algebra: echelon forms, kernels, solves, Jordan data."""

import numpy as np
import pytest

from sympow.gf import make_field
from sympow import linalg as la

from oracles import _echelon_naive, rand_invertible, unipotent_jordan

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)

FIELDS = [F2, F3, F4, F5]


def test_rref_examples():
    R, rk, piv = la.rref(F3, la.identity(3))
    assert rk == 3 and piv == [0, 1, 2]
    A = np.array([[0, 1], [0, 0]], dtype=np.int64)
    assert la.rank(F2, A) == 1
    Z = la.zeros(4, 5)
    R, rk, piv = la.rref(F5, Z)
    assert rk == 0 and not np.any(R)


def test_kernel_examples():
    assert la.kernel_basis(F3, la.identity(3)).shape == (3, 0)
    K = la.kernel_basis(F2, np.array([[0, 1], [0, 0]], dtype=np.int64))
    assert K.shape == (2, 1) and list(K[:, 0]) == [1, 0]
    A = np.array([[1, 0, 1, 0], [0, 1, 1, 1]], dtype=np.int64)
    K = la.kernel_basis(F2, A)
    assert K.shape == (4, 2), "2x4 rank-2 matrix has a 2-dim kernel"
    assert not np.any(la.mat_mul(F2, A, K)), "kernel vectors must satisfy Av = 0"


def test_solve_examples():
    b = np.array([1, 2, 3], dtype=np.int64)
    assert np.array_equal(la.solve(F5, la.identity(3), b), b)
    assert la.solve(F2, la.zeros(2, 2), np.array([1, 0])) is None
    x = la.solve(F3, np.array([[1, 1], [1, 2]], dtype=np.int64), np.array([0, 1]))
    assert list(x) == [2, 1], f"hand elimination gives (2,1), got {x}"


def test_unipotent_jordan_examples():
    assert unipotent_jordan(F5, la.identity(4)) == (1, 1, 1, 1)
    J2 = np.array([[1, 1], [0, 1]], dtype=np.int64)
    assert unipotent_jordan(F2, J2) == (2,)
    assert unipotent_jordan(F3, J2) == (2,)
    # Sym^2 of [[1,1],[0,1]] over GF(2) on basis (z0^2, z0 z1, z1^2)
    S = np.array([[1, 1, 1], [0, 1, 0], [0, 0, 1]], dtype=np.int64)
    assert unipotent_jordan(F2, S) == (2, 1)
    with pytest.raises(ValueError):
        unipotent_jordan(F3, np.array([[2, 0], [0, 1]], dtype=np.int64))


def test_mat_pow_examples():
    M = la.rand_mat(F3, np.random.default_rng(5), 4, 4)
    assert np.array_equal(la.mat_mul(F3, M, la.identity(4)), M)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_rank_transpose_random(F):
    rng = np.random.default_rng(814 + F.q)
    for _ in range(200):
        m, n = rng.integers(1, 9, size=2)
        A = la.rand_mat(F, rng, int(m), int(n))
        assert la.rank(F, A) == la.rank(F, A.T)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_pivot_columns_match_rref_on_rank_deficient_matrices(F):
    rng = np.random.default_rng(97 + F.q)
    # the 200 x 180 products reach the blocked, recursively split elimination
    shapes = [(int(m), int(n), int(k)) for m, n, k in rng.integers(1, 12, size=(40, 3))]
    shapes += [(200, 180, 120), (180, 200, 150)]
    for m, n, k in shapes:
        k = min(k, m, n) - 1
        A = la.mat_mul(F, la.rand_mat(F, rng, m, k), la.rand_mat(F, rng, k, n))
        piv = la.pivot_columns(F, A)
        assert piv == la.rref(F, A)[2]
        assert la.rank(F, A) == len(piv) <= k


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_kernel_exactness_random(F):
    rng = np.random.default_rng(271 + F.q)
    for _ in range(50):
        A = la.rand_mat(F, rng, int(rng.integers(1, 10)), int(rng.integers(1, 10)))
        K = la.kernel_basis(F, A)
        assert K.shape[1] == A.shape[1] - la.rank(F, A)
        if K.size:
            assert not np.any(la.mat_mul(F, A, K))


@pytest.mark.parametrize("F", [F2, F3, F4], ids=str)
def test_jordan_conjugation_invariance(F):
    rng = np.random.default_rng(99 + F.q)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        # random unipotent: I + strictly upper triangular
        U = la.identity(n)
        for i in range(n):
            for j in range(i + 1, n):
                U[i, j] = rng.integers(0, F.q)
        part = unipotent_jordan(F, U)
        P = rand_invertible(F, rng, n)
        conj = la.mat_mul(F, la.mat_mul(F, P, U), la.inv(F, P))
        assert unipotent_jordan(F, conj) == part
        assert sum(part) == n


def _blocked(F, A, reduce):
    """The blocked elimination: the forward pass, then back-substitution with `reduce`."""
    W, pivots = la.forward_echelon(F, A)
    if reduce:
        la.back_substitute(F, W, pivots)
    return W, pivots


@pytest.mark.parametrize("F", FIELDS + [make_field(3, 2), make_field(3, 5), make_field(23, 2)],
                         ids=str)
def test_blocked_vs_naive_differential(F, monkeypatch):
    """The panel-blocked elimination must match the reference exactly."""
    monkeypatch.setattr(la, "_PANEL", 16)
    rng = np.random.default_rng(4242 + F.q)
    shapes = [(1, 1), (5, 8), (8, 5), (70, 70), (130, 40), (40, 130), (150, 150)]
    for m, n in shapes:
        A = la.rand_mat(F, rng, m, n)
        # throw in duplicate rows / zero columns to stress pivot skipping
        if m > 2:
            A[1] = A[0]
        if n > 3:
            A[:, 2] = 0
        for reduce in (False, True):
            R1, p1 = _blocked(F, A, reduce)
            R2, p2 = _echelon_naive(F, A, reduce=reduce)
            assert p1 == p2, f"pivot mismatch on {m}x{n} over {F}"
            assert np.array_equal(R1, R2), f"echelon mismatch on {m}x{n} over {F}"


# GF(3^5) has op tables but no fused ones, GF(23^2) works on digit layers
@pytest.mark.parametrize("F", [F4, make_field(3, 2), F5, make_field(3, 5), make_field(23, 2)],
                         ids=str)
def test_recursive_vs_naive_differential(F):
    """Matrices past la._SPLIT_CELLS take the recursive elimination; it must
    match the reference exactly, pivots and entries, reduced or not."""
    rng = np.random.default_rng(77 + F.q)

    def sparse(m, n, density):
        return la.rand_mat(F, rng, m, n) * (rng.random((m, n)) < density)

    cases = {
        "square": la.rand_mat(F, rng, 190, 190),
        "tall sparse": sparse(420, 150, 0.02),
        "wide sparse": sparse(140, 400, 0.03),
        # rank 60 from a product, so later rows are combinations of earlier ones
        "wide low rank": la.mat_mul(F, la.rand_mat(F, rng, 150, 60), la.rand_mat(F, rng, 60, 300)),
        "tall low rank": la.mat_mul(F, sparse(330, 90, 0.05), sparse(90, 200, 0.1)),
    }
    for name, A in cases.items():
        assert A.size >= la._SPLIT_CELLS, name
        A[5] = A[3]
        A[-1] = A[0]
        A[:, [1, 40, 130]] = 0
        for reduce in (False, True):
            R1, p1 = _blocked(F, A, reduce)
            R2, p2 = _echelon_naive(F, A, reduce=reduce)
            assert p1 == p2, f"pivot mismatch on {name} over {F}, reduce={reduce}"
            assert np.array_equal(R1, R2), f"echelon mismatch on {name} over {F}, reduce={reduce}"


@pytest.mark.parametrize("F", [F2, F5, make_field(3, 2)], ids=str)
def test_back_substitute_vs_naive_at_block_edges(F):
    """Back-substitution goes `_leaf(W)` pivot rows at a time from the
    bottom: ranks on either side of a block edge, rank 0 and no free column
    must give the reference RREF."""
    rng = np.random.default_rng(808 + F.q)
    cases = [(40, 30, 0, la._PANEL), (150, 150, 150, la._PANEL), (220, 200, 200, la._LEAF)]
    for r in (la._PANEL - 1, la._PANEL, la._PANEL + 1):
        cases.append((r + 3, 200, r, la._PANEL))
    for r in (la._LEAF - 1, la._LEAF, la._LEAF + 1, 2 * la._LEAF - 1, 2 * la._LEAF,
              2 * la._LEAF + 1, 150):
        cases.append((r + 5, 2400 if r < 100 else 300, r, la._LEAF))
    for m, n, r, leaf in cases:
        # rank exactly r: an identity block in each factor, rows and columns shuffled
        L = np.vstack([la.identity(r), la.rand_mat(F, rng, m - r, r)])[rng.permutation(m)]
        U = np.hstack([la.identity(r), la.rand_mat(F, rng, r, n - r)])[:, rng.permutation(n)]
        A = la.mat_mul(F, L, U)
        assert la._leaf(A) == leaf, (m, n, r)
        W, piv = la.forward_echelon(F, A)
        assert len(piv) == r, (m, n, r)
        la.back_substitute(F, W, piv)
        R, p = _echelon_naive(F, A)
        assert piv == p and np.array_equal(W, R), f"RREF mismatch on {m}x{n} rank {r} over {F}"


def _rows_with_leads(F, rng, leads, n, density=1.0):
    """Random rows, row i zero before column leads[i] and nonzero there."""
    A = la.rand_mat(F, rng, len(leads), n) * (rng.random((len(leads), n)) < density)
    A[np.arange(n)[None, :] < np.asarray(leads)[:, None]] = 0
    A[np.arange(len(leads)), leads] = rng.integers(1, F.q, size=len(leads))
    return A


def _lead_cases(F, rng):
    """name -> (rows sorted by lead, their leads)."""
    cases = {}

    def add(name, leads, n, density=1.0):
        leads = np.sort(np.asarray(leads, dtype=np.int64))
        cases[name] = (_rows_with_leads(F, rng, leads, n, density), leads)

    add("distinct", rng.choice(90, size=60, replace=False), 90, 0.1)
    add("distinct dense", np.arange(0, 150, 2), 160)
    add("one lead", np.full(40, 3), 50)
    add("no rows", [], 12)
    add("sparse ties", rng.integers(0, 200, size=300), 230, 0.05)
    # ties whose remainders are dependent: half are multiples of the row
    # before, the other half that plus a row that leads later
    leads = np.sort(rng.integers(0, 25, size=50))
    A = _rows_with_leads(F, rng, leads, 70)
    for i in np.flatnonzero(leads[1:] == leads[:-1]) + 1:
        A[i] = F.vec_mul(A[i - 1], np.int64(rng.integers(1, F.q)))
        later = np.flatnonzero(leads > leads[i])
        if i % 2 and later.size:
            A[i] = F.vec_add(A[i], A[rng.choice(later)])
    cases["dependent ties"] = (A, leads)
    # past la._SPLIT_CELLS, with enough repeats that the remainder is too
    add("split", rng.integers(0, 100, size=380) * 3, 330, 0.3)

    # rows of unknown lead above rows whose known leads tie
    leads = np.sort(rng.integers(0, 30, size=40))
    cases["unknown and ties"] = (np.vstack([la.rand_mat(F, rng, 10, 40),
                                            _rows_with_leads(F, rng, leads, 40)]),
                                 np.concatenate([np.full(10, -1), leads]))
    return cases


@pytest.mark.parametrize("F", [F2, F3, F4, make_field(3, 2), make_field(3, 5), make_field(23, 2),
                               make_field(67108879)], ids=str)
def test_echelon_from_leads_vs_naive_differential(F, monkeypatch):
    """Rows sorted by lead, unknown leads first: pivots and the RREF after
    back-substitution match the reference.  Rows with distinct known leads
    eliminate nothing, and `forward_echelon` sees only the rows whose lead
    is unknown or repeats."""
    rng = np.random.default_rng(31 + F.q % 1000)
    real_forward = la.forward_echelon
    calls = []
    monkeypatch.setattr(la, "forward_echelon",
                        lambda F, A, **kw: calls.append(A.shape) or real_forward(F, A, **kw))
    for name, (A, leads) in _lead_cases(F, rng).items():
        calls.clear()
        W, piv = la.echelon_from_leads(F, A.copy(), leads)
        repeats = len(leads) - len(np.unique(leads[leads >= 0]))
        if repeats:
            assert [rows for rows, _ in calls] == [repeats], name
        else:
            assert calls == [], name
        if name == "split":
            assert calls[0][0] * calls[0][1] >= la._SPLIT_CELLS
        R, p = _echelon_naive(F, A)
        assert piv == p, f"pivot mismatch on {name} over {F}"
        assert name != "dependent ties" or len(p) < len(leads)
        la.back_substitute(F, W, piv)
        assert np.array_equal(W, R), f"RREF mismatch on {name} over {F}"


@pytest.mark.parametrize("F", [F2, F3, F4, make_field(3, 2), make_field(67108879)], ids=str)
def test_rref_extend_matches_stacked_rref(F, monkeypatch):
    """Extending an RREF by new rows, stacked above its basis with unknown
    lead as the free peel's ramp does, must give the RREF of the stacked
    rows; `forward_echelon` sees only the new rows and the base's zero rows."""
    rng = np.random.default_rng(515 + F.q % 1000)
    real_forward = la.forward_echelon
    calls = []
    monkeypatch.setattr(la, "forward_echelon",
                        lambda F, A, **kw: calls.append(A.shape) or real_forward(F, A, **kw))

    def check(R, piv, S):
        unknown = np.vstack([S, R[len(piv):]])
        calls.clear()
        W, got = la.echelon_from_leads(F, np.vstack([unknown, R[:len(piv)]]),
                                       np.array([-1] * len(unknown) + piv, dtype=np.int64))
        assert [rows for rows, _ in calls] == [len(unknown)]
        want, rk, want_piv = la.rref(F, np.vstack([R, S]))
        assert got == want_piv and len(got) == rk, f"rank/pivots differ over {F}"
        la.back_substitute(F, W, got)
        assert np.array_equal(W, want), f"RREF differs over {F}"

    n = 12
    for _ in range(6):
        S = la.rand_mat(F, rng, 4, n)
        check(la.zeros(0, n), [], S)                         # empty base
        check(la.zeros(2, n), [], S)                         # zero base rows
        R, rk, piv = la.rref(F, la.rand_mat(F, rng, 5, n))
        check(R, piv, la.rand_mat(F, rng, 4, n))           # base with its zero rows
        check(R[:rk], piv, la.mat_mul(F, la.rand_mat(F, rng, 3, rk), R[:rk]))  # dependent
        A = la.rand_mat(F, rng, 4, n)
        A[:, :6] = 0
        R, rk, piv = la.rref(F, A)
        check(R[:rk], piv, la.rand_mat(F, rng, 3, n))     # new pivots left of old ones
        R, rk, piv = la.rref(F, la.rand_mat(F, rng, 3, n))
        check(R[:rk], piv, la.rand_mat(F, rng, 2 * n, n))  # more new rows than columns
        A = la.rand_mat(F, rng, 6, n)
        A[1] = A[0]
        A[:, 3] = 0
        R, rk, piv = la.rref(F, A[:4])
        check(R[:rk], piv, A[4:])                           # mixed, zero column


def test_inv_and_solve_random():
    rng = np.random.default_rng(7)
    for F in FIELDS:
        for _ in range(10):
            n = int(rng.integers(1, 8))
            A = rand_invertible(F, rng, n)
            Ainv = la.inv(F, A)
            assert np.array_equal(la.mat_mul(F, A, Ainv), la.identity(n))
            b = la.rand_mat(F, rng, n, 1)[:, 0]
            x = la.solve(F, A, b)
            assert np.array_equal(la.mat_mul(F, A, x[:, None])[:, 0], b)
    with pytest.raises(ValueError):
        la.inv(F2, la.zeros(2, 2))


def test_solve_consistency_on_singular_systems():
    rng = np.random.default_rng(11)
    for F in FIELDS:
        hits = 0
        for _ in range(40):
            A = la.rand_mat(F, rng, 4, 6)
            y = la.rand_mat(F, rng, 6, 1)
            b = la.mat_mul(F, A, y)[:, 0]
            x = la.solve(F, A, b)  # consistent by construction
            assert x is not None
            assert np.array_equal(la.mat_mul(F, A, x[:, None])[:, 0], b)
            hits += 1
        assert hits == 40


def test_matmul_associativity_extension_field():
    rng = np.random.default_rng(23)
    F16 = make_field(2, 4)
    for F in (F4, F16, make_field(3, 2)):
        A = la.rand_mat(F, rng, 6, 7)
        B = la.rand_mat(F, rng, 7, 5)
        C = la.rand_mat(F, rng, 5, 4)
        lhs = la.mat_mul(F, la.mat_mul(F, A, B), C)
        rhs = la.mat_mul(F, A, la.mat_mul(F, B, C))
        assert np.array_equal(lhs, rhs)


def test_matmul_against_naive_loops():
    rng = np.random.default_rng(31)
    for F in (F2, F3, F4, make_field(2, 4), make_field(2, 3), make_field(3, 3),
              make_field(3, 5), make_field(23, 2)):
        A = la.rand_mat(F, rng, 5, 6)
        B = la.rand_mat(F, rng, 6, 4)
        C = la.mat_mul(F, A, B)
        for i in range(5):
            for j in range(4):
                acc = 0
                for k in range(6):
                    acc = F.add(acc, F.mul(int(A[i, k]), int(B[k, j])))
                assert acc == C[i, j]


def test_packed_matmul_against_naive_loops():
    # Kronecker-packed GF(p^2) products, with inner dimensions past one
    # packed chunk (GF(49) packs 455 columns per product, GF(9) 8191)
    rng = np.random.default_rng(37)
    cases = ((F4, 9), (make_field(3, 2), 9), (make_field(3, 2), 8300),
             (make_field(5, 2), 40), (make_field(7, 2), 1000))
    for F, k in cases:
        A = la.rand_mat(F, rng, 3, k)
        B = la.rand_mat(F, rng, k, 2)
        C = la.mat_mul(F, A, B)
        for i in range(3):
            for j in range(2):
                acc = 0
                for t in range(k):
                    acc = F.add(acc, F.mul(int(A[i, t]), int(B[t, j])))
                assert acc == C[i, j], (F, k, i, j)


def test_stacked_matmul_matches_slices():
    # (c, m, k) @ (c, k, n) stacks: the idempotent scan's 2048 x 8 x 8 chunks
    # and an empty inner dimension.  GF(9) stacks take the x-power product,
    # the 2-D slices the packed one.
    rng = np.random.default_rng(43)
    for F in (F2, make_field(3, 2), make_field(2, 3), make_field(23, 2),
              make_field(2147483647)):
        for c, m, k, n in ((2048, 8, 8, 8), (5, 3, 0, 4), (3, 4, 6, 2)):
            A = rng.integers(0, F.q, size=(c, m, k), dtype=np.int64)
            B = rng.integers(0, F.q, size=(c, k, n), dtype=np.int64)
            C = la.mat_mul(F, A, B)
            assert C.shape == (c, m, n)
            for i in range(c):
                assert np.array_equal(C[i], la.mat_mul(F, A[i], B[i])), (F, c, m, k, n, i)


def _monomial(F, rng, m, k, units_only=False):
    """m x k matrix with at most one nonzero per row, some rows zero."""
    X = la.zeros(m, k)
    rows = np.flatnonzero(rng.random(m) < 0.75)
    vals = np.ones(rows.size, dtype=np.int64) if units_only else rng.integers(1, F.q, rows.size)
    X[rows, rng.integers(0, k, rows.size)] = vals
    return X


def _dense_routes(F, A, B):
    """The dense products the gather must agree with."""
    out = [la._mm_xpow(F, A, B)]
    if F.e == 2 and A.shape[1]:
        out.append(np.empty((A.shape[0], B.shape[1]), dtype=np.int64))
        la._mm_kron(F, A, B, out[-1], accumulate=False)
    return out


@pytest.mark.parametrize("F", [F4, make_field(3, 2), make_field(2, 3), make_field(3, 3),
                               make_field(23, 2)], ids=str)
def test_monomial_matmul_matches_dense_route(F):
    rng = np.random.default_rng(53)
    cases = []
    for m, k, n in ((7, 5, 6), (5, 5, 5), (4, 9, 3)):
        dense_a, dense_b = la.rand_mat(F, rng, m, k), la.rand_mat(F, rng, k, n)
        dense_a[:, :2] = rng.integers(1, F.q, (m, 2))  # two nonzeros in every row
        dense_b[:2] = rng.integers(1, F.q, (2, n))  # and in every column
        for units in (False, True):
            cases += [
                (_monomial(F, rng, m, k, units), dense_b),
                (dense_a, _monomial(F, rng, n, k, units).T.copy()),
                (_monomial(F, rng, m, k, units), _monomial(F, rng, n, k, units).T.copy()),
            ]
        cases += [(la.zeros(m, k), dense_b), (dense_a, la.zeros(k, n)),
                  (la.identity(m)[:, :k] if m >= k else la.identity(k)[:m], dense_b)]
    cases += [(np.array([[c]]), np.array([[d]])) for c in (0, 1, F.q - 1) for d in (0, 1, 2)]
    cases += [(la.zeros(0, 4), la.rand_mat(F, rng, 4, 3)), (la.identity(3), la.zeros(3, 0)),
              (la.zeros(3, 4)[:, :2], la.zeros(2, 0))]
    for A, B in cases:
        C = la._mm_monomial(F, A, B)
        assert C is not None and C.dtype == np.int64
        for D in _dense_routes(F, A, B):
            assert np.array_equal(C, D), (F, A, B)
        assert np.array_equal(la.mat_mul(F, A, B), C)
    # with two nonzeros in a row of A and in a column of B, the dense route runs
    assert la._mm_monomial(F, dense_a, dense_b) is None
    # an empty inner dimension never reaches the gather
    assert np.array_equal(la.mat_mul(F, la.zeros(3, 0), la.zeros(0, 2)), la.zeros(3, 2))
    # the result is fresh: writing into it leaves both operands as they were
    for A, B in cases:
        before = A.copy(), B.copy()
        C = la.mat_mul(F, A, B)
        C[...] = 1
        assert np.array_equal(A, before[0]) and np.array_equal(B, before[1])


def test_packed_matmul_worst_case_slots():
    # every digit p-1 drives each packed slot to its bound; two full chunks
    # plus a remainder must still come out exact
    for F in (F4, make_field(3, 2), make_field(7, 2)):
        k = 2 * F.kron_plan()[1] + 3
        A = np.full((2, k), F.q - 1, dtype=np.int64)
        B = np.full((k, 2), F.q - 1, dtype=np.int64)
        expect = F.mul(F.mul(F.q - 1, F.q - 1), k % F.p)
        assert np.all(la.mat_mul(F, A, B) == expect), F


def test_mat_submul_into_view(monkeypatch):
    # one-row blocks exercise the blocked accumulation of packed products
    monkeypatch.setattr(la, "_BLOCK_ELEMS", 4)
    rng = np.random.default_rng(41)
    for F in (F3, F4, make_field(3, 2), make_field(2, 4), make_field(101, 2)):
        W = la.rand_mat(F, rng, 9, 12)
        A = la.rand_mat(F, rng, 5, 6)
        B = la.rand_mat(F, rng, 6, 7)
        expect = W.copy()
        expect[2:7, 3:10] = F.vec_sub(W[2:7, 3:10], la.mat_mul(F, A, B))
        la.mat_submul_into(F, W[2:7, 3:10], A, B)
        assert np.array_equal(W, expect), F


def test_large_prime_matmul_split_path():
    # (p-1)^2 > 2^53 forces the 16-bit operand split
    F = make_field(2147483647)
    rng = np.random.default_rng(3)
    A = la.rand_mat(F, rng, 4, 5)
    B = la.rand_mat(F, rng, 5, 3)
    C = la.mat_mul(F, A, B)
    for i in range(4):
        for j in range(3):
            acc = sum(int(A[i, k]) * int(B[k, j]) for k in range(5)) % F.p
            assert acc == C[i, j]


@pytest.mark.parametrize("p", [2, 3, 5, 67108859, 2147483647])
def test_prime_matmul_remainder_matches_plain_mod(p):
    # each route of _mm_prime (one product, split inner dimension, 16-bit
    # operand split) on both sides of the in-place remainder's size cutoff,
    # and stacked, against exact integer products reduced with plain % p
    rng = np.random.default_rng(p % 1000)
    for m, k, n in ((3, 4, 5), (40, 7, 60), (64, 33, 64), (2, 1, 2048)):
        for stack in ((), (3,)):
            A = rng.integers(0, p, size=stack + (m, k), dtype=np.int64)
            B = rng.integers(0, p, size=stack + (k, n), dtype=np.int64)
            exact = np.matmul(A.astype(object), B.astype(object)) % p
            C = la._mm_prime(p, A, B)
            assert C.dtype == np.int64 and C.shape == exact.shape
            assert np.array_equal(C, exact.astype(np.int64)), (m, k, n, stack)


def test_matrix_text_roundtrip():
    rng = np.random.default_rng(17)
    for F in (F3, F4, make_field(13)):
        A = la.rand_mat(F, rng, 3, 4)
        text = la.mat_to_text(F, A)
        assert text.splitlines()[0] == "3 4"
        assert np.array_equal(la.mat_from_text(F, text), A)
    with pytest.raises(ValueError):
        la.mat_from_text(F3, "2 2\n1 2\n0")
    for empty in ("", " \n\n"):
        with pytest.raises(ValueError, match="empty matrix text"):
            la.mat_from_text(F3, empty)


def test_min_poly_known_shapes():
    F3 = make_field(3)
    J3 = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=np.int64)
    assert la.min_poly(F3, J3).tolist() == [2, 0, 0, 1]  # (x-1)^3 over GF(3)
    F2 = make_field(2)
    # companion matrix recovers its defining polynomial
    f = [1, 1, 0, 0, 1]  # x^4 + x + 1
    C = np.zeros((4, 4), dtype=np.int64)
    C[1:, :3] = np.eye(3, dtype=np.int64)
    C[:, 3] = [1, 1, 0, 0]
    assert la.min_poly(F2, C).tolist() == f
    F7 = make_field(7)
    D = np.diag(np.array([1, 2, 2], dtype=np.int64))
    # repeated eigenvalue contributes once: (x-1)(x-2)
    assert la.min_poly(F7, D).tolist() == [2, 4, 1]


def test_mat_eval_poly_annihilates_min_poly():
    F4 = make_field(2, 2)
    rng = np.random.default_rng(21)
    for _ in range(10):
        A = la.rand_mat(F4, rng, 5, 5)
        f = la.min_poly(F4, A)
        assert 1 <= len(f) - 1 <= 5
        assert not la.mat_eval_poly(F4, f, A).any()
        # no lower-degree monic annihilator: check one degree down
        if len(f) > 2:
            g = f[1:].copy()
            assert la.mat_eval_poly(F4, g, A).any()
