"""Reference routines and constructions that only the tests call.

The reference routines answer a question the library answers faster, by a
separate and plainer route, so the tests can check the fast path against
it: one-pivot-at-a-time elimination for the blocked `linalg` elimination,
Brauer characters from a module's own matrices for the eigenvalue
counting of `chars.sym_brauer_sequence`, and the dense assembly of a Koszul
differential for the blocks `koszul.KoszulComplex` holds.  The constructions (direct sums,
quotients, scalar extension, the zero character) build test inputs that no
library code needs.
"""

from __future__ import annotations

import weakref

import numpy as np

from sympow import linalg as la
from sympow.chars import _class_frame, root_space_dims
from sympow.gf import Field, extension
from sympow.groups import GroupData, ModuleRep, close_group, sym_dim
from sympow.koszul import KoszulComplex, mul_form_matrix
from sympow.modules import (Registry, _quotient_from_rowspace, decompose, dvec_add,
                            projective_part_dim, submodule)


def rand_invertible(F: Field, rng: np.random.Generator, n: int) -> np.ndarray:
    """A uniformly random invertible n x n matrix, by rejection."""
    while True:
        A = la.rand_mat(F, rng, n, n)
        if la.rank(F, A) == n:
            return A


def _echelon_naive(F: Field, A: np.ndarray, reduce: bool = True):
    """Reference one-pivot-at-a-time (reduced) row echelon; returns (R, pivots)."""
    W = A.astype(np.int64, copy=True)
    m, n = W.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        rows = np.nonzero(W[r:, c])[0]
        if rows.size == 0:
            continue
        i = r + int(rows[0])
        if i != r:
            W[[r, i]] = W[[i, r]]
        W[r] = F.vec_mul(W[r], np.int64(F.inv(int(W[r, c]))))
        below = W[r + 1:, c]
        nz = np.nonzero(below)[0]
        if nz.size:
            rows_idx = r + 1 + nz
            W[rows_idx] = F.vec_sub(W[rows_idx], F.vec_mul(below[nz][:, None], W[r][None, :]))
        pivots.append(c)
        r += 1
    if reduce:
        for j in range(len(pivots) - 1, 0, -1):
            c = pivots[j]
            above = W[:j, c]
            nz = np.nonzero(above)[0]
            if nz.size:
                W[nz] = F.vec_sub(W[nz], F.vec_mul(above[nz][:, None], W[j][None, :]))
    return W, pivots


def unipotent_jordan(F: Field, A: np.ndarray) -> tuple[int, ...]:
    """Jordan block sizes of a unipotent matrix, descending.

    Sizes come from ranks of powers of N = A - I: the number of blocks of
    size >= k is rank(N^(k-1)) - rank(N^k).
    """
    n = A.shape[0]
    N = F.vec_sub(A, la.identity(n))
    ranks = [n]
    P = N
    while np.any(P):
        ranks.append(la.rank(F, P))
        if len(ranks) > n + 1:
            raise ValueError("matrix is not unipotent")
        P = la.mat_mul(F, P, N)
    ranks.append(0)
    blocks_ge = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    partition: list[int] = []
    for k in range(len(blocks_ge), 0, -1):
        count = blocks_ge[k - 1] - (blocks_ge[k] if k < len(blocks_ge) else 0)
        partition.extend([k] * count)
    out = tuple(sorted(partition, reverse=True))
    if sum(out) != n:
        raise ValueError("matrix is not unipotent")
    return out


def ses_split_check(C: ModuleRep, sub_cols: np.ndarray, registry: Registry,
                    seed: int) -> bool:
    """Krull-Schmidt splitting test for 0 -> <sub_cols> -> C -> quotient -> 0.

    The oracle for `koszul.check_split_stagewise`: it decomposes the
    submodule and the quotient directly, with none of the stagewise
    shortcuts.
    """
    sub = submodule(C, sub_cols)
    quo = quotient_module(C, sub_cols)
    vc = decompose(C, registry, seed)
    vs = decompose(sub, registry, seed)
    vq = decompose(quo, registry, seed)
    return vc == dvec_add(vs, vq)


def koszul_map(K: KoszulComplex, r: int) -> np.ndarray:
    """tau_(r+1) : C_(r+1) -> C_r of K, assembled densely from its forms.

    Block (S - {i}, S) is (-1)^l times multiplication by forms[i], i = S[l],
    for each (r+1)-subset S of the forms; every other block is zero.
    """
    F, d1 = K.group.field, K.group.dim
    src_deg = K.m * (K.t - r - 1) + K.j
    src, dst = sym_dim(d1, src_deg), sym_dim(d1, src_deg + K.m)
    tau = la.zeros(dst * K.copies(r), src * K.copies(r + 1))
    dst_pos = {T: i for i, T in enumerate(K.subsets[r])}
    mults = [mul_form_matrix(form, K.m, src_deg, d1) for form in K.forms]
    for si, S in enumerate(K.subsets[r + 1]):
        for ell, i in enumerate(S):
            block = F.vec_neg(mults[i]) if ell % 2 else mults[i]
            di = dst_pos[tuple(x for x in S if x != i)]
            tau[di * dst:(di + 1) * dst, si * src:(si + 1) * src] = block
    return tau


def _value_vector(F: Field, A: np.ndarray, o: int, N: int) -> list[int]:
    dims = root_space_dims(F, A, o)
    if sum(dims) != A.shape[0]:
        raise AssertionError("p-regular action must be diagonalizable over GF(q^s)")
    vals = [0] * N
    vals[::N // o] = dims
    return vals


def brauer_char(M: ModuleRep) -> np.ndarray:
    """The Brauer character of a module, from ranks on its own matrices.

    One row per p-regular class rep, one column per N-th root of unity, as
    `chars.sym_brauer_sequence` gives for Sym^n.
    """
    reps, N = _class_frame(M.group)
    acts = M.orbit(la.identity(M.dim))
    rows = [_value_vector(M.field, acts[r], M.group.element_order(r), N) for r in reps]
    return np.array(rows, dtype=np.int64)


def is_projective(M: ModuleRep) -> bool:
    """Is M projective: does its Sylow trace rank fill its dimension?"""
    return projective_part_dim(M) == M.dim


def char_zero(G: GroupData) -> np.ndarray:
    """The zero Brauer character on G's p-regular classes."""
    reps, N = _class_frame(G)
    return np.zeros((len(reps), N), dtype=np.int64)


def direct_sum(M: ModuleRep, N: ModuleRep) -> ModuleRep:
    """M + N, with block-diagonal generator matrices."""
    if M.group is not N.group:
        raise ValueError("direct_sum needs modules over the same group")
    mats = [la.block_diag([a, b]) for a, b in zip(M.mats, N.mats)]
    return ModuleRep(M.group, mats)


def quotient_module(M: ModuleRep, C: np.ndarray) -> ModuleRep:
    """M modulo the G-invariant column space of C, on the free coordinates."""
    R, rk, piv = la.rref(M.field, C.T)
    return _quotient_from_rowspace(M, R[:rk], piv)


def is_iso(M: ModuleRep, N: ModuleRep) -> bool:
    """Krull-Schmidt isomorphism test for any two modules over one group.

    Both are decomposed against one fresh registry, where each indecomposable
    class gets one id, and the decomposition vectors are compared.
    """
    if M.group is not N.group:
        raise ValueError("is_iso needs modules over the same group")
    if M.dim != N.dim:
        return False
    reg = Registry(M.group)
    return decompose(M, reg, 0) == decompose(N, reg, 0)


# extended groups by source group and extension degree; an entry lives as
# long as its source group
_EXTENSIONS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def extended_group(G: GroupData, s: int) -> GroupData:
    """G over GF(q^s) via the canonical embedding, one per (G, s)."""
    groups = _EXTENSIONS.setdefault(G, {})
    if s not in groups:
        big, table = extension(G.field, s)
        groups[s] = close_group(big, [table[g] for g in G.gens])
    return groups[s]


def extend_scalars(M: ModuleRep, s: int) -> ModuleRep:
    """The same module viewed over GF(q^s) via the canonical embedding.

    Extensions of modules over one group share one extended group
    (`extended_group`).
    """
    if s < 1:
        raise ValueError("extension degree must be >= 1")
    if s == 1:
        return M
    _, table = extension(M.field, s)
    return ModuleRep(extended_group(M.group, s), [table[m] for m in M.mats])
