"""Reference routines that only the tests call.

Each one answers a question the library answers faster, by a separate and
plainer route, so the tests can check the fast path against it.
"""

from __future__ import annotations

import numpy as np

from sympow import linalg as la
from sympow.gf import Field
from sympow.groups import ModuleRep
from sympow.modules import Registry, decompose, dvec_add, quotient_module, submodule


def rand_invertible(F: Field, rng: np.random.Generator, n: int) -> np.ndarray:
    """A uniformly random invertible n x n matrix, by rejection."""
    while True:
        A = la.rand_mat(F, rng, n, n)
        if la.rank(F, A) == n:
            return A


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
    sub = submodule(C, sub_cols, verify=False)
    quo = quotient_module(C, sub_cols)
    vc = decompose(C, registry, seed)
    vs = decompose(sub, registry, seed)
    vq = decompose(quo, registry, seed)
    return vc == dvec_add(vs, vq)
