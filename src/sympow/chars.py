"""Brauer characters with exact integer values.

A Brauer character is an int64 array of root-of-unity multiplicities, one
row per p-regular conjugacy class (in `GroupData.p_regular_class_reps`
order) and one column per N-th root of unity, N the lcm of the p-regular
class orders: entry (c, j) counts the eigenvalues at class c that lift to
exp(2*pi*i*j/N).  The raw counts are finer than the character (the all-ones
row sums to zero in C), so zero tests go through `reduced`, one integer
product into the power basis of Z[zeta_N].  No complex arithmetic is needed.

Eigenvalue multiplicities come from kernel ranks over a splitting field
GF(q^s), s the multiplicative order of q modulo the element order, with the
distinguished root w = r^((q^s-1)/o) for the canonical primitive root r.

Symmetric powers never need their own matrices.  A p-regular element is
diagonalizable over the splitting field, so once the exponents e of its
eigenvalues w^e on the (d+1)-dimensional space are known, the character of
Sym^n at it is the degree-n coefficient of prod_e 1/(1 - x^e t) in Z[Z/o][[t]]
(a Molien-type series; Benson, Polynomial Invariants of Finite Groups, ch. 2).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import linalg as la
from .gf import Field
from .groups import GroupData
from .polyfit import HOLDOUT, tail_threshold


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact division of integer polynomials (little-endian, monic divisor)."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        quot[i - dd] = c
        if c:
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    if any(num[:dd]):
        raise AssertionError("division was not exact")
    return quot


# cyclotomic(N) and _reduction_matrix(N) are pure functions of one integer,
# shared by every field and group, so their memos are global like the field
# interning in `gf`
@functools.cache
def cyclotomic(N: int) -> tuple[int, ...]:
    """Coefficients of the N-th cyclotomic polynomial, little-endian."""
    num = [-1] + [0] * (N - 1) + [1]
    for d in range(1, N):
        if N % d == 0:
            num = _poly_div_exact(num, cyclotomic(d))
    return tuple(num)


def reduce_root_vector(vals, N: int) -> tuple[int, ...]:
    """Canonical form of sum(c_j * zeta_N^j) in the power basis of Z[zeta_N]."""
    phi = cyclotomic(N)
    deg = len(phi) - 1
    work = list(vals)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            for j in range(deg + 1):
                work[i - deg + j] -= c * phi[j]
    return tuple(work[:deg])


@functools.cache
def _reduction_matrix(N: int) -> np.ndarray:
    """Row j is `reduce_root_vector` of the j-th unit vector of length N."""
    return np.array([reduce_root_vector(e, N) for e in np.eye(N, dtype=np.int64).tolist()],
                    dtype=np.int64)


def reduced(values: np.ndarray) -> np.ndarray:
    """Raw multiplicities (last axis N) in the power basis of Z[zeta_N].

    One integer product reduces every class and degree at once.
    """
    return values @ _reduction_matrix(values.shape[-1])


def root_space_dims(F: Field, A: np.ndarray, o: int) -> list[int]:
    """dim ker(A - w^k I) for k = 0..o-1, w the canonical o-th root over GF(q^s).

    A need not have order o; this probes which o-th roots of unity occur as
    eigenvalues of A and with what geometric multiplicity.
    """
    K, table, w = F.splitting(o)
    AK = table[A] if table is not None else A
    n = A.shape[0]
    out = []
    zeta = 1
    for _ in range(o):
        B = AK.copy()
        d = np.arange(n)
        B[d, d] = K.vec_sub(B[d, d], np.full(n, zeta, dtype=np.int64))
        out.append(n - la.rank(K, B))
        zeta = K.mul(zeta, w)
    return out


def _class_frame(G: GroupData) -> tuple[tuple[int, ...], int]:
    reps = tuple(G.p_regular_class_reps())
    N = math.lcm(*(G.element_order(r) for r in reps))
    return reps, N


def _sym_exponent_counts(exps: list[int], o: int, degrees: list[int]) -> dict[int, list[int]]:
    """Row k counts the degree-k monomials in eigenvalues w^e by exponent sum mod o.

    Row k is the degree-k coefficient of prod_e 1/(1 - x^e t) over Z[Z/o].
    With c_i the partial product over the first i eigenvalues,
    c_i[k] = c_(i-1)[k] + x^(e_i) c_i[k-1], so advancing one degree needs only
    the previous degree's len(exps) + 1 rows of o counts each.
    """
    want = set(degrees)
    prev = [[1] + [0] * (o - 1)] * (len(exps) + 1)
    out = {0: prev[-1]} if 0 in want else {}
    for k in range(1, degrees[-1] + 1):
        cur = [[0] * o]
        for row, e in zip(prev[1:], exps):
            # shifted[s] = row[(s - e) % o]
            shifted = row[o - e:] + row[:o - e]
            cur.append([a + b for a, b in zip(cur[-1], shifted)])
        prev = cur
        if k in want:
            out[k] = cur[-1]
    return out


def sym_brauer_sequence(group: GroupData, degrees) -> dict[int, np.ndarray]:
    """Brauer characters of Sym^k for each requested degree k, as raw arrays.

    Each p-regular class representative is probed once, on its own
    (d+1)-dimensional matrix, for the exponents of its eigenvalues; the
    values of every degree then follow by exact counting over Z/o, with no
    symmetric-power matrix built.  Work grows linearly in the top degree and
    memory holds only the requested degrees.
    """
    degrees = sorted(set(int(d) for d in degrees))
    if not degrees:
        return {}
    if min(degrees) < 0:
        raise ValueError("degrees must be nonnegative")
    reps, N = _class_frame(group)
    out = {k: np.zeros((len(reps), N), dtype=np.int64) for k in degrees}
    for i, r in enumerate(reps):
        o = group.element_order(r)
        dims = root_space_dims(group.field, group.elements[r], o)
        if sum(dims) != group.dim:
            raise AssertionError("p-regular action must be diagonalizable over GF(q^s)")
        exps = [s for s, ds in enumerate(dims) for _ in range(ds)]
        for k, counts in _sym_exponent_counts(exps, o, degrees).items():
            out[k][i, ::N // o] = counts
    return out


def delta_vanishing_report(chars: dict[int, np.ndarray], j: int, m: int, k: int,
                           n_max: int) -> dict:
    """Does the k-th difference of n -> char(Sym^(m n + j)) vanish eventually?

    `chars` maps each degree m n + j, n = 0..n_max, to its Brauer character
    (`sym_brauer_sequence`), so one sequence serves every offset and order
    of a job.  The report gives threshold data over that window:
    `vanishes_from` is the least n from which every k-th difference is zero
    and `zero_tail` counts the zero differences from there on.  A zero tail
    shorter than HOLDOUT differences is not evidence of vanishing, so the
    report then gives None and 0.
    """
    if n_max < k:
        raise ValueError("window too short for the requested difference order")
    seq = reduced(np.stack([chars[m * n + j] for n in range(n_max + 1)]))
    flags = [not d.any() for d in np.diff(seq, n=k, axis=0)]
    thr = tail_threshold(flags)
    if thr is not None and len(flags) - thr < HOLDOUT:
        thr = None
    return {
        "stride": m,
        "offset": j,
        "order": k,
        "n_max": n_max,
        "vanishes_from": thr,
        "zero_tail": 0 if thr is None else len(flags) - thr,
    }


def char_growth_check(G: GroupData, chars: dict[int, np.ndarray], rep: int, a: int,
                      d_fix: int, n_max: int) -> dict:
    """Check one class's character along Sym^(a + n*#G) for polynomial growth.

    `chars` holds the Brauer characters of those degrees, n = 0..n_max, and
    `rep` is one of `G.p_regular_class_reps()`.  The fixed-locus dimension
    d_fix bounds the degree: differences of order d_fix + 2 should vanish
    from some threshold on.  Reports the threshold per coordinate of the
    reduced value.
    """
    reps = G.p_regular_class_reps()
    if rep not in reps:
        raise ValueError("rep must be a p-regular class representative")
    k = d_fix + 2
    if n_max < k:
        raise ValueError("window too short for the requested difference order")
    row = reps.index(rep)
    seq = reduced(np.stack([chars[a + n * G.order][row] for n in range(n_max + 1)]))
    thresholds = [tail_threshold((col == 0).tolist()) for col in np.diff(seq, n=k, axis=0).T]
    return {
        "class_rep": rep,
        "offset": a,
        "difference_order": k,
        "thresholds": thresholds,
        "ok": all(t is not None for t in thresholds),
    }
