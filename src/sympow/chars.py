"""Brauer characters with exact integer values.

A Brauer character is recorded per p-regular conjugacy class as a vector of
root-of-unity multiplicities: entry j of the class vector counts eigenvalues
lifting to exp(2*pi*i*j/N), where N is the lcm of the p-regular class orders.
That integer encoding avoids complex arithmetic entirely; equality, addition
and the difference operator are exact.

Eigenvalue multiplicities come from kernel ranks over a splitting field
GF(q^s), s the multiplicative order of q modulo the element order, with the
distinguished root w = r^((q^s-1)/o) for the canonical primitive root r.

Symmetric powers never need their own matrices.  A p-regular element is
diagonalizable over the splitting field, so once the exponents e of its
eigenvalues w^e on the (d+1)-dimensional space are known, the character of
Sym^n at it is the degree-n coefficient of prod_e 1/(1 - x^e t) in Z[Z/o][[t]]
(a Molien-type series; Benson, Polynomial Invariants of Finite Groups, ch. 2).
`brauer_char` keeps the matrix route for arbitrary modules.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg as la
from .gf import Field, extension
from .groups import GroupData, ModuleRep
from .polyfit import delta, tail_threshold

# cyclotomic(N) is a pure function of one integer, shared by every field and
# group, so its memo is global like the field interning in `gf`
_CYCLO_CACHE: dict[int, tuple[int, ...]] = {1: (-1, 1)}


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


def cyclotomic(N: int) -> tuple[int, ...]:
    """Coefficients of the N-th cyclotomic polynomial, little-endian."""
    if N not in _CYCLO_CACHE:
        num = [-1] + [0] * (N - 1) + [1]
        for d in range(1, N):
            if N % d == 0:
                num = _poly_div_exact(num, cyclotomic(d))
        _CYCLO_CACHE[N] = tuple(num)
    return _CYCLO_CACHE[N]


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


def _mult_order(q: int, o: int) -> int:
    s, acc = 1, q % o
    while acc != 1:
        acc = (acc * q) % o
        s += 1
    return s


def _splitting_data(F: Field, o: int) -> tuple[Field, np.ndarray | None, int]:
    """(splitting field K of x^o - 1, embedding table or None, o-th root).

    Kept on F (`Field.splitting`), next to its op tables.
    """
    if o not in F.splitting:
        if o == 1:
            F.splitting[o] = (F, None, 1 % F.q if F.q > 1 else 0)
        else:
            if o % F.p == 0:
                raise ValueError("element order divisible by the characteristic")
            s = _mult_order(F.q, o)
            K, table = (F, None) if s == 1 else extension(F, s)
            w = K.pow(K.root, (K.q - 1) // o)
            F.splitting[o] = (K, table, w)
    return F.splitting[o]


def root_space_dims(F: Field, A: np.ndarray, o: int) -> list[int]:
    """dim ker(A - w^k I) for k = 0..o-1, w the canonical o-th root over GF(q^s).

    A need not have order o; this probes which o-th roots of unity occur as
    eigenvalues of A and with what geometric multiplicity.
    """
    K, table, w = _splitting_data(F, o)
    AK = table[A] if table is not None else A
    n = A.shape[0]
    out = []
    zeta = 1 if o >= 1 else 0
    for _ in range(o):
        B = AK.copy()
        d = np.arange(n)
        B[d, d] = K.vec_sub(B[d, d], np.full(n, zeta, dtype=np.int64))
        out.append(n - la.rank(K, B))
        zeta = K.mul(zeta, w)
    return out


class BrauerChar:
    """Integer multiplicity vectors of N-th root lifts, one per p-regular class."""

    __slots__ = ("modulus", "reps", "values")

    def __init__(self, modulus: int, reps: tuple[int, ...], values: dict[int, tuple[int, ...]]):
        self.modulus = modulus
        self.reps = reps
        self.values = values

    def _check(self, other: "BrauerChar"):
        if self.modulus != other.modulus or self.reps != other.reps:
            raise ValueError("characters live on different class data")

    def __add__(self, other: "BrauerChar") -> "BrauerChar":
        self._check(other)
        vals = {r: tuple(a + b for a, b in zip(self.values[r], other.values[r])) for r in self.reps}
        return BrauerChar(self.modulus, self.reps, vals)

    def __sub__(self, other: "BrauerChar") -> "BrauerChar":
        self._check(other)
        vals = {r: tuple(a - b for a, b in zip(self.values[r], other.values[r])) for r in self.reps}
        return BrauerChar(self.modulus, self.reps, vals)

    def scale(self, c: int) -> "BrauerChar":
        vals = {r: tuple(c * a for a in self.values[r]) for r in self.reps}
        return BrauerChar(self.modulus, self.reps, vals)

    def reduced(self) -> dict[int, tuple[int, ...]]:
        """Class-function values in the power basis of Z[zeta_N].

        The raw multiplicity tuples are finer than the character (the all-ones
        vector sums to zero in C); equality and zero tests go through this
        canonical reduction modulo the N-th cyclotomic polynomial.
        """
        return {r: reduce_root_vector(v, self.modulus) for r, v in self.values.items()}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BrauerChar)
            and self.modulus == other.modulus
            and self.reps == other.reps
            and self.reduced() == other.reduced()
        )

    def is_zero(self) -> bool:
        return all(not any(v) for v in self.reduced().values())

    def degree(self) -> int:
        return sum(self.values[self.reps[0]])

    def serialize(self) -> str:
        parts = [f"N={self.modulus}"]
        for r in self.reps:
            parts.append(f"{r}:" + ",".join(str(c) for c in self.values[r]))
        return ";".join(parts)

    def __repr__(self) -> str:
        return f"BrauerChar({self.serialize()})"


def _class_frame(G: GroupData) -> tuple[tuple[int, ...], int]:
    reps = tuple(G.p_regular_class_reps())
    N = math.lcm(*(G.element_order(r) for r in reps))
    return reps, N


def _value_vector(F: Field, A: np.ndarray, o: int, N: int) -> tuple[int, ...]:
    dims = root_space_dims(F, A, o)
    if sum(dims) != A.shape[0]:
        raise AssertionError("p-regular action must be diagonalizable over GF(q^s)")
    vals = [0] * N
    step = N // o
    for k, dk in enumerate(dims):
        vals[(k * step) % N] += dk
    return tuple(vals)


def brauer_char(M: ModuleRep) -> BrauerChar:
    """The Brauer character of a module, probed on each p-regular class rep."""
    G = M.group
    reps, N = _class_frame(G)
    values: dict[int, tuple[int, ...]] = {}
    for r in reps:
        o = G.element_order(r)
        if o == 1:
            values[r] = tuple([M.dim] + [0] * (N - 1))
        else:
            values[r] = _value_vector(M.field, M.act(r), o, N)
    return BrauerChar(N, reps, values)


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


def sym_brauer_sequence(group: GroupData, degrees) -> dict[int, BrauerChar]:
    """Brauer characters of Sym^k for each requested degree k.

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
    values: dict[int, dict[int, tuple[int, ...]]] = {k: {} for k in degrees}
    for r in reps:
        A = group.elements[r]
        o = group.element_order(r)
        dims = root_space_dims(group.field, A, o)
        if sum(dims) != A.shape[0]:
            raise AssertionError("p-regular action must be diagonalizable over GF(q^s)")
        exps = [s for s, ds in enumerate(dims) for _ in range(ds)]
        step = N // o
        for k, counts in _sym_exponent_counts(exps, o, degrees).items():
            vals = [0] * N
            for s, c in enumerate(counts):
                vals[s * step] = c
            values[k][r] = tuple(vals)
    return {k: BrauerChar(N, reps, values[k]) for k in degrees}


def check_delta_vanishing(group: GroupData, j: int, m: int, k: int, n_max: int) -> dict:
    """Does the k-th difference of n -> char(Sym^(m n + j)) vanish eventually?

    Returns threshold data over the window n = 0..n_max; `vanishes_from` is
    the least n with all later k-th differences zero, or None if even the last
    computed difference is nonzero.
    """
    chars = sym_brauer_sequence(group, [m * n + j for n in range(n_max + 1)])
    return delta_vanishing_report(chars, j, m, k, n_max)


def delta_vanishing_report(chars: dict[int, BrauerChar], j: int, m: int, k: int,
                           n_max: int) -> dict:
    """The `check_delta_vanishing` report from characters already computed.

    `chars` maps each degree m n + j, n = 0..n_max, to its Brauer character,
    so one sequence can serve every offset and order of a job.
    """
    if n_max < k:
        raise ValueError("window too short for the requested difference order")
    seq = [chars[m * n + j] for n in range(n_max + 1)]
    deltas = delta(seq, k)
    flags = [d.is_zero() for d in deltas]
    thr = tail_threshold(flags)
    return {
        "stride": m,
        "offset": j,
        "order": k,
        "n_max": n_max,
        "vanishes_from": thr,
        "zero_tail": 0 if thr is None else len(flags) - thr,
    }


def char_growth_check(G: GroupData, g_idx: int, a: int, d_fix: int, n_max: int) -> dict:
    """Check one class's character along Sym^(a + n*#G) for polynomial growth.

    The fixed-locus dimension d_fix bounds the degree: differences of order
    d_fix + 2 should vanish from some threshold on.  Reports the threshold per
    root-of-unity coordinate.
    """
    if G.element_order(g_idx) % G.field.p == 0:
        raise ValueError("class representative must be p-regular")
    rep_idx = None
    for cls in G.conj_classes():
        if g_idx in cls:
            rep_idx = cls[0]
            break
    order = G.order
    chars = sym_brauer_sequence(G, [a + n * order for n in range(n_max + 1)])
    seq = [chars[a + n * order].reduced()[rep_idx] for n in range(n_max + 1)]
    k = d_fix + 2
    if n_max < k:
        raise ValueError("window too short for the requested difference order")
    N = len(seq[0])
    thresholds = []
    for coord in range(N):
        vals = [v[coord] for v in seq]
        deltas = delta(vals, k)
        thresholds.append(tail_threshold([d == 0 for d in deltas]))
    return {
        "class_rep": rep_idx,
        "offset": a,
        "difference_order": k,
        "thresholds": thresholds,
        "ok": all(t is not None for t in thresholds),
    }
