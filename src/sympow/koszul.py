"""Koszul complexes of invariant norm forms and their splitting checks.

The forms are group norms: N_i is the product over all of G of the translates
of a random linear form r_i, hence exactly invariant (the product permutes).
d of them give a complex

    0 -> C_d -> ... -> C_1 -> C_0 -> coker -> 0

with C_r a direct sum of C(d, r) copies of the degree-(m(t-r)+j) symmetric
power indexed by r-subsets in combinations order, and differentials acting as
signed multiplication by the forms.  Exactness is pure rank bookkeeping;
stage splitting is the Krull-Schmidt criterion: a short exact sequence of
modules splits iff the decomposition vector of the middle equals the sum of
the outer ones.

A complex is held as its multiplication blocks, never as dense maps.  For
each map tau_(r+1) and each form f_i it keeps the nonzero entries of M_i,
multiplication by f_i from the Sym degree of C_(r+1) to that of C_r
(`mul_form_entries`): at most #supp(f_i) per column, computed once per
complex.  The subset rule (`KoszulComplex.faces`) places them, with their
signs, as the blocks of tau_(r+1); every other block is zero.  Three readers
assemble what they need: `_verify_complex` multiplies single blocks,
`KoszulComplex._echelon` scatters only the rows it eliminates, and
`KoszulComplex.map` assembles a dense tau, which only a kernel at an inexact
spot reads.

Each map is eliminated forward once, transposed, top-down, and that
echelon form is kept: ranks and exactness read its pivot count alone.  Of
tau_(r+1) transposed only the rows outside the pivots of the map above are
eliminated: C_(r+1) is the span of those coordinates plus im tau_(r+2),
which tau_(r+1) kills (tau o tau = 0, checked exactly by `_verify_complex`),
so they span its row space.  The form is back-substituted in place the first
time a map's RREF is read (`image_rref`); its first rank rows are the
canonical basis of the map's image, off which the quotients
Q_s = C_s / im tau_(s+1) (`quotient`; Q_0 is the cokernel) and, at exact
spots, the canonical kernel bases (`kernel`) are read.  So at an all-exact
d = 3 complex the middle map is only ever reduced forward.  Only a kernel at
an inexact spot costs a second elimination.

A complex holds its terms as the group's Sym matrices and builds a term's
module only when a check reads it (`KoszulComplex.term`): the identity
checks, ranks and dimensions need none, and with precomputed Sym vectors an
all-exact complex with a free cokernel never builds C_1 or C_top.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from . import linalg as la
from .gf import Field
from .groups import GroupData, ModuleRep, monomial_index, monomials, sym_dim
from .modules import (Registry, _quotient_from_rowspace, child_rng, decompose,
                      dvec_add, dvec_scale, dvec_sub, free_rank, module_on_basis,
                      nonfree)
from .polyfit import tail_threshold

FORM_ATTEMPTS = 64


def mul_form_entries(form: np.ndarray, deg: int, k: int, d1: int):
    """Nonzero entries (rows, cols, vals) of multiplication by a degree-`deg`
    form, Sym^k -> Sym^(k+deg).

    `form` holds the coefficients on the degree-`deg` monomial basis.  The
    column of a source monomial z^a has the coefficient of z^b at the
    position of z^(a+b), which `monomial_index` reads off for every (b, a)
    pair at once.  The (row, col) pairs are distinct, #supp(form) per column.
    """
    src = monomials(d1, k)
    nz = np.flatnonzero(form)
    prods = (monomials(d1, deg)[nz, None, :] + src[None, :, :]).reshape(-1, d1)
    rows = monomial_index(prods)
    if not np.array_equal(monomials(d1, k + deg)[rows], prods):
        raise AssertionError("monomial index lookup failed")
    return rows, np.tile(np.arange(len(src)), len(nz)), np.repeat(form[nz], len(src))


def _dense(entries: tuple, m: int, n: int) -> np.ndarray:
    """The m x n matrix with the entries (rows, cols, vals), zero elsewhere."""
    rows, cols, vals = entries
    out = la.zeros(m, n)
    out[rows, cols] = vals
    return out


def mul_form_matrix(form: np.ndarray, deg: int, k: int, d1: int) -> np.ndarray:
    """Matrix of multiplication by a degree-`deg` form: Sym^k -> Sym^(k+deg)."""
    return _dense(mul_form_entries(form, deg, k, d1), sym_dim(d1, k + deg), sym_dim(d1, k))


def form_product(F: Field, lin_forms: list[np.ndarray]) -> np.ndarray:
    """Coefficient vector of the product of linear forms, graded-lex basis.

    A fold: each step applies multiplication by the product so far,
    Sym^1 -> Sym^(deg+1), to the next linear form.
    """
    acc = np.array([1], dtype=np.int64)
    for deg, lin in enumerate(lin_forms):
        M = mul_form_matrix(acc, deg, 1, lin.shape[0])
        acc = la.mat_mul(F, M, lin[:, None])[:, 0]
    return acc


def is_invariant_form(G: GroupData, form: np.ndarray, deg: int) -> bool:
    F = G.field
    for S in G.sym(deg):
        if not np.array_equal(la.mat_mul(F, S, form[:, None])[:, 0], form):
            return False
    return True


def choose_forms(G: GroupData, d: int, seed: int) -> tuple[list[np.ndarray], int]:
    """d independent invariant norm forms of degree #G; returns (forms, degree).

    Each form is the product of the G-orbit of a random linear form.
    Invariance is verified against every generator, and independence is
    certified by exactness of the level-d complex they define; failing
    choices are resampled up to a fixed budget.
    """
    F = G.field
    d1 = G.dim
    if d1 != d + 1:
        raise ValueError("form count must match the projective dimension")
    m = G.order
    rng = child_rng(seed, "forms", F.p, F.e, G.order)
    last = "no attempt"
    for _ in range(FORM_ATTEMPTS):
        forms = []
        for _ in range(d):
            r = la.rand_mat(F, rng, d1, 1)[:, 0]
            if not np.any(r):
                r[0] = 1
            orbit = ModuleRep(G, G.gens).orbit(r[:, None])
            forms.append(form_product(F, [x[:, 0] for x in orbit]))
        if not all(is_invariant_form(G, N, m) for N in forms):
            last = "norm form failed the invariance identity"
            continue
        K = build_complex(G, forms, t=d, j=0)
        rep = check_exact(K)
        if rep["exact"]:
            return forms, m
        last = f"level-{d} complex inexact at stages {rep['inexact_at']}"
    raise RuntimeError(f"no valid invariant forms found: {last}")


@dataclass
class KoszulComplex:
    """Terms C_0..C_top and the blocks of tau_(r+1) : C_(r+1) -> C_r, r < top.

    C_r is `copies(r)` = C(d, r) copies of Sym^(m(t-r)+j).  The complex
    keeps each term's Sym matrices (the group's own, one per generator) and
    builds the term as a `ModuleRep` only when a check reads it (`term`),
    caching it.  A one-copy term shares the group's Sym matrices; only a
    term of two or more copies is a block-diagonal copy.  Dimensions (`dim`)
    need no module.

    No dense tau is stored.  `mults[r][i]` holds the nonzero entries
    (rows, cols, vals) of M_i, multiplication by forms[i] from the Sym degree
    of C_(r+1) to that of C_r (`mult` gives it dense).  `faces[r]` lists the
    nonzero blocks of tau_(r+1) as (T, S, sign, i), T and S positions in
    `subsets`: for i = S[l], the block in row block S - {i} and column block
    S is (-1)^l M_i.  From these two, `_echelon` scatters the rows it
    eliminates and `map` assembles the dense tau_(r+1).

    `echelons` caches one forward echelon form per map, of the map
    transposed, with its pivots; ranks and exactness (`is_exact`) read the
    pivot count.  Maps are eliminated top-down, each on the rows the pivots
    of the map above leave free (`_echelon`).  The indices in `reduced` mark
    forms back-substituted in place into the RREF (`image_rref`), whose
    first rank rows are the canonical basis of the image: the quotients
    Q_s = C_s / im tau_(s+1) (`quotient`) and, at exact spots, the kernels
    (`kernel`) are read off these.  No map is eliminated forward twice.
    """

    group: GroupData
    d: int
    m: int
    j: int
    t: int
    forms: list[np.ndarray]
    syms: list[list[np.ndarray]]  # syms[r]: Sym^(m(t-r)+j) of each generator
    mults: list[list[tuple]]      # mults[r][i]: entries of M_i out of C_(r+1)'s degree
    faces: list[list[tuple[int, int, int, int]]]  # faces[r]: blocks of tau_(r+1)
    subsets: list[list[tuple[int, ...]]]
    echelons: dict = field(default_factory=dict)
    reduced: set = field(default_factory=set)
    built: dict = field(default_factory=dict)  # r -> C_r, once read

    @property
    def top(self) -> int:
        return len(self.syms) - 1

    def copies(self, r: int) -> int:
        """Number of Sym blocks in C_r: one per r-subset of the forms."""
        return len(self.subsets[r])

    def block_dim(self, r: int) -> int:
        """Dimension of one Sym block of C_r."""
        return self.syms[r][0].shape[0]

    def dim(self, r: int) -> int:
        return self.block_dim(r) * self.copies(r)

    def term(self, r: int) -> ModuleRep:
        """C_r as a module, built on first use and cached."""
        if r not in self.built:
            n = self.copies(r)
            mats = self.syms[r] if n == 1 else [la.block_diag([B] * n) for B in self.syms[r]]
            self.built[r] = ModuleRep(self.group, mats)
        return self.built[r]

    def mult(self, r: int, i: int) -> np.ndarray:
        """M_i of tau_(r+1) as a dense matrix: multiplication by forms[i]."""
        return _dense(self.mults[r][i], self.block_dim(r), self.block_dim(r + 1))

    def _transposed_rows(self, r: int, keep: np.ndarray) -> np.ndarray:
        """The rows of tau_(r+1) transposed that the mask `keep` (over the
        coordinates of C_(r+1)) selects, scattered from the blocks."""
        F = self.group.field
        src, dst = self.block_dim(r + 1), self.block_dim(r)
        at = np.cumsum(keep) - 1  # output row of each kept coordinate
        out = la.zeros(int(at[-1]) + 1, self.dim(r))
        for T, S, sign, i in self.faces[r]:
            rows, cols, vals = self.mults[r][i]
            c = S * src + cols
            sel = keep[c]
            out[at[c[sel]], T * dst + rows[sel]] = vals[sel] if sign > 0 else F.vec_neg(vals[sel])
        return out

    def map(self, r: int) -> np.ndarray:
        """tau_(r+1) : C_(r+1) -> C_r as a dense matrix, assembled on each call."""
        return self._transposed_rows(r, np.ones(self.dim(r + 1), dtype=bool)).T

    def _echelon(self, r: int):
        """Cached forward echelon form of tau_(r+1) transposed: (W, pivots).

        Only the rows outside the pivots of tau_(r+2) (all rows for the top
        map) are scattered, into the array that is then eliminated in place;
        they span the row space since tau o tau = 0 (`_verify_complex`).  So
        the pivots are the whole map's, but W may have fewer than
        dim C_(r+1) rows; only its first rank rows are read.
        """
        if r not in self.echelons:
            keep = np.ones(self.dim(r + 1), dtype=bool)
            if r + 1 < self.top:
                keep[self._echelon(r + 1)[1]] = False
            self.echelons[r] = la.forward_echelon(
                self.group.field, self._transposed_rows(r, keep), overwrite=True)
        return self.echelons[r]

    def image_rref(self, r: int):
        """RREF of tau_(r+1) transposed: its first rank rows are the
        canonical basis of im tau_(r+1).

        The cached forward form is back-substituted in place on first use.
        An RREF is unique to its row space, so its first rank rows and
        pivots are those of `la.rref(map(r).T)`: the basis
        `_colspace_canonical(map(r))` returns, transposed.
        """
        W, piv = self._echelon(r)
        if r not in self.reduced:
            la.back_substitute(self.group.field, W, piv)
            self.reduced.add(r)
        return W, len(piv), piv

    def rank(self, r: int) -> int:
        """rank tau_(r+1); 0 at the top, where no map leaves C_top."""
        return len(self._echelon(r)[1]) if r < self.top else 0

    def is_exact(self, r: int) -> bool:
        """ker tau_r == im tau_(r+1), 1 <= r <= top: both lie in C_r and
        im <= ker (tau o tau = 0), so equal dimensions decide it."""
        return self.dim(r) - self.rank(r - 1) == self.rank(r)

    def quotient(self, s: int) -> ModuleRep:
        """Q_s = C_s / im tau_(s+1) on the free coordinates of `image_rref(s)`.

        The rows of `image_rref(s)` are the RREF of the transposed map, so
        this is C_s modulo the column space of tau_(s+1) in the same basis a
        quotient by that column space from scratch would give.
        Q_top = C_top.
        """
        if s == self.top:
            return self.term(s)
        R, rk, piv = self.image_rref(s)
        return _quotient_from_rowspace(self.term(s), R[:rk], piv)

    def cokernel(self) -> ModuleRep:
        """The cokernel of the complex, Q_0."""
        return self.quotient(0)

    def kernel(self, r: int) -> tuple[np.ndarray, list[int]]:
        """Canonical basis of ker tau_(r+1) and its leading coordinates.

        The basis is the RREF of the kernel, transposed: exactly what
        `_colspace_canonical` returns.  At an exact spot r + 1 the kernel is
        im tau_(r+2), whose basis `image_rref(r + 1)` holds already (at the
        top it is 0).  Elsewhere the dense tau_(r+1) (`map`) is eliminated
        with its columns reversed: a kernel vector read off that RREF is 1
        at its free column, 0 at the other free columns and nonzero only
        before it, so flipped back the vectors lead with that 1 in ascending
        order.
        """
        F, n = self.group.field, self.dim(r + 1)
        if self.is_exact(r + 1):
            if r + 1 == self.top:
                return la.zeros(n, 0), []
            R, rk, piv = self.image_rref(r + 1)
            return R[:rk].T.copy(), list(piv)
        R, rk, piv = la.rref(F, np.ascontiguousarray(self.map(r)[:, ::-1]))
        Kb = la.kernel_from_rref(F, R, rk, piv, n)[::-1, ::-1]
        pivset = set(piv)
        return np.ascontiguousarray(Kb), [c for c in range(n) if n - 1 - c not in pivset]


def build_complex(G: GroupData, forms: list[np.ndarray], t: int, j: int) -> KoszulComplex:
    """The complex's multiplication blocks over the group's Sym matrices.

    Each form's multiplication entries are computed once per map
    (`mul_form_entries`) and placed by the subset rule (`faces`); no dense
    map is assembled.  Verifies tau o tau = 0 and equivariance against every
    generator (`_verify_complex`); both are exact matrix identities, not
    spot checks.  No term module is built here.
    """
    d = len(forms)
    m = G.order
    if t < 1 or not (0 <= j < m):
        raise ValueError("need t >= 1 and 0 <= j < form degree")
    R = min(d, t)
    degs = [m * (t - r) + j for r in range(R + 1)]
    subsets = [list(itertools.combinations(range(d), r)) for r in range(R + 1)]
    faces = []
    for r in range(R):
        pos = {T: i for i, T in enumerate(subsets[r])}
        faces.append([(pos[S[:l] + S[l + 1:]], si, (-1) ** l, i)
                      for si, S in enumerate(subsets[r + 1]) for l, i in enumerate(S)])
    mults = [[mul_form_entries(form, m, degs[r + 1], G.dim) for form in forms]
             for r in range(R)]
    K = KoszulComplex(group=G, d=d, m=m, j=j, t=t, forms=forms,
                      syms=[G.sym(deg) for deg in degs], mults=mults, faces=faces,
                      subsets=subsets)
    _verify_complex(K)
    return K


def _block_equivariance(F: Field, M: np.ndarray, S_src: np.ndarray, S_dst: np.ndarray,
                        gi: int):
    """Check that the multiplication map M commutes with Sym(g): M S_src == S_dst M."""
    if not np.array_equal(la.mat_mul(F, M, S_src), la.mat_mul(F, S_dst, M)):
        raise AssertionError(f"multiplication by form is not equivariant for generator {gi}")


def _paths_vanish(K: KoszulComplex, r: int, terms: tuple) -> bool:
    """Whether sum c * M_i M_i' over `terms`, ((i, i'), c) pairs with M_i of
    tau_(r+1) and M_i' of tau_(r+2), is zero."""
    F = K.group.field
    acc = None
    for (i, i2), c in terms:
        P = la.mat_mul(F, K.mult(r, i), F.vec_mul(K.mult(r + 1, i2), np.int64(c)))
        acc = P if acc is None else F.vec_add(acc, P)
    return acc is None or not np.any(acc)


def _verify_complex(K: KoszulComplex):
    """Exact identity checks on the blocks of the complex; no dense map.

    tau o tau = 0, block by block.  Block (T, S) of tau_(r+1) o tau_(r+2) is
    the sum over the paths S -> S' -> T of the two maps' faces:
    sign' * sign * M_i M_i' for a face (S', S, sign', i') of tau_(r+2) and a
    face (T, S', sign, i) of tau_(r+1).  By the subset rule T = S - {a, b}
    with a < b at positions k < l of S, and its two paths remove a then b,
    with signs (-1)^k (-1)^(l-1), or b then a, with (-1)^l (-1)^k: opposite.
    So the block is +-(M_a M_b - M_b M_a), zero exactly when
    M_a(hi) M_b(lo) == M_b(hi) M_a(lo), hi the block of tau_(r+1) and lo
    that of tau_(r+2).  Each such equation is checked once per (r, {a, b}),
    and no zero block of either map is multiplied.  The signs are read off
    the faces, not assumed: each block sums its path coefficients in the
    field (`_paths_vanish`), so its verdict is the dense product's whatever
    the faces hold.

    Equivariance: every rho is block diagonal with one Sym matrix repeated
    and every tau block is a signed multiplication map, so the full identity
    holds exactly when each M_i commutes with the Sym action; that is
    checked for every map, form and generator, on the Sym matrices alone:
    no term module is built.
    """
    F = K.group.field
    for r in range(K.top - 1):
        out_of = defaultdict(list)  # faces of tau_(r+1) by column block
        for T, S, sign, i in K.faces[r]:
            out_of[S].append((T, sign, i))
        paths = defaultdict(Counter)  # (T, S) -> {(i, i'): summed sign}
        for S1, S, sign1, i1 in K.faces[r + 1]:
            for T, sign, i in out_of[S1]:
                paths[T, S][i, i1] += sign * sign1
        checked = set()
        for coeffs in paths.values():
            live = [(pair, c % F.p) for pair, c in sorted(coeffs.items()) if c % F.p]
            # a unit multiple vanishes with the block: scale the first to 1,
            # so the blocks of T and of S that differ by a sign share one check
            unit = pow(live[0][1], -1, F.p) if live else 1
            terms = tuple((pair, c * unit % F.p) for pair, c in live)
            if terms not in checked:
                checked.add(terms)
                if not _paths_vanish(K, r, terms):
                    raise AssertionError(f"tau_{r + 1} o tau_{r + 2} != 0")
    for r in range(K.top):
        for i in range(len(K.forms)):
            M = K.mult(r, i)
            for gi, (S_src, S_dst) in enumerate(zip(K.syms[r + 1], K.syms[r])):
                _block_equivariance(F, M, S_src, S_dst, gi)


def check_exact(K: KoszulComplex) -> dict:
    """Rank bookkeeping: exact at r iff rank tau_(r+1) = dim ker tau_r."""
    R = K.top
    exact_at, inexact_at = [], []
    for r in range(1, R + 1):
        (exact_at if K.is_exact(r) else inexact_at).append(r)
    coker = K.dim(0) - K.rank(0)
    expected = K.m ** K.d if R == K.d else None
    return {
        "exact_at": exact_at,
        "inexact_at": inexact_at,
        "exact": not inexact_at,
        "coker_dim": coker,
        "coker_expected": expected,
        "coker_matches": (expected is None) or (coker == expected),
    }


def check_split_stagewise(K: KoszulComplex, registry: Registry, seed: int,
                          sym_vectors: dict[int, dict[int, int]] | None = None) -> dict:
    """Per-stage splitting verdicts plus freeness of the cokernel class.

    Stage r is 0 -> ker tau_r -> C_r -> C_r / ker tau_r -> 0, with
    tau_r : C_r -> C_(r-1).  sym_vectors may carry precomputed
    decompositions of the symmetric powers (keyed by degree); C_r vectors
    are then their block multiples, which is the same Krull-Schmidt class
    without redoing the big modules.

    Both outer classes lean on verified identities instead of fresh
    decompositions where possible, through the quotients
    Q_s = C_s / im tau_(s+1) (`KoszulComplex.quotient`; Q_0 is the cokernel,
    Q_top = C_top):

    * kernel: at a rank-verified exact spot r, ker tau_r = im tau_(r+1),
      which is isomorphic to C_(r+1) / ker tau_(r+1).  If r + 1 is exact as
      well, that is Q_(r+1); at an exact top the kernel is 0.
    * quotient: C_1 / ker tau_1 is isomorphic to im tau_1, which complements
      the cokernel in C_0 whenever that cokernel verified as free (free
      modules are injective over a group algebra, so the sequence
      0 -> im -> C_0 -> coker -> 0 splits).  For r > 1, C_r / ker tau_r
      is isomorphic to im tau_r, which is the previous stage's kernel
      when r - 1 is exact.

    Absent a certificate the kernel or quotient module is decomposed
    directly.  At a fully exact complex with a free cokernel the only
    modules decomposed are then Q_0 and Q_2, ..., Q_(top-1).

    Terms are built only where a path reads one (`KoszulComplex.term`): the
    cokernel reads C_0, a kernel taken as Q_(r+1) reads C_(r+1), a kernel
    or quotient decomposed directly reads C_r, and a term's class reads C_r
    only when sym_vectors lacks its degree.  So with sym vectors at a fully
    exact complex with a free cokernel, C_1 and C_top are never built.
    """
    R = K.top
    exact_spots = set(check_exact(K)["exact_at"])
    vcoker = decompose(K.cokernel(), registry, seed)
    q = free_rank(vcoker, registry, seed)
    kg = registry.regular_vec(seed)
    coker_free = vcoker == dvec_scale(kg, q)

    def term_vec(r: int) -> dict[int, int]:
        deg = K.m * (K.t - r) + K.j
        if sym_vectors is not None and deg in sym_vectors:
            return dvec_scale(sym_vectors[deg], K.copies(r))
        return decompose(K.term(r), registry, seed)

    stages = []
    kernel_vecs: dict[int, dict[int, int]] = {}
    for r in range(1, R + 1):
        Kb = None
        if r == R and r in exact_spots:
            vker, kdim = {}, 0
        elif {r, r + 1} <= exact_spots:
            vker = term_vec(R) if r + 1 == R else decompose(K.quotient(r + 1), registry, seed)
            kdim = K.rank(r)
        else:
            Kb, lead = K.kernel(r - 1)
            ker = module_on_basis(K.term(r), Kb, lead, verify=False)
            vker = decompose(ker, registry, seed)
            kdim = Kb.shape[1]
        kernel_vecs[r] = vker
        vquo = None
        if r == 1 and coker_free:
            cand = dvec_sub(term_vec(0), vcoker)
            if all(v > 0 for v in cand.values()):
                vquo = cand
        elif r > 1 and (r - 1) in exact_spots:
            vquo = kernel_vecs[r - 1]
        if vquo is None:
            if Kb is None:
                Kb, lead = K.kernel(r - 1)
            vquo = decompose(_quotient_from_rowspace(K.term(r), Kb.T, lead), registry, seed)
        split = term_vec(r) == dvec_add(vker, vquo)
        stages.append({"r": r, "split": bool(split), "kernel_dim": kdim})
    return {
        "stages": stages,
        "all_split": all(s["split"] for s in stages),
        "coker_vector": vcoker,
        "coker_free": bool(coker_free),
        "coker_free_rank": q,
    }


def euler_identity(registry: Registry, sym_vectors: dict[int, dict[int, int]],
                   d: int, m: int, j: int, t: int, seed: int = 0) -> dict:
    """Signed Euler class sum((-1)^r C(d,r) [Sym^(m(t-r)+j)]) and its free multiple."""
    if t < d:
        raise ValueError("euler identity needs t >= d")
    total: dict[int, int] = {}
    for r in range(d + 1):
        deg = m * (t - r) + j
        total = dvec_add(total, dvec_scale(sym_vectors[deg], (-1) ** r * math.comb(d, r)))
    q = free_rank(total, registry, seed)
    exact = total == dvec_scale(registry.regular_vec(seed), q)
    return {"class": total, "free_multiple": q if exact else None}


def surface_progression_check(registry: Registry, sym_vectors: dict[int, dict[int, int]],
                              m: int, j: int, t_range, seed: int = 0) -> dict:
    """Are first differences of nonfree classes along stride m eventually constant?"""
    ts = sorted(t_range)
    vecs = [nonfree(sym_vectors[m * t + j], registry, seed) for t in ts]
    diffs = [dvec_sub(b, a) for a, b in zip(vecs, vecs[1:])]
    # all of diffs[i:] equal diffs[i] exactly when they all equal diffs[-1]
    i = tail_threshold([d == diffs[-1] for d in diffs])
    return {
        "offset": j,
        "stride": m,
        "t_range": ts,
        "stable_from": None if i is None else ts[i + 1],
        "constant": None if i is None else diffs[-1],
        "ok": i is not None,
    }
