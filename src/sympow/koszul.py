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

Each map is eliminated forward once, transposed, top-down, and that
echelon form is kept: ranks and exactness read its pivot count alone.  Of
maps[r] transposed only the rows outside the pivots of the map above are
eliminated: C_(r+1) is the span of those coordinates plus im tau_(r+2),
which tau_(r+1) kills (tau o tau = 0, checked exactly by `_verify_complex`),
so they span its row space.  The form is back-substituted in place the first
time a map's RREF is read (`image_rref`); its first rank rows are the
canonical basis of the map's image, off which the quotients
Q_s = C_s / im tau_s (`quotient`; Q_0 is the cokernel) and, at exact spots,
the canonical kernel bases (`kernel`) are read.  So at an all-exact d = 3
complex the middle map is only ever reduced forward.  The identity checks
are products of stored matrices.  Only a kernel at an inexact spot costs a
second elimination.

A complex holds its terms as the group's Sym blocks and builds a term's
module only when a check reads it (`KoszulComplex.term`): the identity
checks, ranks and dimensions need none, and with precomputed Sym vectors an
all-exact complex with a free cokernel never builds C_1 or C_top.  The
largest terms are direct sums of several copies of a high Sym^n, so these
are the bulk of a complex's memory.
"""

from __future__ import annotations

import itertools
import math
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


def mul_form_matrix(form: np.ndarray, deg: int, k: int, d1: int) -> np.ndarray:
    """Matrix of multiplication by a degree-`deg` form: Sym^k -> Sym^(k+deg).

    `form` holds the coefficients on the degree-`deg` monomial basis.  The
    column of a source monomial z^a has the coefficient of z^b at the
    position of z^(a+b), which `monomial_index` reads off for every (b, a)
    pair at once.
    """
    src = monomials(d1, k)
    nz = np.flatnonzero(form)
    prods = (monomials(d1, deg)[nz, None, :] + src[None, :, :]).reshape(-1, d1)
    rows = monomial_index(prods)
    if not np.array_equal(monomials(d1, k + deg)[rows], prods):
        raise AssertionError("monomial index lookup failed")
    out = la.zeros(sym_dim(d1, k + deg), len(src))
    # (row, col) pairs are distinct across form monomials, plain assignment
    out[rows, np.tile(np.arange(len(src)), len(nz))] = np.repeat(form[nz], len(src))
    return out


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
    """Terms C_0..C_top and maps[r] = tau_(r+1) : C_(r+1) -> C_r.

    C_r is `copies(r)` = C(d, r) copies of Sym^(m(t-r)+j).  The complex
    keeps each term's Sym blocks (the group's own Sym matrices, one per
    generator) and builds the term as a `ModuleRep` only when a check reads
    it (`term`), caching it.  A one-copy term shares the group's Sym
    matrices; only a term of two or more copies is a block-diagonal copy.
    Dimensions (`dim`) need no module.

    `echelons` caches one forward echelon form per map, of the map
    transposed, with its pivots; ranks and exactness (`is_exact`) read the
    pivot count.  Maps are eliminated top-down, each on the rows the pivots
    of the map above leave free (`_echelon`).  The indices in `reduced` mark
    forms back-substituted in place into the RREF (`image_rref`), whose
    first rank rows are the canonical basis of the image: the quotients
    Q_s = C_s / im tau_s (`quotient`) and, at exact spots, the kernels
    (`kernel`) are read off these.  No map is eliminated forward twice.
    """

    group: GroupData
    d: int
    m: int
    j: int
    t: int
    forms: list[np.ndarray]
    blocks: list[list[np.ndarray]]  # blocks[r]: Sym^(m(t-r)+j) of each generator
    maps: list[np.ndarray]      # maps[r] : C_(r+1) -> C_r, r = 0..R-1
    subsets: list[list[tuple[int, ...]]]
    echelons: dict = field(default_factory=dict)
    reduced: set = field(default_factory=set)
    built: dict = field(default_factory=dict)  # r -> C_r, once read

    @property
    def top(self) -> int:
        return len(self.blocks) - 1

    def copies(self, r: int) -> int:
        """Number of Sym blocks in C_r: one per r-subset of the forms."""
        return len(self.subsets[r])

    def dim(self, r: int) -> int:
        return self.blocks[r][0].shape[0] * self.copies(r)

    def term(self, r: int) -> ModuleRep:
        """C_r as a module, built on first use and cached."""
        if r not in self.built:
            n = self.copies(r)
            mats = self.blocks[r] if n == 1 else [la.block_diag([B] * n) for B in self.blocks[r]]
            self.built[r] = ModuleRep(self.group, mats)
        return self.built[r]

    def _echelon(self, r: int):
        """Cached forward echelon form of maps[r] transposed: (W, pivots).

        Only the rows outside the pivots of maps[r+1] (all rows for the top
        map) are eliminated; they span the row space since tau o tau = 0
        (`_verify_complex`).  So the pivots are the whole map's, but W may
        have fewer than dim C_(r+1) rows; only its first rank rows are read.
        """
        if r not in self.echelons:
            A = self.maps[r].T
            rows = np.ones(A.shape[0], dtype=bool)
            if r + 1 < len(self.maps):
                rows[self._echelon(r + 1)[1]] = False
            self.echelons[r] = la.forward_echelon(
                self.group.field, np.ascontiguousarray(A[rows]))
        return self.echelons[r]

    def image_rref(self, r: int):
        """RREF of maps[r] transposed: its first rank rows are the canonical
        basis of im maps[r].

        The cached forward form is back-substituted in place on first use.
        An RREF is unique to its row space, so its first rank rows and
        pivots are those of `la.rref(maps[r].T)`: the basis
        `_colspace_canonical(maps[r])` returns, transposed.
        """
        W, piv = self._echelon(r)
        if r not in self.reduced:
            la.back_substitute(self.group.field, W, piv)
            self.reduced.add(r)
        return W, len(piv), piv

    def rank(self, r: int) -> int:
        """rank maps[r]; 0 at the top, where no map leaves C_top."""
        return len(self._echelon(r)[1]) if r < len(self.maps) else 0

    def is_exact(self, r: int) -> bool:
        """ker maps[r-1] == im maps[r], 1 <= r <= top: both lie in C_r and
        im <= ker (tau o tau = 0), so equal dimensions decide it."""
        return self.dim(r) - self.rank(r - 1) == self.rank(r)

    def quotient(self, s: int) -> ModuleRep:
        """Q_s = C_s / im maps[s] on the free coordinates of `image_rref(s)`.

        The rows of `image_rref(s)` are the RREF of the transposed map, so
        this is C_s modulo the column space of maps[s] in the same basis a
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
        """Canonical basis of ker maps[r] and its leading coordinates.

        The basis is the RREF of the kernel, transposed: exactly what
        `_colspace_canonical` returns.  At an exact spot r + 1 the kernel is
        im maps[r+1], whose basis `image_rref(r + 1)` holds already (at the
        top it is 0).  Elsewhere maps[r] is eliminated with its columns
        reversed: a kernel vector read off that RREF is 1 at its free column,
        0 at the other free columns and nonzero only before it, so flipped
        back the vectors lead with that 1 in ascending order.
        """
        F, n = self.group.field, self.maps[r].shape[1]
        if self.is_exact(r + 1):
            if r + 1 == self.top:
                return la.zeros(n, 0), []
            R, rk, piv = self.image_rref(r + 1)
            return R[:rk].T.copy(), list(piv)
        R, rk, piv = la.rref(F, np.ascontiguousarray(self.maps[r][:, ::-1]))
        Kb = la.kernel_from_rref(F, R, rk, piv, n)[::-1, ::-1]
        pivset = set(piv)
        return np.ascontiguousarray(Kb), [c for c in range(n) if n - 1 - c not in pivset]


def build_complex(G: GroupData, forms: list[np.ndarray], t: int, j: int) -> KoszulComplex:
    """Assemble the signed multiplication differentials over the Sym blocks.

    Verifies tau o tau = 0 and equivariance against every generator; both are
    exact matrix identities, not spot checks.  No term module is built here.
    """
    F = G.field
    d = len(forms)
    d1 = G.dim
    m = G.order
    if t < 1 or not (0 <= j < m):
        raise ValueError("need t >= 1 and 0 <= j < form degree")
    R = min(d, t)
    degs = [m * (t - r) + j for r in range(R + 1)]
    subsets = [list(itertools.combinations(range(d), r)) for r in range(R + 1)]
    blocks = [G.sym(deg) for deg in degs]
    maps = []
    mults = []  # mults[r - 1][i]: multiplication by forms[i] out of Sym^degs[r]
    for r in range(1, R + 1):
        src_dim = sym_dim(d1, degs[r])
        dst_dim = sym_dim(d1, degs[r - 1])
        tau = la.zeros(dst_dim * len(subsets[r - 1]), src_dim * len(subsets[r]))
        dst_pos = {S: i for i, S in enumerate(subsets[r - 1])}
        mults.append([mul_form_matrix(form, m, degs[r], d1) for form in forms])
        for si, S in enumerate(subsets[r]):
            for ell, i in enumerate(S):
                Sminus = tuple(x for x in S if x != i)
                block = F.vec_neg(mults[-1][i]) if ell % 2 else mults[-1][i]
                di = dst_pos[Sminus]
                tau[di * dst_dim:(di + 1) * dst_dim, si * src_dim:(si + 1) * src_dim] = block
        maps.append(tau)
    K = KoszulComplex(group=G, d=d, m=m, j=j, t=t, forms=forms, blocks=blocks, maps=maps,
                      subsets=subsets)
    _verify_complex(K, mults)
    return K


def _block_equivariance(F: Field, M: np.ndarray, S_src: np.ndarray, S_dst: np.ndarray,
                        gi: int):
    """Check that the multiplication map M commutes with Sym(g): M S_src == S_dst M."""
    if not np.array_equal(la.mat_mul(F, M, S_src), la.mat_mul(F, S_dst, M)):
        raise AssertionError(f"multiplication by form is not equivariant for generator {gi}")


def _verify_complex(K: KoszulComplex, mults: list[list[np.ndarray]]):
    """Exact identity checks on the assembled complex, both as products.

    tau o tau = 0 is one product of the stored maps.  For equivariance,
    every rho is block diagonal with one sym matrix repeated and every tau
    block is a signed multiplication map, so the full identity holds exactly
    when each multiplication map commutes with the sym action; that reduced
    identity is what gets checked, for every form, source degree and
    generator, on the Sym blocks alone: no term module is built.
    """
    F = K.group.field
    for r in range(len(K.maps) - 1):
        if np.any(la.mat_mul(F, K.maps[r], K.maps[r + 1])):
            raise AssertionError(f"tau_{r + 1} o tau_{r + 2} != 0")
    for r in range(1, K.top + 1):
        for M in mults[r - 1]:
            for gi, (S_src, S_dst) in enumerate(zip(K.blocks[r], K.blocks[r - 1])):
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

    Stage r is 0 -> ker tau_(r-1) -> C_r -> C_r / ker tau_(r-1) -> 0.
    sym_vectors may carry precomputed decompositions of the symmetric powers
    (keyed by degree); C_r vectors are then their block multiples, which is
    the same Krull-Schmidt class without redoing the big modules.

    Both outer classes lean on verified identities instead of fresh
    decompositions where possible, through the quotients
    Q_s = C_s / im tau_s (`KoszulComplex.quotient`; Q_0 is the cokernel,
    Q_top = C_top):

    * kernel: at a rank-verified exact spot r, ker tau_(r-1) = im tau_r,
      which is isomorphic to C_(r+1) / ker tau_r.  If r + 1 is exact as
      well, that is Q_(r+1); at an exact top the kernel is 0.
    * quotient: C_1 / ker tau_0 is isomorphic to im tau_0, which complements
      the cokernel in C_0 whenever that cokernel verified as free (free
      modules are injective over a group algebra, so the sequence
      0 -> im -> C_0 -> coker -> 0 splits).  For r > 1, C_r / ker tau_(r-1)
      is isomorphic to im tau_(r-1), which is the previous stage's kernel
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
