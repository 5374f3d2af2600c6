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
each map tau_(r+1) and each form f_i it keeps M_i, multiplication by f_i
from the Sym degree of C_(r+1) to that of C_r, in shift form
(`mul_form_entries`): R[l, a] is the position of z^(b_l + a) and v[l] the
coefficient of f_i at its l-th monomial z^(b_l), computed once per complex.
The subset rule (`KoszulComplex.faces`) places them, with their signs, as
the blocks of tau_(r+1); every other block is zero.  `KoszulComplex._echelon`
scatters only the rows it eliminates, and `KoszulComplex.map` assembles a
dense tau, which only a kernel at an inexact spot reads.

tau o tau = 0 is proved term by term, with no product (`_verify_complex`):
the faces' signs cancel in pairs, and the two products M_a M_b and M_b M_a
put the same coefficient f_a[b_l] f_b[b'_l'] at the same monomial
z^(b_l + b'_l' + c), which the shift forms show as equal index and value
arrays.  G acts on the polynomial ring by graded ring automorphisms, so
multiplication by an invariant form is a G-map: equivariance is the forms'.

Each map is brought to an echelon form once, transposed, and that form is
kept: ranks and exactness read its pivot count alone.  Every row is a
signed form times a monomial, so its leading column is known before any
elimination: a form's support is held in ascending position and graded-lex
is a monomial order, so f z^a leads at z^(b_0 + a).  The rows are scattered
in ascending lead order, and, as in the symbolic preprocessing of
Faugere's F4 (J. Pure Appl. Algebra 139, 1999), the first row of each lead
is a pivot row as it stands; only the rows whose lead repeats are
eliminated (`la.echelon_from_leads`).  Of tau_(r+1) transposed only the
rows outside a set of leading positions of im tau_(r+2) are scattered:
C_(r+1) is the span of those coordinates plus im tau_(r+2), which
tau_(r+1) kills, so they span its row space.  For r >= 1 that set is the
pivots of tau_(r+2), eliminated first.  For tau_1 it is L, read off the
forms by Faugere's F5 signature criterion (Faugere, ISSAC 2002; Bardet,
Faugere and Salvy, J. Symbolic Comput. 70, 2015) from matrices of one form
and one degree each, eliminated from their leads the same way: block i of
C_1 at the leading positions of the ideal (f_(i+1), f_(i+2), ...).  For any
forms L lies within the pivots of im tau_2; for a regular sequence it is
all of them, and rank tau_2 = |L| whenever |L| = dim ker tau_1.  So the
middle map is eliminated only when a check reads its RREF (a kernel or
Q_1), or when that equality fails.  The form is back-substituted in place
the first time a map's RREF is read (`image_rref`); pivots and RREF are
unique to the row space, so they are those of a full elimination of the
dense map.  The RREF's first rank rows are the canonical basis of the
map's image, off which the quotients Q_s = C_s / im tau_(s+1) (`quotient`;
Q_0 is the cokernel) are read.  Only a kernel at an inexact spot
(`kernel`) costs a second elimination.

A complex holds each term's Sym degree and builds a term's module from the
group's Sym matrices only when a check reads it (`KoszulComplex.term`): the
identity checks, ranks and dimensions need none.  The split check reads
each term's class off the Sym vectors and each stage's outer classes off
the quotients: at an exact spot r the kernel is im tau_(r+1), the quotient
above, and the quotient is Q_r.  No term is decomposed.  C_top is never built, and C_1
only for Q_1 (a cokernel that is not free, on P^d with d >= 2) or at an
inexact spot.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from . import linalg as la
from .gf import CapacityError, Field
from .groups import SYM_DIM_CAP, GroupData, ModuleRep, monomial_index, monomials, sym_dim
from .modules import (Registry, _quotient_from_rowspace, child_rng, decompose,
                      dvec_add, dvec_scale, dvec_sub, free_rank, module_on_basis,
                      nonfree)
from .polyfit import HOLDOUT, tail_threshold

FORM_ATTEMPTS = 64


def mul_form_entries(form: np.ndarray, deg: int, k: int, d1: int):
    """Multiplication by a degree-`deg` form, Sym^k -> Sym^(k+deg), in shift
    form (R, v).

    `form` holds the coefficients on the degree-`deg` monomial basis, and
    z^(b_l) is its l-th monomial with a nonzero coefficient v[l].  R[l, a] is
    the position of z^(b_l + a), which `monomial_index` reads off for every
    (l, a) pair at once: column a of the matrix holds v[l] at row R[l, a],
    #supp(form) distinct rows per column.
    """
    src = monomials(d1, k)
    nz = np.flatnonzero(form)
    prods = (monomials(d1, deg)[nz, None, :] + src[None, :, :]).reshape(-1, d1)
    R = monomial_index(prods)
    if not np.array_equal(monomials(d1, k + deg)[R], prods):
        raise AssertionError("monomial index lookup failed")
    return R.reshape(len(nz), len(src)), form[nz]


def _dense(entries: tuple, m: int, n: int) -> np.ndarray:
    """The m x n matrix of the shift form (R, v): v[l] at (R[l, a], a)."""
    R, v = entries
    out = la.zeros(m, n)
    out[R, np.arange(n)] = v[:, None]
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
    """Whether g.f = f for every generator g: one Sym^deg(g) f product each."""
    F = G.field
    for S in G.sym(deg):
        if not np.array_equal(la.mat_mul(F, S, form[:, None])[:, 0], form):
            return False
    return True


def choose_forms(G: GroupData, d: int, seed: int) -> tuple[list[np.ndarray], KoszulComplex]:
    """d independent invariant norm forms of degree #G, and their level-d
    complex (t = d, j = 0; its `m` is the degree).

    Each form is the product of the G-orbit of a random linear form,
    Pi_g g.r, invariant by construction: a generator permutes the factors.
    Independence is certified by exactness of the level-d complex they
    define, whose build checks the invariance (`_verify_complex`); choices
    whose complex is inexact are resampled up to a fixed budget.  The
    complex is returned built, verified and checked, for its caller to
    report on.
    """
    F = G.field
    d1 = G.dim
    if d1 != d + 1:
        raise ValueError("form count must match the projective dimension")
    rng = child_rng(seed, "forms", F.p, F.e, G.order)
    for _ in range(FORM_ATTEMPTS):
        forms = []
        for _ in range(d):
            r = la.rand_mat(F, rng, d1, 1)[:, 0]
            if not np.any(r):
                r[0] = 1
            orbit = ModuleRep(G, G.gens).orbit(r[:, None])
            forms.append(form_product(F, [x[:, 0] for x in orbit]))
        K = build_complex(G, forms, t=d, j=0)
        inexact = check_exact(K)["inexact_at"]
        if not inexact:
            return forms, K
        del K  # one complex alive at a time
    raise RuntimeError(f"no valid invariant forms found: level-{d} complex inexact "
                       f"at stages {inexact}")


@dataclass
class KoszulComplex:
    """Terms C_0..C_top and the blocks of tau_(r+1) : C_(r+1) -> C_r, r < top.

    C_r is `copies(r)` = C(d, r) copies of Sym^(m(t-r)+j).  The complex
    keeps each term's Sym degree, not its matrices, and builds the term as a
    `ModuleRep` from `group.sym` only when a check reads it (`term`),
    caching it.  A one-copy term holds the group's Sym matrices; a term of
    two or more copies is a block-diagonal copy.  Dimensions (`dim`) need no
    module.

    No dense tau is stored.  `mults[r][i]` holds the shift form (R, v) of
    M_i, multiplication by forms[i] from the Sym degree of C_(r+1) to that
    of C_r (`mul_form_entries`).  `faces[r]` lists the nonzero blocks of
    tau_(r+1) as (T, S, sign, i), T and S positions in `subsets`: for
    i = S[l], the block in row block S - {i} and column block S is
    (-1)^l M_i.  From these two, `_scatter` places rows of tau_(r+1)
    transposed: `map` all of them, as the dense tau_(r+1), and
    `_rows_by_lead` those a map's elimination reads, in ascending order of
    their leads, which the shift forms give with no scan.

    `echelons` caches one echelon form per map, of the map transposed, with
    its pivots; ranks and exactness (`is_exact`) read the pivot count.  Each
    map is eliminated on the rows that the pivots of the map above leave
    free, and tau_1 on those the signature leads leave free (`_echelon`),
    from the rows' leads: only rows whose lead repeats are eliminated
    (`la.echelon_from_leads`).  `leads` memoizes the lead sets
    (`_leads`), and rank tau_2 reads their count when it can (`rank`).  The
    indices in `reduced` mark forms back-substituted in place into the RREF
    (`image_rref`), whose first rank rows are the canonical basis of the
    image: the quotients Q_s = C_s / im tau_(s+1) (`quotient`) are read off
    these.  Only a kernel at an inexact spot (`kernel`) eliminates a map
    twice, as a dense tau.
    """

    group: GroupData
    d: int
    m: int
    j: int
    t: int
    forms: list[np.ndarray]
    degs: list[int]               # degs[r]: m(t-r)+j, the Sym degree of C_r's blocks
    mults: list[list[tuple]]      # mults[r][i]: (R, v) of M_i out of C_(r+1)'s degree
    faces: list[list[tuple[int, int, int, int]]]  # faces[r]: blocks of tau_(r+1)
    subsets: list[list[tuple[int, ...]]]
    echelons: dict = field(default_factory=dict)
    leads: dict = field(default_factory=dict)  # (k, r) -> Leads(k) in C_r's degree
    reduced: set = field(default_factory=set)
    built: dict = field(default_factory=dict)  # r -> C_r, once read

    @property
    def top(self) -> int:
        return len(self.degs) - 1

    def copies(self, r: int) -> int:
        """Number of Sym blocks in C_r: one per r-subset of the forms."""
        return len(self.subsets[r])

    def block_dim(self, r: int) -> int:
        """Dimension of one Sym block of C_r."""
        return sym_dim(self.group.dim, self.degs[r])

    def dim(self, r: int) -> int:
        return self.block_dim(r) * self.copies(r)

    def term(self, r: int) -> ModuleRep:
        """C_r as a module, built on first use and cached."""
        if r not in self.built:
            n, syms = self.copies(r), self.group.sym(self.degs[r])
            mats = syms if n == 1 else [la.block_diag([B] * n) for B in syms]
            self.built[r] = ModuleRep(self.group, mats)
        return self.built[r]

    def _scatter(self, r: int, faces: list, at: np.ndarray, m: int, n: int) -> np.ndarray:
        """An m x n matrix whose row at[S * src + a] is row (S, a) of the
        blocks `faces` of multiplications out of C_(r+1)'s degree, src its
        dimension: sign * v_i at column T * dst + R_i[l, a] for each face
        (T, S, sign, i).  Rows with a negative `at` are left out.
        """
        F = self.group.field
        src, dst = self.block_dim(r + 1), self.block_dim(r)
        out = la.zeros(m, n)
        for T, S, sign, i in faces:
            R, v = self.mults[r][i]
            rows = at[S * src:(S + 1) * src]
            a = np.flatnonzero(rows >= 0)
            out[rows[a], T * dst + R[:, a]] = (v if sign > 0 else F.vec_neg(v))[:, None]
        return out

    def _rows_by_lead(self, r: int, faces: list, keep: np.ndarray, n: int):
        """The rows of `faces` that the mask `keep` selects, scattered in
        ascending order of their leads (stable), and those leads.

        The leads need no scan.  `mul_form_entries` lists the form's support
        in ascending position, and graded-lex is a monomial order, so R[0, a]
        is the least position in column a: row (S, a) leads in its least row
        block T, at T * dst + R_i[0, a].
        """
        src, dst = self.block_dim(r + 1), self.block_dim(r)
        lead = np.empty(len(keep), dtype=np.int64)
        for T, S, _, i in sorted(faces, reverse=True):  # each S's least T is written last
            lead[S * src:(S + 1) * src] = T * dst + self.mults[r][i][0][0]
        kept = np.flatnonzero(keep)
        order = np.argsort(lead[kept], kind="stable")
        at = np.full(len(keep), -1, dtype=np.int64)
        at[kept[order]] = np.arange(len(kept))
        return self._scatter(r, faces, at, len(kept), n), lead[kept[order]]

    def map(self, r: int) -> np.ndarray:
        """tau_(r+1) : C_(r+1) -> C_r as a dense matrix, assembled on each call."""
        n = self.dim(r + 1)
        return self._scatter(r, self.faces[r], np.arange(n), n, self.dim(r)).T

    def _leads(self, k: int, r: int) -> np.ndarray:
        """Leads(k) in the degree of C_r: the pivot columns of the rows
        f_i z^a, i >= k, z^a in the degree of C_(r+1); memoized.

        The rows span that degree of the ideal (f_k, f_(k+1), ...), so these
        are the leading positions of its nonzero elements.  The rows of f_i
        at z^a in Leads(i+1) one degree down are dropped before eliminating
        (Faugere's F5 signature criterion): z^a leads some monic g in
        (f_(i+1), ...), and f_i z^a = f_i g - f_i (g - z^a), where f_i g is a
        sum of rows of later forms (the forms commute, `_verify_complex`) and
        g - z^a holds only later monomials.  By descending induction on a the
        dropped rows lie in the span of the kept ones, so the pivots are
        those of all the rows.  The rows are the faces (0, i - k, +1, i) of
        one row block, eliminated from their leads
        (`la.echelon_from_leads`).  Empty from C_top on, and past the last
        form.
        """
        if (k, r) not in self.leads:
            piv = []
            if r < self.top and k < self.d:
                faces = [(0, s, 1, i) for s, i in enumerate(range(k, self.d))]
                keep = np.ones((self.d - k, self.block_dim(r + 1)), dtype=bool)
                for s in range(self.d - k):
                    keep[s, self._leads(k + s + 1, r + 1)] = False
                rows = self._rows_by_lead(r, faces, keep.reshape(-1), self.block_dim(r))
                piv = la.echelon_from_leads(self.group.field, *rows)[1]
            self.leads[k, r] = np.array(piv, dtype=np.int64)
        return self.leads[k, r]

    def _signature_leads(self) -> np.ndarray:
        """L: block i of C_1 at Leads(i+1), the coordinates where the
        signature rule finds a leading entry of im tau_2.

        tau_2 sends h e_(i,k), i < k, to h f_i e_k - h f_k e_i, so the
        elements of im tau_2 that vanish on the blocks before i have, in block
        i, every element of the ideal (f_(i+1), f_(i+2), ...): L lies within
        the pivots of im tau_2, for any forms.  For a regular sequence the
        signature rule misses no syzygy and L is those pivots exactly.
        """
        n = self.block_dim(1)
        return np.concatenate([i * n + self._leads(i + 1, 1) for i in range(self.copies(1))])

    def _echelon(self, r: int):
        """Cached echelon form of tau_(r+1) transposed: (W, pivots).

        Only the rows outside a set of leading positions of im tau_(r+2) are
        scattered, by lead, into the array that is then eliminated in place
        from those leads (`la.echelon_from_leads`): for r >= 1 the pivots of
        tau_(r+2), and for tau_1 the signature leads L (`_signature_leads`),
        so tau_2 is not eliminated for it.  A leading
        position c of some w in im tau_(r+2) can be dropped: tau_(r+1) kills
        w (tau o tau = 0, `_verify_complex`), and e_c is w, scaled to lead
        with 1, less coordinates after c, so by descending induction the kept
        rows span the row space.
        So the pivots are the whole map's, but W may have fewer than
        dim C_(r+1) rows; only its first rank rows are read.  The top map
        keeps all its rows.
        """
        if r not in self.echelons:
            keep = np.ones(self.dim(r + 1), dtype=bool)
            if r == 0:
                keep[self._signature_leads()] = False
            elif r + 1 < self.top:
                keep[self._echelon(r + 1)[1]] = False
            rows = self._rows_by_lead(r, self.faces[r], keep, self.dim(r))
            self.echelons[r] = la.echelon_from_leads(self.group.field, *rows)
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
        """rank tau_(r+1); 0 at the top, where no map leaves C_top.

        rank tau_2 is |L| (`_signature_leads`) when |L| = dim C_1 - rank tau_1,
        with no elimination of tau_2: L lies within the pivots of im tau_2,
        and im tau_2 lies within ker tau_1, so |L| <= rank tau_2 <=
        dim ker tau_1, and equal ends pin it.  Otherwise (an inexact spot, or
        forms the signature rule does not certify) tau_2 is eliminated.
        """
        if r >= self.top:
            return 0
        if r == 1 and r not in self.echelons:
            n = len(self._signature_leads())
            if n == self.dim(1) - self.rank(0):
                return n
        return len(self._echelon(r)[1])

    def is_exact(self, r: int) -> bool:
        """ker tau_r == im tau_(r+1), 1 <= r <= top: both lie in C_r and
        im <= ker (tau o tau = 0), so equal dimensions decide it."""
        return self.dim(r) - self.rank(r - 1) == self.rank(r)

    def quotient(self, s: int) -> ModuleRep:
        """Q_s = C_s / im tau_(s+1) on the free coordinates of `image_rref(s)`.

        The rows of `image_rref(s)` are the RREF of the transposed map, so
        this is C_s modulo the column space of tau_(s+1) in the same basis a
        quotient by that column space from scratch would give.  Read for
        s < top only: the split check takes Q_top = C_top's class from the
        Sym vectors.
        """
        R, rk, piv = self.image_rref(s)
        return _quotient_from_rowspace(self.term(s), R[:rk], piv)

    def cokernel(self) -> ModuleRep:
        """The cokernel of the complex, Q_0."""
        return self.quotient(0)

    def kernel(self, r: int) -> tuple[np.ndarray, list[int]]:
        """Canonical basis of ker tau_(r+1) and its leading coordinates.

        The basis is the RREF of the kernel, transposed: exactly what
        `_colspace_canonical` returns.  The split check reads it only at an
        inexact spot r + 1; at an exact one the kernel is im tau_(r+2), whose
        class is the stage above's quotient.  The dense tau_(r+1) (`map`) is
        eliminated with its columns reversed: a kernel vector read off that
        RREF is 1 at its free column, 0 at the other free columns and nonzero
        only before it, so flipped back the vectors lead with that 1 in
        ascending order.
        """
        F, n = self.group.field, self.dim(r + 1)
        R, rk, piv = la.rref(F, np.ascontiguousarray(self.map(r)[:, ::-1]))
        Kb = la.kernel_from_rref(F, R, rk, piv, n)[::-1, ::-1]
        pivset = set(piv)
        return np.ascontiguousarray(Kb), [c for c in range(n) if n - 1 - c not in pivset]


def build_complex(G: GroupData, forms: list[np.ndarray], t: int, j: int) -> KoszulComplex:
    """The complex's multiplication blocks between the terms' Sym degrees.

    Each form's multiplication entries are computed once per map
    (`mul_form_entries`) and placed by the subset rule (`faces`): every
    block is made from `forms`, and no dense map is assembled.
    `_verify_complex` decides tau o tau = 0 term by term, and equivariance
    from the forms' invariance, multiplying no block; a form that is not
    invariant raises AssertionError.  No term module is built here, and a
    C_0 past SYM_DIM_CAP raises CapacityError before anything is.
    """
    d = len(forms)
    m = G.order
    if t < 1 or not (0 <= j < m):
        raise ValueError("need t >= 1 and 0 <= j < form degree")
    R = min(d, t)
    degs = [m * (t - r) + j for r in range(R + 1)]
    if sym_dim(G.dim, degs[0]) > SYM_DIM_CAP:
        raise CapacityError(f"sym dimension exceeds cap {SYM_DIM_CAP}")
    subsets = [list(itertools.combinations(range(d), r)) for r in range(R + 1)]
    faces = []
    for r in range(R):
        pos = {T: i for i, T in enumerate(subsets[r])}
        faces.append([(pos[S[:l] + S[l + 1:]], si, (-1) ** l, i)
                      for si, S in enumerate(subsets[r + 1]) for l, i in enumerate(S)])
    mults = [[mul_form_entries(form, m, degs[r + 1], G.dim) for form in forms]
             for r in range(R)]
    K = KoszulComplex(group=G, d=d, m=m, j=j, t=t, forms=forms,
                      degs=degs, mults=mults, faces=faces,
                      subsets=subsets)
    _verify_complex(K)
    return K


def _well_placed(R: np.ndarray, m: int) -> bool:
    """Whether the rows R of a shift form lie in range(m) and are distinct
    in each column, so that the dense matrix is the sum of its terms."""
    S = np.sort(R, axis=0)
    return not S.size or (S[0].min() >= 0 and S[-1].max() < m and bool(np.all(S[1:] != S[:-1])))


def _commute_termwise(K: KoszulComplex, r: int, a: int, b: int) -> bool:
    """Whether M_a(hi) M_b(lo) and M_b(hi) M_a(lo) have the same terms, hi
    the blocks of tau_(r+1) and lo those of tau_(r+2).

    With the shift forms (R, v), M_a(hi) M_b(lo) is the sum over (l, l', c)
    of v_a(hi)[l] v_b(lo)[l'] at (R_a(hi)[l, R_b(lo)[l', c]], c).  The other
    product's terms are indexed (l', l, c); equal rows and values under that
    swap make the two sums the same, term by term.  No matrix is multiplied.
    """
    F = K.group.field
    (Ra, va), (Rb, vb) = K.mults[r][a], K.mults[r][b]
    (Ra_lo, va_lo), (Rb_lo, vb_lo) = K.mults[r + 1][a], K.mults[r + 1][b]
    return (np.array_equal(Ra[:, Rb_lo], Rb[:, Ra_lo].swapaxes(0, 1))
            and np.array_equal(F.vec_mul(va[:, None], vb_lo[None, :]),
                               F.vec_mul(vb[:, None], va_lo[None, :]).T))


def _verify_complex(K: KoszulComplex):
    """Exact identity checks on the blocks of the complex; no dense map.

    tau o tau = 0, term by term, with no product.  Block (T, S) of
    tau_(r+1) o tau_(r+2) is the sum over the paths S -> S' -> T of the two
    maps' faces: c * M_i(hi) M_i'(lo), c the summed signs of the faces
    (S', S, sign', i') of tau_(r+2) and (T, S', sign, i) of tau_(r+1), hi
    the blocks of tau_(r+1) and lo those of tau_(r+2).  The complex is
    accepted only when, in every block, the coefficients of (a, b) and
    (b, a) cancel mod p and no (a, a) path is left, so the block is a sum of
    c * (M_a(hi) M_b(lo) - M_b(hi) M_a(lo)); and when, for each (r, {a, b})
    with a live coefficient, those two products have the same terms
    (`_commute_termwise`) on entries at distinct positions (`_well_placed`).
    Then every block is zero as a dense matrix: the check never accepts a
    complex whose dense composite is nonzero.  By the subset rule
    T = S - {a, b} with a < b at positions k < l of S, and its two paths
    remove a then b, with signs (-1)^k (-1)^(l-1), or b then a, with
    (-1)^l (-1)^k: opposite.  The signs are read off the faces, not assumed.
    And multiplications by forms commute term by term: both products put
    f_a[b_l] f_b[b'_l'] at the monomial z^(b_l + b'_l' + c).

    Equivariance, from the forms.  rho is block diagonal with one Sym
    matrix repeated, and each tau block is a signed M_f, f in `K.forms`
    (`build_complex`), so tau commutes with rho iff each M_f commutes with
    Sym(g).  `sym_matrix_stream` builds Sym^*(g) as a ring automorphism: a
    monomial's column is the product of its variables' images (pinned by
    `test_sym_matrix_columns_expand_products_of_images`).  So
    Sym^(k+m)(g)(f h) - f Sym^k(g)h = (g.f - f)(g.h), zero for all h iff
    g.f = f: one Sym^m(g) f product per form and generator
    (`is_invariant_form`), and no block is multiplied.
    """
    F = K.group.field
    for r in range(K.top):
        for i, (R, _) in enumerate(K.mults[r]):
            if not _well_placed(R, K.block_dim(r)):
                raise AssertionError(f"entries of M_{i} into C_{r} overlap or leave it")
    for r in range(K.top - 1):
        out_of = defaultdict(list)  # faces of tau_(r+1) by column block
        for T, S, sign, i in K.faces[r]:
            out_of[S].append((T, sign, i))
        paths = defaultdict(Counter)  # (T, S) -> {(i, i'): summed sign}
        for S1, S, sign1, i1 in K.faces[r + 1]:
            for T, sign, i in out_of[S1]:
                paths[T, S][i, i1] += sign * sign1
        pairs = set()
        for coeffs in paths.values():
            for (a, b), c in coeffs.items():
                if (c + (coeffs[b, a] if a != b else 0)) % F.p:
                    raise AssertionError(f"tau_{r + 1} o tau_{r + 2} != 0")
                if a != b and c % F.p:
                    pairs.add((min(a, b), max(a, b)))
        for a, b in sorted(pairs):
            if not _commute_termwise(K, r, a, b):
                raise AssertionError(f"tau_{r + 1} o tau_{r + 2} != 0")
    for i, f in enumerate(K.forms):
        if not is_invariant_form(K.group, f, K.m):
            raise AssertionError(f"form {i} is not invariant: multiplication by it "
                                 "is not equivariant")


def check_exact(K: KoszulComplex) -> dict:
    """Rank bookkeeping: exact at r iff rank tau_(r+1) = dim ker tau_r."""
    exact_at, inexact_at = [], []
    for r in range(1, K.top + 1):
        (exact_at if K.is_exact(r) else inexact_at).append(r)
    return {
        "exact_at": exact_at,
        "inexact_at": inexact_at,
        "exact": not inexact_at,
        "coker_dim": K.dim(0) - K.rank(0),
    }


def check_split_stagewise(K: KoszulComplex, registry: Registry, seed: int,
                          sym_vectors: dict[int, dict[int, int]]) -> dict:
    """Per-stage splitting verdicts plus freeness of the cokernel class.

    Stage r is 0 -> ker tau_r -> C_r -> C_r / ker tau_r -> 0, with
    tau_r : C_r -> C_(r-1).  The class of C_r is C(d, r) times that of its
    Sym block, read from sym_vectors (keyed by degree, over `registry`); no
    term is decomposed.  One pass from the top down keeps `quo[r]`, the
    class of C_r / ker tau_r, and `ker[r]`, that of ker tau_r, by two facts:

    * at an exact spot r, ker tau_r = im tau_(r+1), so C_r / ker tau_r is
      Q_r = C_r / im tau_(r+1) (`KoszulComplex.quotient`), which is C_top
      at the top; and im tau_(r+1) is isomorphic to C_(r+1) / ker tau_(r+1),
      so ker[r] = quo[r + 1], and 0 at the top.
    * C_1 / ker tau_1 is isomorphic to im tau_1, which complements the
      cokernel Q_0 in C_0 whenever Q_0 is free (free modules are injective
      over a group algebra, so 0 -> im tau_1 -> C_0 -> Q_0 -> 0 splits).

    Otherwise Q_r is decomposed, and at an inexact spot the kernel
    (`KoszulComplex.kernel`) and the quotient by it.  Terms are built only
    where a module is read (`KoszulComplex.term`): C_0 for the cokernel,
    C_r for Q_r, 0 < r < top, or at an inexact spot.  So at a fully exact
    complex with a free cokernel the only modules decomposed are Q_0 and
    Q_2, ..., Q_(top-1), and C_1 and C_top are never built.
    """
    R = K.top
    exact = set(check_exact(K)["exact_at"])
    vcoker = decompose(K.cokernel(), registry, seed)
    q = free_rank(vcoker, registry, seed)
    coker_free = vcoker == dvec_scale(registry.regular_vec(seed), q)

    def term_vec(r: int) -> dict[int, int]:
        return dvec_scale(sym_vectors[K.m * (K.t - r) + K.j], K.copies(r))

    im1 = dvec_sub(term_vec(0), vcoker) if coker_free else None
    if im1 is not None and any(v < 0 for v in im1.values()):
        im1 = None
    quo, ker = {}, {}
    for r in range(R, 0, -1):
        if r in exact:
            ker[r] = quo.get(r + 1, {})
        else:
            Kb, lead = K.kernel(r - 1)
            ker[r] = decompose(module_on_basis(K.term(r), Kb, lead), registry, seed)
        if r == R and r in exact:
            quo[r] = term_vec(r)
        elif r == 1 and im1 is not None:
            quo[r] = im1
        else:
            Q = K.quotient(r) if r in exact else _quotient_from_rowspace(K.term(r), Kb.T, lead)
            quo[r] = decompose(Q, registry, seed)
    stages = [{"r": r, "split": term_vec(r) == dvec_add(ker[r], quo[r]),
               "kernel_dim": K.dim(r) - K.rank(r - 1)} for r in range(1, R + 1)]
    return {
        "stages": stages,
        "all_split": all(s["split"] for s in stages),
        "coker_vector": vcoker,
        "coker_free": bool(coker_free),
        "coker_free_rank": q,
    }


def euler_identity(registry: Registry, sym_vectors: dict[int, dict[int, int]],
                   d: int, m: int, j: int, t: int, seed: int) -> dict:
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
                              m: int, j: int, t_range, seed: int) -> dict:
    """Are first differences of nonfree classes along stride m eventually constant?

    Yes when the last HOLDOUT or more differences are equal; `stable_from`
    is then the t that ends the first of them.  A shorter run of equal
    differences at the end of the window is not evidence, so the verdict is
    no, with no `stable_from` and no constant.
    """
    ts = sorted(t_range)
    vecs = [nonfree(sym_vectors[m * t + j], registry, seed) for t in ts]
    diffs = [dvec_sub(b, a) for a, b in zip(vecs, vecs[1:])]
    # all of diffs[i:] equal diffs[i] exactly when they all equal diffs[-1]
    i = tail_threshold([d == diffs[-1] for d in diffs])
    ok = i is not None and len(diffs) - i >= HOLDOUT
    return {
        "offset": j,
        "stride": m,
        "t_range": ts,
        "stable_from": ts[i + 1] if ok else None,
        "constant": diffs[-1] if ok else None,
        "ok": ok,
    }
