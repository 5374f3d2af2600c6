"""Finite matrix groups over GF(p^e) and the representation constructors.

A group is closed by breadth-first products from its generators; the element
list is canonical (identity first, each BFS level sorted by serialized matrix
bytes), so element indices are stable across runs and safe to persist.  Every
element carries a left word (parent index, generator index): element i is
generator gi times element parent, with parent < i.  Walking the words in
index order (`GroupData.walk`) evaluates a module action on every element,
or the G-orbit of a vector, with one product per element.  Only this module
reads the words.

`ModuleRep` is the carrier for all downstream work: a kG-module given by the
action matrices of the group generators on a chosen basis.

The graded pieces Sym^n = H^0(P^d, O(n)) live on the graded-lex monomial
basis.  The order has one home: `monomials` lists a degree's exponent
vectors and `monomial_index` maps exponent rows back to their positions;
Sym^n towers and the form multiplication maps read positions from it.

A closed group is the one handle for an action: `close_group(F, gens)`
checks the generators and closes them, and every API past it takes the group
alone.  A group owns the data derived from it: `GroupData.sym(n)` keeps Sym^k
of its generators for the group's lifetime and resumes from the highest
degree built.  A monomial action (one nonzero per column) keeps no tower:
its Sym^n is monomial too, built in closed form on each call.  Nothing
outlives the group that made it.
"""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np

from .gf import CapacityError, Field
from . import linalg as la

GROUP_CAP = 10_000
SYM_DIM_CAP = 50_000


def _mat_key(A: np.ndarray) -> bytes:
    return A.astype(np.int64).tobytes()


class GroupData:
    """Closed element list with words, orders, Sylow subgroup, classes.

    Also the owner of state derived from the group: the Sym^k towers of its
    generators (`sym`), kept for non-monomial actions only.  Built by
    `close_group` only, which checks the generators.
    """

    def __init__(self, field: Field, gens: list[np.ndarray]):
        self.field = field
        self.gens = [g.astype(np.int64) for g in gens]
        self.dim = self.gens[0].shape[0]
        self.elements: list[np.ndarray] = []
        self.index: dict[bytes, int] = {}
        self.words: list[tuple[int, int]] = []  # left words: (parent element, generator position)
        self._mult: dict[tuple[int, int], int] = {}
        self._orders: list[int] | None = None
        self._sylow: tuple[int, ...] | None = None
        self._conj_classes: list[tuple[int, ...]] | None = None
        picks = [la._monomial_picks(g, 0) for g in self.gens]
        # (sigma, c) per generator, g.z_j = c[j] z_sigma[j], when every generator is monomial
        self._monomial = None if None in picks else [(i, v[0]) for i, v in picks]
        self._sym_towers: list[dict[int, np.ndarray]] = [{} for _ in self.gens]

    # -- enumeration -----------------------------------------------------

    def _close(self):
        F = self.field
        I = la.identity(self.dim)
        self.elements = [I]
        self.index = {_mat_key(I): 0}
        self.words = [(-1, -1)]
        frontier = [0]
        while frontier:
            discovered: list[tuple[bytes, np.ndarray, int, int]] = []
            seen_here: set[bytes] = set()
            for xi in frontier:
                X = self.elements[xi]
                for gi, G in enumerate(self.gens):
                    Y = la.mat_mul(F, G, X)
                    k = _mat_key(Y)
                    if k not in self.index and k not in seen_here:
                        seen_here.add(k)
                        discovered.append((k, Y, xi, gi))
            discovered.sort(key=lambda t: t[0])
            frontier = []
            for k, Y, xi, gi in discovered:
                idx = len(self.elements)
                if idx >= GROUP_CAP:
                    raise CapacityError(f"group order exceeds cap {GROUP_CAP}")
                self.index[k] = idx
                self.elements.append(Y)
                self.words.append((xi, gi))
                frontier.append(idx)

    @property
    def order(self) -> int:
        return len(self.elements)

    def walk(self, start, step) -> list:
        """x_0 = start and x_i = step(gi, x_parent) along the left words.

        With step(gi, X) the action of generator gi applied to X, x_i is the
        action of element i applied to start: one step per element, in
        element order.
        """
        out = [start]
        for parent, gi in self.words[1:]:
            out.append(step(gi, out[parent]))
        return out

    # -- index arithmetic --------------------------------------------------

    def mult(self, i: int, j: int) -> int:
        key = (i, j)
        if key not in self._mult:
            Y = la.mat_mul(self.field, self.elements[i], self.elements[j])
            self._mult[key] = self.index[_mat_key(Y)]
        return self._mult[key]

    def element_order(self, i: int) -> int:
        return self.element_orders[i]

    @property
    def element_orders(self) -> list[int]:
        if self._orders is None:
            out = []
            for i in range(self.order):
                k, x = 1, i
                while x != 0:
                    x = self.mult(x, i)
                    k += 1
                out.append(k)
            self._orders = out
        return self._orders

    def inv(self, i: int) -> int:
        return self.power(i, self.element_order(i) - 1)

    def power(self, i: int, k: int) -> int:
        out, x = 0, i
        while k:
            if k & 1:
                out = self.mult(out, x)
            x = self.mult(x, x)
            k >>= 1
        return out

    def subgroup_closure(self, idxs) -> tuple[int, ...]:
        seen = {0}
        frontier = [0]
        gens = sorted(set(idxs))
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.mult(x, g)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return tuple(sorted(seen))

    # -- structure ---------------------------------------------------------

    def sylow(self) -> tuple[int, ...]:
        """Index set of a Sylow p-subgroup, p = field characteristic.

        Greedy closure over p-power-order elements in canonical order; each
        candidate is kept only if the closure stays a p-group.  Correctness is
        certified by the order count reaching the p-part of |G|, not by
        conjugacy theory.
        """
        if self._sylow is not None:
            return self._sylow
        p = self.field.p
        target = p_part(self.order, p)
        current: tuple[int, ...] = (0,)
        grew = True
        while len(current) < target and grew:
            grew = False
            cur_set = set(current)
            for i in range(1, self.order):
                o = self.element_order(i)
                if i in cur_set or p_part(o, p) != o:
                    continue
                cand = self.subgroup_closure(set(current) | {i})
                if p_part(len(cand), p) == len(cand):
                    current = cand
                    cur_set = set(current)
                    grew = True
                    if len(current) == target:
                        break
        if len(current) != target:
            raise AssertionError(f"sylow search stopped at {len(current)} < {target}")
        self._sylow = current
        return current

    def conj_classes(self) -> list[tuple[int, ...]]:
        if self._conj_classes is None:
            seen: set[int] = set()
            classes = []
            for i in range(self.order):
                if i in seen:
                    continue
                orbit = set()
                for h in range(self.order):
                    orbit.add(self.mult(self.mult(h, i), self.inv(h)))
                seen |= orbit
                classes.append(tuple(sorted(orbit)))
            self._conj_classes = classes
        return self._conj_classes

    def p_regular_class_reps(self) -> list[int]:
        """Least-index representatives of the p-regular conjugacy classes."""
        p = self.field.p
        return [cls[0] for cls in self.conj_classes() if self.element_order(cls[0]) % p != 0]

    # -- symmetric powers ----------------------------------------------------

    def sym(self, n: int) -> list[np.ndarray]:
        """Sym^n of each generator, on the graded-lex monomial basis.

        A monomial action's matrices are built in closed form
        (`_sym_monomial`) on each call and kept nowhere; any other action
        keeps every degree built, and resumes from the highest one below n.
        A degree past SYM_DIM_CAP raises CapacityError before any is built.
        """
        if self._monomial is not None:
            return [_sym_monomial(self.field, sigma, c, n) for sigma, c in self._monomial]
        for A, tower in zip(self.gens, self._sym_towers):
            if n not in tower:
                below = [k for k in tower if k < n]
                start = (max(below), tower[max(below)]) if below else None
                for k, S in sym_matrix_stream(self.field, A, n, start=start):
                    tower.setdefault(k, S)
        return [tower[n] for tower in self._sym_towers]


def p_part(n: int, p: int) -> int:
    """The largest power of p dividing n."""
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def close_group(F: Field, gens: list[np.ndarray]) -> GroupData:
    """The group the generator matrices generate, closed.

    The generators must be at least one invertible square matrix over F, all
    of one size.
    """
    if not gens:
        raise ValueError("a group needs at least one generator")
    for i, A in enumerate(gens):
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("generators must be square matrices")
        if A.shape != gens[0].shape:
            raise ValueError("generators must share a dimension")
        if la.rank(F, A) != A.shape[0]:
            raise ValueError(f"generator {i} is not invertible")
    G = GroupData(F, gens)
    G._close()
    return G


class ModuleRep:
    """A kG-module: action matrices of the group generators on a basis.

    Convention is column-image: mats[g][i, j] is the z_i coefficient of the
    image of basis vector z_j.  Element actions come from `orbit`, one walk
    over the group's words per call; nothing is memoized.  int64 matrices
    are kept as given, not copied (a Sym^n module of a non-monomial action
    shares its group's Sym matrices), so no caller writes into a module's
    matrices.
    """

    def __init__(self, group: GroupData, mats: list[np.ndarray]):
        if len(mats) != len(group.gens):
            raise ValueError("one action matrix per group generator required")
        self.group = group
        self.field = group.field
        self.mats = [np.asarray(m, dtype=np.int64) for m in mats]
        self.dim = self.mats[0].shape[0]
        for m in self.mats:
            if m.shape != (self.dim, self.dim):
                raise ValueError("action matrices must be square of equal size")

    def orbit(self, V: np.ndarray) -> list[np.ndarray]:
        """rho(g_i) @ V for every element i, in element order.

        The orbit of the identity is the list of element actions.
        """
        return self.group.walk(V, lambda gi, X: la.mat_mul(self.field, self.mats[gi], X))

    def key(self) -> bytes:
        h = hashlib.sha256()
        h.update(f"{self.field.p},{self.field.e},{self.dim},{len(self.mats)};".encode())
        for m in self.mats:
            h.update(m.tobytes())
        return h.digest()


# -- symmetric powers -------------------------------------------------------


def monomials(nvars: int, n: int) -> np.ndarray:
    """Degree-n exponent vectors in graded-lex order with z_0 > z_1 > ...

    A (sym_dim, nvars) int64 array, row i the i-th basis monomial; the rows
    descend lexicographically.  Built by stars and bars: n stars and nvars - 1
    bars in n + nvars - 1 slots, the exponents being the gaps between bars.
    The partial sums a_0 + ... + a_i + i are the bar positions, so bar
    positions in reverse lexicographic order list the exponents in it too.
    """
    slots = n + nvars - 1
    bars = np.array(list(itertools.combinations(range(slots), nvars - 1)),
                    dtype=np.int64).reshape(sym_dim(nvars, n), nvars - 1)[::-1]
    return np.diff(np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, slots)), axis=1) - 1


def monomial_index(E: np.ndarray) -> np.ndarray:
    """Position of each exponent row of E in its degree's `monomials` list.

    The one map from exponent vectors to basis positions, in closed form: the
    combinatorial number system (Knuth, TAOCP 4A, 7.2.1.3).  The monomials
    before (a_0, ..., a_d) agree with it on z_0..z_(i-1) and put more than a_i
    on z_i for some i < d, so its rank is sum_(i<d) sym_dim(d+1-i, r_i-a_i-1)
    with r_i = n - a_0 - ... - a_(i-1), n the row's degree.
    """
    E = np.asarray(E, dtype=np.int64)
    d = E.shape[1] - 1
    r = E.sum(axis=1)
    out = np.zeros(len(E), dtype=np.int64)
    for i in range(d):
        # sym_dim(d+1-i, r-a_i-1) = C(top, d-i), zero when r == a_i
        top = r - E[:, i] - 1 + d - i
        c = np.ones_like(top)
        for j in range(1, d - i + 1):
            c = c * (top - j + 1) // j
        out += c
        r = r - E[:, i]
    return out


def sym_dim(d1: int, n: int) -> int:
    """dim Sym^n in d1 variables: the Hilbert function of projective (d1-1)-space."""
    return math.comb(n + d1 - 1, d1 - 1)


def sym_matrix_stream(F: Field, A: np.ndarray, n: int, start):
    """Yield (k, Sym^k(A)) for k = 0..n, holding one degree at a time.

    Degree k columns are built from degree k-1: the column of a monomial is
    the column of the monomial with its leading variable peeled, multiplied by
    that variable's image.  Peeling the first positive exponent makes the
    recursion consistent, and grouping columns by peel variable vectorizes it.

    start is None, to begin at degree 0, or a pair (k0, Sym^k0(A)) to resume
    from; yields then begin at degree k0.
    """
    d1 = A.shape[0]
    if sym_dim(d1, n) > SYM_DIM_CAP:
        raise CapacityError(f"sym dimension exceeds cap {SYM_DIM_CAP}")
    if start is None:
        k0, prev = 0, la.identity(1)
    else:
        k0, prev = start[0], start[1].astype(np.int64)
    yield k0, prev
    unit = np.eye(d1, dtype=np.int64)
    mons_prev = monomials(d1, k0)
    for k in range(k0 + 1, n + 1):
        mons_k = monomials(d1, k)
        # row maps: where multiplication by z_i sends each degree-(k-1) monomial
        shift = monomial_index((mons_prev[None] + unit[:, None]).reshape(-1, d1)).reshape(d1, -1)
        peel = np.argmax(mons_k > 0, axis=1)
        beta = monomial_index(mons_k - unit[peel])
        cur = la.zeros(len(mons_k), len(mons_k))
        for j in range(d1):
            cols = np.flatnonzero(peel == j)
            block = prev[:, beta[cols]]
            for i in range(d1):
                a = int(A[i, j])
                if a == 0:
                    continue
                tgt = np.ix_(shift[i], cols)
                cur[tgt] = F.vec_addmul(cur[tgt], np.int64(a), block)
        yield k, cur
        prev, mons_prev = cur, mons_k


def _sym_monomial(F: Field, sigma: np.ndarray, c: np.ndarray, n: int) -> np.ndarray:
    """Sym^n of the monomial matrix g.z_j = c[j] z_sigma[j], in closed form.

    A ring automorphism is fixed by the images of the variables, so column
    z^a holds prod_j c[j]^(a_j) alone, in the row of z^b, b_sigma[j] = a_j:
    the matrix `sym_matrix_stream` builds, with no lower degree.
    """
    d1 = len(sigma)
    if sym_dim(d1, n) > SYM_DIM_CAP:
        raise CapacityError(f"sym dimension exceeds cap {SYM_DIM_CAP}")
    mons = monomials(d1, n)
    powers = np.ones((n + 1, d1), dtype=np.int64)  # powers[k, j] = c[j]^k
    for k in range(1, n + 1):
        powers[k] = F.vec_mul(powers[k - 1], c)
    vals = np.ones(len(mons), dtype=np.int64)
    for j in range(d1):
        vals = F.vec_mul(vals, powers[mons[:, j], j])
    out = la.zeros(len(mons), len(mons))
    out[monomial_index(mons[:, np.argsort(sigma)]), np.arange(len(mons))] = vals
    return out


def sym_power(group: GroupData, n: int) -> ModuleRep:
    """The degree-n graded piece H^0(P^d, O(n)) as a module over `group`."""
    if n < 0:
        raise ValueError("sym_power needs n >= 0")
    return ModuleRep(group, group.sym(n))


# -- derived modules ---------------------------------------------------------


def regular_rep(G: GroupData) -> ModuleRep:
    mats = []
    for gi in range(len(G.gens)):
        g = G.index[_mat_key(G.gens[gi])]
        P = la.zeros(G.order, G.order)
        for h in range(G.order):
            P[G.mult(g, h), h] = 1
        mats.append(P)
    return ModuleRep(G, mats)
