"""Decomposition of kG-modules into indecomposables.

The engine has three layers:

* hom spaces and endomorphism splits (`hom_basis`, `fitting_decompose`).
  Trivial direct summands are peeled deterministically through the pairing of
  fixed vectors against invariant functionals.  After that a random
  endomorphism phi is tried two ways: its stable power splits M into
  kernel and image (Fitting), and failing that the coprime factors of its
  minimal polynomial split M into primary components, which also handles
  invertible phi.  Indecomposability is declared after K consecutive failed
  draws, or certified exactly by an exhaustive idempotent scan when the
  endomorphism ring is small enough to enumerate.

* a bulk free-summand peel inside `decompose`: stacks of G-orbits of random
  vectors span free submodules, which are injective over a group algebra and
  therefore split off with complement isomorphic to the quotient.  For
  p-groups the peel is exact in one round.  A monomial module (Sym^n of a
  permutation action) is then a sum of transitive permutation modules k[G/H],
  each indecomposable and free exactly when H = 1 (Green 1959), so its free
  part is spanned by its regular basis orbits and needs no elimination.
  Any other module goes through the trace operator, whose rank equals the
  free rank, and orbits of its pivot preimages span a maximal free summand.
  This is what makes degree-thousands modules tractable; the Fitting engine
  then only sees the small non-free remainder.

* the registry: canonical representatives of indecomposable classes, matched
  by the exact `_iso_detail` (some Hom basis element is invertible) among the
  entries of equal dimension.  DecompVectors are plain {id: multiplicity}
  dicts over registry ids; two modules decomposed over one registry are
  isomorphic exactly when their vectors agree (Krull-Schmidt).

Randomness is seed-threaded: every random choice derives from the caller's
seed and the module's content hash, so runs are bit-reproducible.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os

import numpy as np

from . import linalg as la
from .gf import Field, poly_coprime_split
from .groups import GroupData, ModuleRep, p_part, regular_rep, sym_dim

FITTING_K = 40
END_SCAN_SPACE = 2**16


def child_seed(seed: int, *parts) -> int:
    h = hashlib.sha256()
    h.update(str(int(seed)).encode())
    for p in parts:
        h.update(b"|")
        h.update(p if isinstance(p, bytes) else str(p).encode())
    return int.from_bytes(h.digest()[:8], "big")


def child_rng(seed: int, *parts) -> np.random.Generator:
    return np.random.default_rng(child_seed(seed, *parts))


# -- hom spaces ---------------------------------------------------------------


def hom_basis(M: ModuleRep, N: ModuleRep) -> list[np.ndarray]:
    """Deterministic basis of Hom_kG(M, N) as dim(N) x dim(M) matrices.

    Solves phi @ rho_M(g) = rho_N(g) @ phi over the generators; the Kronecker
    assembly below only ever multiplies field entries by 0/1, so it is valid
    over any coefficient field.
    """
    if M.group is not N.group:
        raise ValueError("hom_basis needs modules over the same group")
    F = M.field
    dm, dn = M.dim, N.dim
    blocks = [F.vec_sub(np.kron(la.identity(dn), A.T), np.kron(B, la.identity(dm)))
              for A, B in zip(M.mats, N.mats)]
    K = la.kernel_basis(F, np.vstack(blocks))
    return [K[:, j].reshape(dn, dm) for j in range(K.shape[1])]


# -- canonical sub/quotient constructions ------------------------------------


def _colspace_canonical(F: Field, C: np.ndarray):
    """Canonical basis of the column space: (basis dim x r, pivot row list)."""
    R, rk, piv = la.rref(F, C.T)
    return R[:rk].T.copy(), list(piv)


def submodule(M: ModuleRep, C: np.ndarray) -> ModuleRep:
    """The column space of C, which the caller knows to be G-invariant, as a
    module in a canonical basis."""
    B, piv = _colspace_canonical(M.field, C)
    return module_on_basis(M, B, piv)


def module_on_basis(M: ModuleRep, B: np.ndarray, piv: list[int]) -> ModuleRep:
    """The span of the canonical basis B (identity rows at piv), which the
    caller knows to be G-invariant, as a module.

    Coordinates of any vector in the span are its entries at piv, so only
    those rows of each A @ B are computed.
    """
    F = M.field
    return ModuleRep(M.group, [la.mat_mul(F, A[piv], B) for A in M.mats])


# -- Fitting decomposition ----------------------------------------------------


def _span_element(F: Field, basis: list[np.ndarray], coeffs: np.ndarray) -> np.ndarray:
    flat = np.stack(basis).reshape(len(basis), -1)
    return la.mat_mul(F, np.asarray(coeffs)[None], flat).reshape(basis[0].shape)


def _fitting_power(F: Field, phi: np.ndarray) -> np.ndarray:
    """phi^(2^ceil(log2 dim)): stable kernel/image splitting power."""
    n = phi.shape[0]
    steps = max(1, math.ceil(math.log2(n))) if n > 1 else 1
    psi = phi
    for _ in range(steps):
        psi = la.mat_mul(F, psi, psi)
    return psi


def _ker_module(M: ModuleRep, U: np.ndarray) -> ModuleRep | None:
    """ker(U) as a module in kernel-basis coordinates; None when U is injective.

    The kernel basis carries an identity block on its free rows, which is
    what `module_on_basis` reads coordinates off.
    """
    F = M.field
    R, rk, piv = la.rref(F, U)
    if rk == M.dim:
        return None
    pivset = set(piv)
    free = [c for c in range(M.dim) if c not in pivset]
    return module_on_basis(M, la.kernel_from_rref(F, R, rk, piv, M.dim), free)


def _split_by(M: ModuleRep, psi: np.ndarray) -> tuple[ModuleRep, ModuleRep] | None:
    """ker(psi) + im(psi) split when both are proper; None otherwise."""
    ker_mod = _ker_module(M, psi)
    if ker_mod is None or ker_mod.dim == M.dim:
        return None
    im_mod = submodule(M, psi)  # im of an endomorphism is invariant
    return ker_mod, im_mod


def _idempotent_scan(M: ModuleRep, basis: list[np.ndarray]):
    """Exhaustively search span(basis) for a nontrivial idempotent.

    Returns a splitting (ker, im) pair, or None meaning M is certified
    indecomposable (an artinian endomorphism ring without nontrivial
    idempotents is local).
    """
    F = M.field
    q, k, d = F.q, len(basis), M.dim
    I = la.identity(d)
    flat = np.stack(basis).reshape(k, d * d)
    chunk = 2048
    total = q**k
    for start in range(0, total, chunk):
        # row j: the base-q digits of start + j, the coefficients of one element
        coeffs = np.arange(start, min(start + chunk, total))[:, None] // q ** np.arange(k) % q
        combo = la.mat_mul(F, coeffs, flat).reshape(-1, d, d)
        sq = la.mat_mul(F, combo, combo)
        good = np.all(sq == combo, axis=(1, 2))
        good &= np.any(combo != 0, axis=(1, 2))
        good &= np.any(combo != I[None], axis=(1, 2))
        hits = np.nonzero(good)[0]
        for h in hits:
            split = _split_by(M, combo[h])
            if split is not None:
                return split
    return None


def fitting_decompose(M: ModuleRep, seed: int) -> list[ModuleRep]:
    """Split M into indecomposable summands (Krull-Schmidt multiset)."""
    out: list[ModuleRep] = []
    stack = [M]
    while stack:
        mod = stack.pop()
        if mod.dim == 0:
            continue
        split = _try_split(mod, seed)
        if split is None:
            out.append(mod)
        else:
            stack.extend(split)
    return out


def _peel_trivial_pair(M: ModuleRep) -> tuple[ModuleRep, ModuleRep] | None:
    """Deterministic split (trivial line, invariant complement), if one exists.

    A trivial direct summand exists exactly when some fixed vector pairs
    nonzero with some invariant functional; the functional's kernel is then a
    complement.  Declares None otherwise.  This disposes of trivial isotypic
    blocks without ever touching the endomorphism ring, whose dimension grows
    quadratically in their multiplicity.
    """
    F, d = M.field, M.dim
    I = la.identity(d)
    diffs = [F.vec_sub(A, I) for A in M.mats]
    fixed = la.kernel_basis(F, np.vstack(diffs))
    if fixed.shape[1] == 0:
        return None
    funcs = la.kernel_basis(F, np.vstack([D.T for D in diffs]))
    if funcs.shape[1] == 0:
        return None
    pairing = la.mat_mul(F, funcs.T.copy(), fixed)
    hits = np.argwhere(pairing != 0)
    if hits.size == 0:
        return None
    lam = funcs[:, hits[0][0]]
    triv = ModuleRep(M.group, [la.identity(1) for _ in M.mats])
    comp = submodule(M, la.kernel_basis(F, lam[None, :]))
    return triv, comp


def _primary_split(mod: ModuleRep, phi: np.ndarray, rng) -> tuple[ModuleRep, ModuleRep] | None:
    """Split along a coprime factorization of phi's minimal polynomial.

    Works whether or not phi is invertible; returns None when the minimal
    polynomial is a power of one irreducible (no split through this phi).
    """
    F = mod.field
    f = la.min_poly(F, phi)
    if len(f) <= 2:
        return None
    parts = poly_coprime_split(F, f, rng)
    if parts is None:
        return None
    u, v = parts
    ker_u = _ker_module(mod, la.mat_eval_poly(F, u, phi))
    ker_v = _ker_module(mod, la.mat_eval_poly(F, v, phi))
    assert ker_u is not None and ker_v is not None
    assert ker_u.dim + ker_v.dim == mod.dim, "primary components must fill the module"
    return ker_u, ker_v


def _try_split(mod: ModuleRep, seed: int):
    F = mod.field
    if mod.dim == 1:
        return None
    split = _peel_trivial_pair(mod)
    if split is not None:
        return split
    E = hom_basis(mod, mod)
    k = len(E)
    if k == 1:
        return None  # End = k, local
    if F.q**k <= END_SCAN_SPACE:
        return _idempotent_scan(mod, E)
    rng = child_rng(seed, mod.key(), "fitting")
    for _ in range(FITTING_K):
        coeffs = rng.integers(0, F.q, size=k)
        phi = _span_element(F, E, coeffs)
        psi = _fitting_power(F, phi)
        split = _split_by(mod, psi)
        if split is not None:
            return split
        split = _primary_split(mod, phi, rng)
        if split is not None:
            return split
    return None


# -- isomorphism testing -------------------------------------------------------


def _iso_detail(M: ModuleRep, N: ModuleRep) -> tuple[bool, np.ndarray | None]:
    """(isomorphic, an isomorphism M -> N or None), exact for indecomposable M.

    End(M) is local, so M ~ N exactly when some basis element of Hom(M, N)
    is invertible: if phi = sum c_j phi_j has inverse psi, then
    id = sum c_j psi phi_j, and the nonunits of a local ring form an ideal,
    so some psi phi_j is a unit and phi_j is injective.
    """
    if M.group is not N.group:
        raise ValueError("_iso_detail needs modules over the same group")
    if M.dim != N.dim:
        return False, None
    if all(np.array_equal(A, B) for A, B in zip(M.mats, N.mats)):
        return True, la.identity(M.dim)
    for phi in hom_basis(M, N):
        if la.rank(M.field, phi) == M.dim:
            return True, phi
    return False, None


# -- registry -------------------------------------------------------------------


class Registry:
    """Canonical indecomposable representatives with stable integer ids."""

    def __init__(self, group: GroupData):
        self.group = group
        self.entries: dict[int, ModuleRep] = {}
        self._regular_vec: dict[int, int] | None = None

    def match_or_insert(self, M: ModuleRep) -> int:
        """The id of M's class, minted when no entry is isomorphic to M.

        M must be indecomposable, as every caller's input is: a Fitting part
        from `decompose` or `regular_vec`.  That makes `_iso_detail` exact
        here, and since ids are minted only on a miss, no two entries are
        isomorphic: the first match is the only one.
        """
        for mid, E in self.entries.items():
            if E.dim == M.dim and _iso_detail(E, M)[0]:
                return mid
        mid = len(self.entries)
        self.entries[mid] = M
        return mid

    def regular_vec(self, seed: int) -> dict[int, int]:
        """Decomposition vector of the regular module kG (cached)."""
        if self._regular_vec is None:
            parts = fitting_decompose(regular_rep(self.group), child_seed(seed, "regular"))
            vec: dict[int, int] = {}
            for part in parts:
                mid = self.match_or_insert(part)
                vec[mid] = vec.get(mid, 0) + 1
            self._regular_vec = vec
        return dict(self._regular_vec)

    def mark(self):
        """A state `rollback` returns to: the class count and kG's vector."""
        return len(self.entries), self._regular_vec

    def rollback(self, mark) -> None:
        """Forget the classes minted since `mark`, and a kG vector computed since."""
        size, kg = mark
        for mid in range(size, len(self.entries)):
            del self.entries[mid]
        self._regular_vec = kg

    def dim_of(self, vec: dict[int, int]) -> int:
        return sum(mult * self.entries[mid].dim for mid, mult in vec.items())


# -- decomposition vectors -------------------------------------------------------


def dvec_add(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
        if out[k] == 0:
            del out[k]
    return out


def dvec_scale(a: dict[int, int], c: int) -> dict[int, int]:
    return {k: v * c for k, v in a.items()} if c else {}


def dvec_sub(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    return dvec_add(a, dvec_scale(b, -1))


# -- the main decompose ----------------------------------------------------------


def _orbit_stack(M: ModuleRep, V: np.ndarray) -> np.ndarray:
    """Rows of all G-translates of the columns of V (|G|*t rows, dim cols)."""
    return np.vstack([w.T for w in M.orbit(V)])


def _trace(F: Field, acts: list[np.ndarray]) -> np.ndarray:
    """The trace operator: the sum of the element actions `acts`."""
    return functools.reduce(F.vec_add, acts)


def _monomial_perms(M: ModuleRep) -> np.ndarray | None:
    """Row i: the permutation of basis lines by group element i, when M is monomial.

    M is monomial when every generator has one nonzero per column; element i
    then sends the line of basis vector j to that of perms[i, j].  The rows
    are a walk of the group (`GroupData.walk`) with the generators'
    permutations as the step.  None otherwise.
    """
    gens = []
    for A in M.mats:
        picks = la._monomial_picks(A, 0)
        if picks is None:
            return None
        gens.append(picks[0])
    return np.stack(M.group.walk(np.arange(M.dim, dtype=np.int64),
                                 lambda gi, perm: gens[gi][perm]))


def _peel_orbits(M: ModuleRep, perms: np.ndarray):
    """The p-group peel of a monomial M, read off its basis orbits.

    A basis line whose stabilizer H is trivial lies in a regular orbit;
    those orbits span the free part, and the other lines span the remainder.
    This is the trace-pivot route's answer: the trace's columns are
    proportional within a regular orbit and zero elsewhere, because |H| = 0
    in k (the scalars do not matter: H is a p-group, so its character into
    k^x is trivial).  So pivT is the least index of each regular orbit, the
    orbit rows span the unit vectors of the regular orbits, and the quotient
    is the action on the other lines.
    """
    regular = (perms[1:] != perms[0]).all(axis=0)
    s = int(np.count_nonzero(regular)) // M.group.order
    if not s:
        return 0, M
    keep = np.flatnonzero(~regular)
    return s, ModuleRep(M.group, [A[np.ix_(keep, keep)] for A in M.mats])


def _peel_trace(M: ModuleRep):
    """The p-group peel of any M through the trace operator's pivot columns.

    Pivot preimages of the trace span a maximal free summand in one round
    (the trace rank IS the free rank over a p-group).  Only the trace's
    pivot columns are needed, so the sum, a fresh array (|G| > 1 actions),
    is eliminated forward only, in place.
    """
    G, F = M.group, M.field
    acts = M.orbit(la.identity(M.dim))
    pivT = la.forward_echelon(F, _trace(F, acts), overwrite=True)[1]
    rkT = len(pivT)
    if rkT == 0:
        return 0, M
    R, rk, piv = la.rref(F, np.vstack([a[:, pivT].T for a in acts]))
    assert rk == rkT * G.order, "free span must have full orbit rank"
    return rkT, _quotient_from_rowspace(M, R[:rk], piv)


def _peel_free(M: ModuleRep, rng: np.random.Generator):
    """Split off s free summands; returns (s, remainder module).

    Over a p-group the peel is exact in one round: a monomial M (Sym^n of a
    permutation or monomial action) is read off its basis orbits
    (`_peel_orbits`), and any other M goes through the trace operator
    (`_peel_trace`).  General route: exponential ramp of random vectors,
    keeping orbit stacks only while the rank grows by |G| per vector.  Each
    step stacks the new orbit rows above the RREF so far and extends it with
    `la.echelon_from_leads`; an accepted step is back-substituted at once.
    """
    G, F, D = M.group, M.field, M.dim
    n = G.order
    if n == 1 or D < n:
        return 0, M
    if p_part(n, F.p) == n:
        perms = _monomial_perms(M)
        return _peel_trace(M) if perms is None else _peel_orbits(M, perms)
    # ramp route
    R = la.zeros(0, D)
    piv: list[int] = []
    s = 0
    t = 1
    fails = 0
    while fails < 3 and len(piv) + n <= D:
        t = max(1, min(t, (D - len(piv)) // n))
        S = _orbit_stack(M, la.rand_mat(F, rng, D, t))
        W, ext = la.echelon_from_leads(F, np.vstack([S, R]),
                                       np.array([-1] * len(S) + piv, dtype=np.int64))
        if len(ext) == len(piv) + t * n:
            la.back_substitute(F, W, ext)
            R, piv, s = W[:len(ext)], ext, s + t
            t *= 2
            fails = 0
        elif t > 1:
            t //= 2
        else:
            fails += 1
    if s == 0:
        return 0, M
    return s, _quotient_from_rowspace(M, R, piv)


def _quotient_from_rowspace(M: ModuleRep, R: np.ndarray, piv: list[int]) -> ModuleRep:
    """M modulo the row space of the RREF rows R (pivots piv), on the free coordinates.

    W = A[:, free] reduced modulo R is zero on the pivot rows, so only its
    free rows W[free] - R[:, free]^T W[piv] are computed.
    """
    F = M.field
    pivset = set(piv)
    free = [c for c in range(M.dim) if c not in pivset]
    Rf = R[:len(piv), free].T
    mats = []
    for A in M.mats:
        X = A[np.ix_(free, free)]
        mats.append(F.vec_sub(X, la.mat_mul(F, Rf, A[np.ix_(piv, free)])) if piv else X)
    return ModuleRep(M.group, mats)


def decompose(M: ModuleRep, registry: Registry, seed: int) -> dict[int, int]:
    """DecompVector of M over the registry, minting ids for unseen classes."""
    if M.group is not registry.group:
        raise ValueError("decompose: registry belongs to a different group")
    vec: dict[int, int] = {}
    work = M
    if M.dim >= M.group.order and M.group.order > 1:
        rng = child_rng(seed, M.key(), "peel")
        s, work = _peel_free(M, rng)
        if s:
            vec = dvec_scale(registry.regular_vec(seed), s)
    for part in fitting_decompose(work, seed):
        mid = registry.match_or_insert(part)
        vec[mid] = vec.get(mid, 0) + 1
    assert registry.dim_of(vec) == M.dim, "decomposition must preserve dimension"
    return vec


# -- projective / free parts -----------------------------------------------------


def projective_part_dim(M: ModuleRep) -> int:
    """#G_p times the rank of the Sylow trace operator on M."""
    syl = M.group.sylow()
    acts = M.orbit(la.identity(M.dim))
    return len(syl) * la.rank(M.field, _trace(M.field, [acts[h] for h in syl]))


def free_rank(vec: dict[int, int], registry: Registry, seed: int) -> int:
    """Multiplicity of kG inside vec: max r with r*[kG] <= vec componentwise."""
    kg = registry.regular_vec(seed)
    return min((vec.get(mid, 0) // mult for mid, mult in kg.items()), default=0)


def nonfree(vec: dict[int, int], registry: Registry, seed: int) -> dict[int, int]:
    r = free_rank(vec, registry, seed)
    return dvec_sub(vec, dvec_scale(registry.regular_vec(seed), r))


# -- registry persistence -----------------------------------------------------------


def write_text_atomic(path: str, text: str) -> None:
    """Write through a temp file and rename, so no reader sees a partial file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _content_digest(content: dict) -> str:
    """sha256 of the JSON text of a registry document's content."""
    return hashlib.sha256(json.dumps(content).encode()).hexdigest()


def save_registry(registry: Registry, path: str, vectors: dict[int, dict[int, int]]) -> None:
    """Write the registry and the vectors over it as one JSON document.

    `classes` lists the entries in id order, each as its generators' matrix
    text blocks and its dimension; `vectors` is keyed by degree; `sha256`
    is the digest of those two (`_content_digest`).  One atomic replace, so
    a reader sees a whole document from one writer or none.
    """
    content = {
        "classes": [{"dim": mod.dim, "gens": [la.mat_to_text(mod.field, A) for A in mod.mats]}
                    for _, mod in sorted(registry.entries.items())],
        "vectors": {str(n): {str(mid): mult for mid, mult in sorted(vec.items())}
                    for n, vec in sorted(vectors.items())},
    }
    doc = {"sha256": _content_digest(content), **content}
    write_text_atomic(path, json.dumps(doc) + "\n")


def load_registry(path: str, group: GroupData):
    """(registry, {n: vector}) from the document `save_registry` wrote.

    A missing document raises FileNotFoundError.  One that does not parse,
    lacks its digest or fails it, has the wrong shape, or holds a vector
    that cannot be degree n's raises ValueError: one naming a class the
    document does not hold, with a multiplicity below 1, or whose class
    dimensions do not add up to dim Sym^n = C(n + d, d).  The digest catches
    damage those checks cannot see, such as two multiplicities swapped
    between classes of one dimension.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "sha256" not in doc:
        raise ValueError("registry document has no digest")
    content = {k: v for k, v in doc.items() if k != "sha256"}
    if doc["sha256"] != _content_digest(content):
        raise ValueError("registry document fails its digest")
    reg = Registry(group)
    try:
        for mid, entry in enumerate(doc["classes"]):
            dim = entry["dim"]
            mats = [la.mat_from_text(group.field, text) for text in entry["gens"]]
            if any(A.shape != (dim, dim) for A in mats):
                raise ValueError(f"class {mid} is not {dim}-dimensional")
            reg.entries[mid] = ModuleRep(group, mats)  # checks the generator count
        vectors = {int(n): {int(mid): int(mult) for mid, mult in vec.items()}
                   for n, vec in doc["vectors"].items()}
    except (KeyError, TypeError, AttributeError, IndexError) as exc:
        raise ValueError(f"malformed registry document: {exc!r}") from None
    for n, vec in vectors.items():
        if any(mid not in reg.entries for mid in vec):
            raise ValueError(f"degree {n} names a class the document does not hold")
        dim = sym_dim(group.dim, n)
        if any(mult < 1 for mult in vec.values()) or reg.dim_of(vec) != dim:
            raise ValueError(f"degree {n} is not a vector of a {dim}-dimensional module")
    return reg, vectors
