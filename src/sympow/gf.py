"""Arithmetic in GF(p^e) with canonical moduli and primitive roots.

A field element is carried as an integer code in [0, p^e): the code's base-p
digits, little-endian, are the coefficients of the element written in the
power basis 1, x, ..., x^(e-1) of GF(p)[x]/(f).  The defining modulus f is
canonical: the lexicographically least monic irreducible of degree e, where
coefficient tuples (c0, c1, ..., c_{e-1}) are compared left to right, so the
constant coefficient is most significant.  The distinguished generator is the
least primitive element in the same coefficient order.  Registries and caches
depend on both scans being reproducible, so do not reorder them.

Univariate polynomials have one family of helpers, `poly_*`, on
little-endian int64 code arrays over any Field.  Over GF(p) they find the
canonical modulus (Ben-Or's irreducibility test) and carry scalar
multiplication in extension fields: the product of two coefficient vectors
mod f, with no log tables.  Over any field they split the minimal
polynomials the module decomposer reads.  The modulus test and that split
share one distinct-degree loop, `_frobenius_gcds`.

Vectorized variants (vec_add and friends) act elementwise on numpy int64
arrays of codes and are the substrate for the linalg layer.  Past TABLE_CAP
they work on base-p digit layers and multiply through `times_x`.  Elimination
makes one scalar call, `Field.inv` per pivot; its additions, products and
negations all go through the vector ops, never scalar `add`, `mul` or `neg`.
"""

from __future__ import annotations

import itertools

import numpy as np

FIELD_SIZE_CAP = 2**31
DEGREE_CAP = 16
# extension fields up to this size get q*q elementwise op tables (one gather
# per element instead of a pass per digit layer)
TABLE_CAP = 512
# fused a +- m*b tables take q**3 entries, so they get a tighter cap
FUSED_CAP = 64
# from this many entries on, `_mod_p` reduces through division
_REM_MIN = 2048
_SPLIT_TRIES = 40  # random draws before the equal-degree split gives up


class CapacityError(RuntimeError):
    """A configured size cap (field size, group order, module dim) was hit."""


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, n <= 2**31 or so."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _rem_into(x: np.ndarray, p: int, scratch: np.ndarray) -> None:
    """x %= p in place for int64 x; scratch is overwritten.

    numpy divides int64 arrays by a scalar several times faster than it
    takes their remainder, so this beats np.remainder on large arrays.  The
    division floors, so a negative x lands in [0, p) too.
    """
    np.floor_divide(x, p, out=scratch)
    scratch *= p
    x -= scratch


def _mod_p(x, p: int):
    """x mod p for a fresh int64 array (or a scalar), reduced in place when large.

    From _REM_MIN entries on, the remainder is taken through `floor_divide`
    (`_rem_into`); below that the extra calls cost more than they save.
    """
    if not isinstance(x, np.ndarray) or x.size < _REM_MIN:
        return x % p
    _rem_into(x, p, np.empty_like(x))
    return x


def _lookup(table: np.ndarray, q: int, a, b, c=None) -> np.ndarray:
    """table[a*q + b], or table[(a*q + b)*q + c], over broadcast code arrays.

    Large operands build the index in one fresh array and gather into it,
    instead of allocating a temporary per arithmetic step.
    """
    idx = np.asarray(a, dtype=np.int64) * q
    if idx.size < 4096:
        idx = idx + b
        if c is not None:
            idx = idx * q + c
        return table[idx]
    idx = _add_in_place(idx, b)
    if c is not None:
        idx *= q
        idx = _add_in_place(idx, c)
    # in-bounds by construction; take reads each index before overwriting it
    table.take(idx, out=idx, mode="clip")
    return idx


def _add_in_place(idx: np.ndarray, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.int64)
    if np.broadcast_shapes(idx.shape, x.shape) == idx.shape:
        idx += x
        return idx
    return idx + x  # x broadcasts to a larger shape


class Field:
    """GF(p^e) with canonical modulus; elements are int codes in [0, p^e).

    Instances are interned by :func:`make_field`; identity comparison is the
    intended equality test.
    """

    def __init__(self, p: int, e: int):
        if factorize(p) != {p: 1}:
            raise ValueError(f"p = {p} is not prime")
        if not 1 <= e <= DEGREE_CAP:
            raise CapacityError(f"extension degree {e} outside [1, {DEGREE_CAP}]")
        if p**e > FIELD_SIZE_CAP:
            raise CapacityError(f"field size {p}^{e} exceeds {FIELD_SIZE_CAP}")
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = _canonical_modulus(p, e)  # length e+1, monic
        # x^e = sum_i _xe[i] x^i  (mod f): the fold of `times_x`
        self._xe = np.array([(-c) % p for c in self.modulus[:e]], dtype=np.int64)
        self._root: int | None = None
        self._op_tables: tuple[np.ndarray, ...] | None = None
        self._fused_tables: tuple[np.ndarray, np.ndarray] | None = None
        self._kron_table: np.ndarray | None = None
        self._splittings: dict[int, tuple[Field, np.ndarray | None, int]] = {}

    # -- scalar codecs --------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.e):
            a, r = divmod(a, self.p)
            out.append(r)
        return tuple(out)

    def from_coeffs(self, cs) -> int:
        a = 0
        for c in reversed(list(cs)):
            a = a * self.p + int(c) % self.p
        return a

    def scalar_str(self, a: int) -> str:
        """e base-p digits, little-endian; fixed-width digits when p > 10."""
        w = len(str(self.p - 1))
        return "".join(str(c).zfill(w) for c in self.coeffs(a))

    def scalar_parse(self, s: str) -> int:
        w = len(str(self.p - 1))
        if len(s) != self.e * w:
            raise ValueError(f"scalar token {s!r} is not {self.e} digits of width {w}")
        digits = [int(s[i * w:(i + 1) * w]) for i in range(self.e)]
        if any(not 0 <= d < self.p for d in digits):
            raise ValueError(f"scalar token {s!r} has digits outside [0, {self.p})")
        return self.from_coeffs(digits)

    # -- scalar arithmetic ----------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        return self.from_coeffs(x + y for x, y in zip(self.coeffs(a), self.coeffs(b)))

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        return self.from_coeffs(-c for c in self.coeffs(a))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        Fp = make_field(self.p)
        return self.from_coeffs(
            poly_mod(Fp, poly_mul(Fp, self.coeffs(a), self.coeffs(b)), self.modulus))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF(p^e)")
        if self.e == 1:
            return pow(a, -1, self.p)
        if self.q <= TABLE_CAP:
            return int(self._tables()[4][a])
        return self.pow(a, self.q - 2)

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            a, n = self.inv(a), -n
        result, base = 1, a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    # -- canonical generator ---------------------------------------------

    def _lex_codes(self):
        """All codes in coefficient-lexicographic order (c0 most significant)."""
        for tup in itertools.product(range(self.p), repeat=self.e):
            yield self.from_coeffs(tup)

    @property
    def root(self) -> int:
        """Least primitive element in coefficient-lex order."""
        if self._root is None:
            n = self.q - 1
            primes = list(factorize(n))
            for a in self._lex_codes():
                if a == 0:
                    continue
                if n == 1 or all(self.pow(a, n // ell) != 1 for ell in primes):
                    self._root = a
                    break
        assert self._root is not None
        return self._root

    def splitting(self, o: int) -> tuple[Field, np.ndarray | None, int]:
        """(K, table, w): K = GF(q^s) splits x^o - 1, s the order of q mod o.

        table embeds this field in K (`extension`), or is None when K is this
        field; w = r^((|K| - 1)/o) is K's canonical o-th root of unity, r
        K's canonical primitive root.  Cached per o, next to the op tables.
        """
        if o not in self._splittings:
            if o % self.p == 0:
                raise ValueError("element order divisible by the characteristic")
            s = next(s for s in itertools.count(1) if (self.q**s - 1) % o == 0)
            K, table = (self, None) if s == 1 else extension(self, s)
            self._splittings[o] = (K, table, K.pow(K.root, (K.q - 1) // o))
        return self._splittings[o]

    # -- vectorized arithmetic on int64 code arrays ----------------------

    def split_layers(self, arr: np.ndarray) -> np.ndarray:
        """(e,) + arr.shape array of base-p digits of each code."""
        out = np.empty((self.e,) + arr.shape, dtype=np.int64)
        rem = arr.astype(np.int64, copy=True)
        for i in range(self.e):
            np.divmod(rem, self.p, out=(rem, out[i, ...]))
        return out

    def join_layers(self, layers: np.ndarray) -> np.ndarray:
        """Codes from fresh digit layers (layer axis first), each digit taken
        mod p in place."""
        return np.tensordot(self.p ** np.arange(self.e), _mod_p(layers, self.p), axes=1)

    def _tables(self) -> tuple[np.ndarray, ...]:
        """(add, sub, mul, neg, inv) tables; binary ones flat, index a*q + b."""
        if self._op_tables is None:
            q = self.q
            a = np.repeat(np.arange(q, dtype=np.int64), q)
            b = np.tile(np.arange(q, dtype=np.int64), q)
            la, lb = self.split_layers(a), self.split_layers(b)
            add = self.join_layers(la + lb)
            sub = self.join_layers(la - lb + self.p)
            mul = self._mul_xpow(a, b)
            ones = np.nonzero(mul == 1)[0]
            inv = np.zeros(q, dtype=np.int64)
            inv[ones // q] = ones % q
            self._op_tables = (add, sub, mul, sub[:q].copy(), inv)
        return self._op_tables

    def vec_add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.e == 1:
            return _mod_p(a + b, self.p)
        if self.q <= TABLE_CAP:
            return _lookup(self._tables()[0], self.q, a, b)
        return self.join_layers(self.split_layers(a) + self.split_layers(b))

    def vec_add_into(self, out: np.ndarray, b: np.ndarray) -> None:
        """out[...] = out + b in place; b (int64, out's shape) is scratch.

        Only for a field with op tables: an extension field of at most
        TABLE_CAP elements, as every Kronecker-packed GF(p^2) is.
        """
        # the add table is symmetric, so index b*q + a gives a + b; take
        # reads each index before it overwrites that slot
        b *= self.q
        b += out
        self._tables()[0].take(b, out=b, mode="clip")
        out[...] = b

    def vec_neg(self, a: np.ndarray) -> np.ndarray:
        if self.e == 1:
            return _mod_p(-a, self.p)
        if self.q <= TABLE_CAP:
            return self._tables()[3][np.asarray(a, dtype=np.int64)]
        return self.join_layers(-self.split_layers(a))

    def vec_sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.e == 1:
            return _mod_p(a - b, self.p)
        if self.q <= TABLE_CAP:
            return _lookup(self._tables()[1], self.q, a, b)
        return self.join_layers(self.split_layers(a) - self.split_layers(b) + self.p)

    def vec_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product of code arrays (broadcasting allowed)."""
        if self.e == 1:
            return _mod_p(a * b, self.p)
        if self.q <= TABLE_CAP:
            return _lookup(self._tables()[2], self.q, a, b)
        return self._mul_xpow(a, b)

    def times_x(self, L: np.ndarray) -> np.ndarray:
        """Digit layers of x*a from those of a (layer axis first): shift, fold x^e."""
        out = np.zeros_like(L)
        out[1:] = L[:-1]
        scratch = np.empty_like(L[-1])
        for i in np.flatnonzero(self._xe):
            np.multiply(L[-1], self._xe[i], out=scratch)
            out[i] += scratch
            _rem_into(out[i], self.p, scratch)
        return out

    def _mul_xpow(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise a*b as sum_i a_i * (x^i b); b is the smaller operand."""
        a, b = np.asarray(a), np.asarray(b)
        if a.size < b.size:
            a, b = b, a
        da = self.split_layers(a)
        xb = self.split_layers(b.reshape((1,) * (a.ndim - b.ndim) + b.shape))
        acc = da[0] * xb
        for i in range(1, self.e):
            xb = self.times_x(xb)
            acc += da[i] * xb
        # join_layers reduces each digit mod p itself
        return self.join_layers(acc)

    def kron_plan(self) -> tuple[int, int]:
        """(bits, step) of the Kronecker packing of GF(p^2) codes.

        A code a0 + a1*p packs into the float64 a0 + a1*2**bits, so the
        float64 product of two packed matrices holds the three coefficients
        of the digit-polynomial convolution in bits-wide slots.  `step` is
        the longest inner dimension one packed product may sum over: after
        kron_unpack folds slot 2 into slots 0 and 1 (weights below p), each
        slot stays below 2**bits and the whole value below 2**52, so the BLAS
        result is exact and converts to int64 in place (linalg._mm_kron).
        """
        if self.e != 2:
            raise ValueError("Kronecker packing is for degree-2 extensions")
        bits = 52 // 3
        p = self.p
        return bits, ((1 << bits) - 1) // ((p + 1) * (p - 1) ** 2)

    def kron_pack(self, arr: np.ndarray, negate: bool = False) -> np.ndarray:
        """float64 array of packed codes, or of their negatives, in one gather."""
        if self._kron_table is None:
            bits = self.kron_plan()[0]
            codes = np.arange(self.q, dtype=np.int64)
            digits = self.split_layers(np.stack([codes, self.vec_neg(codes)]))
            self._kron_table = (digits[0] + digits[1] * (1 << bits)).astype(np.float64)
        return self._kron_table[int(negate)][np.asarray(arr, dtype=np.int64)]

    def kron_unpack(self, X: np.ndarray) -> np.ndarray:
        """Codes of a packed product held as int64; overwrites X."""
        bits, p = self.kron_plan()[0], self.p
        # x^2 = r0 + r1*x: move slot 2 into slots 0 and 1 without unpacking
        r0, r1 = (int(c) for c in self._xe)
        top = np.right_shift(X, 2 * bits)
        X &= (1 << (2 * bits)) - 1
        top *= r0 + (r1 << bits)
        X += top
        np.right_shift(X, bits, out=top)
        X &= (1 << bits) - 1
        scratch = np.empty_like(X)
        _rem_into(X, p, scratch)
        _rem_into(top, p, scratch)
        top *= p
        top += X
        return top

    def _fused(self) -> tuple[np.ndarray, np.ndarray]:
        """(submul, addmul) tables: entry (a*q + m)*q + b holds a -+ m*b."""
        if self._fused_tables is None:
            q = self.q
            add, sub, mul = self._tables()[:3]
            mb = mul[np.tile(np.arange(q * q, dtype=np.int64), q)]
            aq = np.repeat(np.arange(q, dtype=np.int64), q * q) * q
            self._fused_tables = (sub[aq + mb], add[aq + mb])
        return self._fused_tables

    def vec_submul(self, a: np.ndarray, m: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise a - m*b with broadcasting, the elimination kernel."""
        if self.e == 1:
            return _mod_p(a - m * b, self.p)
        if self.q <= FUSED_CAP:
            return _lookup(self._fused()[0], self.q, a, m, b)
        return self.vec_sub(a, self.vec_mul(m, b))

    def vec_addmul(self, a: np.ndarray, m: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise a + m*b with broadcasting."""
        if self.e == 1:
            return _mod_p(a + m * b, self.p)
        if self.q <= FUSED_CAP:
            return _lookup(self._fused()[1], self.q, a, m, b)
        return self.vec_add(a, self.vec_mul(m, b))

    def vec_inv(self, a: np.ndarray) -> np.ndarray:
        if np.any(a == 0):
            raise ZeroDivisionError("inverse of zero in GF(p^e)")
        if self.q <= TABLE_CAP:
            return self._tables()[4][np.asarray(a, dtype=np.int64)]
        result = np.ones_like(a)
        base = a
        n = self.q - 2
        while n:
            if n & 1:
                result = self.vec_mul(result, base)
            base = self.vec_mul(base, base)
            n >>= 1
        return result

    def __repr__(self):
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"


# interning, not a job cache: one Field per (p, e) keeps identity checks and
# the per-field tables shared by everything built over that field
_FIELDS: dict[tuple[int, int], Field] = {}


def make_field(p: int, e: int = 1) -> Field:
    """Canonical interned Field for GF(p^e)."""
    key = (p, e)
    if key not in _FIELDS:
        _FIELDS[key] = Field(p, e)
    return _FIELDS[key]


# -- univariate polynomials over a Field ----------------------------------------
#
# The one polynomial family.  Coefficient vectors are little-endian int64
# arrays of codes with no trailing zeros; the zero polynomial is the empty
# array (inputs may be any integer sequence).  Over GF(p) these pick the
# canonical modulus and multiply extension-field scalars; over any field they
# split the minimal polynomials the module decomposer reads.  Everything here
# is exact and seed-threaded where randomized.


def poly_trim(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    nz = np.nonzero(a)[0]
    return a[: nz[-1] + 1] if nz.size else a[:0]


def poly_deg(a: np.ndarray) -> int:
    return len(a) - 1


def poly_add(F: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = max(len(a), len(b))
    out = np.zeros(n, dtype=np.int64)
    out[: len(a)] = a
    out[: len(b)] = F.vec_add(out[: len(b)], np.asarray(b, dtype=np.int64))
    return poly_trim(out)


def poly_sub(F: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = max(len(a), len(b))
    out = np.zeros(n, dtype=np.int64)
    out[: len(a)] = a
    out[: len(b)] = F.vec_sub(out[: len(b)], np.asarray(b, dtype=np.int64))
    return poly_trim(out)


def poly_monic(F: Field, a: np.ndarray) -> np.ndarray:
    a = poly_trim(a)
    if not len(a) or a[-1] == 1:
        return a
    return F.vec_mul(a, np.int64(F.inv(int(a[-1]))))


def poly_mul(F: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = poly_trim(a), poly_trim(b)
    if not len(a) or not len(b):
        return a[:0]
    out = np.zeros(len(a) + len(b) - 1, dtype=np.int64)
    for i, c in enumerate(a):
        if c:
            out[i : i + len(b)] = F.vec_addmul(out[i : i + len(b)], np.int64(int(c)), b)
    return out


def poly_divmod(F: Field, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    b = poly_trim(b)
    if not len(b):
        raise ZeroDivisionError("polynomial division by zero")
    r = poly_trim(a).copy()
    nb = len(b)
    if len(r) < nb:
        return r[:0], r
    li = F.inv(int(b[-1]))
    q = np.zeros(len(r) - nb + 1, dtype=np.int64)
    for i in range(len(r) - nb, -1, -1):
        c = F.mul(int(r[i + nb - 1]), li)
        if c:
            q[i] = c
            r[i : i + nb] = F.vec_submul(r[i : i + nb], np.int64(c), b)
    return poly_trim(q), poly_trim(r[: nb - 1])


def poly_mod(F: Field, a: np.ndarray, f: np.ndarray) -> np.ndarray:
    return poly_divmod(F, a, f)[1]


def poly_gcd(F: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = poly_trim(a), poly_trim(b)
    while len(b):
        a, b = b, poly_mod(F, a, b)
    return poly_monic(F, a)


def poly_powmod(F: Field, a: np.ndarray, n: int, f: np.ndarray) -> np.ndarray:
    result = poly_mod(F, np.array([1], dtype=np.int64), f)
    base = poly_mod(F, a, f)
    while n:
        if n & 1:
            result = poly_mod(F, poly_mul(F, result, base), f)
        n >>= 1
        if n:
            base = poly_mod(F, poly_mul(F, base, base), f)
    return result


def poly_eval(F: Field, a: np.ndarray, c: int) -> int:
    acc = 0
    for coeff in reversed(poly_trim(a)):
        acc = F.add(F.mul(acc, c), int(coeff))
    return acc


def _frobenius_gcds(F: Field, f: np.ndarray):
    """Yield gcd(f, x^(q^i) - x) for i = 1, ..., deg f, for monic f over F.

    The i-th gcd is the product of f's distinct irreducible factors whose
    degree divides i: the distinct-degree loop of Ben-Or (FOCS 1981) and
    Cantor-Zassenhaus (Math. Comp. 36, 1981).
    """
    x = np.array([0, 1], dtype=np.int64)
    r = x
    for _ in range(poly_deg(f)):
        r = poly_powmod(F, r, F.q, f)
        yield poly_gcd(F, f, poly_sub(F, r, x))


def _is_irreducible(f: list[int], p: int) -> bool:
    """Ben-Or test: monic f of degree e is irreducible over GF(p).

    f is reducible exactly when it has an irreducible factor of degree at
    most e/2, that is when one of the first e/2 Frobenius gcds is not 1.
    """
    gcds = _frobenius_gcds(make_field(p), np.array(f, dtype=np.int64))
    return all(poly_deg(g) == 0 for g in itertools.islice(gcds, (len(f) - 1) // 2))


def _canonical_modulus(p: int, e: int) -> tuple[int, ...]:
    """Least monic irreducible of degree e, little-endian coefficient lex.

    The constant term is the most significant coefficient, so candidates
    with it zero (divisible by x) come first and are skipped wholesale.  For
    e >= 2 a candidate with a root in GF(p) has a linear factor, so only
    root-free ones reach the Ben-Or test; the least irreducible is the same.
    """
    if e == 1:
        return (0, 1)
    points = np.arange(1, p, dtype=np.int64)
    for tail in itertools.product(range(1, p), *[range(p)] * (e - 1)):
        f = list(tail) + [1]
        vals = np.zeros_like(points)
        for c in reversed(f):
            vals = (vals * points + c) % p
        if vals.all() and _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError(f"no irreducible of degree {e} over GF({p})")


def extension(small: Field, s: int) -> tuple[Field, np.ndarray]:
    """GF(q^s) and the canonical embedding of `small` in it, as a code table.

    small's defining root goes to the first root of small's modulus among the
    big field's codes in coefficient-lex order; all roots are Galois-conjugate,
    the scan just pins one.  table[a] is then small's code a, as a
    polynomial in that root, evaluated in the big field.
    """
    big = make_field(small.p, small.e * s)
    f = np.array(small.modulus)
    root = next(a for a in big._lex_codes() if poly_eval(big, f, a) == 0)
    table = [poly_eval(big, np.array(small.coeffs(a)), root) for a in range(small.q)]
    return big, np.array(table, dtype=np.int64)


def _poly_saturate(F: Field, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The largest divisor of f all of whose irreducible factors divide g."""
    power = poly_powmod(F, g, max(1, poly_deg(f)), f)
    if not len(power):
        return poly_monic(F, f)
    return poly_gcd(F, f, power)


def _equal_degree_divisor(F: Field, g: np.ndarray, i: int, rng):
    """Proper divisor of squarefree g whose irreducible factors all have degree i.

    Cantor-Zassenhaus randomization; g is guaranteed reducible by the caller,
    so failure after _SPLIT_TRIES draws is a coin-flip miracle reported as None.
    """
    n = poly_deg(g)
    one = np.array([1], dtype=np.int64)
    for _ in range(_SPLIT_TRIES):
        a = poly_trim(rng.integers(0, F.q, size=n).astype(np.int64))
        if poly_deg(a) < 1:
            continue
        d = poly_gcd(F, g, a)
        if 0 < poly_deg(d) < n:
            return d
        if F.p == 2:
            # trace of a into the prime field, computed in F[x]/(g)
            b = poly_mod(F, a, g)
            acc = b
            for _ in range(F.e * i - 1):
                b = poly_mod(F, poly_mul(F, b, b), g)
                acc = poly_add(F, acc, b)
            candidates = (acc,)
        else:
            b = poly_powmod(F, a, (F.q**i - 1) // 2, g)
            candidates = (poly_sub(F, b, one), poly_add(F, b, one))
        for cand in candidates:
            d = poly_gcd(F, g, cand)
            if 0 < poly_deg(d) < n:
                return d
    return None


def poly_coprime_split(F: Field, f: np.ndarray, rng):
    """Split monic f as (u, v) with u*v = f, gcd(u, v) = 1, both nonconstant.

    Returns None when f is a power of a single irreducible (certified, except
    that the equal-degree step is randomized with failure odds ~2^-_SPLIT_TRIES).
    Scans rational roots first, then distinct-degree classes.
    """
    f = poly_monic(F, f)
    n = poly_deg(f)
    if n <= 1:
        return None
    for c in range(F.q):
        if poly_eval(F, f, c) == 0:
            lin = np.array([F.neg(c), 1], dtype=np.int64)
            u = _poly_saturate(F, f, lin)
            if poly_deg(u) == n:
                return None  # f = (x - c)^n
            return u, poly_divmod(F, f, u)[0]
    for i, g in enumerate(_frobenius_gcds(F, f), 1):
        if poly_deg(g) < 1:
            continue
        u = _poly_saturate(F, f, g)
        if poly_deg(u) < n:
            return u, poly_divmod(F, f, u)[0]
        if poly_deg(g) == i:
            return None  # single irreducible factor of degree i
        t = _equal_degree_divisor(F, g, i, rng)
        if t is None:
            return None
        u = _poly_saturate(F, f, t)
        return u, poly_divmod(F, f, u)[0]
    return None
